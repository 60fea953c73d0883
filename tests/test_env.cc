/**
 * @file
 * Strict environment-variable parsing tests (sim/env.hh): every BVL_*
 * knob must reject a malformed value with a one-line actionable fatal
 * instead of silently running with a default the user did not ask
 * for. Each shipped variable — BVL_JOBS, BVL_SWEEP_ISOLATE, BVL_SCALE
 * — gets its own regression through the code path that consumes it.
 * The free-form path variables a sweep's journal and cache follow are
 * checked through sweepServiceOptionsFromEnv.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/env.hh"
#include "sweep/service/service.hh"
#include "sweep/sweep_runner.hh"

namespace bvl
{
namespace
{

/** RAII env var override; restores the previous value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::string saved_;
    bool had_ = false;
};

/** The fatal's message, so tests can assert it is actionable. */
std::string
fatalMessage(const std::function<void()> &f)
{
    try {
        f();
    } catch (const SimFatalError &e) {
        return e.what();
    }
    return "";
}

// --- envInt ------------------------------------------------------------

TEST(EnvParseTest, EnvIntParsesAndFallsBack)
{
    {
        ScopedEnv e("BVL_TEST_INT", nullptr);
        EXPECT_EQ(envInt("BVL_TEST_INT", 7, 1, 100), 7);
    }
    ScopedEnv e("BVL_TEST_INT", "42");
    EXPECT_EQ(envInt("BVL_TEST_INT", 7, 1, 100), 42);
}

TEST(EnvParseTest, EnvIntRejectsGarbage)
{
    for (const char *bad : {"4x", "", " 4", "1e3", "0x10",
                            "99999999999999999999999"}) {
        ScopedEnv e("BVL_TEST_INT", bad);
        EXPECT_THROW(envInt("BVL_TEST_INT", 7, 1, 100), SimFatalError)
            << "accepted '" << bad << "'";
    }
    // Out of range is rejected too, not clamped.
    ScopedEnv lo("BVL_TEST_INT", "0");
    EXPECT_THROW(envInt("BVL_TEST_INT", 7, 1, 100), SimFatalError);
}

// --- envBool01 ---------------------------------------------------------

TEST(EnvParseTest, EnvBool01ParsesAndFallsBack)
{
    {
        ScopedEnv e("BVL_TEST_BOOL", nullptr);
        EXPECT_TRUE(envBool01("BVL_TEST_BOOL", true));
        EXPECT_FALSE(envBool01("BVL_TEST_BOOL", false));
    }
    ScopedEnv on("BVL_TEST_BOOL", "1");
    EXPECT_TRUE(envBool01("BVL_TEST_BOOL", false));
    ScopedEnv off("BVL_TEST_BOOL", "0");
    EXPECT_FALSE(envBool01("BVL_TEST_BOOL", true));
}

TEST(EnvParseTest, EnvBool01RejectsWords)
{
    for (const char *bad : {"yes", "true", "on", "", "2"}) {
        ScopedEnv e("BVL_TEST_BOOL", bad);
        EXPECT_THROW(envBool01("BVL_TEST_BOOL", false), SimFatalError)
            << "accepted '" << bad << "'";
    }
}

// --- envChoice ---------------------------------------------------------

TEST(EnvParseTest, EnvChoiceParsesAndFallsBack)
{
    {
        ScopedEnv e("BVL_TEST_CHOICE", nullptr);
        EXPECT_EQ(envChoice("BVL_TEST_CHOICE", {"a", "b"}, -1), -1);
    }
    ScopedEnv e("BVL_TEST_CHOICE", "b");
    EXPECT_EQ(envChoice("BVL_TEST_CHOICE", {"a", "b"}, -1), 1);
}

TEST(EnvParseTest, EnvChoiceErrorListsLegalValues)
{
    ScopedEnv e("BVL_TEST_CHOICE", "c");
    std::string msg = fatalMessage([] {
        envChoice("BVL_TEST_CHOICE", {"a", "b"}, -1);
    });
    // Actionable: names the variable, the legal values, and what the
    // user actually typed.
    EXPECT_NE(msg.find("BVL_TEST_CHOICE"), std::string::npos) << msg;
    EXPECT_NE(msg.find("a|b"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'c'"), std::string::npos) << msg;
}

// --- BVL_JOBS (sweep_runner.cc) ----------------------------------------

TEST(EnvParseTest, JobsVariableIsStrict)
{
    {
        ScopedEnv e("BVL_JOBS", "3");
        EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    }
    {
        ScopedEnv e("BVL_JOBS", nullptr);
        EXPECT_GE(SweepRunner::defaultJobs(), 1u);
    }
    for (const char *bad : {"4x", "0", "-1", "", "many"}) {
        ScopedEnv e("BVL_JOBS", bad);
        EXPECT_THROW(SweepRunner::defaultJobs(), SimFatalError)
            << "accepted BVL_JOBS='" << bad << "'";
    }
    ScopedEnv e("BVL_JOBS", "4x");
    std::string msg =
        fatalMessage([] { SweepRunner::defaultJobs(); });
    EXPECT_NE(msg.find("BVL_JOBS"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'4x'"), std::string::npos) << msg;
}

// --- BVL_SWEEP_ISOLATE (service.cc) ------------------------------------

TEST(EnvParseTest, SweepIsolateVariableIsStrict)
{
    SweepServiceOptions opts;
    opts.jobs = 1;
    {
        ScopedEnv e("BVL_SWEEP_ISOLATE", "1");
        SweepService svc(opts);
        EXPECT_TRUE(svc.options().isolate);
    }
    {
        ScopedEnv e("BVL_SWEEP_ISOLATE", "0");
        SweepService svc(opts);
        EXPECT_FALSE(svc.options().isolate);
    }
    for (const char *bad : {"yes", "true", "2", ""}) {
        ScopedEnv e("BVL_SWEEP_ISOLATE", bad);
        EXPECT_THROW(SweepService svc(opts), SimFatalError)
            << "accepted BVL_SWEEP_ISOLATE='" << bad << "'";
    }
}

// --- BVL_SCALE (bench/bench_util.hh chosenScale) -----------------------

TEST(EnvParseTest, ScaleVariableIsStrict)
{
    // The exact call bench_util.hh's chosenScale() makes.
    auto scaleIndex = [] {
        return envChoice("BVL_SCALE", EnumNames<Scale>::names, -1);
    };
    {
        ScopedEnv e("BVL_SCALE", nullptr);
        EXPECT_EQ(scaleIndex(), -1);
    }
    {
        ScopedEnv e("BVL_SCALE", "medium");
        EXPECT_EQ(scaleIndex(), 2);
    }
    for (const char *bad : {"Small", "large", "", "tiny "}) {
        ScopedEnv e("BVL_SCALE", bad);
        EXPECT_THROW(scaleIndex(), SimFatalError)
            << "accepted BVL_SCALE='" << bad << "'";
    }
    ScopedEnv e("BVL_SCALE", "large");
    std::string msg = fatalMessage(scaleIndex);
    EXPECT_NE(msg.find("tiny|small|medium"), std::string::npos) << msg;
}

// --- sweep journal and cache (sweepServiceOptionsFromEnv) -------------

TEST(EnvParseTest, SweepServiceOptionsFollowJournalAndCacheVariables)
{
    ScopedEnv dir("BVL_SWEEP_DIR", nullptr);
    ScopedEnv cache("BVL_CACHE_DIR", nullptr);
    {
        ScopedEnv j("BVL_SWEEP_JOURNAL", nullptr);
        auto o = sweepServiceOptionsFromEnv("fig");
        EXPECT_EQ(o.journalPath, ".bvl-sweep/fig.journal.jsonl");
        EXPECT_EQ(o.cacheDir, "");
    }
    {
        ScopedEnv j("BVL_SWEEP_JOURNAL", "1");
        ScopedEnv d("BVL_SWEEP_DIR", "sweeps");
        EXPECT_EQ(sweepServiceOptionsFromEnv("fig").journalPath,
                  "sweeps/fig.journal.jsonl");
    }
    {
        ScopedEnv j("BVL_SWEEP_JOURNAL", "0");
        EXPECT_EQ(sweepServiceOptionsFromEnv("fig").journalPath, "");
    }
    {
        ScopedEnv j("BVL_SWEEP_JOURNAL", "elsewhere/run.jsonl");
        ScopedEnv c("BVL_CACHE_DIR", "results");
        auto o = sweepServiceOptionsFromEnv("fig");
        EXPECT_EQ(o.journalPath, "elsewhere/run.jsonl");
        EXPECT_EQ(o.cacheDir, "results");
    }
}

} // namespace
} // namespace bvl
