/**
 * @file
 * Workload-suite tests.
 *
 * The heart of the reproduction's validation: every workload runs
 * functionally correctly under full timing simulation on every
 * design (parameterized over the workload x 7-design matrix at tiny
 * scale), a pinned digest of every workload's program layout, plus
 * host-reference checks of the shared polynomial approximations and
 * graph substrate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "isa/arch_state.hh"
#include "soc/run_driver.hh"
#include "soc/run_io.hh"
#include "sweep/service/digest.hh"
#include "workloads/common.hh"
#include "workloads/graph.hh"
#include "workloads/progutil.hh"

namespace bvl
{
namespace
{

// ------------------------------------------------------------------
// Full matrix: workload x design, tiny scale, verified.
// ------------------------------------------------------------------

using MatrixParam = std::tuple<std::string, Design>;

class WorkloadMatrixTest
    : public ::testing::TestWithParam<MatrixParam>
{};

TEST_P(WorkloadMatrixTest, RunsAndVerifies)
{
    const auto &[name, design] = GetParam();
    auto w = makeWorkload(name, Scale::tiny);
    ASSERT_NE(w, nullptr);
    RunOptions opts;
    opts.limitNs = 5e7;
    auto r = runWorkload(design, *w, opts);
    EXPECT_TRUE(r.finished) << name << " timed out on "
                            << designName(design);
    EXPECT_TRUE(r.verified) << name << " wrong results on "
                            << designName(design);
    EXPECT_GT(r.ns, 0.0);
}

std::vector<MatrixParam>
matrix()
{
    std::vector<MatrixParam> params;
    for (const auto &name : allWorkloadNames())
        for (Design d : {Design::d1L, Design::d1b, Design::d1bIV,
                         Design::d1b4L, Design::d1bIV4L, Design::d1bDV,
                         Design::d1b4VL})
            params.emplace_back(name, d);
    return params;
}

std::string
matrixName(const ::testing::TestParamInfo<MatrixParam> &info)
{
    std::string s = std::get<0>(info.param);
    s += "_";
    s += designName(std::get<1>(info.param));
    for (auto &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, WorkloadMatrixTest,
                         ::testing::ValuesIn(matrix()), matrixName);

// ------------------------------------------------------------------
// Stat-registry parity after a full run: every counter is incremented
// through an interned StatHandle, and must still be visible under its
// dotted name with self-consistent totals.
// ------------------------------------------------------------------

TEST(StatParityTest, HandleCountersVisibleByNameAfterRun)
{
    auto r = runWorkload(Design::d1b4L, "vvadd", Scale::tiny);
    ASSERT_TRUE(r.ok());
    const auto &s = r.stats;
    auto val = [&](const std::string &n) -> std::uint64_t {
        auto it = s.find(n);
        return it == s.end() ? 0 : it->second;
    };

    // The run did real work and the counters saw it.
    EXPECT_GT(val("big.retired"), 0u);
    EXPECT_GT(val("l2.accesses"), 0u);
    EXPECT_GT(val("dram.reads"), 0u);

    // Every cache access resolves as exactly one hit or miss.
    for (const char *c : {"big.l1i", "big.l1d", "l2"})
        EXPECT_EQ(val(std::string(c) + ".accesses"),
                  val(std::string(c) + ".hits") +
                      val(std::string(c) + ".misses"))
            << c;

    // Every little-core cycle is accounted to exactly one stall cause.
    for (int i = 0; i < 4; ++i) {
        std::string p = "little" + std::to_string(i) + ".";
        std::uint64_t stalls = 0;
        for (const auto &kv : s)
            if (kv.first.rfind(p + "stall.", 0) == 0)
                stalls += kv.second;
        EXPECT_GT(val(p + "cycles"), 0u) << p;
        EXPECT_EQ(val(p + "cycles"), stalls) << p;
    }
}

// ------------------------------------------------------------------
// Cross-design performance-shape properties (tiny scale).
// ------------------------------------------------------------------

TEST(WorkloadShapeTest, VectorEnginesBeatScalarBigOnSaxpy)
{
    RunOptions opts;
    double t1b = runWorkload(Design::d1b, "saxpy", Scale::tiny, opts).ns;
    double tdv =
        runWorkload(Design::d1bDV, "saxpy", Scale::tiny, opts).ns;
    EXPECT_LT(tdv, t1b);
}

TEST(WorkloadShapeTest, MultiCoreBeatsSingleLittleOnGraphs)
{
    double t1 = runWorkload(Design::d1L, "pagerank", Scale::tiny).ns;
    double t5 = runWorkload(Design::d1b4L, "pagerank", Scale::tiny).ns;
    EXPECT_LT(t5, t1);
}

// A Ligra app has no vector code, so vector support must cost it
// nothing (paper Section V-A): 1bIV and 1bDV run it exactly as 1b
// does, and 1bIV-4L and big.VLITTLE exactly as big.LITTLE does. Same
// time to the cycle and every counter equal, a counter one design
// lacks reading as 0.
class TaskParallelShapeTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(TaskParallelShapeTest, TaskParallelIdenticalOn4VLAnd4L)
{
    const std::string &app = GetParam();
    const Design classes[2][3] = {
        {Design::d1b, Design::d1bIV, Design::d1bDV},
        {Design::d1b4L, Design::d1bIV4L, Design::d1b4VL}};
    for (const auto &designs : classes) {
        RunResult base = runWorkload(designs[0], app, Scale::tiny);
        ASSERT_TRUE(base.ok()) << app << ": " << base.message;
        for (Design d : {designs[1], designs[2]}) {
            RunResult r = runWorkload(d, app, Scale::tiny);
            ASSERT_TRUE(r.ok()) << app << " on " << designName(d);
            EXPECT_EQ(r.ns, base.ns) << app << " on " << designName(d);
            std::set<std::string> keys;
            for (const auto *run : {&base, &r})
                for (const auto &kv : run->stats)
                    keys.insert(kv.first);
            for (const auto &k : keys)
                EXPECT_EQ(r.stat(k), base.stat(k))
                    << app << ": " << k << " on " << designName(d)
                    << " vs " << designName(designs[0]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ligra, TaskParallelShapeTest,
    ::testing::ValuesIn(workloadNames(Suite::taskParallel)),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(WorkloadShapeTest, LittleStallBreakdownAccountsAllCycles)
{
    auto r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny);
    for (unsigned l = 0; l < 4; ++l) {
        std::string pre = "little" + std::to_string(l) + ".";
        std::uint64_t sum = 0;
        for (auto c : {"busy", "simd", "raw_mem", "raw_llfu", "struct",
                       "xelem", "misc"})
            sum += r.stat(pre + "stall." + c);
        EXPECT_EQ(sum, r.stat(pre + "cycles")) << "lane " << l;
    }
}

TEST(WorkloadShapeTest, LongerVectorsFetchFewerInstructions)
{
    auto iv = runWorkload(Design::d1bIV, "vvadd", Scale::tiny);
    auto dv = runWorkload(Design::d1bDV, "vvadd", Scale::tiny);
    EXPECT_LT(dv.stat("big.fetched") * 2, iv.stat("big.fetched"));
}

TEST(WorkloadShapeTest, BoostingBigCoreHelpsSwMoreThanVvadd)
{
    // Paper Section VII: sw's scalar per-diagonal control runs on the
    // big core, so boosting the big core speeds sw up noticeably; for
    // dense kernels the engine does the work and the big core's speed
    // barely matters.
    auto gainFromBigBoost = [](const char *name) {
        RunOptions slow, fast;
        slow.bigGhz = 0.8;
        fast.bigGhz = 1.4;
        double t_slow =
            runWorkload(Design::d1b4VL, name, Scale::small, slow).ns;
        double t_fast =
            runWorkload(Design::d1b4VL, name, Scale::small, fast).ns;
        return t_slow / t_fast;
    };
    double swGain = gainFromBigBoost("sw");
    double vvGain = gainFromBigBoost("vvadd");
    EXPECT_GT(swGain, 1.05);
    EXPECT_GT(swGain, vvGain);
}

// ------------------------------------------------------------------
// Program layout: the name, text base and code of every program the
// driver can ask any workload for, at every scale. A text base picks
// the L2 set of every instruction fetch, so the order a workload
// builds its programs in is part of the simulated result. Each entry
// point gets a fresh, initialized instance, as in a driver run.
// ------------------------------------------------------------------

/** Append @p prog to @p text the first time it is seen. */
void
appendProgram(std::string &text, std::set<const Program *> &seen,
              const ProgramPtr &prog)
{
    if (!prog || !seen.insert(prog.get()).second)
        return;
    text += prog->name() + " @" + std::to_string(prog->textBase()) +
            "\n" + prog->toString();
}

/** Append each task's programs and argument registers. */
void
appendTaskGraph(std::string &text, std::set<const Program *> &seen,
                const TaskGraph &graph)
{
    for (const auto &phase : graph.phases) {
        text += "phase\n";
        for (const auto &task : phase.tasks) {
            appendProgram(text, seen, task.scalar);
            appendProgram(text, seen, task.vector);
            for (const auto &[reg, value] : task.args)
                text += regName(reg) + "=" + std::to_string(value) + " ";
            text += "\n";
        }
    }
}

TEST(WorkloadLayoutTest, EveryProgramOfEveryWorkloadIsPinned)
{
    Sha256 sha;
    for (Scale scale : {Scale::tiny, Scale::small, Scale::medium}) {
        for (const auto &row : workloadTable()) {
            for (int entry = 0; entry < 3; ++entry) {
                auto w = row.make(scale);
                BackingStore mem;
                w->init(mem);
                std::string text = std::string(row.name) + " " +
                                   scaleName(scale) + " " +
                                   std::to_string(entry) + "\n";
                std::set<const Program *> seen;
                if (entry == 0)
                    appendProgram(text, seen, w->scalarProgram());
                else if (entry == 1)
                    appendProgram(text, seen, w->vectorProgram());
                else
                    appendTaskGraph(text, seen, w->taskGraph());
                sha.update(text.data(), text.size());
            }
        }
    }
    EXPECT_EQ(
        sha.hex(),
        "ecbc1ce5e22465b617dc395745c674461d160e36c518542ece76ce6552e1311e");
}

// bfs and bc keep per-level frontier addresses; a driver may ask for
// the task graph of a workload it has not initialized yet (or has
// initialized more than once), and must get the same tasks.
TEST(WorkloadTaskGraphTest, FrontierAppsNeedNoInitBeforeTaskGraph)
{
    for (const char *name : {"bfs", "bc"}) {
        auto w = makeWorkload(name, Scale::tiny);
        TaskGraph before = w->taskGraph();
        BackingStore mem;
        w->init(mem);
        w->init(mem);
        TaskGraph after = w->taskGraph();
        ASSERT_EQ(before.phases.size(), after.phases.size()) << name;
        ASSERT_GT(before.totalTasks(), 0u) << name;
        for (std::size_t p = 0; p < before.phases.size(); ++p) {
            const auto &tb = before.phases[p].tasks;
            const auto &ta = after.phases[p].tasks;
            ASSERT_EQ(tb.size(), ta.size()) << name << " phase " << p;
            for (std::size_t t = 0; t < tb.size(); ++t) {
                EXPECT_EQ(tb[t].scalar, ta[t].scalar) << name;
                EXPECT_EQ(tb[t].args, ta[t].args)
                    << name << " phase " << p << " task " << t;
            }
        }
    }
}

// kmeans accepts a point's cluster only within epsilon of its nearest
// centroid: moving one assignment to a farther centroid must fail
// verify, at tiny and at medium.
TEST(WorkloadVerifyTest, KmeansRejectsAFartherCentroid)
{
    for (Scale scale : {Scale::tiny, Scale::medium}) {
        auto w = makeWorkload("kmeans", scale);
        BackingStore mem;
        w->init(mem);
        ArchState arch(512);
        arch.seed(w->fullRangeArgs());
        runFunctional(arch, *w->vectorProgram(), mem);
        ASSERT_TRUE(w->verify(mem)) << scaleName(scale);
        const Addr slot = regionC + 4 * 7;   // point 7's assignment
        const auto got = mem.readT<std::int32_t>(slot);
        unsigned rejected = 0;
        for (std::int32_t c = 0; c < 8; ++c) {
            mem.writeT<std::int32_t>(slot, c);
            rejected += !w->verify(mem);
        }
        mem.writeT<std::int32_t>(slot, got);
        EXPECT_TRUE(w->verify(mem)) << scaleName(scale);
        // Only the nearest centroids (and exact ties) pass.
        EXPECT_GE(rejected, 6u) << scaleName(scale);
    }
}

// ------------------------------------------------------------------
// Shared helpers: polynomials and graph substrate.
// ------------------------------------------------------------------

TEST(ProgutilTest, PolyExpTracksExpInRange)
{
    for (double x = -2.0; x <= 1.5; x += 0.25) {
        float approx = hostPolyExp(static_cast<float>(x));
        float exact = std::exp(static_cast<float>(x));
        EXPECT_NEAR(approx, exact, 0.25f + 0.1f * std::fabs(exact))
            << "x=" << x;
    }
}

TEST(ProgutilTest, PolyCndIsSigmoidShaped)
{
    // The degree-4 exp polynomial is only accurate for |arg| <~ 2,
    // i.e. |x| <~ 1.2 for the CND; the workloads keep their inputs in
    // that range (at-the-money options, normalized activations).
    EXPECT_NEAR(hostPolyCnd(0.0f), 0.5f, 1e-3f);
    EXPECT_GT(hostPolyCnd(1.0f), 0.75f);
    EXPECT_LT(hostPolyCnd(-1.0f), 0.25f);
    float prev = hostPolyCnd(-1.0f);
    for (float x = -0.9f; x <= 0.9f; x += 0.1f) {
        float cur = hostPolyCnd(x);
        EXPECT_GE(cur, prev) << "x=" << x;
        prev = cur;
    }
}

TEST(GraphTest, CsrIsConsistent)
{
    auto g = HostGraph::random(500, 6);
    EXPECT_EQ(g.n, 500u);
    EXPECT_EQ(g.outOffs.size(), 501u);
    EXPECT_EQ(g.outOffs[500], g.outTgts.size());
    EXPECT_EQ(g.inOffs[500], g.inTgts.size());
    EXPECT_EQ(g.outTgts.size(), g.inTgts.size());
    // transpose preserves edge multiset
    std::uint64_t outSum = 0, inSum = 0;
    for (unsigned v = 0; v < g.n; ++v) {
        for (unsigned e = g.outOffs[v]; e < g.outOffs[v + 1]; ++e)
            outSum += std::uint64_t(v) * 1000003 + g.outTgts[e];
        for (unsigned e = g.inOffs[v]; e < g.inOffs[v + 1]; ++e)
            inSum += std::uint64_t(g.inTgts[e]) * 1000003 + v;
    }
    EXPECT_EQ(outSum, inSum);
}

TEST(GraphTest, AdjacencyListsAreSorted)
{
    auto g = HostGraph::random(300, 8);
    for (unsigned v = 0; v < g.n; ++v)
        for (unsigned e = g.outOffs[v]; e + 1 < g.outOffs[v + 1]; ++e)
            EXPECT_LT(g.outTgts[e], g.outTgts[e + 1]);
}

TEST(GraphTest, BfsLevelsAreParentPlusOne)
{
    auto g = HostGraph::random(400, 8);
    auto level = g.bfsLevels(0);
    EXPECT_EQ(level[0], 0);
    for (unsigned u = 0; u < g.n; ++u) {
        if (level[u] < 0)
            continue;
        for (unsigned e = g.outOffs[u]; e < g.outOffs[u + 1]; ++e) {
            auto v = g.outTgts[e];
            ASSERT_GE(level[v], 0);
            EXPECT_LE(level[v], level[u] + 1);
        }
    }
}

TEST(GraphTest, MisIsIndependentAndMaximal)
{
    auto g = HostGraph::random(300, 6);
    auto [status, rounds] = g.mis();
    auto neighborInMis = [&](unsigned v) {
        for (unsigned e = g.inOffs[v]; e < g.inOffs[v + 1]; ++e)
            if (status[g.inTgts[e]] == 1)
                return true;
        for (unsigned e = g.outOffs[v]; e < g.outOffs[v + 1]; ++e)
            if (status[g.outTgts[e]] == 1)
                return true;
        return false;
    };
    for (unsigned v = 0; v < g.n; ++v) {
        ASSERT_NE(status[v], 0) << "undecided vertex after " << rounds;
        if (status[v] == 1)
            EXPECT_FALSE(neighborInMis(v)) << v;   // independence
        else
            EXPECT_TRUE(neighborInMis(v)) << v;    // maximality
    }
}

TEST(GraphTest, ComponentsLabelsAreFixpoint)
{
    auto g = HostGraph::random(300, 4);
    auto [labels, iters] = g.components();
    for (unsigned v = 0; v < g.n; ++v) {
        for (unsigned e = g.outOffs[v]; e < g.outOffs[v + 1]; ++e)
            EXPECT_EQ(labels[v], labels[g.outTgts[e]]);
    }
    EXPECT_GE(iters, 1u);
}

TEST(GraphTest, PagerankMassApproximatelyConserved)
{
    auto g = HostGraph::random(400, 8);
    auto rank = g.pagerank(5);
    double sum = 0;
    for (auto r : rank)
        sum += r;
    // Dangling-vertex leakage keeps this below 1, but it must stay a
    // sane distribution.
    EXPECT_GT(sum, 0.2);
    EXPECT_LT(sum, 1.2);
}

} // namespace
} // namespace bvl
