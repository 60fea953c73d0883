/**
 * @file
 * Tests of the observability layer (src/sim/trace/): Perfetto trace
 * emission, category/window filtering, determinism, the interval stat
 * sampler, and the guarantee that arming a trace never perturbs the
 * simulation itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "sim/check/json.hh"
#include "sim/trace/trace.hh"
#include "soc/run_driver.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

RunResult
runTraced(const TraceOptions &trace, Design d = Design::d1b4VL,
          const std::string &workload = "saxpy")
{
    RunOptions opts;
    opts.trace = trace;
    return runWorkload(d, workload, Scale::tiny, opts);
}

/** Event tracing to @p path, every other option at its default. */
TraceOptions
eventTrace(const std::string &path)
{
    TraceOptions t;
    t.path = path;
    return t;
}

// ------------------------------------------------------- category parse

TEST(TraceCatTest, ParsesNamesAndDefaults)
{
    EXPECT_EQ(parseTraceCats(""), traceCatAll);
    EXPECT_EQ(parseTraceCats("all"), traceCatAll);
    EXPECT_EQ(parseTraceCats("vcu"),
              static_cast<unsigned>(TraceCat::vcu));
    EXPECT_EQ(parseTraceCats("big,lane,dram"),
              static_cast<unsigned>(TraceCat::big) |
                  static_cast<unsigned>(TraceCat::lane) |
                  static_cast<unsigned>(TraceCat::dram));
    EXPECT_THROW(parseTraceCats("nonsense"), SimFatalError);
}

TEST(TraceCatTest, EveryCategoryNameRoundTrips)
{
    for (unsigned bit = 0; bit < 8; ++bit) {
        TraceCat c = static_cast<TraceCat>(1u << bit);
        EXPECT_EQ(parseTraceCats(traceCatName(c)),
                  static_cast<unsigned>(c));
    }
}

// ------------------------------------------------------- armed emission

TEST(TraceTest, ArmedRunWritesValidJsonWithAllTracks)
{
    std::string path = tempPath("bvl_trace_valid.json");
    auto r = runTraced(eventTrace(path));
    ASSERT_TRUE(r.ok()) << r.message;

    Json doc = Json::parse(slurp(path));
    EXPECT_EQ(doc["displayTimeUnit"].asString(), "ns");
    const Json &events = doc["traceEvents"];
    ASSERT_GT(events.size(), 100u);

    std::set<std::string> tracks;
    for (const auto &ev : events.items())
        if (ev["ph"].asString() == "M")
            tracks.insert(ev["args"]["name"].asString());
    // One track per paper component: big core, little cores, the
    // VCU + memory units + ring of the VLITTLE engine, its lanes,
    // every cache, and the DRAM channel.
    for (const char *want :
         {"big", "little0", "little3", "vlittle.vcu", "vlittle.vmiu",
          "vlittle.vmsu0", "vlittle.vmsu3", "vlittle.vlu",
          "vlittle.vsu", "vlittle.vxu", "little0.lane", "little3.lane",
          "big.l1d", "little0.l1d", "l2", "dram"})
        EXPECT_TRUE(tracks.count(want)) << "missing track " << want;

    // Every acceptance-relevant category must actually carry events,
    // not just a registered track.
    std::set<std::string> cats;
    for (const auto &ev : events.items())
        if (ev["ph"].asString() != "M")
            cats.insert(ev["cat"].asString());
    // (vxu only carries events on ring-traffic workloads —
    // reductions and vx reads — so it is not required here.)
    for (const char *want :
         {"big", "vcu", "lane", "vmu", "cache", "dram"})
        EXPECT_TRUE(cats.count(want)) << "no events in category "
                                      << want;

    // Async begin/end events must pair up exactly, per (tid, id).
    std::set<std::pair<std::uint64_t, std::uint64_t>> open;
    for (const auto &ev : events.items()) {
        std::string ph = ev["ph"].asString();
        if (ph != "b" && ph != "e")
            continue;
        auto key = std::make_pair(ev["tid"].asU64(), ev["id"].asU64());
        if (ph == "b") {
            EXPECT_TRUE(open.insert(key).second)
                << "duplicate open async id " << key.second;
        } else {
            EXPECT_EQ(open.erase(key), 1u)
                << "end without begin, id " << key.second;
        }
    }
    EXPECT_TRUE(open.empty()) << open.size() << " unclosed async events";

    std::remove(path.c_str());
}

TEST(TraceTest, CategoryMaskFiltersEvents)
{
    std::string path = tempPath("bvl_trace_cats.json");
    TraceOptions t;
    t.path = path;
    t.categories = parseTraceCats("vcu,dram");
    auto r = runTraced(t);
    ASSERT_TRUE(r.ok()) << r.message;

    Json doc = Json::parse(slurp(path));
    unsigned kept = 0;
    for (const auto &ev : doc["traceEvents"].items()) {
        if (ev["ph"].asString() == "M")
            continue;
        std::string cat = ev["cat"].asString();
        EXPECT_TRUE(cat == "vcu" || cat == "dram") << "leaked " << cat;
        ++kept;
    }
    EXPECT_GT(kept, 0u);
    std::remove(path.c_str());
}

TEST(TraceTest, RingTrafficAppearsOnTheVxuTrack)
{
    // saxpy never touches the exchange ring; reductions (sw's
    // row-max) do. Trace only the vxu category to keep the file tiny.
    std::string path = tempPath("bvl_trace_vxu.json");
    TraceOptions t;
    t.path = path;
    t.categories = parseTraceCats("vxu");
    auto r = runTraced(t, Design::d1b4VL, "sw");
    ASSERT_TRUE(r.ok()) << r.message;

    Json doc = Json::parse(slurp(path));
    unsigned reads = 0, shifts = 0;
    for (const auto &ev : doc["traceEvents"].items()) {
        if (ev["ph"].asString() == "M")
            continue;
        EXPECT_EQ(ev["cat"].asString(), "vxu");
        if (ev["name"].asString() == "ringRead")
            ++reads;
        if (ev["name"].asString() == "ringShift")
            ++shifts;
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GT(shifts, 0u);
    std::remove(path.c_str());
}

TEST(TraceTest, WindowClipsEventsToRequestedRange)
{
    std::string path = tempPath("bvl_trace_window.json");
    TraceOptions t;
    t.path = path;
    t.startNs = 200.0;
    t.stopNs = 600.0;
    auto r = runTraced(t);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_GT(r.ns, 600.0);  // the run extends past the window

    Json doc = Json::parse(slurp(path));
    unsigned kept = 0;
    for (const auto &ev : doc["traceEvents"].items()) {
        if (ev["ph"].asString() == "M")
            continue;
        double ns = ev["ts"].asDouble() * 1000.0;  // ts is in us
        EXPECT_GE(ns, 200.0);
        EXPECT_LE(ns, 600.0);
        ++kept;
    }
    EXPECT_GT(kept, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- determinism

TEST(TraceTest, RerunsProduceByteIdenticalTraces)
{
    std::string p1 = tempPath("bvl_trace_det1.json");
    std::string p2 = tempPath("bvl_trace_det2.json");
    ASSERT_TRUE(runTraced(eventTrace(p1)).ok());
    ASSERT_TRUE(runTraced(eventTrace(p2)).ok());
    std::string a = slurp(p1), b = slurp(p2);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceTest, ArmingDoesNotPerturbTheSimulation)
{
    std::string path = tempPath("bvl_trace_perturb.json");
    auto plain = runTraced({});  // TraceOptions disabled -> no Tracer
    TraceOptions t;
    t.path = path;
    t.samplePath = tempPath("bvl_trace_perturb_samples.json");
    auto traced = runTraced(t);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(traced.ok());
    EXPECT_EQ(plain.ns, traced.ns);
    EXPECT_EQ(plain.stats, traced.stats);
    std::remove(path.c_str());
    std::remove(t.samplePath.c_str());
}

// -------------------------------------------------------------- sampler

TEST(TraceSampleTest, DeltaSumsMatchEndOfRunTotals)
{
    TraceOptions t;
    t.samplePath = tempPath("bvl_trace_samples.json");
    t.sampleIntervalNs = 100.0;
    auto r = runTraced(t);
    ASSERT_TRUE(r.ok()) << r.message;

    Json doc = Json::parse(slurp(t.samplePath));
    EXPECT_EQ(doc["format"].asString(), "bvl-stat-samples-v1");
    EXPECT_EQ(doc["intervalNs"].asDouble(), 100.0);
    ASSERT_GT(doc["samples"].size(), 2u);

    std::map<std::string, std::uint64_t> sums;
    double prevNs = -1.0;
    for (const auto &s : doc["samples"].items()) {
        EXPECT_GT(s["ns"].asDouble(), prevNs);  // strictly increasing
        prevNs = s["ns"].asDouble();
        for (const auto &kv : s["deltas"].members()) {
            EXPECT_GT(kv.second.asU64(), 0u);  // zero deltas elided
            sums[kv.first] += kv.second.asU64();
        }
    }
    // The final (partial) interval is flushed at finish(), so the sum
    // of interval deltas reproduces the end-of-run stat totals.
    for (const auto &kv : sums)
        EXPECT_EQ(kv.second, r.stat(kv.first)) << kv.first;
    for (const char *stat : {"big.fetched", "dram.reads", "l2.misses"})
        EXPECT_TRUE(sums.count(stat)) << "never sampled: " << stat;

    std::remove(t.samplePath.c_str());
}

TEST(TraceSampleTest, CsvSuffixSelectsCsvOutput)
{
    TraceOptions t;
    t.samplePath = tempPath("bvl_trace_samples.csv");
    t.sampleIntervalNs = 250.0;
    ASSERT_TRUE(runTraced(t).ok());

    std::ifstream in(t.samplePath);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.rfind("ns,", 0), 0u);
    EXPECT_NE(header.find("big.fetched"), std::string::npos);
    unsigned rows = 0;
    std::string line;
    while (std::getline(in, line))
        ++rows;
    EXPECT_GT(rows, 2u);
    std::remove(t.samplePath.c_str());
}

// ------------------------------------------------------------ forensics

TEST(TraceTest, RunOptionsTraceRoundTripsThroughForensics)
{
    // TraceOptions ride the replay recipe: write a failure report for
    // a run armed with tracing and read the recipe back.
    std::string report = tempPath("bvl_trace_forensics.json");
    std::string trace = tempPath("bvl_trace_forensics_trace.json");
    RunOptions opts;
    opts.limitNs = 50.0;  // guaranteed time_limit failure
    opts.check.forensicsPath = report;
    opts.trace.path = trace;
    opts.trace.startNs = 12.5;
    opts.trace.stopNs = 80.0;
    opts.trace.categories = parseTraceCats("cache,dram");
    opts.trace.sampleIntervalNs = 42.0;
    auto r = runWorkload(Design::d1b, "vvadd", Scale::tiny, opts);
    ASSERT_EQ(r.status, RunStatus::time_limit);

    Json doc = Json::parse(slurp(report));
    const Json &t = doc["replay"]["options"]["trace"];
    EXPECT_EQ(t["path"].asString(), trace);
    EXPECT_EQ(t["startNs"].asDouble(), 12.5);
    EXPECT_EQ(t["stopNs"].asDouble(), 80.0);
    EXPECT_EQ(t["categories"].asU64(), parseTraceCats("cache,dram"));
    EXPECT_EQ(t["sampleIntervalNs"].asDouble(), 42.0);
    // A failed run still gets a complete, parseable trace (the footer
    // is flushed on every exit path).
    Json traceDoc = Json::parse(slurp(trace));
    EXPECT_GT(traceDoc["traceEvents"].size(), 0u);
    std::remove(report.c_str());
    std::remove(trace.c_str());
}

} // namespace
} // namespace bvl
