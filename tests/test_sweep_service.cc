/**
 * @file
 * Crash-safe sweep service tests (DESIGN.md §14): canonical job
 * hashing, exact RunOptions/RunResult serialization, write-ahead
 * journal durability and torn-tail tolerance, content-addressed cache
 * integrity, deterministic retry backoff, graceful stop, retry and
 * quarantine supervision, collision-free forensics naming, wall-clock
 * deadlines, and real SIGKILL worker loss in subprocess-isolation
 * mode.
 *
 * Naming keys the ctest label partition: SweepServiceConcurrencyTest
 * and SweepServiceFarmConcurrencyTest run under ThreadSanitizer with
 * the other concurrency suites, while SweepServiceTest /
 * SweepServiceIsolateTest stay in the unit label (the isolate suite
 * forks, which TSan cannot follow).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "sim/check/forensics.hh"
#include "soc/checkpoint_farm.hh"
#include "soc/run_io.hh"
#include "vector/engine_presets.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/job_hash.hh"
#include "sweep/service/journal.hh"
#include "sweep/service/result_cache.hh"
#include "sweep/service/service.hh"

namespace bvl
{
namespace
{

/** Fresh scratch directory per test, under the gtest temp root. */
std::string
scratchDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "bvl_sweep_" + tag + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SweepJob
vvaddJob()
{
    return {Design::d1b4VL, "vvadd", Scale::tiny, {}};
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    // Serialized equality is the property the journal and cache rely
    // on: it covers every field, including stats and ns, exactly.
    EXPECT_EQ(runResultToJson(a).dump(0), runResultToJson(b).dump(0));
}

// --- canonical job hash ------------------------------------------------

TEST(SweepServiceTest, JobHashIsStableAndSensitive)
{
    SweepJob job = vvaddJob();
    std::string h = jobHashHex(job);
    EXPECT_EQ(h.size(), 64u);
    EXPECT_EQ(h, jobHashHex(job));

    SweepJob other = job;
    other.workload = "saxpy";
    EXPECT_NE(jobHashHex(other), h);

    other = job;
    other.design = Design::d1L;
    EXPECT_NE(jobHashHex(other), h);

    other = job;
    other.scale = Scale::small;
    EXPECT_NE(jobHashHex(other), h);

    other = job;
    other.opts.bigGhz = 0.5;
    EXPECT_NE(jobHashHex(other), h);

    // Engine overrides change simulated behavior, so they must change
    // the hash (fig07/fig08/ablation sweep the same design+workload
    // under different engines).
    other = job;
    other.opts.engineOverride = VEngineParams{};
    EXPECT_NE(jobHashHex(other), h);
}

TEST(SweepServiceTest, JobHashIgnoresEngineSettingsTheSocDecides)
{
    // Older documents gave the engine override a name, a lane prefix
    // and FU latencies. The SoC names the engine after its memory path
    // and gives its lanes the little cores' latencies, so those keys
    // change nothing simulated and must not change the hash.
    auto hashOf = [](const std::string &engine) {
        SweepJob job = vvaddJob();
        job.opts = runOptionsFromJson(
            Json::parse(R"({"engineOverride":)" + engine + "}"));
        return jobHashHex(job);
    };
    std::string h = hashOf(R"({"chimes":2})");
    EXPECT_EQ(hashOf(R"({"chimes":2,"fu":{"intAlu":3,"fpDiv":20}})"), h);
    EXPECT_EQ(hashOf(R"({"name":"ablate","chimes":2})"), h);
    EXPECT_EQ(hashOf(R"({"lanePrefix":"lane","chimes":2})"), h);
    EXPECT_NE(hashOf(R"({"chimes":3})"), h);
}

TEST(SweepServiceTest, JobHashIgnoresOutputPathsAndWallDeadline)
{
    SweepJob job = vvaddJob();
    std::string h = jobHashHex(job);

    // Where a trace or forensics report lands doesn't change the
    // simulation; neither does the host-time budget.
    SweepJob decorated = job;
    decorated.opts.trace.samplePath = "/tmp/x.csv";
    decorated.opts.check.forensicsPath = "/tmp/f.json";
    decorated.opts.wallDeadlineSec = 5.0;
    EXPECT_EQ(jobHashHex(decorated), h);

    // ...but an armed trace file does make the job uncacheable: its
    // side-effect output cannot be replayed from a journal.
    EXPECT_TRUE(jobCacheable(job));
    SweepJob traced = job;
    traced.opts.trace.path = "/tmp/t.json";
    EXPECT_FALSE(jobCacheable(traced));
}

TEST(SweepServiceTest, JobHashTracksSamplingAndCheckpointDepthNotPaths)
{
    SweepJob job = vvaddJob();
    std::string h = jobHashHex(job);

    // Sampling changes which windows are measured, hence the result.
    SweepJob sampled = job;
    sampled.opts.sampling.ffInsts = 1000;
    sampled.opts.sampling.warmupInsts = 100;
    sampled.opts.sampling.detailInsts = 500;
    sampled.opts.sampling.periods = 4;
    EXPECT_NE(jobHashHex(sampled), h);
    EXPECT_TRUE(jobCacheable(sampled));

    // The fast-forward depth changes where detailed timing starts.
    SweepJob deep = job;
    deep.opts.checkpoint.ffInsts = 500;
    EXPECT_NE(jobHashHex(deep), h);

    // A checkpoint file's location is plumbing, not semantics: a
    // restored run is byte-identical to the run that produced it, so
    // the path must not change the hash — but it does make the job
    // uncacheable (the run must actually restore or publish it).
    SweepJob filed = deep;
    filed.opts.checkpoint.path = "/tmp/ck.bvl";
    EXPECT_EQ(jobHashHex(filed), jobHashHex(deep));
    EXPECT_FALSE(jobCacheable(filed));

    // The farm only changes HOW the prefix state is obtained (shared
    // entry vs cold re-simulation), never the simulated result — a
    // warm farm rerun must keep hitting the same journal rows as the
    // cold sweep that wrote them.
    SweepJob farmed = deep;
    farmed.opts.checkpoint.farm = true;
    farmed.opts.checkpoint.farmDir = "/tmp/farm";
    EXPECT_EQ(jobHashHex(farmed), jobHashHex(deep));
    EXPECT_TRUE(jobCacheable(farmed));
}

// --- exact serialization round-trip ------------------------------------

TEST(SweepServiceTest, RunOptionsRoundTripIsExact)
{
    RunOptions opts;
    opts.limitNs = 123456.75;
    opts.bigGhz = 2.7182818284590452;
    opts.watchdog = true;
    opts.wallDeadlineSec = 1.5;
    opts.check.lockstep = true;
    opts.engineOverride = VEngineParams{};
    opts.engineOverride->chimes = 3;

    Json j = runOptionsToJson(opts);
    RunOptions back = runOptionsFromJson(Json::parse(j.dump(0)));
    EXPECT_EQ(runOptionsToJson(back).dump(0), j.dump(0));
    ASSERT_TRUE(back.engineOverride.has_value());
    EXPECT_EQ(back.engineOverride->chimes, 3u);
    EXPECT_EQ(back.bigGhz, opts.bigGhz);
}

TEST(SweepServiceTest, RunStatusNamesAreExhaustiveAndRoundTrip)
{
    // Iterates the enum by count: every status has one distinct name
    // in the EnumNames table that run_io writes, and it parses back.
    std::set<std::string> seen;
    for (unsigned i = 0; i < numRunStatuses; ++i) {
        auto s = static_cast<RunStatus>(i);
        std::string name = runStatusName(s);
        EXPECT_NE(name, "?") << "RunStatus " << i << " is unnamed; "
                             << "extend runStatusName()";
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate status name '" << name << "'";
        EXPECT_EQ(runStatusFromName(name), s);
    }
    // ...and the value past the end is unnamed.
    EXPECT_STREQ(runStatusName(static_cast<RunStatus>(numRunStatuses)),
                 "?");
    EXPECT_FALSE(runStatusFromName("no-such-status"));
}

TEST(SweepServiceTest, RunOptionsEveryFieldRoundTripsExactly)
{
    // Every RunOptions field set to a non-default value, including the
    // PR-7 sampling and checkpoint blocks: the serialized form must
    // reproduce the struct exactly, or journal replay and job hashing
    // silently diverge.
    RunOptions opts;
    opts.bigGhz = 2.25;
    opts.littleGhz = 0.8125;
    opts.engineOverride = VEngineParams{};
    opts.engineOverride->chimes = 2;
    opts.limitNs = 777.5;
    opts.verifyResult = false;
    opts.watchdog = false;
    opts.watchdogIntervalNs = 5000.0;
    opts.wallDeadlineSec = 9.25;
    opts.check.lockstep = true;
    opts.trace.path = "/tmp/trace.json";
    opts.trace.samplePath = "/tmp/sample.csv";
    opts.sampling.ffInsts = 20000;
    opts.sampling.warmupInsts = 1000;
    opts.sampling.detailInsts = 4000;
    opts.sampling.periods = 8;
    opts.checkpoint.path = "/tmp/ck.bvl";
    opts.checkpoint.ffInsts = 12345;
    opts.checkpoint.farm = true;
    opts.checkpoint.farmDir = "/tmp/farm";

    Json j = runOptionsToJson(opts);
    RunOptions back = runOptionsFromJson(Json::parse(j.dump(0)));
    EXPECT_EQ(runOptionsToJson(back).dump(0), j.dump(0));
    EXPECT_EQ(back.sampling.ffInsts, 20000u);
    EXPECT_EQ(back.sampling.warmupInsts, 1000u);
    EXPECT_EQ(back.sampling.detailInsts, 4000u);
    EXPECT_EQ(back.sampling.periods, 8u);
    EXPECT_TRUE(back.sampling.enabled());
    EXPECT_EQ(back.checkpoint.path, "/tmp/ck.bvl");
    EXPECT_EQ(back.checkpoint.ffInsts, 12345u);
    EXPECT_TRUE(back.checkpoint.farm);
    EXPECT_EQ(back.checkpoint.farmDir, "/tmp/farm");
    EXPECT_FALSE(back.verifyResult);
    EXPECT_FALSE(back.watchdog);
    EXPECT_EQ(back.wallDeadlineSec, 9.25);

    // Defaults round-trip too (the has()-guarded parse paths).
    RunOptions plain;
    RunOptions plainBack = runOptionsFromJson(
        Json::parse(runOptionsToJson(plain).dump(0)));
    EXPECT_EQ(runOptionsToJson(plainBack).dump(0),
              runOptionsToJson(plain).dump(0));
    EXPECT_FALSE(plainBack.sampling.enabled());
    EXPECT_FALSE(plainBack.checkpoint.enabled());
}

TEST(SweepServiceTest, RunResultRoundTripIsExact)
{
    RunResult r = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny);
    ASSERT_TRUE(r.ok()) << r.message;
    RunResult back =
        runResultFromJson(Json::parse(runResultToJson(r).dump(0)));
    expectSameResult(r, back);
    EXPECT_EQ(back.ns, r.ns);
    EXPECT_EQ(back.stats, r.stats);
    EXPECT_EQ(back.status, r.status);
}

// --- golden documents --------------------------------------------------
//
// Documents byte for byte as builds before the shared field lists
// wrote them: journals, result caches, job hashes and replay recipes
// written by older builds must keep matching and loading.

/** Every RunOptions field away from its default. */
RunOptions
goldenOptions()
{
    RunOptions o;
    o.bigGhz = 1.7;
    o.littleGhz = 0.6;
    VEngineParams p;
    p.numLanes = 8;
    p.chimes = 4;
    p.packed = false;
    p.cmdQueueDepth = 33;
    p.uopQueueDepth = 65;
    p.dataQueueDepth = 9;
    p.laneUopQueueDepth = 5;
    p.vmiuQueueDepth = 17;
    p.loadQueueLines = 24;
    p.storeQueueLines = 12;
    p.storeCamEntries = 6;
    p.coalesceWindow = 2;
    p.switchPenalty = 250;
    p.memPath = VEngineParams::MemPath::directL2;
    o.engineOverride = p;
    o.limitNs = 2.5e6;
    o.verifyResult = false;
    o.watchdog = false;
    o.watchdogIntervalNs = 12345.5;
    o.wallDeadlineSec = 0.1;
    o.faults.enabled = true;
    o.faults.seed = 0xdeadbeefcafef00dull;
    o.faults.memDelayProb = 0.125;
    o.faults.memDelayCycles = 51;
    o.faults.cacheDelayProb = 1.0 / 3.0;
    o.faults.cacheDelayCycles = 9;
    o.faults.vcuStallProb = 0.05;
    o.faults.vcuStallCycles = 21;
    o.faults.vmuDropProb = 0.01;
    o.faults.vmuMaxRetries = 2;
    o.faults.vmuRetryDelay = 65;
    o.faults.script = {{1000, FaultKind::vmuDrop, 0},
                       {2500, FaultKind::cacheDelay, 30}};
    o.check.lockstep = true;
    o.check.invariants = true;
    o.check.retireContext = 16;
    o.check.invariantPeriod = 32;
    o.check.forensicsPath = "/tmp/report.json";
    o.trace.path = "t.json";
    o.trace.samplePath = "s.csv";
    o.trace.startNs = 10.5;
    o.trace.stopNs = 999.25;
    o.trace.categories = 5;
    o.trace.sampleIntervalNs = 250.0;
    o.sampling.ffInsts = 20000;
    o.sampling.warmupInsts = 1000;
    o.sampling.detailInsts = 4000;
    o.sampling.periods = 8;
    o.checkpoint.path = "a.bvl";
    o.checkpoint.ffInsts = 777;
    o.checkpoint.farm = true;
    o.checkpoint.farmDir = "farm";
    return o;
}

/** A failed result with every optional member present. */
RunResult
goldenResult()
{
    RunResult r;
    r.workload = "vvadd";
    r.design = "1b-4VL";
    r.status = RunStatus::check_failed;
    r.message = "lockstep divergence\n\"big\" stream";
    r.log = "warn: retrying\n";
    r.finished = false;
    r.verified = false;
    r.ns = 1234.5678;
    r.stats = {{"a.b", 1},
               {"big.cycles", 18446744073709551615ull},
               {"little0.busy", 42}};
    r.heartbeats = {{"big", 100, 9000, "rob=3"},
                    {"vcu", 7, 8500, "uopq=64 full"}};
    DivergenceRecord d;
    d.stream = "big";
    d.seq = 17;
    d.tick = 9000;
    d.instr = "add x1, x2, x3";
    d.field = "rd";
    d.timedValue = 5;
    d.refValue = 6;
    d.chime = -1;
    d.queueContext = "vmu: 2 loads";
    d.lastRetires = {"r1", "r2"};
    r.divergence = d;
    r.invariantViolations = "rob.count > cap";
    return r;
}

const char *const kGoldenOptions =
    R"({"bigGhz":1.7,"littleGhz":0.59999999999999998,)"
    R"("limitNs":2500000,"verifyResult":false,"watchdog":false,)"
    R"("watchdogIntervalNs":12345.5,)"
    R"("wallDeadlineSec":0.10000000000000001,)"
    R"("engineOverride":{"numLanes":8,"chimes":4,"packed":false,)"
    R"("cmdQueueDepth":33,"uopQueueDepth":65,"dataQueueDepth":9,)"
    R"("laneUopQueueDepth":5,"vmiuQueueDepth":17,"loadQueueLines":24,)"
    R"("storeQueueLines":12,"storeCamEntries":6,"coalesceWindow":2,)"
    R"("switchPenalty":250,"memPath":"directL2"},)"
    R"("faults":{"enabled":true,"seed":16045690984503111693,)"
    R"("memDelayProb":0.125,"memDelayCycles":51,)"
    R"("cacheDelayProb":0.33333333333333331,"cacheDelayCycles":9,)"
    R"("vcuStallProb":0.050000000000000003,"vcuStallCycles":21,)"
    R"("vmuDropProb":0.01,"vmuMaxRetries":2,"vmuRetryDelay":65,)"
    R"("script":[{"atTick":1000,"kind":"vmuDrop","cycles":0},)"
    R"({"atTick":2500,"kind":"cacheDelay","cycles":30}]},)"
    R"("check":{"lockstep":true,"invariants":true,"retireContext":16,)"
    R"("invariantPeriod":32,"forensicsPath":"/tmp/report.json"},)"
    R"("trace":{"path":"t.json","samplePath":"s.csv","startNs":10.5,)"
    R"("stopNs":999.25,"categories":5,"sampleIntervalNs":250},)"
    R"("sampling":{"ffInsts":20000,"warmupInsts":1000,)"
    R"("detailInsts":4000,"periods":8},)"
    R"("checkpoint":{"path":"a.bvl","ffInsts":777,"farm":true,)"
    R"("farmDir":"farm"}})";

/**
 * goldenOptions() with its engine override as older builds wrote it,
 * when the override also carried its name, lane prefix and FU
 * latencies (the SoC decides all three). It must still load, to
 * goldenOptions().
 */
const char *const kParentGoldenOptions =
    R"({"bigGhz":1.7,"littleGhz":0.59999999999999998,)"
    R"("limitNs":2500000,"verifyResult":false,"watchdog":false,)"
    R"("watchdogIntervalNs":12345.5,)"
    R"("wallDeadlineSec":0.10000000000000001,)"
    R"("engineOverride":{"name":"ablate","lanePrefix":"lane",)"
    R"("numLanes":8,"chimes":4,"packed":false,"cmdQueueDepth":33,)"
    R"("uopQueueDepth":65,"dataQueueDepth":9,"laneUopQueueDepth":5,)"
    R"("vmiuQueueDepth":17,"loadQueueLines":24,"storeQueueLines":12,)"
    R"("storeCamEntries":6,"coalesceWindow":2,"switchPenalty":250,)"
    R"("fu":{"intAlu":2,"intMul":4,"intDiv":13,"fpAdd":5,"fpMul":6,)"
    R"("fpDiv":14,"mem":2,"branch":3},"memPath":"directL2"},)"
    R"("faults":{"enabled":true,"seed":16045690984503111693,)"
    R"("memDelayProb":0.125,"memDelayCycles":51,)"
    R"("cacheDelayProb":0.33333333333333331,"cacheDelayCycles":9,)"
    R"("vcuStallProb":0.050000000000000003,"vcuStallCycles":21,)"
    R"("vmuDropProb":0.01,"vmuMaxRetries":2,"vmuRetryDelay":65,)"
    R"("script":[{"atTick":1000,"kind":"vmuDrop","cycles":0},)"
    R"({"atTick":2500,"kind":"cacheDelay","cycles":30}]},)"
    R"("check":{"lockstep":true,"invariants":true,"retireContext":16,)"
    R"("invariantPeriod":32,"forensicsPath":"/tmp/report.json"},)"
    R"("trace":{"path":"t.json","samplePath":"s.csv","startNs":10.5,)"
    R"("stopNs":999.25,"categories":5,"sampleIntervalNs":250},)"
    R"("sampling":{"ffInsts":20000,"warmupInsts":1000,)"
    R"("detailInsts":4000,"periods":8},)"
    R"("checkpoint":{"path":"a.bvl","ffInsts":777,"farm":true,)"
    R"("farmDir":"farm"}})";

const char *const kGoldenResult =
    R"({"workload":"vvadd","design":"1b-4VL","status":"check_failed",)"
    R"("message":"lockstep divergence\n\"big\" stream",)"
    R"("log":"warn: retrying\n","finished":false,"verified":false,)"
    R"("ns":1234.5678,"stats":{"a.b":1,)"
    R"("big.cycles":18446744073709551615,"little0.busy":42},)"
    R"("heartbeats":[{"name":"big","progress":100,"lastAdvance":9000,)"
    R"("detail":"rob=3"},{"name":"vcu","progress":7,)"
    R"("lastAdvance":8500,"detail":"uopq=64 full"}],)"
    R"("divergence":{"stream":"big","seq":17,"tick":9000,)"
    R"("instr":"add x1, x2, x3","field":"rd","timedValue":5,)"
    R"("refValue":6,"chime":-1,"queueContext":"vmu: 2 loads",)"
    R"("lastRetires":["r1","r2"]},)"
    R"("invariantViolations":"rob.count > cap"})";

const char *const kGoldenDefaultOptions =
    R"({"bigGhz":1,"littleGhz":1,"limitNs":1000000000,)"
    R"("verifyResult":true,"watchdog":true,)"
    R"("watchdogIntervalNs":100000,"wallDeadlineSec":0,)"
    R"("faults":{"enabled":false,"seed":1,"memDelayProb":0,)"
    R"("memDelayCycles":50,"cacheDelayProb":0,"cacheDelayCycles":8,)"
    R"("vcuStallProb":0,"vcuStallCycles":20,"vmuDropProb":0,)"
    R"("vmuMaxRetries":3,"vmuRetryDelay":64,"script":[]},)"
    R"("check":{"lockstep":false,"invariants":false,)"
    R"("retireContext":8,"invariantPeriod":64,"forensicsPath":""},)"
    R"("trace":{"path":"","samplePath":"","startNs":0,"stopNs":-1,)"
    R"("categories":255,"sampleIntervalNs":1000},)"
    R"("sampling":{"ffInsts":0,"warmupInsts":0,"detailInsts":0,)"
    R"("periods":0},"checkpoint":{"path":"","ffInsts":0,"farm":false,)"
    R"("farmDir":""}})";

/** No heartbeats, divergence or violations: their keys are left out. */
const char *const kGoldenPlainResult =
    R"({"workload":"saxpy","design":"1b","status":"deadlock",)"
    R"("message":"","log":"","finished":false,"verified":false,)"
    R"("ns":0,"stats":{}})";

/** A failure report as older builds wrote it, up to its "options". */
const char *const kParentReportHead =
    R"({"schema":"bvl-failure-report-v1","status":"deadlock",)"
    R"("workload":"saxpy","design":"1b","message":"",)"
    R"("finished":false,"verified":false,"ns":0,"heartbeats":[],)"
    R"("divergence":null,"invariantViolations":"","log":"",)"
    R"("stats":{},"replay":{"design":"1b","workload":"saxpy",)"
    R"("scale":"tiny","options":)";

const char *const kGoldenSummary =
    "bvl-sweep-summary: submitted=583 simulated=580 journal_hits=1 "
    "cache_hits=2 cache_corrupt=3 retries=4 quarantined=5 failed=6 "
    "interrupted=1 farm_hits=7 farm_produced=8 farm_corrupt=9 "
    "farm_evicted=10 tmp_cleaned=11 io_faults=12 journal_degraded=1 "
    "cache_degraded=0 farm_degraded=1";

/** Serialize, parse back and serialize again. */
template <class T>
std::string
reserialized(const std::string &doc, T (*fromJson)(const Json &),
             Json (*toJson)(const T &))
{
    return toJson(fromJson(Json::parse(doc))).dump(0);
}

TEST(SweepServiceTest, GoldenRunOptionsDocument)
{
    EXPECT_EQ(runOptionsToJson(goldenOptions()).dump(0), kGoldenOptions);
    EXPECT_EQ(reserialized(kGoldenOptions, runOptionsFromJson,
                           runOptionsToJson),
              kGoldenOptions);
    EXPECT_EQ(runOptionsToJson(RunOptions{}).dump(0),
              kGoldenDefaultOptions);
    EXPECT_EQ(reserialized(kParentGoldenOptions, runOptionsFromJson,
                           runOptionsToJson),
              kGoldenOptions);
}

TEST(SweepServiceTest, GoldenRunResultDocument)
{
    EXPECT_EQ(runResultToJson(goldenResult()).dump(0), kGoldenResult);
    EXPECT_EQ(reserialized(kGoldenResult, runResultFromJson,
                           runResultToJson),
              kGoldenResult);
    EXPECT_EQ(reserialized(kGoldenPlainResult, runResultFromJson,
                           runResultToJson),
              kGoldenPlainResult);
}

TEST(SweepServiceTest, GoldenRecipeDocument)
{
    SweepJob job{Design::d1bDV, "bfs", Scale::small, goldenOptions()};
    std::string golden =
        std::string(R"({"design":"1bDV","workload":"bfs",)"
                    R"("scale":"small","options":)") +
        kGoldenOptions + "}";
    EXPECT_EQ(sweepJobToJson(job).dump(0), golden);
    EXPECT_EQ(reserialized(golden, sweepJobFromJson, sweepJobToJson),
              golden);
}

TEST(SweepServiceTest, GoldenSummaryLine)
{
    SweepService::Summary s;
    s.submitted = 583;
    s.simulated = 580;
    s.journalHits = 1;
    s.cacheHits = 2;
    s.cacheCorrupt = 3;
    s.retries = 4;
    s.quarantines = 5;
    s.failed = 6;
    s.interrupted = true;
    s.farmHits = 7;
    s.farmProduced = 8;
    s.farmCorrupt = 9;
    s.farmEvicted = 10;
    s.tmpCleaned = 11;
    s.ioFaults = 12;
    s.journalDegraded = true;
    s.cacheDegraded = false;
    s.farmDegraded = true;
    EXPECT_EQ(SweepService::summaryLine(s), kGoldenSummary);
}

TEST(SweepServiceTest, FailureReportIsResultPlusSchemaAndReplay)
{
    RunResult r;
    r.workload = "saxpy";
    r.design = "1b";
    r.status = RunStatus::deadlock;
    SweepJob job{Design::d1b, "saxpy", Scale::tiny, {}};
    std::string plain = kGoldenPlainResult;
    std::string golden =
        plain.substr(0, plain.size() - 1) +
        R"(,"schema":"bvl-failure-report-v1","replay":{"design":"1b",)"
        R"("workload":"saxpy","scale":"tiny","options":)" +
        kGoldenDefaultOptions + "}}";
    EXPECT_EQ(buildFailureReport(r, job).dump(0), golden);
}

TEST(SweepServiceTest, OlderFailureReportStillLoads)
{
    // The older layout: schema first, heartbeats and divergence
    // written (as [] and null) even when empty.
    std::string report = std::string(kParentReportHead) +
                         kGoldenDefaultOptions + "}}";
    std::string path = scratchDir("oldreport") + "/report.json";
    std::ofstream(path) << Json::parse(report).dump(2) << "\n";
    SweepJob job = loadReplayRecipe(path);
    EXPECT_EQ(job.design, Design::d1b);
    EXPECT_EQ(job.workload, "saxpy");
    EXPECT_EQ(job.scale, Scale::tiny);
    EXPECT_EQ(runOptionsToJson(job.opts).dump(0), kGoldenDefaultOptions);
    RunResult r = runResultFromJson(Json::parse(report));
    EXPECT_EQ(r.status, RunStatus::deadlock);
    EXPECT_TRUE(r.heartbeats.empty());
    EXPECT_FALSE(r.divergence.has_value());
}

TEST(SweepServiceTest, MalformedDocumentsAreRejected)
{
    auto result = [](const std::string &doc) {
        return runResultFromJson(Json::parse(doc));
    };
    auto options = [](const std::string &doc) {
        return runOptionsFromJson(Json::parse(doc));
    };
    EXPECT_THROW(result(R"({"workload":"vvadd","ns":1})"),
                 SimFatalError);
    EXPECT_THROW(result(R"({"status":"exploded"})"), SimFatalError);
    EXPECT_THROW(options(R"({"engineOverride":{"memPath":"l3"}})"),
                 SimFatalError);
    EXPECT_THROW(
        options(R"({"faults":{"script":[{"atTick":1,"kind":"zap"}]}})"),
        SimFatalError);
    EXPECT_THROW(options(R"({"faults":{"script":[{"atTick":1}]}})"),
                 SimFatalError);
    EXPECT_THROW(sweepJobFromJson(Json::parse(
                     R"({"design":"1b","workload":"saxpy"})")),
                 SimFatalError);
    EXPECT_THROW(sweepJobFromJson(Json::parse(
                     R"({"design":"2b","workload":"x","scale":"tiny"})")),
                 SimFatalError);
}

TEST(SweepServiceTest, MissingMembersLoadAsDefaults)
{
    EXPECT_EQ(runOptionsToJson(runOptionsFromJson(Json::parse("{}")))
                  .dump(0),
              kGoldenDefaultOptions);
    RunOptions o = runOptionsFromJson(Json::parse(
        R"({"bigGhz":2,"engineOverride":{"chimes":3},)"
        R"("faults":{"script":[{"kind":"vcuStall"}]}})"));
    EXPECT_EQ(o.bigGhz, 2.0);
    EXPECT_EQ(o.littleGhz, 1.0);
    ASSERT_TRUE(o.engineOverride.has_value());
    EXPECT_EQ(o.engineOverride->chimes, 3u);
    EXPECT_EQ(o.engineOverride->numLanes, VEngineParams{}.numLanes);
    ASSERT_EQ(o.faults.script.size(), 1u);
    EXPECT_EQ(o.faults.script[0].atTick, 0u);
    EXPECT_EQ(o.faults.script[0].kind, FaultKind::vcuStall);

    RunResult r = runResultFromJson(Json::parse(R"({"status":"ok"})"));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.workload, "");
    EXPECT_EQ(r.ns, 0.0);
    EXPECT_TRUE(r.stats.empty());
    EXPECT_FALSE(r.divergence.has_value());
    EXPECT_EQ(r.invariantViolations, "");
}

// --- write-ahead journal -----------------------------------------------

TEST(SweepServiceTest, JournalPersistsAndReplays)
{
    std::string dir = scratchDir("journal");
    std::string path = dir + "/sweep.journal.jsonl";
    SweepJob job = vvaddJob();
    std::string hash = jobHashHex(job);
    RunResult r = runWorkload(job.design, job.workload, job.scale);
    ASSERT_TRUE(r.ok());

    {
        SweepJournal j;
        ASSERT_TRUE(j.open(path));
        RunResult out;
        EXPECT_FALSE(j.lookup(hash, &out));
        j.append(hash, job, 1, "sim", r);
        EXPECT_TRUE(j.lookup(hash, &out));
        expectSameResult(out, r);
    }

    // A fresh journal object (fresh process, conceptually) replays the
    // same bytes.
    SweepJournal j2;
    ASSERT_TRUE(j2.open(path));
    EXPECT_EQ(j2.loadedEntries(), 1u);
    RunResult out;
    ASSERT_TRUE(j2.lookup(hash, &out));
    expectSameResult(out, r);
}

TEST(SweepServiceTest, JournalToleratesTornTail)
{
    std::string dir = scratchDir("torn");
    std::string path = dir + "/sweep.journal.jsonl";
    SweepJob job = vvaddJob();
    RunResult r = runWorkload(job.design, job.workload, job.scale);
    ASSERT_TRUE(r.ok());
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(path));
        j.append(jobHashHex(job), job, 1, "sim", r);
    }

    // Simulate kill -9 mid-append: a second row cut off mid-JSON.
    {
        std::ofstream tail(path, std::ios::app);
        tail << "{\"schema\":\"bvl-sweep-journal-v1\",\"hash\":\"ab";
    }

    SweepJournal j2;
    ASSERT_TRUE(j2.open(path));
    EXPECT_EQ(j2.loadedEntries(), 1u);
    EXPECT_EQ(j2.skippedLines(), 1u);
    RunResult out;
    EXPECT_TRUE(j2.lookup(jobHashHex(job), &out));
    expectSameResult(out, r);
}

// --- content-addressed cache -------------------------------------------

TEST(SweepServiceTest, CacheStoresAndVerifies)
{
    std::string dir = scratchDir("cache");
    SweepJob job = vvaddJob();
    std::string hash = jobHashHex(job);
    RunResult r = runWorkload(job.design, job.workload, job.scale);
    ASSERT_TRUE(r.ok());

    ResultCache cache;
    cache.setDir(dir);
    RunResult out;
    EXPECT_FALSE(cache.lookup(hash, &out));
    cache.store(hash, r);
    ASSERT_TRUE(cache.lookup(hash, &out));
    expectSameResult(out, r);
    EXPECT_EQ(cache.corruptEntries(), 0u);
}

TEST(SweepServiceTest, CacheQuarantinesCorruptEntries)
{
    std::string dir = scratchDir("poison");
    SweepJob job = vvaddJob();
    std::string hash = jobHashHex(job);
    RunResult r = runWorkload(job.design, job.workload, job.scale);
    ASSERT_TRUE(r.ok());

    ResultCache cache;
    cache.setDir(dir);
    cache.store(hash, r);
    std::string path = cache.entryPath(hash);

    // Flip the simulated time inside the stored result: the document
    // still parses, but the digest no longer matches.
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    auto at = text.find("\"ns\":");
    ASSERT_NE(at, std::string::npos);
    text[at + 5] = text[at + 5] == '9' ? '8' : '9';
    std::ofstream(path) << text;

    RunResult out;
    EXPECT_FALSE(cache.lookup(hash, &out));
    EXPECT_EQ(cache.corruptEntries(), 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

    // Re-store repairs the entry (the service re-simulates, then
    // stores), and a truncated file is caught the same way.
    cache.store(hash, r);
    ASSERT_TRUE(cache.lookup(hash, &out));
    std::filesystem::resize_file(path, 10);
    EXPECT_FALSE(cache.lookup(hash, &out));
    EXPECT_EQ(cache.corruptEntries(), 2u);
}

// --- deterministic backoff ---------------------------------------------

TEST(SweepServiceTest, BackoffScheduleIsDeterministic)
{
    SweepServiceOptions opts;
    opts.maxAttempts = 4;
    opts.backoffBaseMs = 10.0;
    std::string hash = jobHashHex(vvaddJob());

    auto a = SweepService::backoffScheduleMs(opts, hash);
    auto b = SweepService::backoffScheduleMs(opts, hash);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a, b);

    // Jittered around an exponential envelope: delay i is in
    // [0.5, 1.5) * base * 2^i.
    double base = opts.backoffBaseMs;
    for (double d : a) {
        EXPECT_GE(d, 0.5 * base);
        EXPECT_LT(d, 1.5 * base);
        base *= 2.0;
    }

    // Different jobs (and different sweep seeds) desynchronize.
    SweepJob other = vvaddJob();
    other.workload = "saxpy";
    EXPECT_NE(a, SweepService::backoffScheduleMs(opts,
                                                 jobHashHex(other)));
    SweepServiceOptions reseeded = opts;
    reseeded.backoffSeed ^= 0x1234;
    EXPECT_NE(a, SweepService::backoffScheduleMs(reseeded, hash));
}

// --- supervision: retry, quarantine, forensics naming, deadlines -------

TEST(SweepServiceTest, PersistentFailureIsQuarantinedWithForensicsPath)
{
    std::string dir = scratchDir("quarantine");
    SweepServiceOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.backoffBaseMs = 0.01;
    opts.retryOn = {RunStatus::sim_error};

    SweepService svc(opts);
    // Two distinct always-failing jobs sharing one configured
    // forensics path: the service must give each a collision-free
    // per-job file name.
    SweepJob bad1{Design::d1b, "no-such-workload", Scale::tiny, {}};
    bad1.opts.check.forensicsPath = dir + "/failure.json";
    SweepJob bad2 = bad1;
    bad2.workload = "also-missing";

    auto f1 = svc.submit(bad1);
    auto f2 = svc.submit(bad2);
    RunResult r1 = f1.get();
    RunResult r2 = f2.get();

    // The sweep completed: failures degraded to recorded rows.
    EXPECT_EQ(r1.status, RunStatus::sim_error);
    EXPECT_EQ(r2.status, RunStatus::sim_error);

    auto s = svc.summary();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.simulated, 4u);     // 2 jobs x 2 attempts
    EXPECT_EQ(s.retries, 2u);
    EXPECT_EQ(s.failed, 2u);
    EXPECT_EQ(s.quarantines, 2u);

    auto q = svc.quarantined();
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q[0].attempts, 2u);
    EXPECT_NE(q[0].forensicsPath, q[1].forensicsPath);
    for (const auto &rec : q) {
        // <dir>/failure.<hash16>.json
        EXPECT_NE(rec.forensicsPath.find(rec.hash.substr(0, 16)),
                  std::string::npos);
        EXPECT_EQ(rec.forensicsPath.find(dir + "/failure."), 0u);
    }
}

TEST(SweepServiceTest, NonRetryableFailureFailsFastWithoutQuarantine)
{
    SweepServiceOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 3;
    SweepService svc(opts);    // default retryOn excludes sim_error

    auto r = svc.submit({Design::d1b, "no-such-workload", Scale::tiny,
                         {}}).get();
    EXPECT_EQ(r.status, RunStatus::sim_error);
    auto s = svc.summary();
    EXPECT_EQ(s.simulated, 1u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.quarantines, 0u);
    EXPECT_EQ(s.failed, 1u);
}

TEST(SweepServiceTest, ResumedJobHonorsRetryBudget)
{
    // Regression (PR 7): journal replay must honor the recorded
    // attempt counter. A sweep interrupted mid-retry used to replay
    // the failure as final (or, before attempts were journaled at
    // all, restart the count from zero on resume, exceeding the
    // budget). The invariant: across any number of interruptions and
    // resumes, a retryable job runs exactly maxAttempts simulations,
    // then stays quarantined forever.
    SweepService::clearStop();
    std::string dir = scratchDir("budget");
    SweepJob bad{Design::d1b, "no-such-workload", Scale::tiny, {}};

    auto makeOpts = [&] {
        SweepServiceOptions o;
        o.jobs = 1;
        o.journalPath = dir + "/sweep.journal.jsonl";
        o.maxAttempts = 3;
        o.backoffBaseMs = 0.01;
        o.retryOn = {RunStatus::sim_error};
        return o;
    };

    // Sweep 1: the stop request lands during attempt 0, so the retry
    // loop exits after one simulation and journals attempts=1.
    {
        auto o = makeOpts();
        o.preRunHook = [](const SweepJob &, unsigned) {
            SweepService::requestStop();
        };
        SweepService svc(o);
        auto r = svc.submit(bad).get();
        EXPECT_EQ(r.status, RunStatus::sim_error);
        auto s = svc.summary();
        EXPECT_EQ(s.simulated, 1u);
        EXPECT_EQ(s.retries, 0u);
        EXPECT_EQ(s.quarantines, 0u);    // budget not exhausted yet
        EXPECT_TRUE(s.interrupted);
        SweepService::clearStop();
    }

    // Sweep 2 (resume): picks up at attempt 1 — never re-runs attempt
    // 0, and stops at the original budget of 3 total attempts.
    {
        auto o = makeOpts();
        std::vector<unsigned> attemptsSeen;
        o.preRunHook = [&](const SweepJob &, unsigned attempt) {
            attemptsSeen.push_back(attempt);
        };
        SweepService svc(o);
        auto r = svc.submit(bad).get();
        EXPECT_EQ(r.status, RunStatus::sim_error);
        ASSERT_EQ(attemptsSeen.size(), 2u);
        EXPECT_EQ(attemptsSeen[0], 1u);
        EXPECT_EQ(attemptsSeen[1], 2u);
        auto s = svc.summary();
        EXPECT_EQ(s.simulated, 2u);
        EXPECT_EQ(s.journalHits, 0u);    // a live resume, not a replay
        EXPECT_EQ(s.quarantines, 1u);
        auto q = svc.quarantined();
        ASSERT_EQ(q.size(), 1u);
        EXPECT_EQ(q[0].attempts, 3u);
        EXPECT_EQ(q[0].workload, "no-such-workload");
    }

    // Sweep 3: the budget is spent, so the journaled failure replays
    // with zero simulations — and the quarantine row is reconstructed
    // so the sweep report still shows the job as exhausted.
    {
        SweepService svc(makeOpts());
        auto r = svc.submit(bad).get();
        EXPECT_EQ(r.status, RunStatus::sim_error);
        auto s = svc.summary();
        EXPECT_EQ(s.simulated, 0u);
        EXPECT_EQ(s.journalHits, 1u);
        EXPECT_EQ(s.failed, 1u);
        auto q = svc.quarantined();
        ASSERT_EQ(q.size(), 1u);
        EXPECT_EQ(q[0].attempts, 3u);
    }
    SweepService::clearStop();
}

TEST(SweepServiceTest, WallDeadlineYieldsDeadlineStatus)
{
    SweepServiceOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 1;
    opts.wallDeadlineSec = 1e-9;    // any watchdog check trips it
    SweepService svc(opts);

    SweepJob job = vvaddJob();
    job.opts.watchdogIntervalNs = 100.0;    // check early and often
    auto r = svc.submit(job).get();
    EXPECT_EQ(r.status, RunStatus::deadline);
    EXPECT_FALSE(r.ok());
}

// --- thread-pool integration (runs under TSan via the concurrency
// --- label) ------------------------------------------------------------

TEST(SweepServiceConcurrencyTest, InterruptedSweepResumesByteIdentical)
{
    std::string dir = scratchDir("resume");
    std::string journal = dir + "/sweep.journal.jsonl";
    const char *names[] = {"vvadd", "saxpy", "mmult", "pathfinder"};

    auto makeOpts = [&] {
        SweepServiceOptions o;
        o.jobs = 2;
        o.journalPath = journal;
        return o;
    };

    // Uninterrupted reference sweep (no journal).
    std::vector<std::string> reference;
    {
        SweepServiceOptions o;
        o.jobs = 2;
        SweepService svc(o);
        std::vector<std::future<RunResult>> futs;
        for (const char *n : names)
            futs.push_back(svc.submit({Design::d1b4VL, n, Scale::tiny,
                                       {}}));
        for (auto &f : futs)
            reference.push_back(runResultToJson(f.get()).dump(0));
    }

    // "Killed" sweep: only a prefix of the grid completed before the
    // process died. (A real kill -9 of a worker process is exercised
    // in SweepServiceIsolateTest and scripts/ci.sh.)
    {
        SweepService svc(makeOpts());
        svc.submit({Design::d1b4VL, names[0], Scale::tiny, {}}).get();
        svc.submit({Design::d1b4VL, names[1], Scale::tiny, {}}).get();
        EXPECT_EQ(svc.summary().simulated, 2u);
    }

    // Resumed sweep: the journaled prefix replays, the remainder
    // simulates, and every byte matches the uninterrupted run.
    SweepService svc(makeOpts());
    std::vector<std::future<RunResult>> futs;
    for (const char *n : names)
        futs.push_back(svc.submit({Design::d1b4VL, n, Scale::tiny,
                                   {}}));
    for (unsigned i = 0; i < futs.size(); ++i)
        EXPECT_EQ(runResultToJson(futs[i].get()).dump(0), reference[i]);

    auto s = svc.summary();
    EXPECT_EQ(s.journalHits, 2u);
    EXPECT_EQ(s.simulated, 2u);
}

TEST(SweepServiceConcurrencyTest, WarmCacheRunsZeroSimulations)
{
    std::string dir = scratchDir("warm");
    SweepServiceOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir + "/cache";

    std::vector<std::string> cold;
    {
        SweepService svc(opts);
        std::vector<std::future<RunResult>> futs;
        futs.push_back(svc.submit(vvaddJob()));
        futs.push_back(svc.submit({Design::d1L, "vvadd", Scale::tiny,
                                   {}}));
        for (auto &f : futs)
            cold.push_back(runResultToJson(f.get()).dump(0));
        EXPECT_EQ(svc.summary().simulated, 2u);
    }

    SweepService svc(opts);
    std::vector<std::future<RunResult>> futs;
    futs.push_back(svc.submit(vvaddJob()));
    futs.push_back(svc.submit({Design::d1L, "vvadd", Scale::tiny, {}}));
    for (unsigned i = 0; i < futs.size(); ++i)
        EXPECT_EQ(runResultToJson(futs[i].get()).dump(0), cold[i]);

    auto s = svc.summary();
    EXPECT_EQ(s.simulated, 0u);
    EXPECT_EQ(s.cacheHits, 2u);
}

TEST(SweepServiceConcurrencyTest, RequestStopDrainsAndThrows)
{
    SweepService::clearStop();
    SweepServiceOptions opts;
    opts.jobs = 2;
    SweepService svc(opts);

    // Jobs submitted after a stop request fail fast with the
    // dedicated exception; nothing hangs.
    SweepService::requestStop();
    EXPECT_TRUE(SweepService::stopRequested());
    auto fut = svc.submit(vvaddJob());
    EXPECT_THROW(fut.get(), SweepInterrupted);
    EXPECT_TRUE(svc.summary().interrupted);
    SweepService::clearStop();
}

// --- checkpoint-prefix farm under the thread pool (TSan via the
// --- concurrency label) ------------------------------------------------

/** A 1b-4VL saxpy cell at VMU queue depth @p depth, 150-inst prefix. */
SweepJob
farmCellJob(unsigned depth)
{
    SweepJob job{Design::d1b4VL, "saxpy", Scale::tiny, {}};
    job.opts.engineOverride = vlittlePreset();
    job.opts.engineOverride->loadQueueLines = depth;
    job.opts.checkpoint.ffInsts = 150;
    return job;
}

TEST(SweepServiceFarmConcurrencyTest, RacingCellsProduceOnePrefix)
{
    // Eight cells, one shared prefix, eight workers: every cell misses
    // the farm at startup and races for the entry's flock. Exactly one
    // may produce; the rest must block on the claim and restore what
    // it published — and every result must match the cold per-cell
    // fast-forward byte for byte.
    std::string dir = scratchDir("farmrace");
    const unsigned depths[] = {2, 3, 4, 6, 8, 12, 16, 32};
    constexpr unsigned cells = 8;

    std::vector<std::string> cold;
    for (unsigned d : depths) {
        SweepJob job = farmCellJob(d);
        RunResult r = runWorkload(job.design, job.workload, job.scale,
                                  job.opts);
        ASSERT_TRUE(r.ok()) << r.message;
        r.log.clear();
        cold.push_back(runResultToJson(r).dump(0));
    }

    std::uint64_t p0 = CheckpointFarm::produced();
    std::uint64_t h0 = CheckpointFarm::hits();

    SweepServiceOptions o;
    o.jobs = cells;
    SweepService svc(o);
    std::vector<std::future<RunResult>> futs;
    for (unsigned d : depths) {
        SweepJob job = farmCellJob(d);
        job.opts.checkpoint.farm = true;
        job.opts.checkpoint.farmDir = dir;
        futs.push_back(svc.submit(job));
    }
    for (unsigned i = 0; i < futs.size(); ++i) {
        RunResult r = futs[i].get();
        EXPECT_TRUE(r.ok()) << r.message;
        r.log.clear();
        EXPECT_EQ(runResultToJson(r).dump(0), cold[i])
            << "queue depth " << depths[i];
    }

    // Single-flight: one producer, everyone else a hit, one entry.
    EXPECT_EQ(CheckpointFarm::produced() - p0, 1u);
    EXPECT_EQ(CheckpointFarm::hits() - h0, cells - 1);
    unsigned entries = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(
             dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file() && it->path().extension() == ".bvl")
            ++entries;
    }
    EXPECT_EQ(entries, 1u);

    // The farm counters surface in the sweep summary line.
    std::string line = svc.summaryLine();
    EXPECT_NE(line.find("farm_hits="), std::string::npos) << line;
    EXPECT_NE(line.find("farm_produced="), std::string::npos) << line;
}

TEST(SweepServiceFarmConcurrencyTest, RacingCellsQuarantineCorruptEntryOnce)
{
    // Eight cells read the same corrupt entry at once. Exactly one
    // quarantine and one re-production may follow, and the fresh
    // entry must survive the other readers.
    std::string dir = scratchDir("farmcorruptrace");
    const unsigned depths[] = {2, 3, 4, 6, 8, 12, 16, 32};
    SweepJob seed = farmCellJob(depths[0]);
    seed.opts.checkpoint.farm = true;
    seed.opts.checkpoint.farmDir = dir;
    RunResult first = runWorkload(seed.design, seed.workload,
                                  seed.scale, seed.opts);
    ASSERT_TRUE(first.ok()) << first.message;

    std::string entry;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir))
        if (e.path().extension() == ".bvl")
            entry = e.path().string();
    ASSERT_FALSE(entry.empty());
    {
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekg(-50, std::ios::end);
        char b = 0;
        f.get(b);
        f.seekp(-50, std::ios::end);
        f.put(static_cast<char>(b ^ 0xff));
    }

    std::uint64_t c0 = CheckpointFarm::state().quarantined;
    std::uint64_t p0 = CheckpointFarm::produced();
    SweepServiceOptions o;
    o.jobs = 8;
    SweepService svc(o);
    std::vector<std::future<RunResult>> futs;
    for (unsigned d : depths) {
        SweepJob job = farmCellJob(d);
        job.opts.checkpoint.farm = true;
        job.opts.checkpoint.farmDir = dir;
        futs.push_back(svc.submit(job));
    }
    for (auto &f : futs) {
        RunResult r = f.get();
        EXPECT_TRUE(r.ok()) << r.message;
    }
    EXPECT_EQ(CheckpointFarm::state().quarantined - c0, 1u);
    EXPECT_EQ(CheckpointFarm::produced() - p0, 1u);
    EXPECT_TRUE(std::filesystem::exists(entry));
    EXPECT_TRUE(std::filesystem::exists(entry + ".corrupt"));
}

// --- subprocess isolation (forks; stays out of the TSan label) ---------

TEST(SweepServiceIsolateTest, CrashingWorkerIsContainedAndRetried)
{
    SweepServiceOptions opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.maxAttempts = 2;
    opts.backoffBaseMs = 0.01;
    // The hook runs inside the forked worker: a real SIGKILL on the
    // first attempt, a clean run on the second.
    opts.preRunHook = [](const SweepJob &, unsigned attempt) {
        if (attempt == 0)
            ::raise(SIGKILL);
    };
    SweepService svc(opts);

    auto r = svc.submit(vvaddJob()).get();
    EXPECT_TRUE(r.ok()) << r.message;
    auto s = svc.summary();
    EXPECT_EQ(s.simulated, 2u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.quarantines, 0u);

    // The contained result matches an in-process run exactly.
    RunResult direct = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny);
    expectSameResult(r, direct);
}

TEST(SweepServiceIsolateTest, PersistentCrasherIsQuarantined)
{
    SweepServiceOptions opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.maxAttempts = 2;
    opts.backoffBaseMs = 0.01;
    // One design point SIGSEGVs on every attempt; its neighbors are
    // healthy. The sweep must complete around it.
    opts.preRunHook = [](const SweepJob &job, unsigned) {
        if (job.design == Design::d1b4VL)
            ::raise(SIGSEGV);
    };
    SweepService svc(opts);

    auto ok1 = svc.submit({Design::d1L, "vvadd", Scale::tiny, {}});
    auto bad = svc.submit(vvaddJob());
    auto ok2 = svc.submit({Design::d1L, "saxpy", Scale::tiny, {}});

    EXPECT_TRUE(ok1.get().ok());
    EXPECT_TRUE(ok2.get().ok());

    RunResult r = bad.get();
    EXPECT_EQ(r.status, RunStatus::worker_lost);
    // Plain builds see "killed by signal 11"; sanitizer builds
    // intercept the SIGSEGV and the child exits with a report instead,
    // yielding "exited without a result". Either way the worker died.
    EXPECT_NE(r.message.find("worker"), std::string::npos) << r.message;

    auto q = svc.quarantined();
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].status, RunStatus::worker_lost);
    EXPECT_EQ(q[0].attempts, 2u);
    EXPECT_EQ(q[0].workload, "vvadd");
}

} // namespace
} // namespace bvl
