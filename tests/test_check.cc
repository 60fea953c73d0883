/**
 * @file
 * Tests of the online checking subsystem (src/sim/check/): lockstep
 * divergence detection, structural invariant sweeps, failure
 * forensics with replay, and the fault-plan minimizer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/check/forensics.hh"
#include "sim/check/invariants.hh"
#include "sim/check/json.hh"
#include "sweep/minimize.hh"
#include "soc/run_driver.hh"
#include "soc/soc.hh"
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

// ------------------------------------------------------------ registry

TEST(InvariantRegistryTest, SweepReportsOnlyViolations)
{
    InvariantRegistry reg;
    bool broken = false;
    reg.add("always.ok", [] { return std::string(); });
    reg.add("sometimes.bad", [&]() -> std::string {
        return broken ? "queue over capacity" : "";
    });
    ASSERT_EQ(reg.size(), 2u);

    EXPECT_EQ(reg.sweep(), "");
    broken = true;
    std::string report = reg.sweep();
    EXPECT_NE(report.find("sometimes.bad"), std::string::npos);
    EXPECT_NE(report.find("queue over capacity"), std::string::npos);
    EXPECT_EQ(report.find("always.ok"), std::string::npos);
    EXPECT_EQ(reg.sweeps(), 2u);
    EXPECT_EQ(reg.violations(), 1u);
}

TEST(InvariantRegistryTest, SocRegistersComponentInvariants)
{
    // Only a checked run builds the registry.
    EXPECT_EQ(Soc(Design::d1b4VL).checker(), nullptr);
    SocParams sp;  // 1b-4VL
    sp.check.invariants = true;
    Soc soc(std::move(sp));
    InvariantRegistry &reg = soc.checker()->invariants();
    // Cores, engine queues/credits and every cache register checks.
    EXPECT_GE(reg.size(), 15u);
    // A freshly built SoC must be structurally sound.
    EXPECT_EQ(reg.sweep(), "");
}

// ---------------------------------------------------------------- json

TEST(JsonTest, RoundTripsExactIntegersAndStructure)
{
    Json j = Json::object();
    j.set("seed", std::uint64_t(0xdeadbeefcafe0123ull));
    j.set("prob", 0.125);
    j.set("name", "vvadd \"tiny\"\n");
    j.set("flag", true);
    Json arr = Json::array();
    arr.push(1);
    arr.push(Json());
    j.set("list", std::move(arr));

    Json back = Json::parse(j.dump(2));
    EXPECT_EQ(back["seed"].asU64(), 0xdeadbeefcafe0123ull);
    EXPECT_EQ(back["prob"].asDouble(), 0.125);
    EXPECT_EQ(back["name"].asString(), "vvadd \"tiny\"\n");
    EXPECT_TRUE(back["flag"].asBool());
    ASSERT_EQ(back["list"].size(), 2u);
    EXPECT_EQ(back["list"].at(0).asU64(), 1u);
    EXPECT_TRUE(back["list"].at(1).isNull());
    // Compact and indented forms parse to the same document.
    EXPECT_EQ(Json::parse(j.dump(0)).dump(2), back.dump(2));
}

TEST(JsonTest, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse("{\"a\": }"), SimFatalError);
    EXPECT_THROW(Json::parse("[1, 2"), SimFatalError);
    EXPECT_THROW(Json::parse("{} trailing"), SimFatalError);
}

TEST(ForensicsTest, FaultSpecRoundTrip)
{
    FaultSpec f;
    f.enabled = true;
    f.seed = 0x123456789abcdef0ull;
    f.vmuDropProb = 0.25;
    f.vmuMaxRetries = 7;
    f.script.push_back({12345, FaultKind::vmuDrop, 0});
    f.script.push_back({99999, FaultKind::vcuStall, 40});

    FaultSpec g = faultSpecFromJson(
        Json::parse(faultSpecToJson(f).dump(2)));
    EXPECT_EQ(g.enabled, f.enabled);
    EXPECT_EQ(g.seed, f.seed);
    EXPECT_EQ(g.vmuDropProb, f.vmuDropProb);
    EXPECT_EQ(g.vmuMaxRetries, f.vmuMaxRetries);
    ASSERT_EQ(g.script.size(), 2u);
    EXPECT_EQ(g.script[0].atTick, 12345u);
    EXPECT_EQ(g.script[0].kind, FaultKind::vmuDrop);
    EXPECT_EQ(g.script[1].kind, FaultKind::vcuStall);
    EXPECT_EQ(g.script[1].cycles, 40u);
}

// ------------------------------------------------------------ lockstep

TEST(LockstepTest, CleanRunsStayCleanAcrossDesigns)
{
    for (Design d : {Design::d1L, Design::d1b, Design::d1bIV,
                     Design::d1bDV, Design::d1b4VL}) {
        RunOptions opts;
        opts.check.lockstep = true;
        opts.check.invariants = true;
        RunResult r = runWorkload(d, "vvadd", Scale::tiny, opts);
        ASSERT_EQ(r.status, RunStatus::ok)
            << designName(d) << ": " << r.message;
        EXPECT_GT(r.stat("check.retires"), 0u) << designName(d);
        EXPECT_EQ(r.stat("check.divergences"), 0u) << designName(d);
        if (designHasVector(d)) {
            EXPECT_GT(r.stat("check.uops"), 0u) << designName(d);
        }
    }
}

TEST(LockstepTest, SeededCorruptionCaughtAtFirstWrongRetire)
{
    SocParams sp;
    sp.design = Design::d1b4VL;
    sp.check.lockstep = true;
    Soc soc(std::move(sp));
    auto w = makeWorkload("vvadd", Scale::tiny);
    ASSERT_TRUE(w);
    w->init(soc.backing);
    ASSERT_TRUE(soc.armLockstep(true));

    constexpr std::uint64_t corruptSeq = 10;
    soc.checker()->lockstep()->corruptRetireForTest(corruptSeq,
                                                    0xdeadbeefull);

    bool done = false;
    soc.big->runProgram(w->vectorProgram(), w->fullRangeArgs(),
                        [&] { done = true; });
    try {
        soc.runUntil(done);
        FAIL() << "corrupted retire was not caught";
    } catch (const CheckError &e) {
        ASSERT_TRUE(e.hasDivergence());
        const DivergenceRecord &d = e.divergence();
        // First wrong retire, not some later symptom.
        EXPECT_EQ(d.seq, corruptSeq);
        EXPECT_EQ(d.stream, "big");
        // The report carries the instruction, both operand values,
        // the pipeline/queue context and the preceding retires.
        EXPECT_FALSE(d.instr.empty());
        EXPECT_EQ(d.timedValue ^ d.refValue, 0xdeadbeefull);
        EXPECT_FALSE(d.queueContext.empty());
        EXPECT_FALSE(d.lastRetires.empty());
        std::string text = e.what();
        EXPECT_NE(text.find(d.instr), std::string::npos);
        EXPECT_NE(text.find("pipeline context"), std::string::npos);
    }
}

TEST(LockstepTest, ScalarStreamCorruptionCaughtToo)
{
    SocParams sp;
    sp.design = Design::d1b;
    sp.check.lockstep = true;
    Soc soc(std::move(sp));
    auto w = makeWorkload("vvadd", Scale::tiny);
    ASSERT_TRUE(w);
    w->init(soc.backing);
    ASSERT_TRUE(soc.armLockstep(true));
    soc.checker()->lockstep()->corruptRetireForTest(123, 0x1ull);

    bool done = false;
    soc.big->runProgram(w->scalarProgram(), w->fullRangeArgs(),
                        [&] { done = true; });
    try {
        soc.runUntil(done);
        FAIL() << "corrupted retire was not caught";
    } catch (const CheckError &e) {
        ASSERT_TRUE(e.hasDivergence());
        EXPECT_EQ(e.divergence().seq, 123u);
    }
}

TEST(LockstepTest, InvariantViolationRaisesCheckError)
{
    // An impossible structural invariant stands in for a divergence:
    // both surface as CheckError and must become check_failed.
    SocParams sp;
    sp.design = Design::d1b;
    sp.check.invariants = true;
    sp.check.invariantPeriod = 1;
    Soc soc(std::move(sp));
    soc.checker()->invariants().add(
        "test.fuse", [] { return std::string("blown"); });
    auto w = makeWorkload("vvadd", Scale::tiny);
    w->init(soc.backing);
    bool done = false;
    soc.big->runProgram(w->scalarProgram(), w->fullRangeArgs(),
                        [&] { done = true; });
    try {
        soc.runUntil(done);
        FAIL() << "invariant violation was not raised";
    } catch (const CheckError &e) {
        EXPECT_FALSE(e.hasDivergence());
        std::string text = e.what();
        EXPECT_NE(text.find("test.fuse"), std::string::npos);
        EXPECT_NE(text.find("blown"), std::string::npos);
    }
}

TEST(LockstepTest, TaskParallelDegradesToInvariantsOnly)
{
    RunOptions opts;
    opts.check.lockstep = true;
    opts.check.invariants = true;
    RunResult r = runWorkload(Design::d1b4VL, "bfs", Scale::tiny, opts);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message;
    // No stream armed, so no retire compares...
    EXPECT_EQ(r.stat("check.retires"), 0u);
    // ...but invariant sweeps still ran, and the degradation was
    // announced in the captured log.
    EXPECT_GT(r.stat("check.sweeps"), 0u);
    EXPECT_NE(r.log.find("structural invariants only"),
              std::string::npos);
}

// --------------------------------------------- retry-budget exhaustion

RunOptions
lethalVmuDropOptions()
{
    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.vmuDropProb = 1.0;   // every response dropped
    opts.faults.vmuMaxRetries = 1;
    opts.faults.vmuRetryDelay = 16;
    opts.watchdogIntervalNs = 10000;
    opts.check.invariants = true;
    return opts;
}

TEST(ForensicsTest, RetryExhaustionDeadlockNamesInjectionPoint)
{
    RunResult r = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny,
                              lethalVmuDropOptions());
    ASSERT_EQ(r.status, RunStatus::deadlock) << r.message;
    // The diagnostic names the lost response: which VMSU, which line,
    // after how many attempts.
    EXPECT_NE(r.message.find("LOST"), std::string::npos) << r.message;
    EXPECT_NE(r.message.find("attempts"), std::string::npos);
    EXPECT_NE(r.message.find("vmsu"), std::string::npos);
    EXPECT_GT(r.stat("faults.vmuDrop"), 0u);
    // Forensics capture populated the heartbeat table.
    EXPECT_FALSE(r.heartbeats.empty());
}

TEST(ForensicsTest, ReportRoundTripsThroughReplayToSameStatus)
{
    std::string path = tempPath("bvl_forensics_roundtrip.json");
    RunOptions opts = lethalVmuDropOptions();
    opts.check.forensicsPath = path;

    RunResult r = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny,
                              opts);
    ASSERT_EQ(r.status, RunStatus::deadlock) << r.message;

    // The report is valid JSON with the documented schema fields.
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no report at " << path;
    std::ostringstream text;
    text << in.rdbuf();
    Json doc = Json::parse(text.str());
    EXPECT_EQ(doc["schema"].asString(), "bvl-failure-report-v1");
    EXPECT_EQ(doc["status"].asString(), "deadlock");
    EXPECT_EQ(doc["workload"].asString(), "vvadd");
    EXPECT_GT(doc["heartbeats"].size(), 0u);
    EXPECT_NE(doc["message"].asString().find("LOST"),
              std::string::npos);

    // Replaying the embedded recipe reproduces the identical status.
    SweepJob recipe = loadReplayRecipe(path);
    EXPECT_EQ(recipe.workload, "vvadd");
    EXPECT_EQ(recipe.design, Design::d1b4VL);
    RunResult replay = runReplay(recipe);
    EXPECT_EQ(replay.status, r.status);
    EXPECT_EQ(replay.ns, r.ns);
    std::remove(path.c_str());
}

TEST(ForensicsTest, CheckFailedRunsProduceDivergenceInReport)
{
    std::string path = tempPath("bvl_forensics_divergence.json");
    // A lethal plan plus lockstep: the run fails (deadlock), and the
    // report must embed the replay recipe with checker flags intact.
    RunOptions opts = lethalVmuDropOptions();
    opts.check.lockstep = true;
    opts.check.forensicsPath = path;
    RunResult r = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny,
                              opts);
    ASSERT_NE(r.status, RunStatus::ok);

    SweepJob recipe = loadReplayRecipe(path);
    EXPECT_TRUE(recipe.opts.check.lockstep);
    EXPECT_TRUE(recipe.opts.check.invariants);
    EXPECT_EQ(recipe.opts.faults.vmuMaxRetries, 1u);
    std::remove(path.c_str());
}

// ------------------------------------------------------------ minimizer

SweepJob
twentyInjectionRecipe()
{
    SweepJob rec;
    rec.design = Design::d1b4VL;
    rec.workload = "vvadd";
    rec.scale = Scale::tiny;
    rec.opts.watchdogIntervalNs = 10000;
    rec.opts.faults.enabled = true;
    rec.opts.faults.vmuMaxRetries = 0;
    // 19 harmless stalls and one unrecoverable drop, buried at #13.
    for (unsigned i = 0; i < 20; ++i) {
        if (i == 13)
            rec.opts.faults.script.push_back(
                {0, FaultKind::vmuDrop, 0});
        else
            rec.opts.faults.script.push_back(
                {Tick(1000) * i, FaultKind::vcuStall, 5});
    }
    return rec;
}

TEST(MinimizeTest, ShrinksTwentyInjectionsToTheFatalOne)
{
    MinimizeOutcome out = minimizeFaultPlan(twentyInjectionRecipe());
    EXPECT_EQ(out.target, RunStatus::deadlock);
    ASSERT_EQ(out.keptIndices.size(), 1u);
    EXPECT_EQ(out.keptIndices[0], 13u);
    ASSERT_EQ(out.minimal.opts.faults.script.size(), 1u);
    EXPECT_EQ(out.minimal.opts.faults.script[0].kind,
              FaultKind::vmuDrop);
    EXPECT_TRUE(out.oneMinimal);

    // The minimal plan still fails with the target status...
    RunResult again = runReplay(out.minimal);
    EXPECT_EQ(again.status, out.target);
    // ...and an empty plan passes (1-minimality spot check).
    SweepJob clean = out.minimal;
    clean.opts.faults.script.clear();
    EXPECT_EQ(runReplay(clean).status, RunStatus::ok);
}

TEST(MinimizeTest, DeterministicAcrossRerunsAndThreadCounts)
{
    MinimizeOptions serial;
    serial.jobs = 1;
    MinimizeOptions parallel;
    parallel.jobs = 4;
    MinimizeOutcome a = minimizeFaultPlan(twentyInjectionRecipe(),
                                          serial);
    MinimizeOutcome b = minimizeFaultPlan(twentyInjectionRecipe(),
                                          parallel);
    EXPECT_EQ(a.keptIndices, b.keptIndices);
    EXPECT_EQ(a.oracleRuns, b.oracleRuns);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.oneMinimal, b.oneMinimal);
}

TEST(MinimizeTest, PassingPlanIsRejected)
{
    SweepJob rec;
    rec.design = Design::d1b;
    rec.workload = "vvadd";
    rec.scale = Scale::tiny;
    EXPECT_THROW(minimizeFaultPlan(rec), SimFatalError);
}

} // namespace
} // namespace bvl
