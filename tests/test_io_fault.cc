/**
 * @file
 * I/O fault injection and graceful degradation (DESIGN.md §17).
 *
 * Three layers:
 *
 *  - seam unit tests: plan parsing, writeFileAtomic's fault matrix
 *    (every sub-site × every eligible kind ends with no temp litter),
 *    stale-temp sweeping, the bounded flock with holder-pid
 *    diagnostics, and the content store the cache and farm share;
 *  - degradation policy tests: each persistence component survives
 *    its designated failure the designated way (journal loses
 *    durability not the sweep, cache/farm stores disable themselves,
 *    forensics/trace failures never touch the RunStatus);
 *  - the in-process chaos harness: run a reference sweep that touches
 *    journal + cache + farm + checkpoint + forensics + trace,
 *    enumerate every injection site it reaches, then for every
 *    distinct site label re-run with (a) a deterministic failure and
 *    (b) a crash, asserting the results are identical to the
 *    fault-free run, nothing crashes the harness, no "*.tmp" litter
 *    survives, and crash runs recover on the same directories.
 *
 * IoFaultConcurrencyTest runs under ThreadSanitizer via the
 * "*Concurrency*" ctest label glob.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "sim/io/content_store.hh"
#include "sim/io/io_fault.hh"
#include "sim/io/sim_io.hh"
#include "sim/check/forensics.hh"
#include "soc/checkpoint.hh"
#include "soc/checkpoint_farm.hh"
#include "soc/run_driver.hh"
#include "soc/run_io.hh"
#include "sweep/service/job_hash.hh"
#include "sweep/service/result_cache.hh"
#include "sweep/service/service.hh"

namespace bvl
{
namespace
{

std::string
scratchDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "bvl_io_" + tag + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Every "*.tmp.*" file below @p dir (litter check). */
std::vector<std::string>
tempsUnder(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(
             dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        std::string name = it->path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            out.push_back(it->path().string());
    }
    return out;
}

/** RAII reset of the process-wide injector + farm + stop state. */
struct InjectorReset
{
    InjectorReset()
    {
        io::ioFaultReset();
        CheckpointFarm::state().reset();
        SweepService::clearStop();
    }
    ~InjectorReset()
    {
        io::ioFaultReset();
        CheckpointFarm::state().reset();
        SweepService::clearStop();
    }
};

// --- plan parsing ------------------------------------------------------

TEST(IoFaultPlanTest, SpecParsesIndexAndLabelEntries)
{
    auto plan = io::ioFaultPlanFromSpec(
        "enospc@12,crash@result_cache.store.rename,short@journal."
        "append.write");
    ASSERT_TRUE(plan.enabled);
    ASSERT_EQ(plan.script.size(), 3u);
    EXPECT_EQ(plan.script[0].site, 12);
    EXPECT_EQ(plan.script[0].kind, io::IoFaultKind::fail_enospc);
    EXPECT_EQ(plan.script[1].site, -1);
    EXPECT_EQ(plan.script[1].label, "result_cache.store.rename");
    EXPECT_EQ(plan.script[1].kind, io::IoFaultKind::crash);
    EXPECT_EQ(plan.script[2].kind, io::IoFaultKind::short_write);
}

TEST(IoFaultPlanTest, MalformedSpecIsFatal)
{
    EXPECT_THROW(io::ioFaultPlanFromSpec("enospc"), SimFatalError);
    EXPECT_THROW(io::ioFaultPlanFromSpec("bogus@3"), SimFatalError);
    EXPECT_THROW(io::ioFaultPlanFromSpec("@3"), SimFatalError);
    EXPECT_THROW(io::ioFaultPlanFromSpec("eio@"), SimFatalError);
}

TEST(IoFaultPlanTest, ScriptedFaultFiresOnceAtMatchingLabel)
{
    InjectorReset reset;
    std::string dir = scratchDir("fireonce");
    io::ioFaultInstall(io::ioFaultPlanFromSpec("eio@t.write"));

    io::SimFile f;
    ASSERT_TRUE(f.createTrunc("t.open", dir + "/a"));
    std::string err;
    EXPECT_FALSE(f.writeAll("t.write", "x", 1, &err));
    EXPECT_NE(err.find("injected eio"), std::string::npos) << err;
    // Same label again: the entry already fired.
    EXPECT_TRUE(f.writeAll("t.write", "x", 1, &err));
    EXPECT_EQ(io::ioFaultsFired(), 1u);
}

TEST(IoFaultPlanTest, IneligibleKindDegradesToEio)
{
    InjectorReset reset;
    std::string dir = scratchDir("inelig");
    // stale_lock makes no sense for a write; it must still fail the
    // site (as EIO) rather than silently doing nothing.
    io::ioFaultInstall(io::ioFaultPlanFromSpec("stale_lock@t.write"));
    io::SimFile f;
    ASSERT_TRUE(f.createTrunc("t.open", dir + "/a"));
    std::string err;
    EXPECT_FALSE(f.writeAll("t.write", "x", 1, &err));
    EXPECT_NE(err.find("Input/output"), std::string::npos) << err;
}

TEST(IoFaultPlanTest, ProbabilisticModeIsSeedDeterministic)
{
    std::string dir = scratchDir("prob");
    auto countFired = [&](std::uint64_t seed) {
        InjectorReset reset;
        io::IoFaultPlan plan;
        plan.enabled = true;
        plan.prob = 0.5;
        plan.seed = seed;
        io::ioFaultInstall(plan);
        for (int i = 0; i < 64; ++i) {
            try {
                io::writeFileAtomic("t.atomic",
                                    dir + "/f" + std::to_string(i),
                                    "x");
            } catch (const io::IoCrashError &) {
                // The kind pool includes crash; a clean unwind is the
                // correct behavior, and it counts as a fired fault.
            }
        }
        return io::ioFaultsFired();
    };
    std::uint64_t a = countFired(7);
    std::uint64_t b = countFired(7);
    std::uint64_t c = countFired(8);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0u);
    // Different seeds fault at different sites; the *count* may
    // coincide, so just sanity-check the mode stays probabilistic.
    EXPECT_LT(c, 64u * 4u);
}

// --- the atomic-publish fault matrix -----------------------------------

TEST(IoFaultSeamTest, WriteFileAtomicSurvivesEveryStageFault)
{
    struct Case
    {
        const char *spec;
        bool tornDest;  ///< torn rename leaves a (truncated) dest
    };
    const Case cases[] = {
        {"eio@t.atomic.open", false},
        {"enospc@t.atomic.write", false},
        {"short@t.atomic.write", false},
        {"eio@t.atomic.fsync", false},
        {"enospc@t.atomic.fsync", false},
        {"torn@t.atomic.rename", true},
        {"eio@t.atomic.rename", false},
    };
    const std::string data(8192, 'q');
    for (const Case &c : cases) {
        InjectorReset reset;
        std::string dir = scratchDir("atomic");
        std::string path = dir + "/out.json";
        io::ioFaultInstall(io::ioFaultPlanFromSpec(c.spec));

        std::string err;
        EXPECT_FALSE(io::writeFileAtomic("t.atomic", path, data, &err))
            << c.spec;
        EXPECT_FALSE(err.empty()) << c.spec;
        EXPECT_TRUE(tempsUnder(dir).empty())
            << c.spec << " left temp litter";
        if (c.tornDest) {
            // The torn destination exists but must never carry the
            // full payload — that is the corruption detectors' job.
            std::ifstream in(path, std::ios::binary);
            ASSERT_TRUE(in.good()) << c.spec;
            std::string got((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
            EXPECT_LT(got.size(), data.size()) << c.spec;
        } else {
            EXPECT_FALSE(std::filesystem::exists(path)) << c.spec;
        }

        // And with the plan spent, the publish succeeds exactly.
        EXPECT_TRUE(io::writeFileAtomic("t.atomic", path, data, &err))
            << err;
        std::ifstream in(path, std::ios::binary);
        std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        EXPECT_EQ(got, data);
        EXPECT_TRUE(tempsUnder(dir).empty());
    }
}

TEST(IoFaultSeamTest, CrashInThrowModeUnwindsAndCleansTemp)
{
    InjectorReset reset;
    std::string dir = scratchDir("crashthrow");
    io::IoFaultPlan plan = io::ioFaultPlanFromSpec("crash@t.atomic.fsync");
    plan.crashExits = false;
    io::ioFaultInstall(plan);
    EXPECT_THROW(io::writeFileAtomic("t.atomic", dir + "/f", "data"),
                 io::IoCrashError);
    EXPECT_TRUE(tempsUnder(dir).empty());
    EXPECT_FALSE(std::filesystem::exists(dir + "/f"));
}

TEST(IoFaultSeamTest, ReadFileDistinguishesMissingFromBroken)
{
    InjectorReset reset;
    std::string dir = scratchDir("readfile");
    std::string out;
    bool missing = false;
    EXPECT_FALSE(io::readFile("t.read", dir + "/absent", &out,
                              &missing));
    EXPECT_TRUE(missing);

    ASSERT_TRUE(io::writeFileAtomic("t.atomic", dir + "/present",
                                    "hello"));
    io::ioFaultInstall(io::ioFaultPlanFromSpec("eio@t.read"));
    std::string err;
    EXPECT_FALSE(io::readFile("t.read", dir + "/present", &out,
                              &missing, &err));
    EXPECT_FALSE(missing);
    EXPECT_NE(err.find("injected eio"), std::string::npos);
    // Plan spent: reads work and round-trip the bytes.
    EXPECT_TRUE(io::readFile("t.read", dir + "/present", &out,
                             &missing, &err)) << err;
    EXPECT_EQ(out, "hello");
}

// --- stale-temp sweeping -----------------------------------------------

TEST(IoFaultSeamTest, SweepStaleTempsKnowsDeadFromAlive)
{
    InjectorReset reset;
    std::string dir = scratchDir("staletmp");
    std::filesystem::create_directories(dir + "/ab");
    // Owner pid 999999999 can't exist (beyond pid_max defaults).
    std::string dead = dir + "/ab/x.json.tmp.999999999.beef";
    std::string live = dir + "/ab/y.json.tmp." +
                       std::to_string(::getpid()) + ".beef";
    std::ofstream(dead) << "partial";
    std::ofstream(live) << "partial";

    EXPECT_EQ(io::sweepStaleTemps("t.sweep", dir,
                                  /*selfStale=*/false), 1u);
    EXPECT_FALSE(std::filesystem::exists(dead));
    EXPECT_TRUE(std::filesystem::exists(live));

    // At startup nothing of ours can be mid-publish: selfStale
    // reclaims our own leftovers too.
    EXPECT_EQ(io::sweepStaleTemps("t.sweep", dir,
                                  /*selfStale=*/true), 1u);
    EXPECT_FALSE(std::filesystem::exists(live));
    EXPECT_EQ(io::ioTempsCleaned(), 2u);
}

TEST(IoFaultSeamTest, SweepTempsForTargetsOneEntryOnly)
{
    InjectorReset reset;
    std::string dir = scratchDir("sweepfor");
    std::string entry = dir + "/e.bvl";
    std::ofstream(entry + ".tmp.1.a") << "x";
    std::ofstream(entry + ".tmp.2.b") << "x";
    std::ofstream(dir + "/other.bvl.tmp.1.a") << "x";
    EXPECT_EQ(io::sweepTempsFor("t.sweepfor", entry), 2u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/other.bvl.tmp.1.a"));
}

// --- bounded flock -----------------------------------------------------

TEST(IoFaultSeamTest, LockTimeoutNamesHolderPid)
{
    InjectorReset reset;
    std::string dir = scratchDir("flock");
    std::string lock = dir + "/e.bvl.lock";

    int holder = io::lockExclusive("t.flock", lock, 1000);
    ASSERT_GE(holder, 0);

    std::string diag;
    int loser = io::lockExclusive("t.flock", lock, 60, &diag);
    EXPECT_LT(loser, 0);
    EXPECT_NE(diag.find(lock), std::string::npos) << diag;
    EXPECT_NE(diag.find(std::to_string(::getpid())),
              std::string::npos)
        << diag << " should name the holder pid";

    io::unlockAndClose(holder);
    int winner = io::lockExclusive("t.flock", lock, 1000, &diag);
    EXPECT_GE(winner, 0) << diag;
    io::unlockAndClose(winner);
}

TEST(IoFaultSeamTest, TrulyStaleLockFileAcquiresInstantly)
{
    InjectorReset reset;
    std::string dir = scratchDir("stalelock");
    std::string lock = dir + "/e.bvl.lock";
    // A lock *file* left by a dead process carries no kernel flock:
    // acquisition must not wait on its stale pid content.
    std::ofstream(lock) << "999999999\n";
    auto start = std::chrono::steady_clock::now();
    std::string diag;
    int fd = io::lockExclusive("t.flock", lock, 60000, &diag);
    std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_GE(fd, 0) << diag;
    EXPECT_LT(took.count(), 5.0);
    io::unlockAndClose(fd);
}

TEST(IoFaultSeamTest, InjectedStaleLockTimesOutWithDiag)
{
    InjectorReset reset;
    std::string dir = scratchDir("injstale");
    io::ioFaultInstall(io::ioFaultPlanFromSpec("stale_lock@t.flock"));
    std::string diag;
    int fd = io::lockExclusive("t.flock", dir + "/e.lock", 60000,
                               &diag);
    EXPECT_LT(fd, 0);
    EXPECT_NE(diag.find("injected stale_lock"), std::string::npos)
        << diag;
}

TEST(IoFaultSeamTest, FarmClaimFallsBackAfterLockTimeout)
{
    InjectorReset reset;
    std::string dir = scratchDir("claim");
    std::string entry = dir + "/ab/e.bvl";
    std::filesystem::create_directories(dir + "/ab");

    int holder = io::lockExclusive("t.flock", entry + ".lock", 1000);
    ASSERT_GE(holder, 0);
    {
        ContentStore::Claim claim(entry, 60);
        EXPECT_FALSE(claim.held());
    }
    io::unlockAndClose(holder);
    {
        // Holder gone: the claim acquires and reclaims entry temps.
        std::ofstream(entry + ".tmp.999999999") << "orphan";
        ContentStore::Claim claim(entry, 1000);
        EXPECT_TRUE(claim.held());
        EXPECT_FALSE(
            std::filesystem::exists(entry + ".tmp.999999999"));
    }
}

// --- the content-addressed store under the cache and the farm ---------

TEST(ContentStoreTest, ShardsQuarantinesDisablesAndSweeps)
{
    for (const char *ext : {".json", ".bvl"}) {
        SCOPED_TRACE(ext);
        InjectorReset reset;
        std::string dir = scratchDir("store");
        const ContentStore::Kind kind = {"test store", ext, "t.read",
                                         "t.publish", "t.quarantine",
                                         "t.sweep"};

        // The first store over a directory sweeps a dead writer's
        // orphan; later stores sharing the State do not walk it again.
        std::filesystem::create_directories(dir + "/ab");
        std::string orphan =
            dir + "/ab/x" + ext + ".tmp.999999999.beef";
        std::ofstream(orphan) << "partial";
        ContentStore::State state;
        ContentStore store(dir, kind, state);
        EXPECT_FALSE(std::filesystem::exists(orphan));
        std::ofstream(orphan) << "partial";
        ContentStore second(dir, kind, state);
        EXPECT_TRUE(std::filesystem::exists(orphan));
        std::filesystem::remove(orphan);

        std::string hash = "ab" + std::string(62, '7');
        std::string path = store.entryPath(hash);
        EXPECT_EQ(path, dir + "/ab/" + hash + ext);

        std::string bytes;
        EXPECT_FALSE(store.read(path, &bytes));
        ASSERT_TRUE(store.publish(path, "payload"));
        EXPECT_EQ(state.published, 1u);

        // Unreadable is a miss, but the entry is kept.
        io::ioFaultInstall(io::ioFaultPlanFromSpec("eio@t.read"));
        EXPECT_FALSE(store.read(path, &bytes));
        ASSERT_TRUE(store.read(path, &bytes));
        EXPECT_EQ(bytes, "payload");
        EXPECT_EQ(state.quarantined, 0u);

        store.quarantine(path, "bad digest");
        EXPECT_EQ(state.quarantined, 1u);
        EXPECT_FALSE(std::filesystem::exists(path));
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

        // Two failed publishes cost one warning: the first disables
        // publishing, the second never touches the disk.
        io::ioFaultReset();
        io::ioFaultInstall(
            io::ioFaultPlanFromSpec("enospc@t.publish.write"));
        LogCapture log;
        EXPECT_FALSE(store.publish(path, "payload"));
        EXPECT_FALSE(store.publish(path, "payload"));
        EXPECT_TRUE(store.publishDisabled());
        EXPECT_EQ(io::ioFaultsFired(), 1u);
        std::string text = log.text();
        EXPECT_NE(text.find("DISABLED"), std::string::npos) << text;
        EXPECT_EQ(text.find("DISABLED"), text.rfind("DISABLED")) << text;
        EXPECT_FALSE(std::filesystem::exists(path));
        EXPECT_TRUE(tempsUnder(dir).empty());
    }
}

// --- per-component degradation policy ----------------------------------

SweepJob
vvaddJob(Design d = Design::d1b4VL)
{
    return {d, "vvadd", Scale::tiny, {}};
}

TEST(IoFaultDegradationTest, JournalAppendFailureDegradesNotAborts)
{
    InjectorReset reset;
    std::string dir = scratchDir("jdeg");

    SweepServiceOptions o;
    o.jobs = 1;
    o.maxAttempts = 1;
    o.journalPath = dir + "/sweep.jsonl";
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("enospc@journal.append.fsync"));

    SweepService svc(o);
    RunResult a = svc.submit(vvaddJob(Design::d1b)).get();
    RunResult b = svc.submit(vvaddJob(Design::d1b4VL)).get();
    EXPECT_TRUE(a.ok()) << a.message;
    EXPECT_TRUE(b.ok()) << b.message;

    auto s = svc.summary();
    EXPECT_TRUE(s.journalDegraded);
    EXPECT_EQ(s.simulated, 2u);
    EXPECT_NE(svc.summaryLine().find("journal_degraded=1"),
              std::string::npos);
}

TEST(IoFaultDegradationTest, CacheStoreFailureDisablesStoreOnce)
{
    InjectorReset reset;
    std::string dir = scratchDir("cdeg");

    SweepServiceOptions o;
    o.jobs = 1;
    o.maxAttempts = 1;
    o.cacheDir = dir + "/cache";
    // The previously warn-only-and-untested short-write path, driven
    // deterministically through the seam.
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("short@result_cache.store.write"));

    SweepService svc(o);
    RunResult a = svc.submit(vvaddJob(Design::d1b)).get();
    EXPECT_TRUE(a.ok());
    auto s = svc.summary();
    EXPECT_TRUE(s.cacheDegraded);
    EXPECT_NE(svc.summaryLine().find("cache_degraded=1"),
              std::string::npos);
    EXPECT_TRUE(tempsUnder(dir).empty());
}

TEST(IoFaultDegradationTest, CacheLookupFailureJustResimulates)
{
    InjectorReset reset;
    std::string dir = scratchDir("clook");

    RunResult warm;
    {
        SweepServiceOptions o;
        o.jobs = 1;
        o.cacheDir = dir + "/cache";
        SweepService svc(o);
        warm = svc.submit(vvaddJob(Design::d1b)).get();
        ASSERT_TRUE(warm.ok());
    }
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("eio@result_cache.lookup.read"));
    {
        SweepServiceOptions o;
        o.jobs = 1;
        o.cacheDir = dir + "/cache";
        SweepService svc(o);
        RunResult again = svc.submit(vvaddJob(Design::d1b)).get();
        EXPECT_TRUE(again.ok());
        auto s = svc.summary();
        EXPECT_EQ(s.cacheHits, 0u);
        EXPECT_EQ(s.simulated, 1u);
        // The unreadable entry was NOT quarantined (transient error,
        // not corruption) and serves the next lookup fine.
        warm.log.clear();
        again.log.clear();
        EXPECT_EQ(runResultToJson(warm).dump(0),
                  runResultToJson(again).dump(0));
    }
}

SweepJob
farmJob(const std::string &farmDir, double ghz)
{
    SweepJob j = vvaddJob();
    j.opts.bigGhz = ghz;
    j.opts.checkpoint.farm = true;
    j.opts.checkpoint.farmDir = farmDir;
    j.opts.checkpoint.ffInsts = 150;
    return j;
}

TEST(IoFaultDegradationTest, FarmReadFailureKeepsEntry)
{
    InjectorReset reset;
    std::string dir = scratchDir("farmread");
    SweepServiceOptions o;
    o.jobs = 1;

    RunResult first;
    {
        SweepService svc(o);
        first = svc.submit(farmJob(dir + "/farm", 1.0)).get();
        ASSERT_TRUE(first.ok()) << first.message;
        ASSERT_EQ(svc.summary().farmProduced, 1u);
    }
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("eio@checkpoint.load.read"));
    {
        SweepService svc(o);
        RunResult again = svc.submit(farmJob(dir + "/farm", 1.0)).get();
        ASSERT_TRUE(again.ok()) << again.message;
        EXPECT_EQ(io::ioFaultsFired(), 1u);
        // An unreadable entry is a transient I/O problem, not proof of
        // corruption: it is kept, and the claim's re-check restores it.
        auto s = svc.summary();
        EXPECT_EQ(s.farmCorrupt, 0u);
        EXPECT_EQ(s.farmHits, 1u);
        first.log.clear();
        again.log.clear();
        EXPECT_EQ(runResultToJson(first).dump(0),
                  runResultToJson(again).dump(0));
    }
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir))
        EXPECT_NE(e.path().extension(), ".corrupt") << e.path();
}

TEST(IoFaultDegradationTest, ForensicsWriteFailureKeepsRunStatus)
{
    InjectorReset reset;
    std::string dir = scratchDir("fdeg");
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("short@forensics.report.write"));

    RunOptions o;
    o.check.forensicsPath = dir + "/report.json";
    // A starved simulated-time budget is the cheapest failing run
    // that wants a report.
    o.limitNs = 1.0;
    RunResult r = runWorkload(Design::d1b, "vvadd", Scale::tiny, o);
    EXPECT_EQ(r.status, RunStatus::time_limit);
    EXPECT_FALSE(std::filesystem::exists(dir + "/report.json"));
    EXPECT_TRUE(tempsUnder(dir).empty());
    EXPECT_NE(r.log.find("forensics"), std::string::npos) << r.log;
}

TEST(IoFaultDegradationTest, TraceFailuresNeverPerturbTheRun)
{
    InjectorReset reset;
    std::string dir = scratchDir("tdeg");

    RunOptions plain;
    RunResult ref = runWorkload(Design::d1b, "vvadd", Scale::tiny,
                                plain);
    ASSERT_TRUE(ref.ok());

    for (const char *spec : {"eio@trace.events.open",
                             "enospc@trace.events.write",
                             "short@trace.samples.write"}) {
        io::ioFaultReset();
        io::ioFaultInstall(io::ioFaultPlanFromSpec(spec));
        RunOptions o;
        o.trace.path = dir + "/events.json";
        o.trace.samplePath = dir + "/samples.json";
        RunResult r = runWorkload(Design::d1b, "vvadd", Scale::tiny, o);
        EXPECT_TRUE(r.ok()) << spec << ": " << r.message;
        RunResult a = ref, b = r;
        a.log.clear();
        b.log.clear();
        EXPECT_EQ(runResultToJson(a).dump(0), runResultToJson(b).dump(0))
            << spec << " perturbed the simulation";
        EXPECT_TRUE(tempsUnder(dir).empty()) << spec;
    }
}

TEST(IoFaultDegradationTest, FarmPublishFailureFallsBackPrivately)
{
    InjectorReset reset;
    std::string dir = scratchDir("farmdeg");

    RunResult refA, refB;
    {
        SweepServiceOptions o;
        o.jobs = 1;
        SweepService svc(o);
        refA = svc.submit(farmJob(dir + "/farm", 1.0)).get();
        refB = svc.submit(farmJob(dir + "/farm", 1.25)).get();
        ASSERT_TRUE(refA.ok());
        ASSERT_TRUE(refB.ok());
        auto s = svc.summary();
        EXPECT_EQ(s.farmProduced, 1u);
        EXPECT_EQ(s.farmHits, 1u);
    }

    std::filesystem::remove_all(dir + "/farm");
    io::ioFaultReset();
    CheckpointFarm::state().reset();
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("enospc@checkpoint.save.write"));
    {
        SweepServiceOptions o;
        o.jobs = 1;
        SweepService svc(o);
        RunResult a = svc.submit(farmJob(dir + "/farm", 1.0)).get();
        RunResult b = svc.submit(farmJob(dir + "/farm", 1.25)).get();
        EXPECT_TRUE(a.ok()) << a.message;
        EXPECT_TRUE(b.ok()) << b.message;
        auto s = svc.summary();
        EXPECT_TRUE(s.farmDegraded);
        EXPECT_EQ(s.farmProduced, 0u);
        EXPECT_EQ(s.farmHits, 0u);
        EXPECT_NE(svc.summaryLine().find("farm_degraded=1"),
                  std::string::npos);

        // Same simulated results with and without the farm.
        std::pair<RunResult *, RunResult *> pairs[] = {{&a, &refA},
                                                       {&b, &refB}};
        for (auto [r, ref] : pairs) {
            r->log.clear();
            ref->log.clear();
            EXPECT_EQ(runResultToJson(*ref).dump(0),
                      runResultToJson(*r).dump(0));
        }
        EXPECT_TRUE(tempsUnder(dir).empty());
    }

    // The same failure on a file the user named fails the run: a
    // private fallback would silently drop the artifact.
    io::ioFaultReset();
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("enospc@checkpoint.save.write"));
    RunOptions named;
    named.checkpoint.path = dir + "/named.bvl";
    named.checkpoint.ffInsts = 150;
    RunResult n = runWorkload(Design::d1b4VL, "vvadd", Scale::tiny, named);
    EXPECT_EQ(n.status, RunStatus::sim_error);
    EXPECT_NE(n.message.find("cannot write checkpoint"), std::string::npos)
        << n.message;
    EXPECT_FALSE(std::filesystem::exists(named.checkpoint.path));
}

// --- the in-process chaos harness --------------------------------------

struct ChaosDirs
{
    std::string root;
    std::string journal() const { return root + "/journal.jsonl"; }
    std::string cache() const { return root + "/cache"; }
    std::string farm() const { return root + "/farm"; }
};

std::vector<SweepJob>
chaosJobs(const ChaosDirs &d)
{
    std::vector<SweepJob> jobs;

    // Farm producer + farm restorer sharing one prefix.
    for (double ghz : {1.0, 1.25})
        jobs.push_back(farmJob(d.farm(), ghz));

    // Plain cacheable job.
    jobs.push_back(vvaddJob(Design::d1b));

    // A failing job (starved time budget) with forensics armed.
    {
        SweepJob j = vvaddJob(Design::d1b);
        j.opts.limitNs = 1.0;
        j.opts.check.forensicsPath = d.root + "/forensics.json";
        jobs.push_back(std::move(j));
    }

    // A traced job. A named checkpoint file goes through the same
    // restore-or-produce step, and so the same checkpoint.save/load
    // labels, as the farm jobs above; its one difference, a fatal
    // failed publish, is covered by the checkpoint suite and the
    // shell harness.
    {
        SweepJob j = vvaddJob(Design::d1b);
        j.opts.trace.path = d.root + "/events.json";
        j.opts.trace.samplePath = d.root + "/samples.json";
        jobs.push_back(std::move(j));
    }
    return jobs;
}

struct ChaosRun
{
    bool crashed = false;
    std::vector<std::string> keys;  ///< result fingerprints, log-free
};

ChaosRun
runChaosSweep(const ChaosDirs &d)
{
    SweepService::clearStop();
    CheckpointFarm::state().reset();
    ChaosRun out;
    try {
        SweepServiceOptions o;
        o.jobs = 1;       // deterministic site ordering
        o.maxAttempts = 1;
        o.journalPath = d.journal();
        o.cacheDir = d.cache();
        SweepService svc(o);
        std::vector<std::future<RunResult>> futures;
        for (SweepJob &j : chaosJobs(d))
            futures.push_back(svc.submit(std::move(j)));
        for (auto &f : futures) {
            try {
                RunResult r = f.get();
                r.log.clear();  // warnings legitimately differ
                out.keys.push_back(runResultToJson(r).dump(0));
            } catch (const io::IoCrashError &) {
                out.crashed = true;
            }
        }
    } catch (const io::IoCrashError &) {
        out.crashed = true;
    }
    return out;
}

/** Kinds (beyond crash) a chaos run may inject at an op of class. */
std::vector<const char *>
eligibleSpecs(io::IoOp op)
{
    switch (op) {
      case io::IoOp::write:
        return {"enospc", "short", "eio"};
      case io::IoOp::fsync:
      case io::IoOp::mkdir:
        return {"enospc", "eio"};
      case io::IoOp::rename:
        return {"torn", "eio"};
      case io::IoOp::flock:
        return {"stale_lock", "eio"};
      default:
        return {"eio"};
    }
}

TEST(IoFaultChaosTest, EverySiteFailsAndCrashesHarmlessly)
{
    InjectorReset reset;

    // Reference pass: enumerate every injection site and pin the
    // fault-free results.
    ChaosDirs ref{scratchDir("chaos_ref")};
    io::ioSiteTraceEnable(true);
    ChaosRun expect = runChaosSweep(ref);
    auto sites = io::ioSiteTraceSnapshot();
    io::ioSiteTraceEnable(false);
    ASSERT_FALSE(expect.crashed);
    ASSERT_EQ(expect.keys.size(), 5u);
    EXPECT_TRUE(tempsUnder(ref.root).empty());

    // Distinct labels, in first-reached order, with their op class.
    std::vector<std::pair<std::string, io::IoOp>> labels;
    std::set<std::string> seen;
    for (const auto &s : sites)
        if (seen.insert(s.label).second)
            labels.emplace_back(s.label, s.op);

    // The acceptance bar: a broad seam, not a token one.
    EXPECT_GE(labels.size(), 25u);
    for (const char *component :
         {"journal.", "result_cache.", "ckpt_farm.", "checkpoint.",
          "forensics.", "trace."}) {
        EXPECT_TRUE(std::any_of(labels.begin(), labels.end(),
                                [&](const auto &l) {
                                    return l.first.rfind(component,
                                                         0) == 0;
                                }))
            << "no site reached in component " << component;
    }

    // Failure pass: one deterministic non-crash fault per label.
    unsigned idx = 0;
    for (const auto &[label, op] : labels) {
        auto kinds = eligibleSpecs(op);
        std::string spec =
            std::string(kinds[idx++ % kinds.size()]) + "@" + label;
        SCOPED_TRACE(spec);

        ChaosDirs d{scratchDir("chaos_fault")};
        io::ioFaultReset();
        io::ioFaultInstall(io::ioFaultPlanFromSpec(spec));
        ChaosRun got = runChaosSweep(d);
        EXPECT_FALSE(got.crashed);
        EXPECT_EQ(got.keys, expect.keys)
            << "an injected failure changed a simulated result";
        EXPECT_TRUE(tempsUnder(d.root).empty());
        std::filesystem::remove_all(d.root);
    }

    // Crash pass: kill the "process" (clean IoCrashError unwind) at
    // each label, then recover on the same directories and demand the
    // reference results.
    for (const auto &[label, op] : labels) {
        SCOPED_TRACE("crash@" + label);
        ChaosDirs d{scratchDir("chaos_crash")};
        io::ioFaultReset();
        io::IoFaultPlan plan =
            io::ioFaultPlanFromSpec("crash@" + label);
        plan.crashExits = false;
        io::ioFaultInstall(plan);
        ChaosRun first = runChaosSweep(d);
        EXPECT_TRUE(first.crashed)
            << "crash point never reached on rerun";

        io::ioFaultReset();
        ChaosRun recovered = runChaosSweep(d);
        EXPECT_FALSE(recovered.crashed);
        EXPECT_EQ(recovered.keys, expect.keys)
            << "recovery after crash diverged from the fault-free run";
        EXPECT_TRUE(tempsUnder(d.root).empty());
        std::filesystem::remove_all(d.root);
    }
    std::filesystem::remove_all(ref.root);
}

// --- concurrency (TSan via the "*Concurrency*" label glob) -------------

TEST(IoFaultConcurrencyTest, SeamIsThreadSafeUnderContention)
{
    InjectorReset reset;
    std::string dir = scratchDir("conc");
    std::string shared = dir + "/shared.json";
    std::string lock = dir + "/shared.lock";
    const std::string data(4096, 'z');

    std::vector<std::thread> threads;
    std::atomic<unsigned> lockFailures{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 16; ++i) {
                // Racing atomic publishes of identical bytes: any
                // rename winning is correct, nothing torn.
                EXPECT_TRUE(io::writeFileAtomic("c.atomic", shared,
                                                data));
                std::string mine = dir + "/t" + std::to_string(t) +
                                   "_" + std::to_string(i);
                EXPECT_TRUE(io::writeFileAtomic("c.atomic", mine,
                                                data));
                int fd = io::lockExclusive("c.flock", lock, 30000);
                if (fd < 0)
                    ++lockFailures;
                else
                    io::unlockAndClose(fd);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(lockFailures.load(), 0u);
    EXPECT_TRUE(tempsUnder(dir).empty());
    std::ifstream in(shared, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, data);
    EXPECT_GE(io::ioSiteCount(), 8u * 16u * 3u);
}

} // namespace
} // namespace bvl
