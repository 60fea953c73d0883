/**
 * @file
 * Checkpoint and fast-forward engine tests (DESIGN.md §15): a restored
 * run must be byte-identical to the run that saved the checkpoint; a
 * corrupt or missing checkpoint is quarantined/re-simulated, never
 * silently trusted; mismatched checkpoints are fatal; SMARTS-style
 * sampled runs estimate runtime, still verify results, and are
 * deterministic; and every invalid mode combination is rejected.
 *
 * Naming keys the ctest label partition: CheckpointDeterminismTest
 * runs with the concurrency suites under ThreadSanitizer (it drives
 * the sweep service at several BVL_JOBS settings), while
 * CheckpointTest stays in the unit label.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/check/json.hh"
#include "sim/io/io_fault.hh"
#include "soc/checkpoint.hh"
#include "soc/checkpoint_farm.hh"
#include "soc/run_driver.hh"
#include "soc/run_io.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/service.hh"
#include "vector/engine_presets.hh"

namespace bvl
{
namespace
{

std::string
scratchDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "bvl_ckpt_" + tag + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

RunOptions
saveOpts(const std::string &path, std::uint64_t ff)
{
    RunOptions o;
    o.checkpoint.savePath = path;
    o.checkpoint.ffInsts = ff;
    return o;
}

RunOptions
restoreOpts(const std::string &path, std::uint64_t ff)
{
    RunOptions o;
    o.checkpoint.restorePath = path;
    o.checkpoint.ffInsts = ff;
    return o;
}

/**
 * Serialized result minus the log: the save run informs about the
 * written file and a fallback run warns, so the captured log is the
 * one field that legitimately differs between the flows. Everything
 * else — ns, status, verification, every stat — must match exactly.
 */
std::string
dumpNoLog(RunResult r)
{
    r.log.clear();
    return runResultToJson(r).dump(0);
}

// --- save / restore ----------------------------------------------------

TEST(CheckpointTest, SaveThenRestoreIsByteIdentical)
{
    std::string dir = scratchDir("roundtrip");
    std::string ck = dir + "/saxpy.bvl";

    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  saveOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;
    EXPECT_TRUE(saved.verified);
    ASSERT_TRUE(std::filesystem::exists(ck));
    EXPECT_NE(saved.log.find("checkpoint written"), std::string::npos);

    RunResult restored = runWorkload(Design::d1b4VL, "saxpy",
                                     Scale::tiny, restoreOpts(ck, 150));
    ASSERT_TRUE(restored.ok()) << restored.message;
    EXPECT_TRUE(restored.verified);

    // The whole point: resuming from the snapshot reproduces the save
    // run exactly, stats and simulated time included.
    EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved));
    EXPECT_EQ(restored.ns, saved.ns);
    EXPECT_EQ(restored.stats, saved.stats);

    // And saving is itself deterministic: a second save run produces
    // an identical result and an identical checkpoint file.
    std::string ck2 = dir + "/saxpy2.bvl";
    RunResult saved2 = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                   saveOpts(ck2, 150));
    EXPECT_EQ(dumpNoLog(saved2), dumpNoLog(saved));
    std::ifstream a(ck, std::ios::binary), b(ck2, std::ios::binary);
    std::string bytesA((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
    std::string bytesB((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(bytesA, bytesB);
}

TEST(CheckpointTest, WorksOnEveryFastForwardableDesign)
{
    // One little core (scalar), big scalar, big + each vector engine:
    // all four executing-core/predictor/cache layouts of the format.
    // The flavor each header names is pinned: it keys existing
    // checkpoint files and farm entries, so it must not drift.
    const std::map<Design, std::string> flavors = {
        {Design::d1L, "little-scalar"}, {Design::d1b, "big-scalar"},
        {Design::d1bIV, "big-vector"}, {Design::d1bDV, "big-vector"},
        {Design::d1b4VL, "big-vector"}};
    std::string dir = scratchDir("designs");
    for (const auto &[d, flavor] : flavors) {
        std::string ck = dir + "/" + designName(d) + ".bvl";
        RunResult saved = runWorkload(d, "vvadd", Scale::tiny,
                                      saveOpts(ck, 100));
        ASSERT_TRUE(saved.ok()) << designName(d) << ": "
                                << saved.message;
        std::ifstream f(ck, std::ios::binary);
        std::string header;
        ASSERT_TRUE(std::getline(f, header)) << designName(d);
        EXPECT_EQ(Json::parse(header)["flavor"].asString(), flavor)
            << designName(d);
        RunResult restored = runWorkload(d, "vvadd", Scale::tiny,
                                         restoreOpts(ck, 100));
        ASSERT_TRUE(restored.ok()) << designName(d) << ": "
                                   << restored.message;
        EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved))
            << designName(d);
    }
}

// --- corrupt / missing / mismatched checkpoints ------------------------

TEST(CheckpointTest, CorruptCheckpointIsQuarantinedAndResimulated)
{
    std::string dir = scratchDir("corrupt");
    std::string ck = dir + "/ck.bvl";

    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  saveOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    // Flip one payload byte; the digest in the header catches it.
    {
        std::fstream f(ck, std::ios::in | std::ios::out |
                               std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 200);
        f.seekg(size - 100);
        char c = 0;
        f.get(c);
        f.seekp(size - 100);
        f.put(static_cast<char>(c ^ 0xff));
    }

    RunResult restored = runWorkload(Design::d1b4VL, "saxpy",
                                     Scale::tiny, restoreOpts(ck, 150));
    // Quarantined (renamed aside, never trusted) and re-simulated to
    // the same answer.
    ASSERT_TRUE(restored.ok()) << restored.message;
    EXPECT_NE(restored.log.find("quarantined"), std::string::npos)
        << restored.log;
    EXPECT_FALSE(std::filesystem::exists(ck));
    EXPECT_TRUE(std::filesystem::exists(ck + ".corrupt"));
    EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved));
}

TEST(CheckpointTest, DamagedImageOrTruncatedPayloadIsQuarantined)
{
    std::string dir = scratchDir("damage");
    std::string ck = dir + "/ck.bvl";
    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  saveOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    std::ifstream in(ck, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::size_t nl = bytes.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string header = bytes.substr(0, nl + 1);
    const std::string payload = bytes.substr(nl + 1);

    // Payload layout (soc/checkpoint.cc): u64 arch-image size, the
    // image, u8 predictor flag, then (big-core flavors) u32 index
    // bits, u32 table size, the table, u32 history; u64 page count
    // and (u64 page number, page bytes) records; the warm stream.
    auto u64At = [&](std::size_t off) {
        std::uint64_t v = 0;
        std::memcpy(&v, payload.data() + off, sizeof(v));
        return v;
    };
    std::uint64_t archBytes = u64At(0);
    std::size_t at = 8 + archBytes;
    ASSERT_EQ(payload[at], 1) << "big-vector flavor has a predictor";
    std::uint32_t tableBytes = 0;
    std::memcpy(&tableBytes, payload.data() + at + 5, 4);
    std::size_t pageCountAt = at + 1 + 4 + 4 + tableBytes + 4;
    std::uint64_t pages = u64At(pageCountAt);
    ASSERT_GT(pages, 0u);
    std::size_t firstPageBytes = pageCountAt + 8 + 8;

    auto flip = [&](std::size_t off) {
        std::string p = payload;
        p[off] = char(p[off] ^ 0x5a);
        return header + p;
    };
    // Re-seal a damaged payload: the header's size and digest are made
    // to match it, so only the payload parser can tell.
    auto reseal = [&](const std::string &p) {
        Json h = Json::parse(header.substr(0, nl));
        h.set("payloadBytes", std::uint64_t(p.size()));
        h.set("payloadSha256", sha256Hex(p));
        return h.dump(0) + "\n" + p;
    };
    std::string truncated = payload.substr(0, payload.size() - 1);
    std::string extraPage = payload;
    std::uint64_t morePages = pages + 1;
    std::memcpy(extraPage.data() + pageCountAt, &morePages, 8);

    struct Case
    {
        const char *name;
        std::string bytes;
        const char *why;
    };
    const Case cases[] = {
        {"page", flip(firstPageBytes + BackingStore::pageBytes / 2),
         "payload digest mismatch"},
        {"arch", flip(8 + archBytes / 2), "payload digest mismatch"},
        {"truncated", header + truncated, "truncated payload"},
        {"resealed_truncated", reseal(truncated), "malformed payload"},
        {"resealed_page_count", reseal(extraPage), "malformed payload"},
    };
    for (const Case &c : cases) {
        std::string path = dir + "/" + c.name + ".bvl";
        std::ofstream(path, std::ios::binary) << c.bytes;
        RunResult r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  restoreOpts(path, 150));
        ASSERT_TRUE(r.ok()) << c.name << ": " << r.message;
        EXPECT_NE(r.log.find(std::string("is corrupt (") + c.why + ")"),
                  std::string::npos) << c.name << ": " << r.log;
        EXPECT_FALSE(std::filesystem::exists(path)) << c.name;
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"))
            << c.name;
        EXPECT_EQ(dumpNoLog(r), dumpNoLog(saved)) << c.name;
    }
}

TEST(CheckpointTest, MissingCheckpointFallsBackToFastForward)
{
    std::string dir = scratchDir("missing");
    std::string ck = dir + "/ck.bvl";

    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  saveOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    RunResult restored = runWorkload(
        Design::d1b4VL, "saxpy", Scale::tiny,
        restoreOpts(dir + "/nope.bvl", 150));
    ASSERT_TRUE(restored.ok()) << restored.message;
    EXPECT_NE(restored.log.find("missing"), std::string::npos)
        << restored.log;
    EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved));

    // ...but only when ffInsts says how far to re-simulate.
    RunResult stuck = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  restoreOpts(dir + "/nope.bvl", 0));
    EXPECT_EQ(stuck.status, RunStatus::sim_error);
}

TEST(CheckpointTest, MismatchedCheckpointIsFatal)
{
    std::string dir = scratchDir("mismatch");
    std::string ck = dir + "/ck.bvl";
    ASSERT_TRUE(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                            saveOpts(ck, 150)).ok());

    // Wrong design: different cache geometry and executing core; a
    // quiet fallback would mask a config error, so it must be fatal.
    RunResult wrongDesign = runWorkload(Design::d1bDV, "saxpy",
                                        Scale::tiny,
                                        restoreOpts(ck, 150));
    EXPECT_EQ(wrongDesign.status, RunStatus::sim_error);
    EXPECT_NE(wrongDesign.message.find("does not match"),
              std::string::npos) << wrongDesign.message;

    RunResult wrongWorkload = runWorkload(Design::d1b4VL, "vvadd",
                                          Scale::tiny,
                                          restoreOpts(ck, 150));
    EXPECT_EQ(wrongWorkload.status, RunStatus::sim_error);
    EXPECT_NE(wrongWorkload.message.find("does not match"),
              std::string::npos) << wrongWorkload.message;

    // Same scalar program and VLEN, other executing core: a big-core
    // prefix carries predictor state a little core does not have.
    std::string bigCk = dir + "/big.bvl";
    ASSERT_TRUE(runWorkload(Design::d1b, "saxpy", Scale::tiny,
                            saveOpts(bigCk, 150)).ok());
    RunResult wrongCore = runWorkload(Design::d1L, "saxpy", Scale::tiny,
                                      restoreOpts(bigCk, 150));
    EXPECT_EQ(wrongCore.status, RunStatus::sim_error);
    EXPECT_NE(wrongCore.message.find("does not match"),
              std::string::npos) << wrongCore.message;
}

TEST(CheckpointTest, FastForwardPastHaltIsFatal)
{
    // saxpy tiny executes ~359 dynamic instructions; asking to skip
    // more must fail loudly (a checkpoint "after the end" would make
    // the detailed window measure nothing).
    std::string dir = scratchDir("pasthalt");
    RunResult r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                              saveOpts(dir + "/ck.bvl", 1000000));
    EXPECT_EQ(r.status, RunStatus::sim_error);
    EXPECT_NE(r.message.find("halted"), std::string::npos)
        << r.message;
    EXPECT_FALSE(std::filesystem::exists(dir + "/ck.bvl"));
}

// --- strict restore ----------------------------------------------------

TEST(CheckpointTest, StrictRestoreSucceedsOrFailsLoudly)
{
    std::string dir = scratchDir("strict");
    std::string ck = dir + "/ck.bvl";
    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  saveOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    // A valid checkpoint restores under strict exactly like the
    // tolerant path (strict forbids ffInsts, so none is set).
    RunOptions strict;
    strict.checkpoint.restorePath = ck;
    strict.checkpoint.strict = true;
    RunResult ok = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                               strict);
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(dumpNoLog(ok), dumpNoLog(saved));

    // A missing entry is a hard error — strict mode exists so CI can
    // assert "this sweep ran zero fast-forwards".
    RunOptions missing = strict;
    missing.checkpoint.restorePath = dir + "/nope.bvl";
    RunResult m = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                              missing);
    EXPECT_EQ(m.status, RunStatus::sim_error);
    EXPECT_NE(m.message.find("strict restore"), std::string::npos)
        << m.message;

    // So is a corrupt one: quarantine-and-resimulate is the tolerant
    // path's business.
    {
        std::fstream f(ck, std::ios::in | std::ios::out |
                               std::ios::binary);
        f.seekg(-50, std::ios::end);
        char b = 0;
        f.get(b);
        f.seekp(-50, std::ios::end);
        f.put(static_cast<char>(b ^ 0xff));
    }
    RunResult c = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                              strict);
    EXPECT_EQ(c.status, RunStatus::sim_error);
    EXPECT_NE(c.message.find("strict restore"), std::string::npos)
        << c.message;
}

// --- checkpoint-prefix farm (DESIGN.md §16) ----------------------------

RunOptions
farmOpts(const std::string &dir, std::uint64_t ff)
{
    RunOptions o;
    o.checkpoint.farm = true;
    o.checkpoint.farmDir = dir;
    o.checkpoint.ffInsts = ff;
    return o;
}

/** Published "*.bvl" entries under the farm directory. */
std::vector<std::filesystem::path>
farmEntries(const std::string &dir)
{
    std::vector<std::filesystem::path> out;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(
             dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file() && it->path().extension() == ".bvl")
            out.push_back(it->path());
    }
    return out;
}

TEST(CheckpointTest, FarmProducesOnceThenRestoresByteIdentical)
{
    std::string dir = scratchDir("farm");
    RunOptions cold;
    cold.checkpoint.ffInsts = 150;
    RunResult base = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                 cold);
    ASSERT_TRUE(base.ok()) << base.message;

    std::uint64_t p0 = CheckpointFarm::produced();
    std::uint64_t h0 = CheckpointFarm::hits();

    RunResult first = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  farmOpts(dir, 150));
    ASSERT_TRUE(first.ok()) << first.message;
    EXPECT_NE(first.log.find("produced prefix"), std::string::npos)
        << first.log;
    ASSERT_EQ(farmEntries(dir).size(), 1u);

    RunResult second = runWorkload(Design::d1b4VL, "saxpy",
                                   Scale::tiny, farmOpts(dir, 150));
    ASSERT_TRUE(second.ok()) << second.message;
    EXPECT_NE(second.log.find("restored prefix"), std::string::npos)
        << second.log;

    EXPECT_EQ(CheckpointFarm::produced() - p0, 1u);
    EXPECT_EQ(CheckpointFarm::hits() - h0, 1u);
    EXPECT_EQ(farmEntries(dir).size(), 1u);

    // The farm is a pure wall-clock optimization: both the producing
    // and the restoring cell match the cold per-cell fast-forward
    // exactly.
    EXPECT_EQ(dumpNoLog(first), dumpNoLog(base));
    EXPECT_EQ(dumpNoLog(second), dumpNoLog(base));
}

TEST(CheckpointTest, FarmSharesOnePrefixAcrossGeometries)
{
    // Two 1b-4VL cells with different VMU queue depths: the detailed
    // windows differ, but the functional prefix (flavor, VLEN 512,
    // inputs) is identical — one entry serves both.
    std::string dir = scratchDir("farmgeo");
    std::uint64_t p0 = CheckpointFarm::produced();
    std::uint64_t h0 = CheckpointFarm::hits();

    for (unsigned depth : {2u, 32u}) {
        RunOptions cold;
        cold.engineOverride = vlittlePreset();
        cold.engineOverride->loadQueueLines = depth;
        cold.checkpoint.ffInsts = 150;
        RunResult base = runWorkload(Design::d1b4VL, "saxpy",
                                     Scale::tiny, cold);
        ASSERT_TRUE(base.ok()) << base.message;

        RunOptions warm = cold;
        warm.checkpoint.farm = true;
        warm.checkpoint.farmDir = dir;
        RunResult r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  warm);
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_EQ(dumpNoLog(r), dumpNoLog(base)) << "depth " << depth;
    }

    EXPECT_EQ(CheckpointFarm::produced() - p0, 1u);
    EXPECT_EQ(CheckpointFarm::hits() - h0, 1u);
    EXPECT_EQ(farmEntries(dir).size(), 1u);
}

TEST(CheckpointTest, FarmCorruptEntryIsQuarantinedAndReproduced)
{
    std::string dir = scratchDir("farmcorrupt");
    RunResult first = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  farmOpts(dir, 150));
    ASSERT_TRUE(first.ok()) << first.message;
    auto entries = farmEntries(dir);
    ASSERT_EQ(entries.size(), 1u);
    std::string entry = entries[0].string();

    // Flip one payload byte in the published entry.
    {
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 200);
        f.seekg(size - 100);
        char c = 0;
        f.get(c);
        f.seekp(size - 100);
        f.put(static_cast<char>(c ^ 0xff));
    }

    std::uint64_t c0 = CheckpointFarm::state().quarantined;
    RunResult second = runWorkload(Design::d1b4VL, "saxpy",
                                   Scale::tiny, farmOpts(dir, 150));
    ASSERT_TRUE(second.ok()) << second.message;
    EXPECT_NE(second.log.find("quarantined"), std::string::npos)
        << second.log;
    EXPECT_EQ(CheckpointFarm::state().quarantined - c0, 1u);
    EXPECT_TRUE(std::filesystem::exists(entry + ".corrupt"));
    // The prefix was re-produced, republished, and the result is
    // unchanged — a corrupt entry costs time, never correctness.
    EXPECT_TRUE(std::filesystem::exists(entry));
    EXPECT_EQ(dumpNoLog(second), dumpNoLog(first));

    // And the quarantined file never poisons a third run.
    RunResult third = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  farmOpts(dir, 150));
    ASSERT_TRUE(third.ok()) << third.message;
    EXPECT_NE(third.log.find("restored prefix"), std::string::npos);
    EXPECT_EQ(dumpNoLog(third), dumpNoLog(first));
}

TEST(CheckpointTest, FarmEvictsOldestEntriesOverBudget)
{
    std::string dir = scratchDir("farmlru");
    ContentStore farm = CheckpointFarm::open(dir);

    // Three fake 1000-byte entries with strictly increasing mtimes.
    auto plant = [&](const char *name, int ageSec) {
        std::string path = dir + "/" + name;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path());
        std::ofstream(path, std::ios::binary)
            << std::string(1000, 'x');
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() -
                      std::chrono::seconds(ageSec));
        return path;
    };
    std::string oldest = plant("aa/a.bvl", 300);
    std::string middle = plant("bb/b.bvl", 200);
    std::string newest = plant("cc/c.bvl", 100);

    // Unlimited budget evicts nothing.
    EXPECT_EQ(farm.evictOverBudget(0, newest), 0u);
    EXPECT_EQ(farmEntries(dir).size(), 3u);

    // A failing unlink evicts nothing and throws nothing: eviction
    // is housekeeping, never a reason to fail the cell.
    io::ioFaultInstall(
        io::ioFaultPlanFromSpec("eio@ckpt_farm.evict.unlink"));
    EXPECT_NO_THROW(EXPECT_EQ(farm.evictOverBudget(2000, newest), 0u));
    EXPECT_EQ(farmEntries(dir).size(), 3u);
    io::ioFaultReset();

    // 2000-byte budget: only the oldest entry goes.
    std::uint64_t e0 = CheckpointFarm::state().evicted;
    EXPECT_EQ(farm.evictOverBudget(2000, newest), 1u);
    EXPECT_FALSE(std::filesystem::exists(oldest));
    EXPECT_TRUE(std::filesystem::exists(middle));
    EXPECT_TRUE(std::filesystem::exists(newest));
    EXPECT_EQ(CheckpointFarm::state().evicted - e0, 1u);

    // The just-produced entry is never evicted, even when it is the
    // only way to fit the budget.
    EXPECT_EQ(farm.evictOverBudget(500, newest), 1u);
    EXPECT_FALSE(std::filesystem::exists(middle));
    EXPECT_TRUE(std::filesystem::exists(newest));
}

// --- invalid mode combinations -----------------------------------------

TEST(CheckpointTest, InvalidCombinationsAreRejected)
{
    RunOptions both;
    both.checkpoint.savePath = "/tmp/never-written.bvl";
    both.checkpoint.ffInsts = 10;
    both.sampling = {10, 0, 10, 2};
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny, both)
                  .status,
              RunStatus::sim_error);

    RunOptions lock;
    lock.sampling = {10, 0, 10, 2};
    lock.check.lockstep = true;
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny, lock)
                  .status,
              RunStatus::sim_error);

    // Task-parallel workloads and runtime designs are multi-stream.
    RunOptions sam;
    sam.sampling = {10, 0, 10, 2};
    EXPECT_EQ(runWorkload(Design::d1b4VL, "bfs", Scale::tiny, sam)
                  .status,
              RunStatus::sim_error);
    EXPECT_EQ(runWorkload(Design::d1b4L, "saxpy", Scale::tiny, sam)
                  .status,
              RunStatus::sim_error);

    // Farm and strict combos (the CLI rejects these up front; the
    // engine must too, for programmatic callers).
    RunOptions farmPlusPath;
    farmPlusPath.checkpoint.farm = true;
    farmPlusPath.checkpoint.ffInsts = 100;
    farmPlusPath.checkpoint.savePath = "/tmp/never-written.bvl";
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          farmPlusPath).status,
              RunStatus::sim_error);

    RunOptions farmNoFf;
    farmNoFf.checkpoint.farm = true;
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          farmNoFf).status,
              RunStatus::sim_error);

    RunOptions strictAlone;
    strictAlone.checkpoint.strict = true;
    strictAlone.checkpoint.ffInsts = 100;
    strictAlone.checkpoint.savePath = "/tmp/never-written.bvl";
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          strictAlone).status,
              RunStatus::sim_error);

    RunOptions strictFf;
    strictFf.checkpoint.strict = true;
    strictFf.checkpoint.restorePath = "/tmp/never-read.bvl";
    strictFf.checkpoint.ffInsts = 100;
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          strictFf).status,
              RunStatus::sim_error);
}

// --- SMARTS-style sampling ---------------------------------------------

TEST(CheckpointTest, SampledRunEstimatesVerifiesAndIsDeterministic)
{
    RunOptions full;
    RunResult ref = runWorkload(Design::d1b4VL, "saxpy", Scale::small,
                                full);
    ASSERT_TRUE(ref.ok()) << ref.message;

    RunOptions sam;
    sam.sampling = {2000, 200, 500, 4};
    RunResult s = runWorkload(Design::d1b4VL, "saxpy", Scale::small,
                              sam);
    ASSERT_TRUE(s.ok()) << s.message;
    // Functional completion is exact, so verification still applies.
    EXPECT_TRUE(s.verified);
    EXPECT_EQ(s.stat("sample.periodsMeasured"), 4u);
    EXPECT_GT(s.stat("sample.measuredInsts"), 0u);
    EXPECT_GE(s.stat("sample.totalInsts"),
              s.stat("sample.measuredInsts"));

    // The extrapolated runtime is in the right ballpark. The tight
    // (<3% mean) bound is enforced at bench scale by
    // scripts/check_bench.py; per-workload tiny-sample noise gets a
    // looser gate here.
    ASSERT_GT(s.ns, 0.0);
    double err = std::abs(s.ns - ref.ns) / ref.ns;
    EXPECT_LT(err, 0.30) << "sampled " << s.ns << " ns vs full "
                         << ref.ns << " ns";

    // Sampling is deterministic: an identical rerun is byte-identical.
    RunResult s2 = runWorkload(Design::d1b4VL, "saxpy", Scale::small,
                               sam);
    EXPECT_EQ(dumpNoLog(s2), dumpNoLog(s));
}

// --- determinism through the sweep service (TSan via the concurrency
// --- label) ------------------------------------------------------------

TEST(CheckpointDeterminismTest, SweepSaveRestoreIsStableAcrossJobs)
{
    // The acceptance criterion: save at N, restore, run to completion
    // — stats byte-identical to the uninterrupted (save-flow) run,
    // through the sweep service, at one worker and at four.
    std::string dir = scratchDir("sweepdet");
    const char *names[] = {"vvadd", "saxpy"};

    auto sweep = [&](unsigned jobs) {
        SweepServiceOptions o;
        o.jobs = jobs;
        SweepService svc(o);

        std::vector<std::future<RunResult>> saves;
        for (const char *n : names) {
            SweepJob job{Design::d1b4VL, n, Scale::tiny, {}};
            job.opts.checkpoint.savePath =
                dir + "/" + n + "_j" + std::to_string(jobs) + ".bvl";
            job.opts.checkpoint.ffInsts = 100;
            saves.push_back(svc.submit(job));
        }
        std::vector<std::string> rows;
        for (auto &f : saves) {
            RunResult r = f.get();
            EXPECT_TRUE(r.ok()) << r.message;
            rows.push_back(dumpNoLog(r));
        }

        std::vector<std::future<RunResult>> restores;
        for (const char *n : names) {
            SweepJob job{Design::d1b4VL, n, Scale::tiny, {}};
            job.opts.checkpoint.restorePath =
                dir + "/" + n + "_j" + std::to_string(jobs) + ".bvl";
            job.opts.checkpoint.ffInsts = 100;
            restores.push_back(svc.submit(job));
        }
        for (unsigned i = 0; i < restores.size(); ++i) {
            RunResult r = restores[i].get();
            EXPECT_TRUE(r.ok()) << r.message;
            EXPECT_EQ(dumpNoLog(r), rows[i])
                << names[i] << " at jobs=" << jobs;
        }
        return rows;
    };

    auto serial = sweep(1);
    auto parallel = sweep(4);
    EXPECT_EQ(serial, parallel);
}

TEST(CheckpointDeterminismTest, SampledSweepIsStableAcrossJobs)
{
    auto sweep = [&](unsigned jobs) {
        SweepServiceOptions o;
        o.jobs = jobs;
        SweepService svc(o);
        std::vector<std::future<RunResult>> futs;
        for (const char *n : {"vvadd", "saxpy", "mmult"}) {
            SweepJob job{Design::d1b4VL, n, Scale::tiny, {}};
            job.opts.sampling = {100, 20, 50, 3};
            futs.push_back(svc.submit(job));
        }
        std::vector<std::string> rows;
        for (auto &f : futs) {
            RunResult r = f.get();
            EXPECT_TRUE(r.ok()) << r.message;
            EXPECT_TRUE(r.verified);
            rows.push_back(dumpNoLog(r));
        }
        return rows;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

} // namespace
} // namespace bvl
