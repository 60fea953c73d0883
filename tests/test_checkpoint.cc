/**
 * @file
 * Checkpoint and fast-forward engine tests (DESIGN.md §15/§16): a
 * restored run must be byte-identical to the run that produced the
 * checkpoint; with ffInsts a missing checkpoint is produced and a
 * corrupt one quarantined and produced again, never silently
 * trusted; without it a checkpoint that does not restore fails the
 * run and is left alone; mismatched checkpoints are fatal; the farm
 * produces each prefix once; SMARTS-style sampled runs estimate
 * runtime, still verify results, and are deterministic; and every
 * invalid mode combination is rejected.
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

/** A run through the checkpoint file at @p path; @p ff = 0 only
 *  restores it. */
RunOptions
fileOpts(const std::string &path, std::uint64_t ff)
{
    RunOptions o;
    o.checkpoint.path = path;
    o.checkpoint.ffInsts = ff;
    return o;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

/**
 * Serialized result minus the log: a producing run informs about the
 * published file and a restoring one about the restore, so the
 * captured log is the one field that legitimately differs between the
 * flows. Everything else — ns, status, verification, every stat —
 * must match exactly.
 */
std::string
dumpNoLog(RunResult r)
{
    r.log.clear();
    return runResultToJson(r).dump(0);
}

// --- produce / restore ---------------------------------------------------

TEST(CheckpointTest, SaveThenRestoreIsByteIdentical)
{
    std::string dir = scratchDir("roundtrip");
    std::string ck = dir + "/saxpy.bvl";

    // A fresh path with ffInsts: the prefix is produced and published.
    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  fileOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;
    EXPECT_TRUE(saved.verified);
    ASSERT_TRUE(std::filesystem::exists(ck));
    EXPECT_NE(saved.log.find("produced prefix"), std::string::npos)
        << saved.log;
    const std::string bytes = readBytes(ck);

    // The rerun restores it, with or without ffInsts, and leaves the
    // file as it was.
    for (std::uint64_t ff : {150u, 0u}) {
        RunResult restored = runWorkload(Design::d1b4VL, "saxpy",
                                         Scale::tiny, fileOpts(ck, ff));
        ASSERT_TRUE(restored.ok()) << "ff " << ff << ": "
                                   << restored.message;
        EXPECT_TRUE(restored.verified);
        EXPECT_NE(restored.log.find("restored prefix"),
                  std::string::npos) << restored.log;

        // The whole point: resuming from the snapshot reproduces the
        // producing run exactly, stats and simulated time included.
        EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved)) << "ff " << ff;
        EXPECT_EQ(restored.ns, saved.ns);
        EXPECT_EQ(restored.stats, saved.stats);
        EXPECT_EQ(readBytes(ck), bytes) << "ff " << ff;
    }

    // And producing is itself deterministic: a second producing run
    // gives an identical result and an identical checkpoint file.
    std::string ck2 = dir + "/saxpy2.bvl";
    RunResult saved2 = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                   fileOpts(ck2, 150));
    EXPECT_EQ(dumpNoLog(saved2), dumpNoLog(saved));
    EXPECT_EQ(readBytes(ck2), bytes);
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
                                      fileOpts(ck, 100));
        ASSERT_TRUE(saved.ok()) << designName(d) << ": "
                                << saved.message;
        std::ifstream f(ck, std::ios::binary);
        std::string header;
        ASSERT_TRUE(std::getline(f, header)) << designName(d);
        EXPECT_EQ(Json::parse(header)["flavor"].asString(), flavor)
            << designName(d);
        RunResult restored = runWorkload(d, "vvadd", Scale::tiny,
                                         fileOpts(ck, 0));
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
                                  fileOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;
    const std::string bytes = readBytes(ck);

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
    const std::string damaged = readBytes(ck);

    RunResult restored = runWorkload(Design::d1b4VL, "saxpy",
                                     Scale::tiny, fileOpts(ck, 150));
    // Quarantined (renamed aside, never trusted) and re-simulated to
    // the same answer, which is published again in its place.
    ASSERT_TRUE(restored.ok()) << restored.message;
    EXPECT_NE(restored.log.find("quarantined"), std::string::npos)
        << restored.log;
    EXPECT_EQ(readBytes(ck + ".corrupt"), damaged);
    EXPECT_EQ(readBytes(ck), bytes);
    EXPECT_EQ(dumpNoLog(restored), dumpNoLog(saved));
}

TEST(CheckpointTest, DamagedImageOrTruncatedPayloadIsQuarantined)
{
    std::string dir = scratchDir("damage");
    std::string ck = dir + "/ck.bvl";
    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  fileOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    const std::string bytes = readBytes(ck);
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
    // Each is quarantined (renamed aside, never trusted), produced
    // again to the same answer, and published again byte for byte.
    for (const Case &c : cases) {
        std::string path = dir + "/" + c.name + ".bvl";
        std::ofstream(path, std::ios::binary) << c.bytes;
        RunResult r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  fileOpts(path, 150));
        ASSERT_TRUE(r.ok()) << c.name << ": " << r.message;
        EXPECT_NE(r.log.find(std::string("is corrupt (") + c.why + ")"),
                  std::string::npos) << c.name << ": " << r.log;
        EXPECT_NE(r.log.find("produced prefix"), std::string::npos)
            << c.name << ": " << r.log;
        EXPECT_EQ(readBytes(path + ".corrupt"), c.bytes) << c.name;
        EXPECT_EQ(readBytes(path), bytes) << c.name;
        EXPECT_EQ(dumpNoLog(r), dumpNoLog(saved)) << c.name;
    }
}

TEST(CheckpointTest, MissingCheckpointFallsBackToFastForward)
{
    std::string dir = scratchDir("missing");
    RunOptions cold;
    cold.checkpoint.ffInsts = 150;
    RunResult base = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                 cold);
    ASSERT_TRUE(base.ok()) << base.message;

    // Without ffInsts nothing says how far to fast-forward: the run
    // fails and creates no file.
    std::string ck = dir + "/nope.bvl";
    RunResult stuck = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  fileOpts(ck, 0));
    EXPECT_EQ(stuck.status, RunStatus::sim_error);
    EXPECT_NE(stuck.message.find("missing"), std::string::npos)
        << stuck.message;
    EXPECT_FALSE(std::filesystem::exists(ck));

    // With it, the run fast-forwards exactly like the plain cold run.
    RunResult produced = runWorkload(Design::d1b4VL, "saxpy",
                                     Scale::tiny, fileOpts(ck, 150));
    ASSERT_TRUE(produced.ok()) << produced.message;
    EXPECT_TRUE(std::filesystem::exists(ck));
    EXPECT_EQ(dumpNoLog(produced), dumpNoLog(base));
}

TEST(CheckpointTest, MismatchedCheckpointIsFatal)
{
    std::string dir = scratchDir("mismatch");
    std::string ck = dir + "/ck.bvl";
    ASSERT_TRUE(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                            fileOpts(ck, 150)).ok());
    std::string bigCk = dir + "/big.bvl";
    ASSERT_TRUE(runWorkload(Design::d1b, "saxpy", Scale::tiny,
                            fileOpts(bigCk, 150)).ok());
    const std::string bytes = readBytes(ck);
    const std::string bigBytes = readBytes(bigCk);

    // With or without ffInsts: a quiet re-production would mask a
    // config error (and overwrite the user's file), so it must be
    // fatal and leave the file alone.
    for (std::uint64_t ff : {150u, 0u}) {
        // Wrong design: different cache geometry and executing core.
        RunResult wrongDesign = runWorkload(Design::d1bDV, "saxpy",
                                            Scale::tiny,
                                            fileOpts(ck, ff));
        EXPECT_EQ(wrongDesign.status, RunStatus::sim_error);
        EXPECT_NE(wrongDesign.message.find("does not match"),
                  std::string::npos) << wrongDesign.message;

        RunResult wrongWorkload = runWorkload(Design::d1b4VL, "vvadd",
                                              Scale::tiny,
                                              fileOpts(ck, ff));
        EXPECT_EQ(wrongWorkload.status, RunStatus::sim_error);
        EXPECT_NE(wrongWorkload.message.find("does not match"),
                  std::string::npos) << wrongWorkload.message;

        // Same scalar program and VLEN, other executing core: a
        // big-core prefix carries predictor state a little core does
        // not have.
        RunResult wrongCore = runWorkload(Design::d1L, "saxpy",
                                          Scale::tiny,
                                          fileOpts(bigCk, ff));
        EXPECT_EQ(wrongCore.status, RunStatus::sim_error);
        EXPECT_NE(wrongCore.message.find("does not match"),
                  std::string::npos) << wrongCore.message;

        EXPECT_EQ(readBytes(ck), bytes) << "ff " << ff;
        EXPECT_EQ(readBytes(bigCk), bigBytes) << "ff " << ff;
        EXPECT_FALSE(std::filesystem::exists(ck + ".corrupt"));
    }
}

TEST(CheckpointTest, FastForwardPastHaltIsFatal)
{
    // saxpy tiny executes ~359 dynamic instructions; asking to skip
    // more must fail loudly (a checkpoint "after the end" would make
    // the detailed window measure nothing).
    std::string dir = scratchDir("pasthalt");
    RunResult r = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                              fileOpts(dir + "/ck.bvl", 1000000));
    EXPECT_EQ(r.status, RunStatus::sim_error);
    EXPECT_NE(r.message.find("halted"), std::string::npos)
        << r.message;
    EXPECT_FALSE(std::filesystem::exists(dir + "/ck.bvl"));
}

// --- restore without ffInsts ---------------------------------------------

TEST(CheckpointTest, RestoreOnlyPathSucceedsOrFailsLoudly)
{
    std::string dir = scratchDir("restoreonly");
    std::string ck = dir + "/ck.bvl";
    RunResult saved = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                                  fileOpts(ck, 150));
    ASSERT_TRUE(saved.ok()) << saved.message;

    // A path with no ffInsts restores a valid checkpoint exactly like
    // one that could produce it, and never fast-forwards: CI uses it
    // to assert "this run really restored". (The missing and
    // mismatched cases are in the two tests above.)
    RunResult ok = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                               fileOpts(ck, 0));
    ASSERT_TRUE(ok.ok()) << ok.message;
    EXPECT_EQ(dumpNoLog(ok), dumpNoLog(saved));

    // A corrupt one is a hard error, and the file stays where it is:
    // quarantine-and-produce needs a prefix length to produce.
    std::string corrupt = readBytes(ck);
    corrupt[corrupt.size() - 50] ^= char(0xff);
    std::ofstream(ck, std::ios::binary) << corrupt;
    RunResult c = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                              fileOpts(ck, 0));
    EXPECT_EQ(c.status, RunStatus::sim_error);
    EXPECT_NE(c.message.find("cannot restore checkpoint"),
              std::string::npos) << c.message;
    EXPECT_NE(c.message.find("(corrupt)"), std::string::npos)
        << c.message;
    EXPECT_EQ(readBytes(ck), corrupt);
    EXPECT_FALSE(std::filesystem::exists(ck + ".corrupt"));
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
    both.checkpoint.path = "/tmp/never-written.bvl";
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

    // The farm names its own entries and keys them by ffInsts.
    RunOptions farmPlusPath;
    farmPlusPath.checkpoint.farm = true;
    farmPlusPath.checkpoint.ffInsts = 100;
    farmPlusPath.checkpoint.path = "/tmp/never-written.bvl";
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          farmPlusPath).status,
              RunStatus::sim_error);

    RunOptions farmNoFf;
    farmNoFf.checkpoint.farm = true;
    EXPECT_EQ(runWorkload(Design::d1b4VL, "saxpy", Scale::tiny,
                          farmNoFf).status,
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
    // The acceptance criterion: produce at N, restore, run to
    // completion — stats byte-identical to the producing run, through
    // the sweep service, at one worker and at four.
    std::string dir = scratchDir("sweepdet");
    const char *names[] = {"vvadd", "saxpy"};

    auto sweep = [&](unsigned jobs) {
        SweepServiceOptions o;
        o.jobs = jobs;
        SweepService svc(o);

        std::vector<std::future<RunResult>> saves;
        for (const char *n : names) {
            SweepJob job{Design::d1b4VL, n, Scale::tiny, {}};
            job.opts.checkpoint.path =
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
            job.opts.checkpoint.path =
                dir + "/" + n + "_j" + std::to_string(jobs) + ".bvl";
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
