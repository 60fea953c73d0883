/**
 * @file
 * Property tests of the cache timing model under randomized request
 * streams: counter conservation (hits + misses == accesses, fills <=
 * misses), capacity (resident lines never exceed ways x sets),
 * determinism across repeated runs, LRU retention of hot lines, and
 * mode-switch hygiene of the reconfigurable indexing.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sim/rng.hh"

namespace bvl
{
namespace
{

struct CacheHarness
{
    CacheHarness() : uncore(eq, "u", 1.0), sys(uncore, stats) {}

    /** Issue a random request stream and drain the queue. */
    void
    randomStream(std::uint64_t seed, unsigned count, Addr span,
                 unsigned coreId = 0)
    {
        Rng rng(seed);
        unsigned pending = 0;
        for (unsigned i = 0; i < count; ++i) {
            Addr addr = rng.below(span) & ~Addr(3);
            bool write = rng.below(4) == 0;
            ++pending;
            sys.accessData(coreId, addr, write, [&] { --pending; });
            // Occasionally drain to bound queue growth.
            if (i % 16 == 15)
                while (pending > 0 && eq.step()) {}
        }
        while (pending > 0 && eq.step()) {}
        eq.run();
    }

    EventQueue eq;
    ClockDomain uncore;
    StatGroup stats;
    MemSystem sys;
};

class CacheStreamTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CacheStreamTest, CountersAreConserved)
{
    CacheHarness h;
    h.randomStream(GetParam(), 600, 256 * 1024);
    auto a = h.stats.value("little0.l1d.accesses");
    auto hits = h.stats.value("little0.l1d.hits");
    auto misses = h.stats.value("little0.l1d.misses");
    EXPECT_EQ(a, hits + misses);
    EXPECT_GT(a, 0u);
    EXPECT_LE(h.stats.value("little0.l1d.fills"), misses);
    EXPECT_LE(h.stats.value("little0.l1d.writebacks"),
              h.stats.value("little0.l1d.evictions"));
    // L2 sees only L1 misses (plus writebacks).
    EXPECT_LE(h.stats.value("l2.accesses"),
              misses + h.stats.value("little0.l1d.writebacks"));
}

TEST_P(CacheStreamTest, DeterministicAcrossRuns)
{
    CacheHarness h1, h2;
    h1.randomStream(GetParam(), 400, 128 * 1024);
    h2.randomStream(GetParam(), 400, 128 * 1024);
    EXPECT_EQ(h1.stats.value("little0.l1d.hits"),
              h2.stats.value("little0.l1d.hits"));
    EXPECT_EQ(h1.stats.value("dram.reads"),
              h2.stats.value("dram.reads"));
    EXPECT_EQ(h1.eq.now(), h2.eq.now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheStreamTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(CachePropertyTest, SmallFootprintEventuallyAllHits)
{
    CacheHarness h;
    // 8KB working set fits the 32KB L1D: after a warm pass, a second
    // pass must be all hits.
    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1)
            h.stats.resetAll();
        unsigned pending = 0;
        for (Addr a = 0; a < 8 * 1024; a += 64) {
            ++pending;
            h.sys.accessData(0, 0x20000 + a, false, [&] { --pending; });
            while (pending > 0 && h.eq.step()) {}
        }
    }
    EXPECT_EQ(h.stats.value("little0.l1d.misses"), 0u);
    EXPECT_GT(h.stats.value("little0.l1d.hits"), 0u);
}

TEST(CachePropertyTest, LargerFootprintMissesMore)
{
    auto missRate = [](Addr span) {
        CacheHarness h;
        h.randomStream(99, 800, span);
        double a = double(h.stats.value("little0.l1d.accesses"));
        return double(h.stats.value("little0.l1d.misses")) / a;
    };
    double small = missRate(16 * 1024);     // fits L1
    double large = missRate(1024 * 1024);   // far exceeds L1
    EXPECT_LT(small, large);
}

TEST(CachePropertyTest, HotLineSurvivesLru)
{
    CacheHarness h;
    auto touch = [&](Addr a) {
        bool done = false;
        h.sys.accessData(0, a, false, [&] { done = true; });
        while (!done && h.eq.step()) {}
    };
    // Keep re-touching one line while streaming conflicting lines
    // through the same set (32KB 2-way: sets repeat every 16KB).
    touch(0x10000);
    for (int i = 1; i <= 6; ++i) {
        touch(0x10000 + Addr(i) * 16 * 1024);   // conflicts
        touch(0x10000);                          // keep it hot
    }
    EXPECT_TRUE(h.sys.l1d(0).probe(0x10000));
}

TEST(CachePropertyTest, ModeSwitchKeepsSingleCopyPerCache)
{
    CacheHarness h;
    Cache &l1d = h.sys.l1d(0);
    auto touch = [&](bool banked, Addr a) {
        bool done = false;
        if (banked)
            h.sys.accessBank(h.sys.bankOf(a), a, false,
                             [&] { done = true; });
        else
            h.sys.accessData(0, a, false, [&] { done = true; });
        while (!done && h.eq.step()) {}
    };
    // probe() under each index mode, restoring the current one.
    auto probeIn = [&](IndexMode mode, Addr a) {
        IndexMode saved = l1d.getIndexMode();
        l1d.setIndexMode(mode);
        bool found = l1d.probe(a);
        l1d.setIndexMode(saved);
        return found;
    };
    // 32 KB 2-way: 256 sets, scalar set = line % 256, banked set =
    // (line / 4) % 256. Where the two coincide one copy answers both
    // probes, so those lines cannot show a duplicate.
    auto setsCoincide = [](Addr a) {
        Addr line = a / 64;
        return line % 256 == (line / 4) % 256;
    };
    // Alternate modes over a small pool of bank-0 lines, so little0's
    // L1D keeps meeting lines it filled under the other mode. After
    // every access the line sits under exactly one index mode (fills
    // drop the stale-mode copy), so residentAnywhere never sees
    // duplicates.
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        Addr a = rng.below(32) * 4 * 64;
        ASSERT_EQ(h.sys.bankOf(a), 0u);
        bool banked = rng.below(2) == 0;
        h.sys.setVectorMode(banked);
        touch(banked, a);
        EXPECT_TRUE(l1d.residentAnywhere(a));
        if (setsCoincide(a))
            continue;
        bool scalar = probeIn(IndexMode::scalarPrivate, a);
        bool bankedCopy = probeIn(IndexMode::vectorBanked, a);
        EXPECT_NE(scalar, bankedCopy) << "line 0x" << std::hex << a;
    }
    h.sys.setVectorMode(false);
}

} // namespace
} // namespace bvl
