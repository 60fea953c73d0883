/**
 * @file
 * Unit tests for the memory hierarchy: cache hit/miss timing, MSHR
 * behaviour, LRU and writebacks, directory invalidations, DRAM
 * bandwidth, and the reconfigurable banked indexing used in vector
 * mode.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace bvl
{
namespace
{

class MemTest : public ::testing::Test
{
  protected:
    MemTest() : uncore(eq, "uncore", 1.0), sys(uncore, stats) {}

    /** Run until drained and return completion tick of a callback. */
    Tick
    runUntilDone(bool &done)
    {
        Tick t = 0;
        while (!done && eq.step())
            t = eq.now();
        EXPECT_TRUE(done);
        return t;
    }

    EventQueue eq;
    ClockDomain uncore;
    StatGroup stats;
    MemSystem sys;
};

TEST_F(MemTest, ColdMissThenHit)
{
    bool done = false;
    sys.accessData(0, 0x1000, false, [&] { done = true; });
    Tick missTick = runUntilDone(done);

    // A hit to the same line must be much faster than the miss.
    bool done2 = false;
    sys.accessData(0, 0x1020, false, [&] { done2 = true; });
    Tick start = eq.now();
    while (!done2 && eq.step()) {}
    Tick hitLatency = eq.now() - start;

    EXPECT_GT(missTick, hitLatency * 5);
    EXPECT_EQ(stats.value("little0.l1d.hits"), 1u);
    EXPECT_EQ(stats.value("little0.l1d.misses"), 1u);
}

TEST_F(MemTest, HitBuildsNoMissCallback)
{
    /** A miss callback that counts its moves. */
    struct Counting
    {
        int *moves;
        bool *fired;
        Counting(int *m, bool *f) : moves(m), fired(f) {}
        Counting(Counting &&o) noexcept : moves(o.moves), fired(o.fired)
        { ++*moves; }
        void operator()() { *fired = true; }
    };
    bool warm = false;
    sys.accessData(0, 0x1000, false, [&] { warm = true; });
    runUntilDone(warm);

    // A hit returns its ready tick and never wraps the callback in a
    // MemCallback, so it is not moved once.
    int moves = 0;
    bool fired = false;
    EXPECT_NE(sys.accessDataTick(0, 0x1020, false,
                                 Counting(&moves, &fired)), maxTick);
    EXPECT_EQ(moves, 0);
    // A miss wraps it and fires it once the line is present.
    EXPECT_EQ(sys.accessDataTick(0, 0x9000, false,
                                 Counting(&moves, &fired)), maxTick);
    runUntilDone(fired);
}

TEST_F(MemTest, MissLatencyIncludesDram)
{
    bool done = false;
    sys.accessData(0, 0x1000, false, [&] { done = true; });
    Tick t = runUntilDone(done);
    // l1 2cy + l2 20cy + dram 80ns at 1GHz -> at least 100ns.
    EXPECT_GE(t, 100 * ticksPerNs);
}

TEST_F(MemTest, SecondaryMissPiggybacksOnMshr)
{
    bool a = false, b = false;
    sys.accessData(0, 0x2000, false, [&] { a = true; });
    sys.accessData(0, 0x2008, false, [&] { b = true; });
    while ((!a || !b) && eq.step()) {}
    EXPECT_TRUE(a && b);
    // Only one DRAM read for the shared line.
    EXPECT_EQ(stats.value("dram.reads"), 1u);
    EXPECT_EQ(stats.value("little0.l1d.misses"), 2u);
    EXPECT_EQ(stats.value("little0.l1d.fills"), 1u);
}

TEST_F(MemTest, L2HitAvoidsDram)
{
    bool a = false;
    sys.accessData(0, 0x3000, false, [&] { a = true; });
    runUntilDone(a);
    // Different little core, same line: L1 miss, L2 hit.
    bool b = false;
    sys.accessData(1, 0x3000, false, [&] { b = true; });
    runUntilDone(b);
    EXPECT_EQ(stats.value("dram.reads"), 1u);
    EXPECT_EQ(stats.value("l2.hits"), 1u);
}

TEST_F(MemTest, EvictionWritesBackDirtyLine)
{
    // 32KB 2-way: lines mapping to the same set are 16KB apart.
    // Fill both ways dirty, then force an eviction with a third line.
    bool d1 = false, d2 = false, d3 = false;
    sys.accessData(0, 0x10000, true, [&] { d1 = true; });
    runUntilDone(d1);
    sys.accessData(0, 0x10000 + 16 * 1024, true, [&] { d2 = true; });
    runUntilDone(d2);
    sys.accessData(0, 0x10000 + 32 * 1024, true, [&] { d3 = true; });
    runUntilDone(d3);
    EXPECT_EQ(stats.value("little0.l1d.evictions"), 1u);
    EXPECT_EQ(stats.value("little0.l1d.writebacks"), 1u);
}

TEST_F(MemTest, DirectoryInvalidatesOtherSharersOnWrite)
{
    bool a = false, b = false;
    sys.accessData(0, 0x4000, false, [&] { a = true; });
    runUntilDone(a);
    sys.accessData(1, 0x4000, false, [&] { b = true; });
    runUntilDone(b);
    EXPECT_TRUE(sys.l1d(0).residentAnywhere(0x4000));
    EXPECT_TRUE(sys.l1d(1).residentAnywhere(0x4000));

    // Core 2 writes: both copies must be invalidated. The write misses
    // core 2's L1D, so the directory sees it.
    bool c = false;
    sys.accessData(2, 0x4000, true, [&] { c = true; });
    runUntilDone(c);
    EXPECT_FALSE(sys.l1d(0).residentAnywhere(0x4000));
    EXPECT_FALSE(sys.l1d(1).residentAnywhere(0x4000));
    EXPECT_TRUE(sys.l1d(2).residentAnywhere(0x4000));
    EXPECT_GE(stats.value("l2.dir.invalidates"), 1u);
}

TEST_F(MemTest, BankedIndexingFindsLinesAfterModeSwitch)
{
    // Fill a line in scalar mode, switch to vector mode: the same
    // line must MISS under banked indexing (wrong set), and the fill
    // must drop the stale scalar-mode copy so the cache never holds
    // two copies.
    bool a = false;
    sys.accessData(0, 0x8000, false, [&] { a = true; });
    runUntilDone(a);
    EXPECT_TRUE(sys.l1d(0).probe(0x8000));

    sys.setVectorMode(true);
    unsigned bank = sys.bankOf(0x8000);
    if (bank == 0) {
        EXPECT_TRUE(sys.l1d(0).residentAnywhere(0x8000));
        bool b = false;
        sys.accessBank(0, 0x8000, false, [&] { b = true; });
        runUntilDone(b);
        EXPECT_TRUE(sys.l1d(0).probe(0x8000));
        // exactly one copy resident
        EXPECT_TRUE(sys.l1d(0).residentAnywhere(0x8000));
    }
    sys.setVectorMode(false);
}

TEST_F(MemTest, WriteInvalidatesCopyStrandedByModeSwitch)
{
    // 0x8000 is line 512: scalar set 0, banked set 128, so after the
    // switch little0's copy sits outside its banked-mode set.
    bool a = false;
    sys.accessData(0, 0x8000, false, [&] { a = true; });
    runUntilDone(a);
    sys.setVectorMode(true);
    EXPECT_FALSE(sys.l1d(0).probe(0x8000));
    EXPECT_TRUE(sys.l1d(0).residentAnywhere(0x8000));

    // A big-core write: the directory must find and drop the copy in
    // the scalar-mode set even though the L1D now indexes banked.
    bool b = false;
    sys.accessData(sys.bigCoreId(), 0x8000, true, [&] { b = true; });
    runUntilDone(b);
    EXPECT_EQ(stats.value("l2.dir.invalidates"), 1u);
    EXPECT_EQ(stats.value("little0.l1d.invalidations"), 1u);
    EXPECT_FALSE(sys.l1d(0).residentAnywhere(0x8000));

    sys.setVectorMode(false);
    EXPECT_FALSE(sys.l1d(0).probe(0x8000));
    auto misses = stats.value("little0.l1d.misses");
    bool c = false;
    sys.accessData(0, 0x8000, false, [&] { c = true; });
    runUntilDone(c);
    EXPECT_EQ(stats.value("little0.l1d.misses"), misses + 1);
}

TEST_F(MemTest, BankInterleavingIsLineGranular)
{
    // Consecutive lines must map to consecutive banks (paper §III-E).
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(sys.bankOf(0x1000 + i * lineBytes), i % 4);
    // Addresses within one line map to the same bank.
    EXPECT_EQ(sys.bankOf(0x1000), sys.bankOf(0x103f));
}

TEST_F(MemTest, DramBandwidthSerializesLines)
{
    // Two misses to different L2 sets both go to DRAM; the second
    // line transfer must start after the first finishes its slot.
    bool a = false, b = false;
    Tick ta = 0, tb = 0;
    sys.accessData(0, 0x100000, false, [&] { a = true; ta = eq.now(); });
    sys.accessData(0, 0x200000, false, [&] { b = true; tb = eq.now(); });
    while ((!a || !b) && eq.step()) {}
    ASSERT_TRUE(a && b);
    // 64B at 25.6GB/s = 2.5ns per line slot.
    EXPECT_GE(tb, ta + 2 * ticksPerNs);
    EXPECT_EQ(stats.value("dram.reads"), 2u);
}

TEST_F(MemTest, InstructionFetchPathCounts)
{
    bool a = false;
    sys.fetchInst(0, 0x9000, [&] { a = true; });
    runUntilDone(a);
    bool b = false;
    sys.fetchInst(sys.bigCoreId(), 0x9000, [&] { b = true; });
    runUntilDone(b);
    EXPECT_EQ(stats.value("sys.ifetchReqs"), 2u);
    EXPECT_EQ(stats.value("little0.l1i.misses"), 1u);
    EXPECT_EQ(stats.value("big.l1i.misses"), 1u);
}

TEST_F(MemTest, DirectL2PathForDecoupledEngine)
{
    bool a = false;
    sys.accessL2(0xa000, false, [&] { a = true; });
    runUntilDone(a);
    EXPECT_EQ(stats.value("l2.accesses"), 1u);
    EXPECT_EQ(stats.value("sys.dataReqs"), 1u);
    // L1s untouched
    EXPECT_EQ(stats.value("little0.l1d.accesses"), 0u);
}

TEST_F(MemTest, MshrFullQueuesAndEventuallyCompletes)
{
    // little L1D has 8 MSHRs; issue 12 distinct-line misses.
    int completed = 0;
    for (int i = 0; i < 12; ++i)
        sys.accessData(0, 0x40000 + i * 4096, false,
                       [&] { ++completed; });
    while (completed < 12 && eq.step()) {}
    EXPECT_EQ(completed, 12);
    EXPECT_GE(stats.value("little0.l1d.mshrFull"), 1u);
}

} // namespace
} // namespace bvl
