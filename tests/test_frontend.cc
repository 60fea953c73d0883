/**
 * @file
 * Unit tests of front-end helpers and small components: the gshare
 * predictor, the prefetching fetch buffer, the backing store's edge
 * cases, disassembly, and the bank-mode cache indexing maths.
 */

#include <gtest/gtest.h>

#include "cpu/bpred.hh"
#include "cpu/fetch_buffer.hh"
#include "mem/backing_store.hh"
#include "mem/mem_system.hh"
#include "isa/program.hh"

namespace bvl
{
namespace
{

TEST(BpredTest, LearnsAlwaysTaken)
{
    GsharePredictor bp(10);
    // Enough updates for the global history to saturate at all-taken,
    // so the same table index trains repeatedly.
    for (int i = 0; i < 30; ++i)
        bp.update(0x40, true);
    EXPECT_TRUE(bp.predict(0x40));
}

TEST(BpredTest, LearnsAlternationThroughHistory)
{
    GsharePredictor bp(10);
    // Alternating T/N at one pc: global history disambiguates.
    int mispredicts = 0;
    bool taken = false;
    for (int i = 0; i < 400; ++i) {
        taken = !taken;
        if (bp.predict(0x80) != taken && i > 100)
            ++mispredicts;
        bp.update(0x80, taken);
    }
    EXPECT_LT(mispredicts, 10);
}

TEST(BpredTest, ResetForgets)
{
    GsharePredictor bp(10);
    for (int i = 0; i < 8; ++i)
        bp.update(0x40, true);
    bp.reset();
    EXPECT_FALSE(bp.predict(0x40));   // counters back to weakly-NT
}

/** Clocked stub that records whether its tick ever fired. */
class WakeProbe : public Clocked
{
  public:
    using Clocked::Clocked;
    bool woke = false;

  protected:
    bool tick() override { woke = true; return false; }
};

class FetchBufTest : public ::testing::Test
{
  protected:
    FetchBufTest()
        : uncore(eq, "u", 1.0), sys(uncore, stats),
          buf(sys, 0, stats, "t.", 8, 3), probe(uncore, "probe")
    {}

    EventQueue eq;
    ClockDomain uncore;
    StatGroup stats;
    MemSystem sys;
    FetchBuffer buf;
    WakeProbe probe;
};

TEST_F(FetchBufTest, DemandLineBecomesReady)
{
    EXPECT_FALSE(buf.lineReady(0x1000, &probe));
    eq.run();
    EXPECT_TRUE(probe.woke);
    EXPECT_TRUE(buf.lineReady(0x1000, nullptr));
    EXPECT_TRUE(buf.lineReady(0x103f, nullptr));   // same line
}

TEST_F(FetchBufTest, PrefetchesSequentialLines)
{
    buf.lineReady(0x1000, nullptr);
    eq.run();
    // depth-3 prefetch: the next three lines arrive without demand.
    EXPECT_TRUE(buf.lineReady(0x1040, nullptr));
    EXPECT_TRUE(buf.lineReady(0x1080, nullptr));
    EXPECT_TRUE(buf.lineReady(0x10c0, nullptr));
    EXPECT_EQ(stats.value("t.fetchLineReqs"), 1u);
    EXPECT_GE(stats.value("t.fetchPrefetches"), 3u);
}

TEST_F(FetchBufTest, CapacityEvictsOldLines)
{
    // Touch far more lines than the 8-entry capacity.
    for (int i = 0; i < 24; ++i) {
        buf.lineReady(0x1000 + i * 0x40, nullptr);
        eq.run();
    }
    // The very first line must have been evicted: demand again.
    auto before = stats.value("t.fetchLineReqs");
    EXPECT_FALSE(buf.lineReady(0x1000, nullptr));
    EXPECT_GT(stats.value("t.fetchLineReqs"), before);
}

TEST(BackingStoreTest, PageStraddlingAccess)
{
    BackingStore mem;
    Addr edge = BackingStore::pageBytes - 4;
    mem.writeT<std::uint64_t>(edge, 0x1122334455667788ULL);
    EXPECT_EQ(mem.readT<std::uint64_t>(edge), 0x1122334455667788ULL);
    EXPECT_EQ(mem.readT<std::uint32_t>(edge), 0x55667788u);
    EXPECT_EQ(mem.readT<std::uint32_t>(BackingStore::pageBytes),
              0x11223344u);
    EXPECT_EQ(mem.allocatedPages(), 2u);
}

TEST(BackingStoreTest, CopyOwnsItsPages)
{
    // The lockstep checker's shadow memory is a copy taken after the
    // workload's init writes warmed the page cache; writes through
    // either store must never reach the other.
    BackingStore mem;
    mem.writeT<std::uint64_t>(0x1000, 1);
    BackingStore copy(mem);
    copy.writeT<std::uint64_t>(0x1000, 2);
    mem.writeT<std::uint64_t>(0x1008, 3);
    EXPECT_EQ(mem.readT<std::uint64_t>(0x1000), 1u);
    EXPECT_EQ(copy.readT<std::uint64_t>(0x1000), 2u);
    EXPECT_EQ(copy.readT<std::uint64_t>(0x1008), 0u);
    EXPECT_EQ(copy.allocatedPages(), 1u);
}

TEST(BackingStoreTest, UnwrittenMemoryReadsZero)
{
    BackingStore mem;
    EXPECT_EQ(mem.readT<std::uint64_t>(0xdeadb000), 0u);
    EXPECT_EQ(mem.readInt(12345, 2), 0u);
    EXPECT_EQ(mem.allocatedPages(), 0u);
}

TEST(BackingStoreTest, PartialWidthWrites)
{
    BackingStore mem;
    mem.writeT<std::uint64_t>(0x100, ~0ull);
    mem.writeInt(0x102, 0, 2);
    EXPECT_EQ(mem.readT<std::uint64_t>(0x100),
              0xffffffff0000ffffULL);
}

TEST(DisasmTest, InstrToStringIsReadable)
{
    Asm a("t");
    a.li(xreg(1), 42)
     .vle(vreg(2), xreg(1), 4)
     .blt(xreg(1), xreg(2), "end")
     .label("end")
     .halt();
    auto p = a.finish();
    EXPECT_NE(p->at(0).toString().find("li"), std::string::npos);
    EXPECT_NE(p->at(0).toString().find("#42"), std::string::npos);
    EXPECT_NE(p->at(1).toString().find("vle"), std::string::npos);
    EXPECT_NE(p->at(2).toString().find("-> @3"), std::string::npos);
    EXPECT_NE(p->toString().find("(4 insts)"), std::string::npos);
}

TEST(BankMapTest, BankBitsAboveOffset)
{
    BankMap map;
    map.numBanks = 4;
    EXPECT_EQ(map.bankOf(0x0), 0u);
    EXPECT_EQ(map.bankOf(0x40), 1u);
    EXPECT_EQ(map.bankOf(0x80), 2u);
    EXPECT_EQ(map.bankOf(0xc0), 3u);
    EXPECT_EQ(map.bankOf(0x100), 0u);
    // Bank-local line numbers strip the bank bits.
    EXPECT_EQ(map.bankLocalLine(0x40), map.bankLocalLine(0x0) + 0u);
    EXPECT_EQ(map.bankLocalLine(0x100), 1u);
}

TEST(ProgramTest, TextBasePlacesInstructions)
{
    Asm a("t");
    a.nop().nop().halt();
    auto p = a.finish();
    p->setTextBase(0x50000000);
    EXPECT_EQ(p->instAddr(0), 0x50000000u);
    EXPECT_EQ(p->instAddr(2), 0x50000008u);
}

TEST(ProgramTest, OutOfRangePcPanics)
{
    Asm a("t");
    a.halt();
    auto p = a.finish();
    EXPECT_THROW(p->at(5), SimPanicError);
}

} // namespace
} // namespace bvl
