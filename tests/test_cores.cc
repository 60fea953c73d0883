/**
 * @file
 * Unit tests for the scalar core timing models (little in-order core,
 * big out-of-order core): functional correctness under timing, stall
 * accounting invariants, memory-latency sensitivity, OoO speedup over
 * in-order, and branch-misprediction behaviour.
 */

#include <gtest/gtest.h>

#include "cpu/big_core.hh"
#include "cpu/little_core.hh"
#include "mem/mem_system.hh"
#include "sim/check/invariants.hh"
#include "sim/clock_domain.hh"

namespace bvl
{
namespace
{

struct CoreHarness
{
    explicit CoreHarness(BigCoreParams bigParams = {})
        : uncore(eq, "uncore", 1.0), cores(eq, "cores", 1.0),
          sys(uncore, stats),
          little(cores, stats, sys, backing, 0, 512),
          big(cores, stats, sys, backing, 512, bigParams)
    {}

    /** Run @p prog on the little core to completion, return cycles. */
    std::uint64_t
    runLittle(ProgramPtr prog,
              std::vector<std::pair<RegId, std::uint64_t>> args = {})
    {
        bool done = false;
        Tick start = eq.now();
        little.runProgram(std::move(prog), args, [&] { done = true; });
        while (!done && eq.step()) {}
        EXPECT_TRUE(done);
        return cores.ticksToCycles(eq.now() - start);
    }

    std::uint64_t
    runBig(ProgramPtr prog,
           std::vector<std::pair<RegId, std::uint64_t>> args = {})
    {
        bool done = false;
        Tick start = eq.now();
        big.runProgram(std::move(prog), args, [&] { done = true; });
        while (!done && eq.step()) {}
        EXPECT_TRUE(done);
        return cores.ticksToCycles(eq.now() - start);
    }

    EventQueue eq;
    ClockDomain uncore;
    ClockDomain cores;
    StatGroup stats;
    BackingStore backing;
    MemSystem sys;
    LittleCore little;
    BigCore big;
};

ProgramPtr
sumLoopProgram(int n)
{
    Asm a("sumloop");
    a.li(xreg(1), 0)
     .li(xreg(2), 0)
     .li(xreg(3), n)
     .label("loop")
     .add(xreg(2), xreg(2), xreg(1))
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(3), "loop")
     .halt();
    return a.finish();
}

/** Long chain of independent adds (ILP test). */
ProgramPtr
independentAddsProgram(int n)
{
    Asm a("indep");
    for (int i = 0; i < n; ++i)
        a.addi(xreg(1 + (i % 8)), xreg(0), i);
    a.halt();
    return a.finish();
}

TEST(CoreTest, LittleRunsLoopCorrectly)
{
    CoreHarness h;
    auto cycles = h.runLittle(sumLoopProgram(50));
    EXPECT_EQ(h.little.archState().getX(xreg(2)), 1225u);
    // 3 instructions per iteration, plus stalls: well under 20x.
    EXPECT_GT(cycles, 150u);
    EXPECT_LT(cycles, 2000u);
}

TEST(CoreTest, LittleStallCategoriesSumToCycles)
{
    CoreHarness h;
    h.runLittle(sumLoopProgram(100));
    std::uint64_t cycles = h.stats.value("little0.cycles");
    std::uint64_t sum = 0;
    for (auto cause : {"busy", "simd", "raw_mem", "raw_llfu", "struct",
                       "xelem", "misc"})
        sum += h.stats.value(std::string("little0.stall.") + cause);
    EXPECT_EQ(sum, cycles);
    EXPECT_EQ(h.stats.value("little0.stall.busy"),
              h.stats.value("little0.retired"));
}

TEST(CoreTest, LittleLoadLatencyShowsAsRawMem)
{
    CoreHarness h;
    // Pointer-chase-like: each load feeds the next address.
    for (int i = 0; i < 64; ++i)
        h.backing.writeT<std::uint64_t>(0x1000 + 8 * i, 0x1000 + 8 * (i + 1));
    Asm a("chase");
    a.li(xreg(1), 0x1000)
     .li(xreg(2), 0)
     .li(xreg(3), 32)
     .label("loop")
     .ld(xreg(1), xreg(1))
     .addi(xreg(2), xreg(2), 1)
     .blt(xreg(2), xreg(3), "loop")
     .halt();
    h.runLittle(a.finish());
    EXPECT_GT(h.stats.value("little0.stall.raw_mem"), 32u);
}

TEST(CoreTest, LittleDivStallsAsRawLlfu)
{
    CoreHarness h;
    Asm a("divs");
    a.li(xreg(1), 1000).li(xreg(2), 3);
    for (int i = 0; i < 10; ++i) {
        a.div_(xreg(3), xreg(1), xreg(2));
        a.addi(xreg(4), xreg(3), 1);   // immediately consume
    }
    a.halt();
    h.runLittle(a.finish());
    EXPECT_GT(h.stats.value("little0.stall.raw_llfu"), 50u);
}

TEST(CoreTest, BigBeatsLittleOnIlp)
{
    // Warm the instruction path first: the comparison is about issue
    // width, not cold-fetch DRAM latency.
    CoreHarness h;
    h.runLittle(independentAddsProgram(400));
    auto lcycles = h.runLittle(independentAddsProgram(400));
    CoreHarness h2;
    h2.runBig(independentAddsProgram(400));
    auto bcycles = h2.runBig(independentAddsProgram(400));
    // 3 ALUs + 4-wide vs single-issue.
    EXPECT_LT(bcycles * 2, lcycles);
}

TEST(CoreTest, BigProducesCorrectArchState)
{
    CoreHarness h;
    h.runBig(sumLoopProgram(80));
    EXPECT_EQ(h.big.archState().getX(xreg(2)), 80u * 79u / 2u);
}

TEST(CoreTest, BigLongLatencyDivChainCompletesOnTime)
{
    // Dividers slower than the default latencies: the completion ring
    // must be sized from the configured units, or a divide lands in a
    // set that drains before it is due.
    BigCoreParams params;
    params.fu.intDiv = params.fu.fpDiv = 40;
    CoreHarness h(params);
    InvariantRegistry reg;
    h.big.registerInvariants(reg);

    constexpr unsigned n = 6;
    Asm a("divchain");
    a.li(xreg(1), 1 << 20).li(xreg(2), 2);
    a.fcvt_f_x(freg(1), xreg(1), 8).fcvt_f_x(freg(2), xreg(2), 8);
    for (unsigned i = 0; i < n; ++i) {
        a.div_(xreg(1), xreg(1), xreg(2));
        a.fdiv(freg(1), freg(1), freg(2), 8);
    }
    a.fcvt_x_f(xreg(4), freg(1), 8).halt();

    bool done = false;
    Tick start = h.eq.now();
    h.big.runProgram(a.finish(), {}, [&] { done = true; });
    while (!done && h.eq.step())
        ASSERT_EQ(reg.sweep(), "") << "at tick " << h.eq.now();
    ASSERT_TRUE(done);
    EXPECT_EQ(h.big.archState().getX(xreg(1)), (1u << 20) >> n);
    EXPECT_EQ(h.big.archState().getX(xreg(4)), (1u << 20) >> n);
    // Each chain is serially dependent: n divides of 40 cycles.
    EXPECT_GE(h.cores.ticksToCycles(h.eq.now() - start), n * 40u);
}

TEST(CoreTest, BigStoreLoadDependencyOrdersCorrectly)
{
    CoreHarness h;
    Asm a("stld");
    a.li(xreg(1), 0x2000)
     .li(xreg(2), 42)
     .sd(xreg(2), xreg(1))
     .ld(xreg(3), xreg(1))
     .addi(xreg(4), xreg(3), 1)
     .halt();
    h.runBig(a.finish());
    EXPECT_EQ(h.big.archState().getX(xreg(4)), 43u);
}

TEST(CoreTest, BigMispredictsOnDataDependentBranches)
{
    CoreHarness h;
    // Alternate taken/not-taken in a data-dependent (parity) pattern
    // with short history warmup; expect some mispredictions but also
    // correct final state.
    Asm a("parity");
    a.li(xreg(1), 0)     // i
     .li(xreg(2), 0)     // acc
     .li(xreg(3), 200)
     .label("loop")
     .andi(xreg(4), xreg(1), 1)
     .beq(xreg(4), xreg(0), "even")
     .addi(xreg(2), xreg(2), 2)
     .j("next")
     .label("even")
     .addi(xreg(2), xreg(2), 1)
     .label("next")
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(3), "loop")
     .halt();
    h.runBig(a.finish());
    EXPECT_EQ(h.big.archState().getX(xreg(2)), 100u * 3u);
    // gshare learns the alternation quickly; mispredicts stay low.
    EXPECT_LT(h.stats.value("big.mispredicts"), 60u);
}

TEST(CoreTest, BigFetchesLinesNotInstructions)
{
    CoreHarness h;
    h.runBig(independentAddsProgram(160));
    // 160 insts * 4B = 640B = ~11 lines; the prefetcher turns most
    // into prefetches, but demand + prefetch requests must cover all
    // lines and not exceed them by much.
    auto total = h.stats.value("big.fetchLineReqs") +
                 h.stats.value("big.fetchPrefetches");
    EXPECT_GE(total, 11u);
    EXPECT_LE(total, 20u);
}

TEST(CoreTest, LittleBackToBackProgramsReuseCore)
{
    CoreHarness h;
    h.runLittle(sumLoopProgram(10));
    auto first = h.little.archState().getX(xreg(2));
    h.runLittle(sumLoopProgram(20));
    EXPECT_EQ(first, 45u);
    EXPECT_EQ(h.little.archState().getX(xreg(2)), 190u);
}

TEST(CoreTest, ArgumentRegistersAreApplied)
{
    CoreHarness h;
    Asm a("args");
    a.add(xreg(3), xreg(10), xreg(11)).halt();
    h.runLittle(a.finish(), {{xreg(10), 30}, {xreg(11), 12}});
    EXPECT_EQ(h.little.archState().getX(xreg(3)), 42u);
}

TEST(CoreTest, ColdCacheSlowerThanWarm)
{
    CoreHarness h;
    // Sum an array twice; second pass should be much faster.
    const int n = 256;
    for (int i = 0; i < n; ++i)
        h.backing.writeT<std::uint64_t>(0x10000 + 8 * i, 1);
    auto pass = [&]() {
        Asm a("sumarr");
        a.li(xreg(1), 0x10000)
         .li(xreg(2), 0)
         .li(xreg(3), n)
         .li(xreg(5), 0)
         .label("loop")
         .ld(xreg(4), xreg(1))
         .add(xreg(5), xreg(5), xreg(4))
         .addi(xreg(1), xreg(1), 8)
         .addi(xreg(2), xreg(2), 1)
         .blt(xreg(2), xreg(3), "loop")
         .halt();
        return a.finish();
    };
    auto cold = h.runLittle(pass());
    auto warm = h.runLittle(pass());
    EXPECT_LT(warm, cold);
    EXPECT_EQ(h.little.archState().getX(xreg(5)),
              static_cast<std::uint64_t>(n));
}

} // namespace
} // namespace bvl
