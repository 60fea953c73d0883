/**
 * @file
 * Integration tests of the vector engines under the big core: the
 * VLITTLE engine (1b-4VL), the integrated vector unit (1bIV) and the
 * decoupled engine (1bDV) all run the same stripmined programs; we
 * check functional output, relative performance ordering, decoupling
 * behaviour, the mode-switch penalty, cross-element timing and the
 * lock-step/simd stall accounting.
 */

#include <gtest/gtest.h>

#include "soc/soc.hh"
#include "vector/engine_presets.hh"

namespace bvl
{
namespace
{

constexpr Addr xBase = 0x100000;
constexpr Addr yBase = 0x200000;
constexpr Addr outBase = 0x300000;

/** Stripmined saxpy: y[i] += a * x[i]; n in x10. */
ProgramPtr
saxpyProgram()
{
    Asm a("vsaxpy");
    a.li(xreg(2), xBase)
     .li(xreg(3), yBase)
     .li(xreg(5), 2)
     .fcvt_f_x(freg(1), xreg(5), 4)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vle(vreg(2), xreg(3), 4)
     .vf(Op::vfmacc, vreg(2), vreg(1), freg(1))
     .vse(vreg(2), xreg(3), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    return a.finish();
}

void
initSaxpyData(BackingStore &mem, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        mem.writeT<float>(xBase + 4 * i, 1.0f * i);
        mem.writeT<float>(yBase + 4 * i, 3.0f);
    }
}

/** Run a program on the big core of @p soc; returns elapsed ns. */
double
runOnBig(Soc &soc, ProgramPtr prog,
         std::vector<std::pair<RegId, std::uint64_t>> args)
{
    bool done = false;
    double start = soc.elapsedNs();
    soc.big->runProgram(std::move(prog), std::move(args),
                        [&] { done = true; });
    bool finished = soc.runUntil(done,
                                 soc.eq.now() + 500'000'000ull);
    EXPECT_TRUE(finished) << "simulation deadlocked";
    return soc.elapsedNs() - start;
}

class EngineTest : public ::testing::TestWithParam<Design>
{};

TEST_P(EngineTest, SaxpyFunctionallyCorrect)
{
    const unsigned n = 300;
    Soc soc(GetParam());
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    for (unsigned i = 0; i < n; ++i) {
        float got = soc.backing.readT<float>(yBase + 4 * i);
        EXPECT_FLOAT_EQ(got, 2.0f * i + 3.0f) << "i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(VectorDesigns, EngineTest,
                         ::testing::Values(Design::d1bIV, Design::d1bDV,
                                           Design::d1b4VL),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(EngineOrderTest, WiderEnginesRunLargeSaxpyFaster)
{
    const unsigned n = 4096;
    double t[3];
    Design designs[3] = {Design::d1bIV, Design::d1b4VL, Design::d1bDV};
    for (int i = 0; i < 3; ++i) {
        Soc soc(designs[i]);
        initSaxpyData(soc.backing, n);
        t[i] = runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    }
    // 1bDV (2048b) < 1b-4VL (512b) < 1bIV (128b)
    EXPECT_LT(t[2], t[1]) << "1bDV should beat 1b-4VL";
    EXPECT_LT(t[1], t[0]) << "1b-4VL should beat 1bIV";
}

TEST(EngineTestDetail, ModeSwitchPenaltyAppearsOnce)
{
    const unsigned n = 16;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    double t = runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    // The 500-cycle (500ns at 1GHz) switch penalty dominates a tiny
    // kernel.
    EXPECT_GT(t, 500.0);
    EXPECT_EQ(soc.stats.value("vlittle.modeSwitches"), 1u);

    // A second region in the same run does not re-pay the penalty
    // unless the engine exited vector mode.
    EXPECT_TRUE(soc.engine->inVectorMode());
    soc.engine->exitVectorMode();
    EXPECT_FALSE(soc.engine->inVectorMode());
}

TEST(EngineTestDetail, LittleL1dSwitchesToBankedMode)
{
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, 64);
    EXPECT_EQ(soc.mem.l1d(0).getIndexMode(),
              IndexMode::scalarPrivate);
    runOnBig(soc, saxpyProgram(), {{xreg(10), 64}});
    EXPECT_EQ(soc.mem.l1d(0).getIndexMode(),
              IndexMode::vectorBanked);
    soc.engine->exitVectorMode();
    EXPECT_EQ(soc.mem.l1d(0).getIndexMode(),
              IndexMode::scalarPrivate);
}

TEST(EngineTestDetail, VectorMemorySpreadsAcrossBanks)
{
    const unsigned n = 4096;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    // Unit-stride streams must hit all four banks roughly equally.
    std::uint64_t acc[4];
    for (unsigned b = 0; b < 4; ++b)
        acc[b] = soc.stats.value("little" + std::to_string(b) +
                                 ".l1d.accesses");
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_GT(acc[b], 0u);
        EXPECT_LT(acc[b], 2 * acc[0] + 16);
    }
}

TEST(EngineTestDetail, StallBreakdownCoversAllLaneCycles)
{
    const unsigned n = 2048;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    for (unsigned l = 0; l < 4; ++l) {
        std::string pre = "little" + std::to_string(l) + ".";
        std::uint64_t cycles = soc.stats.value(pre + "cycles");
        std::uint64_t sum = 0;
        for (auto cause : {"busy", "simd", "raw_mem", "raw_llfu",
                           "struct", "xelem", "misc"})
            sum += soc.stats.value(pre + "stall." + cause);
        EXPECT_EQ(sum, cycles) << "lane " << l;
        EXPECT_GT(soc.stats.value(pre + "stall.busy"), 0u) << "lane " << l;
    }
}

TEST(EngineTestDetail, ReductionReturnsScalarToBigCore)
{
    const unsigned n = 64;
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < n; ++i)
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 1);
    // Sum n ones via stripmined vredsum, accumulate in x20.
    Asm a("vsum");
    a.li(xreg(2), xBase)
     .li(xreg(20), 0)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vmv_s_x(vreg(2), xreg(0))
     .vv(Op::vredsum, vreg(3), vreg(2), vreg(1))
     .vmv_x_s(xreg(5), vreg(3))
     .add(xreg(20), xreg(20), xreg(5))
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    EXPECT_EQ(soc.big->archState().getX(xreg(20)), n);
    // Cross-element work must appear in the VXU path.
    EXPECT_GT(soc.stats.value("vlittle.completed"), 0u);
}

TEST(EngineTestDetail, IndexedGatherWorksThroughVmu)
{
    const unsigned n = 256;
    Soc soc(Design::d1b4VL);
    // table[i] = 7*i; idx[i] = byte offset of a permuted entry
    for (unsigned i = 0; i < n; ++i) {
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 7 * i);
        soc.backing.writeT<std::uint32_t>(yBase + 4 * i,
                                          ((i * 17) % n) * 4);
    }
    Asm a("vgather");
    a.li(xreg(2), xBase)
     .li(xreg(3), yBase)
     .li(xreg(7), outBase)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(2), xreg(3), 4)                 // load indices
     .vluxei(vreg(1), xreg(2), vreg(2), 4)     // gather table[idx]
     .vse(vreg(1), xreg(7), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(3), xreg(3), xreg(6))
     .add(xreg(7), xreg(7), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    for (unsigned i = 0; i < n; ++i) {
        auto got = soc.backing.readT<std::int32_t>(outBase + 4 * i);
        EXPECT_EQ(got, static_cast<std::int32_t>(7 * ((i * 17) % n)))
            << "i=" << i;
    }
}

TEST(EngineTestDetail, VmfenceDrainsVectorStores)
{
    const unsigned n = 64;
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < n; ++i)
        soc.backing.writeT<std::int32_t>(xBase + 4 * i, 5);
    // Vector store then scalar load of the same data, fenced.
    Asm a("fence");
    a.li(xreg(2), xBase)
     .li(xreg(3), outBase)
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vse(vreg(1), xreg(3), 4)
     .vmfence()
     .lw(xreg(5), xreg(3))
     .halt();
    runOnBig(soc, a.finish(), {{xreg(10), n}});
    EXPECT_EQ(soc.big->archState().getX(xreg(5)), 5u);
    EXPECT_TRUE(soc.engine->idle());
}

TEST(EngineTestDetail, DecouplingRunsMemoryAheadOfCompute)
{
    // A long dependent FP chain after each load: with deep buffers the
    // VMIU generates line requests well before lanes consume them.
    const unsigned n = 4096;
    Soc soc(Design::d1b4VL);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("vlittle.loadLineReqs"), n / 16 / 2);
    EXPECT_GT(soc.stats.value("vlittle.vluDeliveries"), 0u);
    EXPECT_GT(soc.stats.value("vlittle.vsuLines"), 0u);
}

TEST(EngineTestDetail, IvuSharesBigCoreL1d)
{
    const unsigned n = 1024;
    Soc soc(Design::d1bIV);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("big.l1d.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("little0.l1d.accesses"), 0u);
}

TEST(EngineTestDetail, DveBypassesL1GoesToL2)
{
    const unsigned n = 1024;
    Soc soc(Design::d1bDV);
    initSaxpyData(soc.backing, n);
    runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
    EXPECT_GT(soc.stats.value("l2.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("little0.l1d.accesses"), 0u);
    EXPECT_EQ(soc.stats.value("big.l1d.accesses"), 0u);
}

TEST(EngineTestDetail, VlenMatchesDesign)
{
    EXPECT_EQ(Soc(Design::d1bIV).vlenBits(), 128u);
    EXPECT_EQ(Soc(Design::d1b4VL).vlenBits(), 512u);
    EXPECT_EQ(Soc(Design::d1bDV).vlenBits(), 2048u);
}

TEST(EngineTestDetail, FewerDynamicInstructionsWithLongerVectors)
{
    const unsigned n = 4096;
    std::uint64_t fetched[2];
    Design designs[2] = {Design::d1bIV, Design::d1b4VL};
    for (int i = 0; i < 2; ++i) {
        Soc soc(designs[i]);
        initSaxpyData(soc.backing, n);
        runOnBig(soc, saxpyProgram(), {{xreg(10), n}});
        fetched[i] = soc.stats.value("big.fetched");
    }
    // 512-bit VLEN needs ~4x fewer stripmine iterations than 128-bit.
    EXPECT_LT(fetched[1] * 3, fetched[0]);
}

} // namespace
} // namespace bvl
