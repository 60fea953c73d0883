/**
 * @file
 * Unit tests for the ISA layer: assembler, scalar semantics, vector
 * semantics (including masking, strided/indexed memory, cross-element
 * ops), and vsetvli behaviour across hardware vector lengths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "isa/arch_state.hh"
#include "isa/program.hh"
#include "mem/backing_store.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

class IsaTest : public ::testing::Test
{
  protected:
    ArchState st{512};
    BackingStore mem;
};

TEST_F(IsaTest, LiAndAdd)
{
    Asm a("t");
    a.li(xreg(1), 40).li(xreg(2), 2).add(xreg(3), xreg(1), xreg(2)).halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(3)), 42u);
    EXPECT_TRUE(st.halted);
}

TEST_F(IsaTest, X0IsAlwaysZero)
{
    Asm a("t");
    a.li(xreg(0), 123).addi(xreg(1), xreg(0), 7).halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(0)), 0u);
    EXPECT_EQ(st.getX(xreg(1)), 7u);
}

TEST_F(IsaTest, SignedDivisionSemantics)
{
    Asm a("t");
    a.li(xreg(1), -7).li(xreg(2), 2)
     .div_(xreg(3), xreg(1), xreg(2))
     .rem(xreg(4), xreg(1), xreg(2))
     .li(xreg(5), 0)
     .div_(xreg(6), xreg(1), xreg(5))   // div by zero -> -1
     .rem(xreg(7), xreg(1), xreg(5))    // rem by zero -> dividend
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(static_cast<std::int64_t>(st.getX(xreg(3))), -3);
    EXPECT_EQ(static_cast<std::int64_t>(st.getX(xreg(4))), -1);
    EXPECT_EQ(static_cast<std::int64_t>(st.getX(xreg(6))), -1);
    EXPECT_EQ(static_cast<std::int64_t>(st.getX(xreg(7))), -7);
}

TEST_F(IsaTest, BranchLoopSumsRange)
{
    // for (i = 0; i < 10; i++) sum += i;
    Asm a("t");
    a.li(xreg(1), 0)        // i
     .li(xreg(2), 0)        // sum
     .li(xreg(3), 10)
     .label("loop")
     .add(xreg(2), xreg(2), xreg(1))
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(3), "loop")
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(2)), 45u);
}

TEST_F(IsaTest, ForwardBranchTargetsResolve)
{
    Asm a("t");
    a.li(xreg(1), 1)
     .j("end")
     .li(xreg(1), 99)
     .label("end")
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(1)), 1u);
}

TEST_F(IsaTest, ScalarLoadStoreWidths)
{
    mem.writeT<std::uint64_t>(0x1000, 0xdeadbeefcafef00dULL);
    Asm a("t");
    a.li(xreg(1), 0x1000)
     .load(xreg(2), xreg(1), 0, 1, false)
     .load(xreg(3), xreg(1), 0, 4, true)
     .ld(xreg(4), xreg(1))
     .li(xreg(5), 0x77)
     .store(xreg(5), xreg(1), 8, 1)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(2)), 0x0dull);
    // low 32 bits 0xcafef00d sign-extends to negative
    EXPECT_EQ(st.getX(xreg(3)), 0xffffffffcafef00dULL);
    EXPECT_EQ(st.getX(xreg(4)), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.readT<std::uint8_t>(0x1008), 0x77);
}

TEST_F(IsaTest, ScalarFloatSinglePrecision)
{
    Asm a("t");
    a.li(xreg(1), 3)
     .fcvt_f_x(freg(1), xreg(1), 4)
     .li(xreg(2), 4)
     .fcvt_f_x(freg(2), xreg(2), 4)
     .fmul(freg(3), freg(1), freg(2), 4)
     .fsqrt(freg(4), freg(3), 4)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    float r;
    std::uint64_t raw = st.getF(freg(4));
    std::uint32_t lo = static_cast<std::uint32_t>(raw);
    std::memcpy(&r, &lo, 4);
    EXPECT_FLOAT_EQ(r, std::sqrt(12.0f));
}

TEST_F(IsaTest, VsetvliClampsToVlmax)
{
    Asm a("t");
    a.li(xreg(1), 1000)
     .vsetvli(xreg(2), xreg(1), 4)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    // VLEN=512 bits -> 16 x 32-bit elements
    EXPECT_EQ(st.getX(xreg(2)), 16u);
    EXPECT_EQ(st.vl, 16u);

    ArchState wide(2048);
    wide.reset();
    runFunctional(wide, *p, mem);
    EXPECT_EQ(wide.getX(xreg(2)), 64u);
}

TEST_F(IsaTest, VsetvliSmallAvl)
{
    Asm a("t");
    a.li(xreg(1), 5).vsetvli(xreg(2), xreg(1), 4).halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(2)), 5u);
}

TEST_F(IsaTest, UnitStrideLoadComputeStore)
{
    for (int i = 0; i < 16; ++i)
        mem.writeT<std::int32_t>(0x1000 + 4 * i, i);
    Asm a("t");
    a.li(xreg(1), 16)
     .vsetvli(xreg(2), xreg(1), 4)
     .li(xreg(3), 0x1000)
     .vle(vreg(1), xreg(3), 4)
     .vx(Op::vadd, vreg(2), vreg(1), xreg(2))   // += 16
     .li(xreg(4), 0x2000)
     .vse(vreg(2), xreg(4), 4)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readT<std::int32_t>(0x2000 + 4 * i), i + 16);
}

TEST_F(IsaTest, StridedLoad)
{
    for (int i = 0; i < 16; ++i)
        mem.writeT<std::int32_t>(0x1000 + 16 * i, 100 + i);
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .li(xreg(3), 0x1000)
     .li(xreg(4), 16)
     .vlse(vreg(1), xreg(3), xreg(4), 4)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(st.vecGet(vreg(1), i, 4), 100u + i);
}

TEST_F(IsaTest, IndexedGatherLoad)
{
    for (int i = 0; i < 64; ++i)
        mem.writeT<std::int32_t>(0x1000 + 4 * i, 2 * i);
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(3))
     .vx(Op::vmul, vreg(3), vreg(3), xreg(4))   // indices *= 28 bytes
     .li(xreg(3), 0x1000)
     .vluxei(vreg(1), xreg(3), vreg(3), 4)
     .halt();
    // stage x4 = 28 before program start
    st.setX(xreg(4), 28);
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(st.vecGet(vreg(1), i, 4), 2 * (28 * i / 4));
}

TEST_F(IsaTest, MaskedAddLeavesInactiveElements)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .vi(Op::vmv, vreg(2), regIdInvalid, 77)     // vd = splat 77
     .vi(Op::vmslt, vreg(0), vreg(1), 4)         // mask: i < 4
     .vx(Op::vadd, vreg(2), vreg(1), xreg(3), true)  // masked add
     .halt();
    st.setX(xreg(3), 100);
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 8; ++i) {
        if (i < 4)
            EXPECT_EQ(st.vecGet(vreg(2), i, 4), 100u + i);
        else
            EXPECT_EQ(st.vecGet(vreg(2), i, 4), 77u);
    }
}

TEST_F(IsaTest, VmergeSelectsByMask)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .vi(Op::vmv, vreg(2), regIdInvalid, 5)
     .vi(Op::vmv, vreg(3), regIdInvalid, 9)
     .vi(Op::vmsgt, vreg(0), vreg(1), 3)    // mask = i > 3
     .vv(Op::vmerge, vreg(4), vreg(2), vreg(3))
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(st.vecGet(vreg(4), i, 4), i > 3 ? 5u : 9u);
}

TEST_F(IsaTest, ReductionSum)
{
    Asm a("t");
    a.li(xreg(1), 16)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .vmv_s_x(vreg(2), xreg(3))     // init = 1000
     .vv(Op::vredsum, vreg(3), vreg(2), vreg(1))
     .vmv_x_s(xreg(4), vreg(3))
     .halt();
    st.setX(xreg(3), 1000);
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(4)), 1000u + 120u);
}

TEST_F(IsaTest, FpReductionSum)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .li(xreg(3), 0)
     .fcvt_f_x(freg(1), xreg(3), 4)
     .vmv_vf(vreg(2), freg(1))                  // zero accumulator
     .vid(vreg(1))
     .vv(Op::vfadd, vreg(3), vreg(2), regIdInvalid);
    // convert indices to float via scalar loop is tedious: use int sum
    // on purpose here. Just reduce a splatted constant instead.
    Asm b("t2");
    b.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .li(xreg(3), 3)
     .fcvt_f_x(freg(1), xreg(3), 4)
     .vmv_vf(vreg(1), freg(1))                   // v1 = splat 3.0f
     .vv(Op::vfredsum, vreg(2), regIdInvalid, vreg(1))
     .vfmv_f_s(freg(2), vreg(2))
     .halt();
    auto p = b.finish();
    runFunctional(st, *p, mem);
    float r;
    std::uint32_t lo = static_cast<std::uint32_t>(st.getF(freg(2)));
    std::memcpy(&r, &lo, 4);
    EXPECT_FLOAT_EQ(r, 24.0f);
}

TEST_F(IsaTest, VrgatherPermutes)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))                       // data 0..7
     .li(xreg(3), 7)
     .vx(Op::vsub, vreg(2), regIdInvalid, xreg(3));
    // v2 = -7..0: wrong; build reverse indices as 7 - i via vsub.vx on vid
    Asm b("t2");
    b.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))                       // 0..7
     .li(xreg(3), 7)
     .vx(Op::vmul, vreg(4), vreg(1), xreg(4))  // unused
     .vi(Op::vmv, vreg(2), regIdInvalid, 7)    // splat 7
     .vv(Op::vsub, vreg(2), vreg(2), vreg(1))  // 7-i
     .vv(Op::vrgather, vreg(3), vreg(2), vreg(1))  // reverse of data
     .halt();
    auto p = b.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(st.vecGet(vreg(3), i, 4), 7u - i);
}

TEST_F(IsaTest, SlideUpAndDown)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .vi(Op::vmv, vreg(2), regIdInvalid, 0)
     .vi(Op::vslidedown, vreg(2), vreg(1), 2)
     .vi(Op::vmv, vreg(3), regIdInvalid, 0)
     .vi(Op::vslideup, vreg(3), vreg(1), 3)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(st.vecGet(vreg(2), i, 4), i + 2);
    for (unsigned i = 3; i < 8; ++i)
        EXPECT_EQ(st.vecGet(vreg(3), i, 4), i - 3);
}

TEST_F(IsaTest, PopcountAndFirst)
{
    Asm a("t");
    a.li(xreg(1), 8)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .vi(Op::vmsgt, vreg(4), vreg(1), 4)   // bits for i in {5,6,7}
     .vpopc(xreg(5), vreg(4))
     .vfirst(xreg(6), vreg(4))
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.getX(xreg(5)), 3u);
    EXPECT_EQ(st.getX(xreg(6)), 5u);
}

TEST_F(IsaTest, ExecTraceRecordsVectorAddresses)
{
    Asm a("t");
    a.li(xreg(1), 4)
     .vsetvli(xreg(2), xreg(1), 8)
     .li(xreg(3), 0x4000)
     .vle(vreg(1), xreg(3), 8)
     .halt();
    auto p = a.finish();
    // step through manually
    ExecTrace tr;
    while (!st.halted) {
        stepOne(st, *p, mem, tr);
        if (tr.inst->op == Op::vle)
            break;
    }
    ASSERT_EQ(tr.elemAddrs.size(), 4u);
    EXPECT_EQ(tr.elemAddrs[0], 0x4000u);
    EXPECT_EQ(tr.elemAddrs[3], 0x4018u);
    EXPECT_TRUE(tr.isMem);
    EXPECT_FALSE(tr.isStore);
}

TEST_F(IsaTest, UndefinedLabelPanics)
{
    Asm a("t");
    a.j("nowhere").halt();
    EXPECT_THROW(a.finish(), SimPanicError);
}

TEST_F(IsaTest, VectorElementsSurviveAcrossEw)
{
    // write 8-bit patterns, read as 32-bit
    Asm a("t");
    a.li(xreg(1), 4)
     .vsetvli(xreg(2), xreg(1), 4)
     .vid(vreg(1))
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(st.vecGet(vreg(1), 0, 4), 0u);
    EXPECT_EQ(st.vecGet(vreg(1), 3, 4), 3u);
    // 16-byte raw prefix should read back as two 64-bit values
    EXPECT_EQ(st.vecGet(vreg(1), 0, 8), 0x0000000100000000ULL);
}

TEST_F(IsaTest, WidenOpsZeroAndSignExtend)
{
    const std::uint8_t bytes[] = {0x01, 0x7f, 0x80, 0xff};
    for (unsigned i = 0; i < 4; ++i)
        mem.writeT<std::uint8_t>(0x1000 + i, bytes[i]);
    Asm a("t");
    a.li(xreg(1), 4)
     .vsetvli(xreg(2), xreg(1), 1)
     .li(xreg(3), 0x1000)
     .vle(vreg(1), xreg(3), 1)
     .vzext2(vreg(2), vreg(1), 1)
     .vsext2(vreg(3), vreg(1), 1)
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    const std::uint16_t zext[] = {0x0001, 0x007f, 0x0080, 0x00ff};
    const std::uint16_t sext[] = {0x0001, 0x007f, 0xff80, 0xffff};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(st.vecGet(vreg(2), i, 2), zext[i]) << i;
        EXPECT_EQ(st.vecGet(vreg(3), i, 2), sext[i]) << i;
    }
}

TEST_F(IsaTest, NarrowClipSaturatesSigned)
{
    const std::int16_t vals[] = {1000, -1000, 70, -70};
    for (unsigned i = 0; i < 4; ++i)
        mem.writeT<std::int16_t>(0x1000 + 2 * i, vals[i]);
    Asm a("t");
    a.li(xreg(1), 4)
     .vsetvli(xreg(2), xreg(1), 2)
     .li(xreg(3), 0x1000)
     .vle(vreg(1), xreg(3), 2)
     .vnclip2(vreg(2), vreg(1), 2, 1, true)   // sat8((v >> 2))
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    // 250 -> 127, -250 -> -128, 17 stays, -70>>2 arithmetic -> -18
    const std::uint8_t want[] = {0x7f, 0x80, 17,
                                 static_cast<std::uint8_t>(-18)};
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(st.vecGet(vreg(2), i, 1), want[i]) << i;
}

TEST_F(IsaTest, NarrowClipSaturatesUnsigned)
{
    const std::int16_t vals[] = {300, -5, 128, 255};
    for (unsigned i = 0; i < 4; ++i)
        mem.writeT<std::int16_t>(0x1000 + 2 * i, vals[i]);
    Asm a("t");
    a.li(xreg(1), 4)
     .vsetvli(xreg(2), xreg(1), 2)
     .li(xreg(3), 0x1000)
     .vle(vreg(1), xreg(3), 2)
     .vnclip2(vreg(2), vreg(1), 0, 1, false)  // clampU8, no shift
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    const std::uint8_t want[] = {255, 0, 128, 255};
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(st.vecGet(vreg(2), i, 1), want[i]) << i;
}

TEST_F(IsaTest, ByteElementLoadCompareScan)
{
    // memchr building block at ew=1: load bytes, compare-eq against
    // zero, vfirst finds the first delimiter.
    for (unsigned i = 0; i < 16; ++i)
        mem.writeT<std::uint8_t>(0x1000 + i, i == 11 ? 0 : 0x41);
    Asm a("t");
    a.li(xreg(1), 16)
     .vsetvli(xreg(2), xreg(1), 1)
     .li(xreg(3), 0x1000)
     .vle(vreg(1), xreg(3), 1)
     .vi(Op::vmseq, vreg(2), vreg(1), 0)
     .vfirst(xreg(4), vreg(2))
     .halt();
    auto p = a.finish();
    runFunctional(st, *p, mem);
    EXPECT_EQ(static_cast<std::int64_t>(st.getX(xreg(4))), 11);
}

class IsaVlenTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(IsaVlenTest, StripmineLoopIsVlenInvariant)
{
    // Compute saxpy over 100 elements with stripmining; the result
    // must be identical for every hardware vector length.
    const unsigned n = 100;
    BackingStore mem;
    for (unsigned i = 0; i < n; ++i) {
        mem.writeT<float>(0x1000 + 4 * i, 1.0f * i);
        mem.writeT<float>(0x2000 + 4 * i, 100.0f - i);
    }
    Asm a("saxpy");
    a.li(xreg(1), n)          // remaining
     .li(xreg(2), 0x1000)     // &x
     .li(xreg(3), 0x2000)     // &y
     .li(xreg(5), 2)
     .fcvt_f_x(freg(1), xreg(5), 4)   // a = 2.0
     .label("loop")
     .vsetvli(xreg(4), xreg(1), 4)
     .vle(vreg(1), xreg(2), 4)
     .vle(vreg(2), xreg(3), 4)
     .vf(Op::vfmacc, vreg(2), vreg(1), freg(1))
     .vse(vreg(2), xreg(3), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(1), xreg(1), xreg(4))
     .bne(xreg(1), xreg(0), "loop")
     .halt();
    auto p = a.finish();

    ArchState st(GetParam());
    runFunctional(st, *p, mem);
    for (unsigned i = 0; i < n; ++i) {
        float got = mem.readT<float>(0x2000 + 4 * i);
        EXPECT_FLOAT_EQ(got, 2.0f * i + (100.0f - i)) << "i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllVlens, IsaVlenTest,
                         ::testing::Values(128u, 256u, 512u, 1024u, 2048u));

/**
 * The timing cores, fast-forward and the lockstep reference all step
 * into a trace they reuse (DESIGN.md §11). Stepping into a trace that
 * last held a vector store, with every other flag raised as well, must
 * leave exactly what stepping into a fresh one does: a flag stepOne
 * forgot to reset would silently change timing.
 */
TEST(ExecTraceReuseTest, DirtyTraceStepsLikeAFreshOne)
{
    ExecTrace dirty;
    {
        Asm a("dirty");
        a.li(xreg(1), 4)
         .vsetvli(xreg(2), xreg(1), 8)
         .li(xreg(3), 0x4000)
         .vse(vreg(1), xreg(3), 8)
         .halt();
        auto p = a.finish();
        ArchState st;
        BackingStore mem;
        do {
            stepOne(st, *p, mem, dirty);
        } while (dirty.inst->op != Op::vse);
    }
    ASSERT_TRUE(dirty.isVec && dirty.isMem && dirty.isStore);
    ASSERT_EQ(dirty.elemAddrs.size(), 4u);
    dirty.isBranch = true;
    dirty.taken = true;
    dirty.halted = true;
    dirty.addr = 0xdead0;

    unsigned programs = 0;
    for (const std::string &name : allWorkloadNames()) {
        WorkloadPtr wl = makeWorkload(name, Scale::tiny);
        ASSERT_NE(wl, nullptr) << name;
        for (const ProgramPtr &prog :
             {wl->scalarProgram(), wl->vectorProgram()}) {
            if (!prog)
                continue;
            ++programs;
            BackingStore freshMem, reusedMem;
            wl->init(freshMem);
            wl->init(reusedMem);
            ArchState fresh(maxVlenBits), reused(maxVlenBits);
            fresh.seed(wl->fullRangeArgs());
            reused.seed(wl->fullRangeArgs());
            ExecTrace tr;
            std::string freshState, reusedState;
            for (std::uint64_t step = 0;
                 !fresh.halted && fresh.pc < prog->size(); ++step) {
                ExecTrace want;
                stepOne(fresh, *prog, freshMem, want);
                tr = dirty;
                stepOne(reused, *prog, reusedMem, tr);
                ASSERT_TRUE(tr == want)
                    << prog->name() << " step " << step << ": "
                    << want.inst->toString();
                freshState.clear();
                reusedState.clear();
                fresh.dumpState(freshState);
                reused.dumpState(reusedState);
                ASSERT_EQ(freshState, reusedState)
                    << prog->name() << " step " << step;
            }
            ASSERT_TRUE(fresh.halted) << prog->name();
        }
    }
    EXPECT_GT(programs, allWorkloadNames().size());
}

} // namespace
} // namespace bvl
