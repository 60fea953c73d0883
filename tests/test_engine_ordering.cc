/**
 * @file
 * Memory-ordering and data-movement tests of the VMU and VXU under
 * timing: vector store -> vector load RAW through the store-address
 * CAM, strided and indexed stores, masked vector memory, cross-element
 * timing (xelem stalls), and engine drain on vmfence — all checked
 * for functional correctness after full timed execution.
 */

#include <gtest/gtest.h>

#include "soc/soc.hh"
#include "vector/engine_presets.hh"

namespace bvl
{
namespace
{

constexpr Addr A = 0x100000;
constexpr Addr B = 0x200000;
constexpr Addr C = 0x300000;

double
runProg(Soc &soc, ProgramPtr prog,
        std::vector<std::pair<RegId, std::uint64_t>> args = {})
{
    prog->setTextBase(0x40000000);
    bool done = false;
    double t0 = soc.elapsedNs();
    soc.big->runProgram(std::move(prog), std::move(args),
                        [&] { done = true; });
    EXPECT_TRUE(soc.runUntil(done,
                             soc.eq.now() + 100'000'000ull));
    return soc.elapsedNs() - t0;
}

/**
 * v-load A, store A+100 to B, then v-load @p loadAddr and store that
 * plus 1 back to A. Both vector stores are one line; on 1b-4VL the
 * load meets the B store in the VMSU CAM whenever @p loadAddr is in
 * B's bank.
 */
ProgramPtr
storeThenLoadProgram(Addr loadAddr)
{
    Asm a("st_ld_raw");
    a.li(xreg(2), A)
     .li(xreg(3), B)
     .li(xreg(5), static_cast<std::int64_t>(loadAddr))
     .li(xreg(10), 16)
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vi(Op::vadd, vreg(2), vreg(1), 100)
     .vse(vreg(2), xreg(3), 4)        // store 107s to B
     .vle(vreg(3), xreg(5), 4)        // immediately load loadAddr
     .vi(Op::vadd, vreg(4), vreg(3), 1)
     .vse(vreg(4), xreg(2), 4)        // A = loaded + 1
     .halt();
    return a.finish();
}

TEST(EngineOrderingTest, VectorStoreThenLoadSameLineRaw)
{
    // v-store to a line followed by a v-load of the same line: the
    // VMSU CAM must order them; values must be the stored ones.
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < 16; ++i)
        soc.backing.writeT<std::int32_t>(A + 4 * i, 7);
    runProg(soc, storeThenLoadProgram(B));
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + 4 * i), 108);
    EXPECT_TRUE(soc.engine->idle());
    // The load waited in the CAM behind the store, not merely after
    // it by luck of timing.
    EXPECT_GT(soc.stats.value("vlittle.vmsuRawStalls"), 0u);
}

TEST(EngineOrderingTest, VectorLoadBypassesWaitingStoreToOtherLine)
{
    // Same program, but the load reads another line of the store's
    // bank: it is scanned behind the same waiting store (the run
    // above stalls there) and must pass it without a RAW stall.
    Soc soc(Design::d1b4VL);
    Addr other = B + lineBytes;
    while (soc.mem.bankOf(other) != soc.mem.bankOf(B))
        other += lineBytes;
    for (unsigned i = 0; i < 16; ++i) {
        soc.backing.writeT<std::int32_t>(A + 4 * i, 7);
        soc.backing.writeT<std::int32_t>(other + 4 * i, 40);
    }
    runProg(soc, storeThenLoadProgram(other));
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(soc.backing.readT<std::int32_t>(B + 4 * i), 107);
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + 4 * i), 41);
    }
    EXPECT_TRUE(soc.engine->idle());
    EXPECT_EQ(soc.stats.value("vlittle.vmsuRawStalls"), 0u);
}

TEST(EngineOrderingTest, StridedStoreScattersCorrectly)
{
    Soc soc(Design::d1b4VL);
    Asm a("vsse");
    a.li(xreg(2), A)
     .li(xreg(3), 32)                 // byte stride
     .li(xreg(10), 8)
     .vsetvli(xreg(4), xreg(10), 4)
     .vid(vreg(1))
     .vsse(vreg(1), xreg(2), xreg(3), 4)
     .halt();
    runProg(soc, a.finish());
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + 32 * i),
                  static_cast<std::int32_t>(i));
}

TEST(EngineOrderingTest, IndexedScatterStore)
{
    Soc soc(Design::d1b4VL);
    // idx[i] = byte offset of a permuted slot
    for (unsigned i = 0; i < 16; ++i)
        soc.backing.writeT<std::uint32_t>(B + 4 * i,
                                          ((i * 5) % 16) * 4);
    Asm a("vsuxei");
    a.li(xreg(2), A)
     .li(xreg(3), B)
     .li(xreg(10), 16)
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(2), xreg(3), 4)        // indices
     .vid(vreg(1))
     .vsuxei(vreg(1), xreg(2), vreg(2), 4)
     .halt();
    runProg(soc, a.finish());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + ((i * 5) % 16) * 4),
                  static_cast<std::int32_t>(i));
}

TEST(EngineOrderingTest, MaskedStoreLeavesInactiveSlots)
{
    Soc soc(Design::d1b4VL);
    for (unsigned i = 0; i < 16; ++i)
        soc.backing.writeT<std::int32_t>(A + 4 * i, -1);
    Asm a("masked");
    a.li(xreg(2), A)
     .li(xreg(10), 16)
     .vsetvli(xreg(4), xreg(10), 4)
     .vid(vreg(1))
     .vi(Op::vmslt, vreg(0), vreg(1), 8)      // mask: i < 8
     .vle(vreg(2), xreg(2), 4)
     .vi(Op::vadd, vreg(3), vreg(1), 50)
     .vse(vreg(3), xreg(2), 4, /*masked=*/true)
     .halt();
    runProg(soc, a.finish());
    for (unsigned i = 0; i < 16; ++i) {
        auto got = soc.backing.readT<std::int32_t>(A + 4 * i);
        if (i < 8)
            EXPECT_EQ(got, static_cast<std::int32_t>(50 + i));
        else
            EXPECT_EQ(got, -1);
    }
}

TEST(EngineOrderingTest, GatherShowsXelemStalls)
{
    Soc soc(Design::d1b4VL);
    Asm a("vrgather");
    a.li(xreg(2), A)
     .li(xreg(10), 16)
     .vsetvli(xreg(4), xreg(10), 4)
     .vid(vreg(1))
     .li(xreg(5), 15)
     .vi(Op::vmv, vreg(2), regIdInvalid, 15)
     .vv(Op::vsub, vreg(2), vreg(2), vreg(1))   // 15 - i
     .vv(Op::vrgather, vreg(3), vreg(2), vreg(1))
     .vse(vreg(3), xreg(2), 4)
     .halt();
    runProg(soc, a.finish());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + 4 * i),
                  static_cast<std::int32_t>(15 - i));
    // The vxwrite micro-ops waited on the ring at least once.
    std::uint64_t xelem = 0;
    for (unsigned l = 0; l < 4; ++l)
        xelem += soc.stats.value("little" + std::to_string(l) +
                                 ".stall.xelem");
    EXPECT_GT(xelem, 0u);
}

TEST(EngineOrderingTest, BackToBackCrossElementSerializes)
{
    // Two gathers in flight: the VXU handles one instruction at a
    // time (paper Section III-D); results must still be correct.
    Soc soc(Design::d1b4VL);
    Asm a("two_gathers");
    a.li(xreg(2), A)
     .li(xreg(3), B)
     .li(xreg(10), 16)
     .vsetvli(xreg(4), xreg(10), 4)
     .vid(vreg(1))
     .vi(Op::vmv, vreg(2), regIdInvalid, 15)
     .vv(Op::vsub, vreg(2), vreg(2), vreg(1))
     .vv(Op::vrgather, vreg(3), vreg(2), vreg(1))  // reverse
     .vv(Op::vrgather, vreg(4), vreg(2), vreg(3))  // reverse again = id
     .vse(vreg(3), xreg(2), 4)
     .vse(vreg(4), xreg(3), 4)
     .halt();
    runProg(soc, a.finish());
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(soc.backing.readT<std::int32_t>(A + 4 * i),
                  static_cast<std::int32_t>(15 - i));
        EXPECT_EQ(soc.backing.readT<std::int32_t>(B + 4 * i),
                  static_cast<std::int32_t>(i));
    }
}

TEST(EngineOrderingTest, DeeperCommandQueueImprovesDecoupling)
{
    auto runWithDepth = [](unsigned depth) {
        SocParams sp;
        sp.design = Design::d1b4VL;
        auto ep = vlittlePreset();
        // The decoupling distance is the whole front-end chain:
        // command queue, cracked micro-op queue, and VMIU queue.
        ep.cmdQueueDepth = depth;
        ep.uopQueueDepth = 2 * depth;
        ep.vmiuQueueDepth = depth;
        sp.engineOverride = std::make_unique<VEngineParams>(ep);
        Soc soc(std::move(sp));
        const unsigned n = 2048;
        for (unsigned i = 0; i < n; ++i)
            soc.backing.writeT<float>(A + 4 * i, 1.0f * i);
        Asm a("stream");
        a.li(xreg(2), A)
         .li(xreg(3), C)
         .label("loop")
         .vsetvli(xreg(4), xreg(10), 4)
         .vle(vreg(1), xreg(2), 4)
         .vv(Op::vfadd, vreg(2), vreg(1), vreg(1))
         .vse(vreg(2), xreg(3), 4)
         .slli(xreg(6), xreg(4), 2)
         .add(xreg(2), xreg(2), xreg(6))
         .add(xreg(3), xreg(3), xreg(6))
         .sub(xreg(10), xreg(10), xreg(4))
         .bne(xreg(10), xreg(0), "loop")
         .halt();
        return runProg(soc, a.finish(), {{xreg(10), n}});
    };
    double shallow = runWithDepth(2);
    double deep = runWithDepth(32);
    EXPECT_LT(deep, shallow);
}

TEST(EngineOrderingTest, UnpackedConfigIsSlowerOnPackableData)
{
    auto runPacked = [](bool packed) {
        SocParams sp;
        sp.design = Design::d1b4VL;
        auto ep = vlittlePreset();
        ep.packed = packed;
        sp.engineOverride = std::make_unique<VEngineParams>(ep);
        Soc soc(std::move(sp));
        const unsigned n = 1024;
        for (unsigned i = 0; i < n; ++i)
            soc.backing.writeT<std::int32_t>(A + 4 * i, i);
        Asm a("packable");
        a.li(xreg(2), A)
         .label("loop")
         .vsetvli(xreg(4), xreg(10), 4)
         .vle(vreg(1), xreg(2), 4)
         .vi(Op::vadd, vreg(2), vreg(1), 3)
         .vse(vreg(2), xreg(2), 4)
         .slli(xreg(6), xreg(4), 2)
         .add(xreg(2), xreg(2), xreg(6))
         .sub(xreg(10), xreg(10), xreg(4))
         .bne(xreg(10), xreg(0), "loop")
         .halt();
        return runProg(soc, a.finish(), {{xreg(10), n}});
    };
    EXPECT_LT(runPacked(true), runPacked(false));
}

} // namespace
} // namespace bvl
