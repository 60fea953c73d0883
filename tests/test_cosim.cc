/**
 * @file
 * Co-simulation property tests: for randomly generated programs, the
 * architectural state after *timed* execution (little core, big core,
 * big core + each vector engine) must exactly match pure functional
 * execution. This catches any timing-model interference with
 * semantics (wrong-path effects, lost writebacks, engine reordering).
 */

#include <gtest/gtest.h>

#include "isa/arch_state.hh"
#include "sim/rng.hh"
#include "soc/run_driver.hh"
#include "soc/soc.hh"
#include "vector/engine_presets.hh"

namespace bvl
{
namespace
{

constexpr Addr dataBase = 0x100000;
constexpr unsigned dataWords = 256;

/** Random scalar program: ALU ops, loads/stores into a small window,
 *  and a countdown loop around the whole body. */
ProgramPtr
randomScalarProgram(Rng &rng, unsigned bodyLen)
{
    Asm a("rand.scalar");
    a.li(xreg(1), dataBase)
     .li(xreg(20), 4)              // loop counter
     .label("top");
    for (unsigned i = 0; i < bodyLen; ++i) {
        RegId rd = xreg(2 + rng.below(8));
        RegId ra = xreg(2 + rng.below(8));
        RegId rb = xreg(2 + rng.below(8));
        switch (rng.below(8)) {
          case 0: a.add(rd, ra, rb); break;
          case 1: a.sub(rd, ra, rb); break;
          case 2: a.mul(rd, ra, rb); break;
          case 3: a.xor_(rd, ra, rb); break;
          case 4: a.addi(rd, ra, static_cast<std::int64_t>(
                      rng.below(100)));
                  break;
          case 5: {
            // load from a bounded slot
            a.andi(xreg(10), ra, (dataWords - 1) * 4)
             .add(xreg(10), xreg(10), xreg(1))
             .lw(rd, xreg(10));
            break;
          }
          case 6: {
            a.andi(xreg(10), ra, (dataWords - 1) * 4)
             .add(xreg(10), xreg(10), xreg(1))
             .sw(rb, xreg(10));
            break;
          }
          default: a.slti(rd, ra, 50); break;
        }
    }
    a.addi(xreg(20), xreg(20), -1)
     .bne(xreg(20), xreg(0), "top")
     .halt();
    auto p = a.finish();
    p->setTextBase(0x40000000);
    return p;
}

/** Random vector program: stripmined loop mixing vector arithmetic,
 *  unit-stride memory and occasional reductions. */
ProgramPtr
randomVectorProgram(Rng &rng, unsigned bodyLen)
{
    Asm a("rand.vector");
    a.li(xreg(2), dataBase)
     .li(xreg(3), dataBase + dataWords * 4)
     .li(xreg(10), dataWords)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(2), 4)
     .vle(vreg(2), xreg(3), 4);
    for (unsigned i = 0; i < bodyLen; ++i) {
        RegId vd = vreg(3 + rng.below(5));
        RegId va = vreg(1 + rng.below(7));
        RegId vb = vreg(1 + rng.below(7));
        switch (rng.below(6)) {
          case 0: a.vv(Op::vadd, vd, va, vb); break;
          case 1: a.vv(Op::vmul, vd, va, vb); break;
          case 2: a.vv(Op::vxor, vd, va, vb); break;
          case 3: a.vv(Op::vmax, vd, va, vb); break;
          case 4: a.vi(Op::vsll, vd, va, 1 + rng.below(3)); break;
          default: a.vv(Op::vmin, vd, va, vb); break;
        }
    }
    a.vv(Op::vadd, vreg(8), vreg(3), vreg(4))
     .vse(vreg(8), xreg(2), 4)
     .vv(Op::vredsum, vreg(9), regIdInvalid, vreg(8))
     .vmv_x_s(xreg(21), vreg(9))
     .add(xreg(22), xreg(22), xreg(21))
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    auto p = a.finish();
    p->setTextBase(0x40000000);
    return p;
}

void
initData(BackingStore &mem, Rng &rng)
{
    for (unsigned i = 0; i < 2 * dataWords; ++i)
        mem.writeT<std::uint32_t>(dataBase + 4 * i,
                                  static_cast<std::uint32_t>(
                                      rng.below(1000)));
}

/** Compare x registers and the data window. */
void
expectSameState(const ArchState &timed, const ArchState &func,
                const BackingStore &timedMem,
                const BackingStore &funcMem, const char *what)
{
    for (unsigned r = 1; r < 32; ++r)
        EXPECT_EQ(timed.getX(xreg(r)), func.getX(xreg(r)))
            << what << ": x" << r;
    for (unsigned i = 0; i < 2 * dataWords; ++i)
        ASSERT_EQ(timedMem.readT<std::uint32_t>(dataBase + 4 * i),
                  funcMem.readT<std::uint32_t>(dataBase + 4 * i))
            << what << ": word " << i;
}

class CosimScalarTest : public ::testing::TestWithParam<int>
{};

TEST_P(CosimScalarTest, LittleMatchesFunctional)
{
    Rng rng(1000 + GetParam());
    auto prog = randomScalarProgram(rng, 24);

    BackingStore funcMem;
    Rng dataRng(GetParam());
    initData(funcMem, dataRng);
    ArchState func(512);
    runFunctional(func, *prog, funcMem);

    Soc soc(Design::d1L);
    Rng dataRng2(GetParam());
    initData(soc.backing, dataRng2);
    bool done = false;
    soc.littles[0]->runProgram(prog, {}, [&] { done = true; });
    ASSERT_TRUE(soc.runUntil(done,
                             soc.eq.now() + 50'000'000ull));
    expectSameState(soc.littles[0]->archState(), func, soc.backing,
                    funcMem, "little");
}

TEST_P(CosimScalarTest, BigMatchesFunctional)
{
    Rng rng(2000 + GetParam());
    auto prog = randomScalarProgram(rng, 24);

    BackingStore funcMem;
    Rng dataRng(GetParam());
    initData(funcMem, dataRng);
    ArchState func(512);
    runFunctional(func, *prog, funcMem);

    Soc soc(Design::d1b);
    Rng dataRng2(GetParam());
    initData(soc.backing, dataRng2);
    bool done = false;
    soc.big->runProgram(prog, {}, [&] { done = true; });
    ASSERT_TRUE(soc.runUntil(done,
                             soc.eq.now() + 50'000'000ull));
    expectSameState(soc.big->archState(), func, soc.backing, funcMem,
                    "big");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosimScalarTest,
                         ::testing::Range(0, 8));

class CosimVectorTest
    : public ::testing::TestWithParam<std::tuple<int, Design>>
{};

TEST_P(CosimVectorTest, EngineMatchesFunctional)
{
    auto [seed, design] = GetParam();
    Rng rng(3000 + seed);
    auto prog = randomVectorProgram(rng, 6);

    Soc soc(design);
    BackingStore funcMem;
    Rng dataRng(seed);
    initData(funcMem, dataRng);
    ArchState func(soc.vlenBits());
    runFunctional(func, *prog, funcMem);

    Rng dataRng2(seed);
    initData(soc.backing, dataRng2);
    bool done = false;
    soc.big->runProgram(prog, {}, [&] { done = true; });
    ASSERT_TRUE(soc.runUntil(done,
                             soc.eq.now() + 50'000'000ull));
    expectSameState(soc.big->archState(), func, soc.backing, funcMem,
                    designName(design));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByEngine, CosimVectorTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(Design::d1bIV, Design::d1bDV,
                                         Design::d1b4VL)),
    [](const auto &info) {
        std::string s = std::string(designName(std::get<1>(info.param))) +
                        "_s" + std::to_string(std::get<0>(info.param));
        for (auto &c : s)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return s;
    });

// ------------------------------------------------- faulted co-simulation
//
// Recoverable fault plans must not change semantics: with the lockstep
// checker armed, every retire still has to match the functional model
// exactly, and the run must end RunStatus::ok. This is the strongest
// statement of the recovery contract — not just "the workload verified"
// but "no instruction ever produced a wrong value on the way".

/** A recoverable fault plan per paper-relevant disturbance class. */
FaultSpec
recoverablePlan(int variant)
{
    FaultSpec f;
    f.enabled = true;
    f.seed = 77 + variant;
    switch (variant) {
      case 0:   // stretched memory responses
        f.memDelayProb = 0.05;
        f.cacheDelayProb = 0.1;
        break;
      case 1:   // bounded VCU broadcast stalls, scripted and random
        f.vcuStallProb = 0.05;
        f.vcuStallCycles = 12;
        f.script.push_back({20000, FaultKind::vcuStall, 40});
        f.script.push_back({60000, FaultKind::vcuStall, 40});
        break;
      default:  // dropped VMU responses, all within the retry budget
        f.vmuDropProb = 0.1;
        f.vmuMaxRetries = 3;
        f.vmuRetryDelay = 16;
        f.script.push_back({0, FaultKind::vmuDrop, 0});
        f.script.push_back({0, FaultKind::vmuDrop, 0});
        break;
    }
    return f;
}

class FaultedCosimTest
    : public ::testing::TestWithParam<std::tuple<int, Design>>
{};

TEST_P(FaultedCosimTest, RecoverableFaultsRetireMatchTheModel)
{
    auto [variant, design] = GetParam();
    RunOptions opts;
    opts.faults = recoverablePlan(variant);
    opts.check.lockstep = true;
    opts.check.invariants = true;

    RunResult r = runWorkload(design, "vvadd", Scale::tiny, opts);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message << "\n" << r.log;
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.stat("check.retires"), 0u);
    EXPECT_EQ(r.stat("check.divergences"), 0u);
    if (designHasVector(design)) {
        EXPECT_GT(r.stat("check.uops"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PlansByDesign, FaultedCosimTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values(Design::d1b, Design::d1bIV,
                                         Design::d1bDV,
                                         Design::d1b4VL)),
    [](const auto &info) {
        std::string s = std::string(designName(std::get<1>(info.param))) +
                        "_plan" + std::to_string(std::get<0>(info.param));
        for (auto &c : s)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return s;
    });

// ------------------------------------------- small and odd geometries
//
// Every VCU/VMU queue at depth 1 and the UopQ exactly as deep as the
// largest plan (an indexed access: 2 micro-ops per chime) keeps each
// in-flight window slot, queue ring and VMSU entry at the edge of
// recycling. Random vector programs and an indexed gather/scatter
// must still finish under the watchdog with every structural
// invariant holding after every retire, and match functional
// execution.

constexpr Addr idxBase = dataBase + 2 * dataWords * 4;

/** Gather the first data half through a permutation of byte offsets,
 *  add 1, scatter into the second half through the same offsets. */
ProgramPtr
gatherScatterProgram()
{
    Asm a("gather.scatter");
    a.li(xreg(2), dataBase)
     .li(xreg(3), idxBase)
     .li(xreg(7), dataBase + dataWords * 4)
     .li(xreg(10), dataWords)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)
     .vle(vreg(1), xreg(3), 4)
     .vluxei(vreg(2), xreg(2), vreg(1), 4)
     .vi(Op::vadd, vreg(3), vreg(2), 1)
     .vsuxei(vreg(3), xreg(7), vreg(1), 4)
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    auto p = a.finish();
    p->setTextBase(0x40000000);
    return p;
}

void
initIndices(BackingStore &mem)
{
    for (unsigned i = 0; i < dataWords; ++i)
        mem.writeT<std::uint32_t>(idxBase + 4 * i,
                                  (i * 37) % dataWords * 4);
}

class EngineGeometryTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
  protected:
    SocParams
    params() const
    {
        auto [lanes, chimes] = GetParam();
        VEngineParams ep = vlittlePreset();
        ep.numLanes = lanes;
        ep.chimes = chimes;
        ep.cmdQueueDepth = 1;
        ep.vmiuQueueDepth = 1;
        ep.loadQueueLines = 1;
        ep.storeQueueLines = 1;
        ep.storeCamEntries = 1;
        ep.uopQueueDepth = 2 * chimes;
        SocParams sp;
        sp.design = Design::d1b4VL;
        sp.engineOverride = std::make_unique<VEngineParams>(ep);
        sp.check.invariants = true;
        sp.check.invariantPeriod = 1;
        return sp;
    }

    /** Run @p prog timed and functionally from the same memory image;
     *  any hang or invariant violation fails the test. */
    void
    expectCompletesAndMatches(const ProgramPtr &prog, int dataSeed)
    {
        Soc soc(params());
        BackingStore funcMem;
        Rng dataRng(dataSeed);
        initData(funcMem, dataRng);
        initIndices(funcMem);
        ArchState func(soc.vlenBits());
        runFunctional(func, *prog, funcMem);

        Rng dataRng2(dataSeed);
        initData(soc.backing, dataRng2);
        initIndices(soc.backing);
        soc.watchdog.arm();
        bool done = false;
        soc.big->runProgram(prog, {}, [&] { done = true; });
        try {
            ASSERT_TRUE(soc.runUntil(done,
                                     soc.eq.now() + 50'000'000ull));
        } catch (const SimError &e) {
            FAIL() << e.what();
        }
        EXPECT_GT(soc.stats.value("check.sweeps"), 0u);
        EXPECT_TRUE(soc.engine->idle());
        expectSameState(soc.big->archState(), func, soc.backing, funcMem,
                        prog->name().c_str());
    }
};

TEST_P(EngineGeometryTest, MinimumDepthsCompleteWithoutViolation)
{
    for (int seed = 0; seed < 4; ++seed) {
        SCOPED_TRACE("random vector program, seed " +
                     std::to_string(seed));
        Rng rng(3000 + seed);
        expectCompletesAndMatches(randomVectorProgram(rng, 6), seed);
    }
    SCOPED_TRACE("indexed gather/scatter");
    expectCompletesAndMatches(gatherScatterProgram(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    LanesByChimes, EngineGeometryTest,
    ::testing::Combine(::testing::Values(1u, 8u),
                       ::testing::Values(1u, 4u)),
    [](const auto &info) {
        return "lanes" + std::to_string(std::get<0>(info.param)) +
               "_chimes" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace bvl
