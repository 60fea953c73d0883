/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel itself:
 * event-queue throughput, cache access path, little-core and big-core
 * simulated cycles and retired instructions per host second, and
 * vector-engine micro-ops per host second. Useful when changing the
 * hot simulation loops.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cpu/big_core.hh"
#include "cpu/little_core.hh"
#include "mem/mem_system.hh"
#include "sim/check/check_context.hh"
#include "sim/check/invariants.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "soc/soc.hh"
#include "sweep/sweep_runner.hh"

namespace
{

using namespace bvl;

/**
 * Schedule+drain of 1000 closure events — the historic combined
 * number, kept for comparison across revisions.
 */
void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i * 10, [&] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_EventQueue);

/**
 * Schedule cost alone: 1000 closure events pushed into a fresh queue;
 * the destructor discards them untimed-ish (it only tears down the
 * heap vector and node pool, it never invokes callables).
 */
void
BM_EventQueueSchedule(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i * 10, [&] { ++sink; });
        benchmark::DoNotOptimize(eq.size());
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueSchedule);

/** Drain cost alone: the queue is refilled outside the timed region. */
void
BM_EventQueueDrain(benchmark::State &state)
{
    std::uint64_t fired = 0;
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i * 10, [&] { ++fired; });
        state.ResumeTiming();
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueDrain);

/** Clocked stub whose tick re-arms itself a fixed number of times. */
class BenchTicker : public Clocked
{
  public:
    using Clocked::Clocked;
    std::uint64_t remaining = 0;

  protected:
    bool tick() override { return --remaining != 0; }
};

/**
 * Steady-state cost of one simulated cycle of an active component:
 * intrusive TickEvent re-arm into its domain's edge FIFO, the pop of
 * the FIFO's front, virtual process() dispatch. This is the path every
 * active Clocked pays every cycle.
 */
void
BM_TickChurn(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1.0);
    BenchTicker t(cd, "t");
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        t.remaining = 1000;
        t.activate();
        eq.run();
        cycles += 1000;
    }
    state.counters["ticks/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TickChurn);

/** BenchTicker that schedules a closure every eighth tick, as a core
 *  issuing a memory access does. */
class ClosureTicker : public BenchTicker
{
  public:
    using BenchTicker::BenchTicker;
    std::uint64_t closures = 0;

  protected:
    bool
    tick() override
    {
        if ((remaining & 7) == 0)
            clock().eventQueue().schedule(3333, [this] { ++closures; });
        return BenchTicker::tick();
    }
};

/**
 * The mix the SoC runs: three domains at unequal periods (1.0, 1.4 and
 * 0.6 GHz), three tickers on each, and sparse closures between their
 * ticks. BM_TickChurn has a single ticker on a single domain.
 */
void
BM_TickChurnDomains(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain a(eq, "a", 1.0), b(eq, "b", 1.4), c(eq, "c", 0.6);
    std::vector<std::unique_ptr<ClosureTicker>> tickers;
    for (ClockDomain *cd : {&a, &b, &c})
        for (int i = 0; i < 3; ++i)
            tickers.push_back(std::make_unique<ClosureTicker>(*cd, "t"));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        for (auto &t : tickers) {
            t->remaining = 1000;
            t->activate();
        }
        eq.run();
        cycles += 1000 * tickers.size();
    }
    for (auto &t : tickers)
        benchmark::DoNotOptimize(t->closures);
    state.counters["ticks/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TickChurnDomains);

/** Interned-handle stat increment: the hot-path discipline. */
void
BM_StatIncrement(benchmark::State &state)
{
    StatGroup sg;
    StatHandle h = sg.handle("bench.counter");
    for (auto _ : state) {
        h++;
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(h.value());
}
BENCHMARK(BM_StatIncrement);

/** Name-keyed increment: what every hot-path call site used to do. */
void
BM_StatLookupIncrement(benchmark::State &state)
{
    StatGroup sg;
    for (auto _ : state) {
        sg.stat(std::string("bench.") + "counter")++;
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(sg.value("bench.counter"));
}
BENCHMARK(BM_StatLookupIncrement);

void
BM_CacheHitPath(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain uncore(eq, "u", 1.0);
    StatGroup stats;
    MemSystem sys(uncore, stats);
    // Warm one line.
    bool done = false;
    sys.accessData(0, 0x1000, false, [&] { done = true; });
    while (!done && eq.step()) {}
    for (auto _ : state) {
        bool hit = false;
        sys.accessData(0, 0x1000, false, [&] { hit = true; });
        while (!hit && eq.step()) {}
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_CacheHitPath);

/**
 * DESIGN.md §12 overhead gate: the identical hit loop in the disarmed
 * checker configuration a normal run sees — every cache's invariants
 * registered (Soc does this unconditionally) and no CheckContext
 * (Soc only constructs one when CheckOptions::enabled()). The
 * registered closures are inert until swept and the access path has
 * no checker hook, so this must stay within noise (<= 1%) of
 * BM_CacheHitPath.
 */
void
BM_CacheHitPathCheckerDisarmed(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain uncore(eq, "u", 1.0);
    StatGroup stats;
    MemSystem sys(uncore, stats);
    InvariantRegistry reg;
    sys.registerInvariants(reg);
    static_assert(!CheckOptions{}.lockstep && !CheckOptions{}.invariants,
                  "default CheckOptions must mean: no CheckContext");
    benchmark::DoNotOptimize(&reg);
    // Warm one line.
    bool done = false;
    sys.accessData(0, 0x1000, false, [&] { done = true; });
    while (!done && eq.step()) {}
    for (auto _ : state) {
        bool hit = false;
        sys.accessData(0, 0x1000, false, [&] { hit = true; });
        while (!hit && eq.step()) {}
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_CacheHitPathCheckerDisarmed);

ProgramPtr
loopProgram(int n)
{
    Asm a("bench");
    a.li(xreg(1), 0)
     .li(xreg(2), n)
     .label("loop")
     .addi(xreg(3), xreg(1), 5)
     .xor_(xreg(4), xreg(3), xreg(1))
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(2), "loop")
     .halt();
    return a.finish();
}

void
BM_LittleCoreSimSpeed(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain uncore(eq, "u", 1.0), cores(eq, "c", 1.0);
    StatGroup stats;
    BackingStore backing;
    MemSystem sys(uncore, stats);
    LittleCore little(cores, stats, sys, backing, 0, 512);
    auto prog = loopProgram(1000);
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bool done = false;
        Tick start = eq.now();
        std::uint64_t retired = little.retired();
        little.runProgram(prog, {}, [&] { done = true; });
        while (!done && eq.step()) {}
        cycles += cores.ticksToCycles(eq.now() - start);
        insts += little.retired() - retired;
    }
    state.counters["simCycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    // Per retired instruction, so a higher-IPC core does not look
    // slower for finishing the same loop in fewer cycles.
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LittleCoreSimSpeed);

/**
 * Functional fast-forward throughput: stepOne() over a three-stream
 * memory loop (two loads + one store per iteration, streams on
 * different pages). This is the loop a checkpoint-farm producer and
 * every cold sweep cell spend their prefix in; the BackingStore page
 * cache is the dominant cost, and the alternating streams are exactly
 * the pattern a one-entry cache thrashed on.
 */
void
BM_FastForwardStep(benchmark::State &state)
{
    constexpr std::int64_t n = 2048;     // 16 KiB/stream = 4 pages
    constexpr Addr srcA = 0x100000, srcB = 0x120000, dst = 0x140000;
    Asm a("ffbench");
    a.li(xreg(1), 0)
     .li(xreg(2), n)
     .li(xreg(5), static_cast<std::int64_t>(srcA))
     .li(xreg(6), static_cast<std::int64_t>(srcB))
     .li(xreg(7), static_cast<std::int64_t>(dst))
     .label("loop")
     .ld(xreg(3), xreg(5))
     .ld(xreg(4), xreg(6))
     .add(xreg(3), xreg(3), xreg(4))
     .sd(xreg(3), xreg(7))
     .addi(xreg(5), xreg(5), 8)
     .addi(xreg(6), xreg(6), 8)
     .addi(xreg(7), xreg(7), 8)
     .addi(xreg(1), xreg(1), 1)
     .blt(xreg(1), xreg(2), "loop")
     .halt();
    auto prog = a.finish();

    BackingStore backing;
    for (std::int64_t i = 0; i < n; ++i) {
        backing.writeT<std::uint64_t>(srcA + i * 8, i);
        backing.writeT<std::uint64_t>(srcB + i * 8, i * 3);
    }
    ArchState arch(512);
    ExecTrace tr;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        arch.reset();
        while (!arch.halted) {
            stepOne(arch, *prog, backing, tr);
            ++insts;
        }
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastForwardStep);

void
BM_BigCoreSimSpeed(benchmark::State &state)
{
    EventQueue eq;
    ClockDomain uncore(eq, "u", 1.0), cores(eq, "c", 1.0);
    StatGroup stats;
    BackingStore backing;
    MemSystem sys(uncore, stats);
    BigCore big(cores, stats, sys, backing, 512);
    auto prog = loopProgram(1000);
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bool done = false;
        Tick start = eq.now();
        std::uint64_t retired = big.retired();
        big.runProgram(prog, {}, [&] { done = true; });
        while (!done && eq.step()) {}
        cycles += cores.ticksToCycles(eq.now() - start);
        insts += big.retired() - retired;
    }
    state.counters["simCycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BigCoreSimSpeed);

/**
 * Stripmined copy-and-add loop over 1024 32-bit elements, vector
 * memory of one access pattern: Arg 0 unit-stride (vle/vse), 1
 * strided (vlse/vsse, 16-byte stride), 2 indexed (vluxei/vsuxei with
 * 8-byte offsets, built by vid + vsll).
 */
ProgramPtr
vectorStreamProgram(int pattern)
{
    constexpr Addr src = 0x100000, dst = 0x200000;
    const unsigned elemBytes = pattern == 0 ? 4 : pattern == 1 ? 16 : 8;
    Asm a("vstream");
    a.li(xreg(2), static_cast<std::int64_t>(src))
     .li(xreg(3), static_cast<std::int64_t>(dst))
     .li(xreg(5), elemBytes)
     .li(xreg(10), 1024)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4);
    switch (pattern) {
      case 0:
        a.vle(vreg(1), xreg(2), 4);
        break;
      case 1:
        a.vlse(vreg(1), xreg(2), xreg(5), 4);
        break;
      default:
        a.vid(vreg(3))
         .vi(Op::vsll, vreg(3), vreg(3), 3)
         .vluxei(vreg(1), xreg(2), vreg(3), 4);
        break;
    }
    a.vi(Op::vadd, vreg(2), vreg(1), 1);
    switch (pattern) {
      case 0: a.vse(vreg(2), xreg(3), 4); break;
      case 1: a.vsse(vreg(2), xreg(3), xreg(5), 4); break;
      default: a.vsuxei(vreg(2), xreg(3), vreg(3), 4); break;
    }
    a.mul(xreg(6), xreg(4), xreg(5))
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    auto prog = a.finish();
    prog->setTextBase(0x40000000);
    return prog;
}

/**
 * Vector-engine simulation speed: the 1b-4VL engine (VCU, VMIU,
 * per-bank VMSUs, VLU/VSU, four lanes) fed by the big core, in chime
 * micro-ops broadcast per host second. The argument picks the memory
 * access pattern (vectorStreamProgram()).
 */
void
BM_VectorEngineSimSpeed(benchmark::State &state)
{
    Soc soc(Design::d1b4VL);
    auto prog = vectorStreamProgram(static_cast<int>(state.range(0)));
    std::uint64_t uops = 0;
    for (auto _ : state) {
        bool done = false;
        std::uint64_t before = soc.stats.value("vlittle.uopsBroadcast");
        soc.big->runProgram(prog, {}, [&] { done = true; });
        while (!done && soc.eq.step()) {}
        uops += soc.stats.value("vlittle.uopsBroadcast") - before;
    }
    state.counters["uops/s"] = benchmark::Counter(
        static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VectorEngineSimSpeed)->Arg(0)->Arg(1)->Arg(2);

/**
 * End-to-end sweep throughput through the parallel runner: a small
 * grid of independent simulations at the given thread count. Arg(1)
 * is the serial (inline) baseline; higher args exercise the pool.
 */
void
BM_SweepRunner(benchmark::State &state)
{
    std::vector<SweepJob> grid;
    for (const char *name : {"vvadd", "saxpy"})
        for (Design d : {Design::d1L, Design::d1b, Design::d1b4VL})
            grid.push_back({d, name, Scale::tiny, {}});
    std::uint64_t completed = 0;
    for (auto _ : state) {
        auto results =
            runSweep(grid, static_cast<unsigned>(state.range(0)));
        for (const auto &r : results)
            if (r.ok())
                ++completed;
        benchmark::DoNotOptimize(results);
    }
    state.counters["runs/s"] = benchmark::Counter(
        static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
