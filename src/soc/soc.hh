/**
 * @file
 * Assembly of one simulated SoC: clock domains, shared backing store,
 * memory hierarchy, one big core, four little cores and (per design)
 * a vector engine — the seven systems of the paper's Table III.
 */

#ifndef BVL_SOC_SOC_HH
#define BVL_SOC_SOC_HH

#include <memory>
#include <string>
#include <vector>

#include "core/vlittle_engine.hh"
#include "cpu/big_core.hh"
#include "cpu/little_core.hh"
#include "mem/mem_system.hh"
#include "sim/check/check_context.hh"
#include "sim/clock_domain.hh"
#include "sim/enum_names.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

/** The evaluated systems (paper Table III). */
enum class Design
{
    d1L,       ///< one little core
    d1b,       ///< one big core
    d1bIV,     ///< big core + integrated 128-bit vector unit
    d1b4L,     ///< big + 4 little, no vector support
    d1bIV4L,   ///< big with integrated VU + 4 little
    d1bDV,     ///< big + decoupled 2048-bit vector engine
    d1b4VL,    ///< big.VLITTLE: big + VLITTLE engine of 4 little cores
};

template <>
struct EnumNames<Design>
{
    static constexpr const char *names[] = {
        "1L", "1b", "1bIV", "1b-4L", "1bIV-4L", "1bDV", "1b-4VL"};
};

inline const char *designName(Design d) { return enumName(d); }
inline std::optional<Design>
designFromName(std::string_view name)
{
    return enumFromName<Design>(name);
}

/** Does the design include a vector engine? */
bool designHasVector(Design d);

/**
 * Which cores run which program in one run: the execution-mode table
 * of paper Section IV. A run is either one program stream on one core
 * (no runtime) or a work-stealing task graph (runtime/ws_runtime.hh).
 *
 *   data-parallel workloads
 *     1L          scalar whole-problem program on one little core
 *     1b          scalar program on the big core
 *     1bIV        vectorized program on the big core (VLEN 128)
 *     1b-4L       task graph, big + 4 little, all scalar
 *     1bIV-4L     task graph; big runs vectorized chunks, littles scalar
 *     1bDV        vectorized program, decoupled engine (VLEN 2048)
 *     1b-4VL      vectorized program, VLITTLE engine (VLEN 512),
 *                 500-cycle mode switch, littles ganged as lanes
 *
 *   task-parallel workloads (Ligra)
 *     1L          task graph with one little worker
 *     1b/1bIV/1bDV task graph with the big core only (the decoupled
 *                 engine cannot help irregular scalar tasks)
 *     1b-4L/1bIV-4L/1b-4VL task graph on big + 4 little workers
 */
struct RunShape
{
    /** Task graph on the workers below, rather than one stream. */
    bool taskGraph = false;
    /** The big core runs: the stream's core, or a graph worker. */
    bool useBig = true;
    /** Little cores that run, littles[0..littleWorkers): 1 for the
     *  1L stream, the graph's little workers otherwise. */
    unsigned littleWorkers = 0;
    /** The big core runs vector code: the stream's vectorized
     *  program, or each task's vectorized version. */
    bool vector = false;
};

/** The RunShape of @p d on a data- or task-parallel workload, on an
 *  SoC with @p numLittle little cores. */
RunShape runShape(Design d, bool dataParallel, unsigned numLittle);

struct SocParams
{
    Design design = Design::d1b4VL;
    double bigFreqGhz = 1.0;
    double littleFreqGhz = 1.0;
    double uncoreFreqGhz = 1.0;
    unsigned numLittle = 4;
    MemSystemParams memParams{};
    BigCoreParams bigParams{};
    LittleCoreParams littleParams{};
    /** Engine parameter override (empty = design default preset). */
    std::unique_ptr<VEngineParams> engineOverride;
    /** Deterministic fault-injection plan (disabled by default). */
    FaultSpec faults{};
    /** Online checking (lockstep + invariants); disarmed by default. */
    CheckOptions check{};
    /** Event tracing / stat sampling; disarmed by default. */
    TraceOptions trace{};
};

class Soc
{
  public:
    explicit Soc(SocParams params);
    Soc(Design design, double bigGhz = 1.0, double littleGhz = 1.0);

    Design design() const { return p.design; }

    /** Hardware vector length of this design's engine (0 if none). */
    unsigned vlenBits() const
    { return engine ? engine->params().vlenBits() : 64; }

    /** Run the event queue until an event sets @p stop, no events
     *  remain, or @p limit passes. */
    bool runUntil(const bool &stop, Tick limit = maxTick);

    /** Elapsed simulated nanoseconds. */
    double elapsedNs() const
    { return static_cast<double>(eq.now()) / ticksPerNs; }

    /** The run's fault injector (null when injection is disabled). */
    FaultInjector *faultInjector() { return injector.get(); }

    /** The run's check context (null when checking is disarmed). */
    CheckContext *checker() { return checkCtx.get(); }

    /** The run's tracer (null when tracing is disarmed). */
    Tracer *tracer() { return tracerPtr.get(); }

    /** This design's RunShape on a data- or task-parallel workload. */
    RunShape shape(bool dataParallel) const
    { return runShape(p.design, dataParallel, p.numLittle); }

    /**
     * The core that fetches this design's single program stream of a
     * data-parallel workload (runShape(); the little core of 1L, else
     * the big core).
     */
    ProgramCore *streamCore();

    /**
     * Arm the lockstep checker on streamCore(). Lockstep is exact
     * only for single-stream runs: @p singleStream is false for
     * task-graph shapes, in which case the checker degrades to
     * structural invariants only and this returns false. Also returns
     * false when checking is disabled or lockstep was not requested.
     */
    bool armLockstep(bool singleStream);

    EventQueue eq;
    ClockDomain bigClk;
    ClockDomain littleClk;
    ClockDomain uncoreClk;
    StatGroup stats;
    /** Progress watchdog; every component's heartbeat is registered
     *  at construction, but nothing fires until arm() is called. */
    Watchdog watchdog;
    BackingStore backing;
    MemSystem mem;

    std::unique_ptr<BigCore> big;
    std::vector<std::unique_ptr<LittleCore>> littles;
    std::unique_ptr<VlittleEngine> engine;

  private:
    std::unique_ptr<FaultInjector> injector;
    /** Owns the invariant registry, whose closures capture the
     *  components above. */
    std::unique_ptr<CheckContext> checkCtx;
    std::unique_ptr<Tracer> tracerPtr;
    SocParams p;
};

} // namespace bvl

#endif // BVL_SOC_SOC_HH
