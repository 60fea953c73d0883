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

const char *designName(Design d);

/** Does the design include a vector engine? */
bool designHasVector(Design d);

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

    /** Run the event queue until @p done or no events remain. */
    bool runUntil(const std::function<bool()> &done,
                  Tick limit = maxTick);

    /** Elapsed simulated nanoseconds. */
    double elapsedNs() const
    { return static_cast<double>(eq.now()) / ticksPerNs; }

    /** The run's fault injector (null when injection is disabled). */
    FaultInjector *faultInjector() { return injector.get(); }

    /** The run's check context (null when checking is disarmed). */
    CheckContext *checker() { return checkCtx.get(); }

    /** The run's tracer (null when tracing is disarmed). */
    Tracer *tracer() { return tracerPtr.get(); }

    /** Registered structural invariants (always populated). */
    InvariantRegistry &invariantRegistry() { return invariants; }

    /**
     * Arm the lockstep checker on this run's single program stream
     * (the big core, or the little core of the 1L design). Lockstep
     * is exact only for single-stream runs: @p singleStream is false
     * for task-parallel shapes, in which case the checker degrades to
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
    /** Declared after the components its callbacks capture. */
    InvariantRegistry invariants;
    std::unique_ptr<CheckContext> checkCtx;
    std::unique_ptr<Tracer> tracerPtr;
    SocParams p;
};

} // namespace bvl

#endif // BVL_SOC_SOC_HH
