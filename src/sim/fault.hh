/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultSpec describes a seeded plan of transient hardware faults:
 * stretched cache/DRAM response latencies, VCU command-bus stalls, and
 * dropped VMU load/store responses. Faults fire either probabilistically
 * (one xoshiro draw per injection point, from the plan's own Rng so
 * workload generation is unaffected) or at scripted simulated ticks.
 *
 * Determinism guarantee: the simulation is single-threaded and the
 * event queue is FIFO within a tick, so the sequence of injection-point
 * queries — and therefore the sequence of Rng draws — is a pure
 * function of the configuration. Two runs with the same FaultSpec
 * produce bit-identical cycle counts and statistics. A spec with
 * enabled=false never draws from the Rng and never adds latency, so a
 * clean run matches a build without any injector attached, tick for
 * tick.
 *
 * Recovery contract: memory-latency stretches and bounded VCU stalls
 * are absorbed by the normal decoupling queues. Dropped VMU responses
 * are retried by the engine up to vmuMaxRetries times; with retries
 * exhausted (or disabled) the response is lost for good, the in-flight
 * instruction can never complete, and the progress watchdog converts
 * the hang into a diagnosable DeadlockError.
 */

#ifndef BVL_SIM_FAULT_HH
#define BVL_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/enum_names.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bvl
{

enum class FaultKind
{
    memDelay,   ///< stretch a DRAM response
    cacheDelay, ///< stretch a cache miss response
    vcuStall,   ///< freeze the VCU broadcast bus
    vmuDrop,    ///< drop a VMU load/store memory response
};

template <>
struct EnumNames<FaultKind>
{
    static constexpr const char *names[] = {"memDelay", "cacheDelay",
                                            "vcuStall", "vmuDrop"};
};

constexpr unsigned numFaultKinds = enumCount<FaultKind>();

inline const char *faultKindName(FaultKind kind) { return enumName(kind); }

/** One fault injected at a fixed simulated time. */
struct ScriptedFault
{
    Tick atTick = 0;
    FaultKind kind = FaultKind::vcuStall;
    /** Stall/delay length in cycles of the victim's clock domain. */
    Cycles cycles = 0;
};

struct FaultSpec
{
    /** Master switch: when false no Rng draw or latency ever happens. */
    bool enabled = false;
    std::uint64_t seed = 1;

    double memDelayProb = 0.0;    ///< per DRAM response
    Cycles memDelayCycles = 50;

    double cacheDelayProb = 0.0;  ///< per cache miss
    Cycles cacheDelayCycles = 8;

    double vcuStallProb = 0.0;    ///< per broadcast attempt
    Cycles vcuStallCycles = 20;

    double vmuDropProb = 0.0;     ///< per VMU memory response
    /** Retries before a dropped response is unrecoverable (0 = none). */
    unsigned vmuMaxRetries = 3;
    Cycles vmuRetryDelay = 64;

    std::vector<ScriptedFault> script;
};

/**
 * Runtime side of a FaultSpec: owns the plan's Rng and the
 * fired-already state of scripted faults, and counts every injection
 * in the run's StatGroup ("faults.<kind>" / "faults.<kind>.scripted").
 */
class FaultInjector
{
  public:
    FaultInjector(FaultSpec spec, StatGroup &stats);

    bool enabled() const { return spec_.enabled; }
    const FaultSpec &spec() const { return spec_; }

    /** Extra DRAM response latency, in uncore cycles (usually 0). */
    Cycles memResponseDelay(Tick now);

    /** Extra cache miss-response latency, in cache-clock cycles. */
    Cycles cacheResponseDelay(Tick now);

    /** Cycles the VCU broadcast bus must stall, polled per attempt. */
    Cycles vcuStall(Tick now);

    /**
     * True if this VMU memory response should be dropped. Scripted
     * vmuDrop entries due by @p now each consume one response (one
     * drop per entry, checked before any probabilistic roll so the
     * plan's Rng draw sequence is unaffected by scripting).
     */
    bool dropVmuResponse(Tick now);

    unsigned vmuMaxRetries() const { return spec_.vmuMaxRetries; }
    Cycles vmuRetryDelay() const { return spec_.vmuRetryDelay; }

  private:
    /** Sum of not-yet-fired scripted faults of @p kind due by @p now. */
    Cycles takeScripted(FaultKind kind, Tick now);
    /** Consume one not-yet-fired scripted fault of @p kind due by now. */
    bool takeScriptedOne(FaultKind kind, Tick now);
    bool roll(double prob);
    void countFault(FaultKind kind, bool scripted);

    FaultSpec spec_;
    Rng rng;
    StatGroup &stats;
    /** Per-kind injection counters ("faults.<kind>" and
     *  "faults.<kind>.scripted", indexed by FaultKind). Interned
     *  lazily on the first fire of each kind: fault fires are rare
     *  events, not steady-state work, and a quiet plan must leave the
     *  stat map exactly as a run without any injector would. */
    std::array<StatHandle, numFaultKinds> sKind;
    std::array<StatHandle, numFaultKinds> sKindScripted;
    std::vector<bool> fired;
};

} // namespace bvl

#endif // BVL_SIM_FAULT_HH
