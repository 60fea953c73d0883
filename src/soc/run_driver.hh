/**
 * @file
 * Run driver: executes one workload on one design and collects the
 * statistics the paper's figures are built from.
 *
 * Which core runs which program is decided by runShape()
 * (soc/soc.hh), the execution-mode table of paper Section IV.
 */

#ifndef BVL_SOC_RUN_DRIVER_HH
#define BVL_SOC_RUN_DRIVER_HH

#include <map>
#include <optional>
#include <string>

#include "runtime/ws_runtime.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace bvl
{

/**
 * SMARTS-style sampled simulation: interleave functional fast-forward
 * with detailed timing windows (DESIGN.md §15). Each of the
 * @p periods samples fast-forwards @p ffInsts instructions purely
 * functionally (warming caches, directory and branch predictor), runs
 * @p warmupInsts in unmeasured detail to warm pipeline/MSHR/engine
 * state, then measures @p detailInsts in full detail. Total runtime
 * is extrapolated from the measured windows; the final architectural
 * and memory state is exact (functional execution is the same oracle
 * the timing model fetches through), so result verification still
 * applies. Only single-stream runs (data-parallel workloads on
 * designs other than 1b-4L/1bIV-4L) can be sampled.
 */
struct SamplingOptions
{
    std::uint64_t ffInsts = 0;      ///< functionally-skipped insts/period
    std::uint64_t warmupInsts = 0;  ///< unmeasured detailed warmup insts
    std::uint64_t detailInsts = 0;  ///< measured detailed insts/period
    unsigned periods = 0;           ///< sample count; 0 disables

    bool enabled() const { return periods > 0 && detailInsts > 0; }
};

/**
 * Fast-forward prefixes and where they are kept (DESIGN.md §15/§16).
 * @p ffInsts alone fast-forwards that many instructions functionally
 * every run and keeps nothing: the cold baseline a sweep pays per
 * cell. A checkpoint entry makes the prefix reusable; it is either
 * the file at @p path or, with @p farm, the run's content-addressed
 * entry in the farm at @p farmDir (or CheckpointFarm::defaultDir()).
 * Both go through one restore-or-produce step: an entry that verifies
 * is restored; otherwise the prefix is fast-forwarded, published to
 * the entry, and the run continues in detail.
 *
 * Without @p ffInsts a @p path can only be restored: a missing,
 * corrupt or mismatched file fails the run and is left alone. With
 * it, a corrupt file is quarantined (renamed *.corrupt) and produced
 * again, never silently trusted; a mismatched one is always fatal.
 */
struct CheckpointOptions
{
    std::string path;           ///< checkpoint file ("" = none)
    std::uint64_t ffInsts = 0;  ///< prefix length in instructions
    bool farm = false;          ///< keep the prefix in the farm
    std::string farmDir;        ///< farm directory ("" = env/default)

    bool enabled() const
    {
        return !path.empty() || farm || ffInsts > 0;
    }
};

struct RunOptions
{
    double bigGhz = 1.0;
    double littleGhz = 1.0;
    /** Engine parameter override (Figure 7/8 ablations). */
    std::optional<VEngineParams> engineOverride;
    /** Simulated-time limit in nanoseconds. */
    double limitNs = 1e9;
    /** Skip result verification (pure performance sweeps). */
    bool verifyResult = true;
    /** Arm the progress watchdog for this run. */
    bool watchdog = true;
    /** No-progress window before the watchdog declares deadlock. */
    double watchdogIntervalNs = 100000.0;
    /**
     * Wall-clock (host-time) budget for the run in seconds; 0 disables.
     * Enforced at watchdog check events (the watchdog is armed when a
     * deadline is set, even with watchdog == false); an expired budget
     * ends the run with RunStatus::deadline. Host-time-dependent, so
     * it is excluded from the sweep service's job identity hash.
     */
    double wallDeadlineSec = 0.0;
    /** Deterministic fault-injection plan (disabled by default). */
    FaultSpec faults{};
    /**
     * Online checking: lockstep co-simulation against the functional
     * model and/or structural invariant sweeps, plus the forensics
     * report path. Disarmed by default (zero hot-path cost).
     */
    CheckOptions check{};
    /**
     * Event tracing and interval stat sampling. Disarmed by default;
     * arming writes a Chrome-trace/Perfetto JSON (TraceOptions::path)
     * and/or a stat time series (TraceOptions::samplePath).
     */
    TraceOptions trace{};
    /** Sampled (fast-forward interleaved) simulation; off by default. */
    SamplingOptions sampling{};
    /** Fast-forward prefix and its checkpoint; off by default. */
    CheckpointOptions checkpoint{};
};

/** How a run ended; anything but ok is a recoverable failure. */
enum class RunStatus
{
    ok,             ///< workload completed (and verified, if asked)
    time_limit,     ///< RunOptions::limitNs expired mid-run
    deadlock,       ///< watchdog fired or the event queue drained dry
    verify_failed,  ///< completed but produced a wrong result
    sim_error,      ///< a model invariant tripped (panic/fatal)
    check_failed,   ///< online checker caught a divergence/violation
    deadline,       ///< RunOptions::wallDeadlineSec host-time budget hit
    worker_lost,    ///< isolated sweep worker died (signal/short read)
};

template <>
struct EnumNames<RunStatus>
{
    static constexpr const char *names[] = {
        "ok", "time_limit", "deadlock", "verify_failed",
        "sim_error", "check_failed", "deadline", "worker_lost"};
};

constexpr unsigned numRunStatuses = enumCount<RunStatus>();

inline const char *runStatusName(RunStatus s) { return enumName(s); }
inline std::optional<RunStatus>
runStatusFromName(std::string_view name)
{
    return enumFromName<RunStatus>(name);
}

struct RunResult
{
    std::string workload;
    std::string design;
    RunStatus status = RunStatus::sim_error;
    /** Diagnostic for any non-ok status (watchdog report, panic text). */
    std::string message;
    /**
     * Everything warn()/inform()/panic()/fatal() printed during this
     * run, captured per-run (LogCapture) so concurrent sweep jobs
     * never interleave diagnostics on stderr.
     */
    std::string log;
    bool finished = false;
    bool verified = false;
    double ns = 0.0;

    bool ok() const { return status == RunStatus::ok; }

    /** Full stat snapshot for detailed analyses. */
    std::map<std::string, std::uint64_t> stats;

    // --- forensics capture (populated on any non-ok status) ----------

    /** Final per-component heartbeat table (watchdog snapshot). */
    std::vector<Watchdog::Heartbeat> heartbeats;
    /** First lockstep divergence, when the checker caught one. */
    std::optional<DivergenceRecord> divergence;
    /** Structural-invariant violations at end of run ("" = none). */
    std::string invariantViolations;

    std::uint64_t stat(const std::string &name) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    }
};

/**
 * One simulation of the sweep grid, and the replay recipe of a failed
 * run: everything that deterministically reproduces a RunResult.
 */
struct SweepJob
{
    Design design = Design::d1b4VL;
    std::string workload;
    Scale scale = Scale::tiny;
    RunOptions opts{};
};

/** Run @p workload on @p design and return the measurements. */
RunResult runWorkload(Design design, Workload &workload,
                      const RunOptions &opts = {});

/** Convenience: build the named workload and run it. */
RunResult runWorkload(Design design, const std::string &name,
                      Scale scale, const RunOptions &opts = {});

} // namespace bvl

#endif // BVL_SOC_RUN_DRIVER_HH
