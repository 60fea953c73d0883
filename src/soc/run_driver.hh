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
 * Checkpoint save/restore (DESIGN.md §15). Saving fast-forwards
 * @p ffInsts instructions functionally, snapshots architectural +
 * warm microarchitectural state to @p savePath, then continues in
 * detail; restoring resumes detailed timing from @p restorePath. A
 * missing or corrupt checkpoint is quarantined (renamed *.corrupt)
 * and re-simulated from scratch via @p ffInsts — never silently
 * trusted — which yields byte-identical results by construction.
 *
 * Three further shapes (DESIGN.md §16):
 *  - plain fast-forward: @p ffInsts alone (no paths) skips the prefix
 *    functionally every run — the cold baseline a sweep pays per cell.
 *  - farm mode: @p farm resolves the run's prefix hash in the
 *    content-addressed checkpoint farm at @p farmDir (or
 *    CheckpointFarm::defaultDir()); the first cell to miss produces
 *    the entry once (single-flight), everyone else restores it.
 *  - strict restore: @p strict turns the restore fallback into a
 *    reported failure — a missing/corrupt/mismatched @p restorePath
 *    is fatal instead of silently re-simulated.
 */
struct CheckpointOptions
{
    std::string savePath;       ///< write a checkpoint here ("" = off)
    std::string restorePath;    ///< resume from this file ("" = off)
    std::uint64_t ffInsts = 0;  ///< insts to fast-forward before saving
    bool farm = false;          ///< share the prefix via the farm
    std::string farmDir;        ///< farm directory ("" = env/default)
    bool strict = false;        ///< restore must succeed; never re-ff

    bool enabled() const
    {
        return !savePath.empty() || !restorePath.empty() || farm ||
               ffInsts > 0;
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
    /** Checkpoint save/restore; off by default. */
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
