/**
 * @file
 * Fast-forward engine (DESIGN.md §15): execute program regions purely
 * functionally — the same stepOne() oracle the timing cores fetch
 * through — while warming the caches, L2 directory and branch
 * predictor, then resume detailed timing via the cores' runWindow().
 *
 * Two run shapes build on this:
 *
 *  - checkpointing: fast-forward N instructions, publish a snapshot
 *    of the SoC (soc/checkpoint.hh) to a checkpoint file or farm
 *    entry and continue in detail; a later run restores the snapshot
 *    and produces byte-identical results.
 *  - SMARTS-style sampling: per period, fast-forward -> unmeasured
 *    detailed warmup -> measured detailed window; total runtime is
 *    extrapolated from the measured windows and the run finishes with
 *    a final functional region so result verification still applies.
 *
 * Only single-stream runs can be fast-forwarded (runShape(),
 * soc/soc.hh): data-parallel workloads on designs other than
 * 1b-4L/1bIV-4L, where exactly one core, Soc::streamCore(), fetches
 * one program.
 */

#ifndef BVL_SOC_FAST_FORWARD_HH
#define BVL_SOC_FAST_FORWARD_HH

#include <map>
#include <optional>

#include "soc/run_driver.hh"
#include "soc/soc.hh"
#include "soc/warm_trace.hh"
#include "workloads/workload.hh"

namespace bvl
{

struct FastForwardResult
{
    std::uint64_t executed = 0;  ///< dynamic instructions stepped
    bool halted = false;         ///< the program's halt was executed
};

/**
 * Functionally execute up to @p maxInsts instructions of @p prog
 * against @p core's architectural state and the SoC's backing store.
 * With @p warm set, @p core's instruction-fetch and scalar data paths
 * and — for vector element traffic — the L2 + directory are warmed
 * tag/LRU-only, and @p core's branch predictor (if any) is trained on
 * every conditional branch, all without touching a single stat
 * counter.
 * A non-null @p traceOut additionally records every warm call as a
 * compact line-access stream (soc/warm_trace.hh), the tier-B half of
 * a v2 checkpoint-farm entry.
 */
FastForwardResult fastForward(Soc &soc, ProgramCore &core,
                              const Program &prog,
                              std::uint64_t maxInsts, bool warm,
                              WarmTrace *traceOut = nullptr);

/** Outcome of a sampled or checkpointed run. */
struct FfRunOutcome
{
    /** The workload ran (or fast-forwarded) to completion. */
    bool finished = false;
    /** Extrapolated runtime of a sampled run (ns); unset when the run
     *  was timed end-to-end (a checkpointed run). */
    std::optional<double> estimatedNs;
    /** sample.* stats describing the windows actually measured. */
    std::map<std::string, std::uint64_t> extraStats;
};

/**
 * Drive one sampled or checkpointed run per RunOptions::sampling /
 * RunOptions::checkpoint. The SoC must be freshly constructed with
 * the workload initialized; dispatch, fast-forward regions and
 * detailed windows are orchestrated internally. Invalid combinations
 * (both modes at once, non-single-stream runs, lockstep) fail with
 * SimFatalError, which the run driver reports as sim_error.
 */
FfRunOutcome runFastForwarded(Soc &soc, Workload &workload,
                              const RunOptions &opts);

} // namespace bvl

#endif // BVL_SOC_FAST_FORWARD_HH
