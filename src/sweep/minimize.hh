/**
 * @file
 * Automatic fault-plan minimization (delta debugging).
 *
 * Given a replay recipe whose scripted fault plan makes the run fail,
 * minimizeFaultPlan() shrinks the script to a minimal subset of
 * injections that still produces the *same* failure status, using the
 * classic ddmin algorithm over script indices. Every candidate subset
 * is an independent deterministic simulation, so each ddmin round
 * fans its candidates out on a SweepRunner; results are consumed in
 * submission order and the first still-failing candidate (in that
 * order) is adopted, which makes the minimization deterministic for
 * any BVL_JOBS value.
 *
 * The result is verified 1-minimal: removing any single remaining
 * injection makes the failure disappear.
 */

#ifndef BVL_SWEEP_MINIMIZE_HH
#define BVL_SWEEP_MINIMIZE_HH

#include <cstddef>
#include <vector>

#include "sim/check/forensics.hh"

namespace bvl
{

struct MinimizeOptions
{
    /** SweepRunner thread count (0 = BVL_JOBS / hardware threads). */
    unsigned jobs = 0;
    /** Safety cap on total oracle simulations (incl. the baseline). */
    unsigned maxOracleRuns = 512;
};

struct MinimizeOutcome
{
    /** The shrunk plan (recipe's opts.faults with a minimal script). */
    SweepJob minimal;
    /** Failure status the minimization preserved. */
    RunStatus target = RunStatus::ok;
    /** Total simulations executed, including the baseline. */
    unsigned oracleRuns = 0;
    /** True when every single removal was verified to pass. */
    bool oneMinimal = false;
    /** Surviving script positions in the *original* plan, ascending. */
    std::vector<std::size_t> keptIndices;
};

/**
 * Shrink @p failing's scripted fault plan. The recipe must fail as
 * given (throws SimFatalError if the baseline run is ok). A recipe
 * whose failure does not depend on scripted entries minimizes to an
 * empty script.
 */
MinimizeOutcome minimizeFaultPlan(const SweepJob &failing,
                                  const MinimizeOptions &opts = {});

} // namespace bvl

#endif // BVL_SWEEP_MINIMIZE_HH
