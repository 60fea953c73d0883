/**
 * @file
 * Failure forensics: structured reports and replay recipes.
 *
 * Any non-ok run can be serialized to a JSON failure report
 * (schema "bvl-failure-report-v1") capturing what is needed to
 * understand and reproduce it: the RunResult document (status,
 * message, captured log, stats, and when present the final
 * per-component heartbeat table, the first lockstep divergence and
 * the invariant violations) plus a replay recipe, the SweepJob that
 * ran (design, workload, scale and every RunOptions field, including
 * the fault plan, checker flags and the engine-parameter override of
 * the Figure 7/8 sweeps). Feeding the recipe back through runReplay()
 * re-executes the identical deterministic run. soc/run_io.hh owns the
 * serialization.
 */

#ifndef BVL_SIM_CHECK_FORENSICS_HH
#define BVL_SIM_CHECK_FORENSICS_HH

#include <string>

#include "soc/run_io.hh"

namespace bvl
{

/**
 * The "bvl-failure-report-v1" document for @p r: runResultToJson(r)
 * followed by "schema" and "replay" (sweepJobToJson(recipe)).
 */
Json buildFailureReport(const RunResult &r, const SweepJob &recipe);

/**
 * Serialize @p r to @p path. Returns false (with a warn()) when the
 * file cannot be written; forensics must never turn a diagnosable
 * failure into a crash.
 */
bool writeFailureReport(const std::string &path, const RunResult &r,
                        const SweepJob &recipe);

/**
 * Load the replay recipe from @p path, accepting either a full
 * failure report (its "replay" member) or a bare recipe document.
 * Throws SimFatalError on unreadable or malformed files.
 */
SweepJob loadReplayRecipe(const std::string &path);

/**
 * Re-run the recipe's workload/design/options. The recipe's
 * forensicsPath is cleared first so a replay never overwrites the
 * report it came from.
 */
RunResult runReplay(const SweepJob &recipe);

} // namespace bvl

#endif // BVL_SIM_CHECK_FORENSICS_HH
