/**
 * @file
 * Text forms of a run: JSON documents of RunOptions, RunResult, the
 * fault plan and the job (replay recipe), and the scale names.
 *
 * Two subsystems need a faithful on-disk form of a run: failure
 * forensics (replay recipes in the "bvl-failure-report-v1" schema) and
 * the crash-safe sweep service (write-ahead journal and result cache,
 * DESIGN.md §14). Both must reproduce a run *exactly*, so every field
 * that affects simulation — including the engine-parameter override of
 * the Figure 7/8 ablations — round-trips, and a serialized RunResult
 * re-serializes byte-identically (the JSON layer prints doubles with
 * %.17g, which is exact for IEEE doubles).
 *
 * Each serialized struct has one field list in run_io.cc that both
 * directions walk. fromJson functions accept missing members
 * (defaulting them) so old documents stay loadable; they throw
 * SimFatalError on a missing required member (RunResult::status, a
 * scripted fault's kind, a job's design/workload/scale) or an unknown
 * enum name, matching Json::parse.
 */

#ifndef BVL_SOC_RUN_IO_HH
#define BVL_SOC_RUN_IO_HH

#include "sim/check/json.hh"
#include "soc/run_driver.hh"

namespace bvl
{

/*
 * Declared here rather than next to Scale in workload.hh, so that a
 * program including workload.hh stays free to define its own
 * scaleName().
 */
inline const char *scaleName(Scale s) { return enumName(s); }
inline std::optional<Scale>
scaleFromName(std::string_view name)
{
    return enumFromName<Scale>(name);
}

Json runOptionsToJson(const RunOptions &o);
RunOptions runOptionsFromJson(const Json &j);

Json runResultToJson(const RunResult &r);
RunResult runResultFromJson(const Json &j);

Json faultSpecToJson(const FaultSpec &spec);
FaultSpec faultSpecFromJson(const Json &j);

/** The replay recipe: design, workload, scale and "options". */
Json sweepJobToJson(const SweepJob &job);
SweepJob sweepJobFromJson(const Json &j);

} // namespace bvl

#endif // BVL_SOC_RUN_IO_HH
