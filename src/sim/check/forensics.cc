#include "sim/check/forensics.hh"

#include "sim/io/sim_io.hh"
#include "sim/logging.hh"

namespace bvl
{

Json
buildFailureReport(const RunResult &r, const SweepJob &recipe)
{
    Json j = runResultToJson(r);
    j.set("schema", "bvl-failure-report-v1");
    j.set("replay", sweepJobToJson(recipe));
    return j;
}

bool
writeFailureReport(const std::string &path, const RunResult &r,
                   const SweepJob &recipe)
{
    // A report that cannot be written costs a warning, never the
    // run's own status — the failure being reported is the news, not
    // the reporting. Atomic publish so a torn report is never
    // mistaken for a complete one.
    std::string text = buildFailureReport(r, recipe).dump(2);
    text += '\n';
    std::string err;
    if (!io::writeFileAtomic("forensics.report", path, text, &err)) {
        warn("forensics: short write of failure report %s (%s)",
             path.c_str(), err.c_str());
        return false;
    }
    return true;
}

SweepJob
loadReplayRecipe(const std::string &path)
{
    std::string text;
    std::string err;
    if (!io::readFile("forensics.recipe.read", path, &text, nullptr,
                      &err))
        fatal("forensics: cannot read %s: %s", path.c_str(),
              err.c_str());
    Json doc = Json::parse(text);
    // Accept a full failure report or a bare recipe document.
    const Json &recipe = doc.has("replay") ? doc["replay"] : doc;
    return sweepJobFromJson(recipe);
}

RunResult
runReplay(const SweepJob &recipe)
{
    SweepJob rerun = recipe;
    // Never clobber the report being replayed from.
    rerun.opts.check.forensicsPath.clear();
    return runWorkload(rerun.design, rerun.workload, rerun.scale,
                       rerun.opts);
}

} // namespace bvl
