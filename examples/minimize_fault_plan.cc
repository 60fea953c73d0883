/**
 * @file
 * Failure forensics walkthrough: run a deliberately fatal fault plan,
 * write its JSON failure report, then delta-debug the plan down to
 * the minimal set of still-failing injections.
 *
 *   minimize_fault_plan [report.json]
 *
 * When the argument names an existing failure report (or bare replay
 * recipe), its plan is minimized directly. Otherwise a demo run is
 * executed first: a 20-injection plan against vvadd on 1b-4VL where
 * 19 scripted VCU stalls are harmless and one unrecoverable VMU drop
 * kills the run. The report lands at the given path (default
 * ./failure_report.json) and the minimizer isolates the one fatal
 * injection. scripts/ci.sh runs this as its forensics smoke test.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/check/forensics.hh"
#include "sweep/minimize.hh"

using namespace bvl;

namespace
{

SweepJob
demoFatalRecipe()
{
    SweepJob rec;
    rec.design = Design::d1b4VL;
    rec.workload = "vvadd";
    rec.scale = Scale::tiny;
    rec.opts.watchdogIntervalNs = 10000;
    rec.opts.faults.enabled = true;
    rec.opts.faults.vmuMaxRetries = 0;
    for (unsigned i = 0; i < 20; ++i) {
        if (i == 13)
            rec.opts.faults.script.push_back(
                {0, FaultKind::vmuDrop, 0});
        else
            rec.opts.faults.script.push_back(
                {Tick(1000) * i, FaultKind::vcuStall, 5});
    }
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path =
        argc > 1 ? argv[1] : std::string("failure_report.json");

    SweepJob recipe;
    if (std::ifstream(path).good()) {
        std::printf("loading replay recipe from %s\n", path.c_str());
        recipe = loadReplayRecipe(path);
    } else {
        recipe = demoFatalRecipe();
        std::printf("running demo fatal plan: %zu injections, "
                    "%s on %s\n",
                    recipe.opts.faults.script.size(),
                    recipe.workload.c_str(),
                    designName(recipe.design));
        SweepJob reported = recipe;
        reported.opts.check.invariants = true;
        reported.opts.check.forensicsPath = path;
        RunResult r = runWorkload(reported.design, reported.workload,
                                  reported.scale, reported.opts);
        std::printf("baseline status: %s\n", runStatusName(r.status));
        if (r.ok()) {
            std::printf("demo plan unexpectedly passed; nothing to "
                        "minimize\n");
            return 1;
        }
        std::printf("report: %s\n", path.c_str());
    }

    MinimizeOutcome out = minimizeFaultPlan(recipe);
    std::printf("target status: %s\n", runStatusName(out.target));
    std::printf("oracle runs: %u\n", out.oracleRuns);
    std::printf("one-minimal: %s\n", out.oneMinimal ? "yes" : "no");
    std::printf("minimal injections: %zu\n",
                out.minimal.opts.faults.script.size());
    for (std::size_t i = 0; i < out.keptIndices.size(); ++i) {
        const ScriptedFault &f = out.minimal.opts.faults.script[i];
        std::printf("  [%zu] %s at tick %llu (%llu cycles)\n",
                    out.keptIndices[i], faultKindName(f.kind),
                    static_cast<unsigned long long>(f.atTick),
                    static_cast<unsigned long long>(f.cycles));
    }
    return 0;
}
