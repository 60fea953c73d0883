/**
 * @file
 * Figure 9: speedup over 1L (at 1 GHz) of 1bIV-4L and 1b-4VL across
 * all (big V/f) x (little V/f) combinations of Table VII. The paper's
 * observation: for 1b-4VL, boosting the big core barely helps (the
 * engine does the work; the deep command queue tolerates a slow
 * control core) — except for sw, whose scalar per-diagonal control
 * runs on the big core. Uses tiny scale by default (16 combos x 11
 * apps x 2 designs).
 */

#include "bench/bench_util.hh"
#include "power/power_model.hh"

using namespace bvlbench;

namespace
{

void
submitHeatmap(Design design, const std::string &name, Scale scale,
              SweepResults &runs)
{
    for (const auto &b : bigLevels) {
        for (const auto &l : littleLevels) {
            RunOptions opts;
            opts.bigGhz = b.freqGhz;
            opts.littleGhz = l.freqGhz;
            runs.push(design, name, scale, opts);
        }
    }
}

void
printHeatmap(Design design, const std::string &name,
             const RunResult &base, SweepResults &runs)
{
    std::printf("\n%s on %s (speedup over 1L@1GHz)\n", name.c_str(),
                designName(design));
    std::printf("%6s", "");
    for (const auto &l : littleLevels)
        std::printf(" %7s", l.name);
    std::printf("\n");
    for (const auto &b : bigLevels) {
        std::printf("%6s", b.name);
        for (const auto &l : littleLevels) {
            (void)l;
            auto r = runs.pop();
            if (double s = speedupOf(base, r))
                std::printf(" %7.2f", s);
            else
                std::printf(" %7s", runStatusName(r.status));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::tiny);
    printHeader("Figure 9: V/f scaling heat maps for 1bIV-4L and "
                "1b-4VL", scale);

    SweepService pool(benchServiceOptions("fig09_dvfs_heatmap"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : workloadNames(Suite::dataParallel)) {
            runs.push(Design::d1L, name, scale);
            submitHeatmap(Design::d1bIV4L, name, scale, runs);
            submitHeatmap(Design::d1b4VL, name, scale, runs);
        }
        for (const auto &name : workloadNames(Suite::dataParallel)) {
            auto base = runs.pop();
            printHeatmap(Design::d1bIV4L, name, base, runs);
            printHeatmap(Design::d1b4VL, name, base, runs);
        }
    });
}
