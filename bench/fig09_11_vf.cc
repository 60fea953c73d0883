/**
 * @file
 * Figures 9, 10 and 11: the Section VII V/f exploration over the
 * Table-VII (big V/f) x (little V/f) levels, printed from one grid.
 *
 *  - Figure 9: speedup over 1L (at 1 GHz) of 1bIV-4L and 1b-4VL at
 *    every combination. The paper's observation: for 1b-4VL, boosting
 *    the big core barely helps (the engine does the work; the deep
 *    command queue tolerates a slow control core) — except for sw,
 *    whose scalar per-diagonal control runs on the big core.
 *  - Figure 10: execution time vs estimated average power of 1b-4VL
 *    at every combination, Pareto-optimal points marked. Slowing the
 *    big core and boosting the little cores traces the frontier: the
 *    engine does the heavy work, so power is best spent on the little
 *    cluster.
 *  - Figure 11: per-design Pareto frontiers for 1b-4L, 1bIV-4L, 1bDV
 *    and 1b-4VL. Expected shape: 1b-4VL owns the low-power (<1 W)
 *    region; 1bDV only competes above ~1.4 W because its engine burns
 *    1.4x the big core.
 *
 * Each data-parallel app's cells are submitted once: 1L at the default
 * options, then 1b-4L, 1bIV-4L and 1b-4VL at all 16 levels and 1bDV
 * (no little cluster) at the 4 big levels — 53 cells per app. Uses
 * tiny scale by default.
 */

#include <map>

#include "bench/bench_util.hh"
#include "power/power_model.hh"

using namespace bvlbench;

namespace
{

const Design vfDesigns[] = {Design::d1b4L, Design::d1bIV4L,
                            Design::d1bDV, Design::d1b4VL};

/** Little levels swept on @p d: 1bDV has no little cluster, l0 only. */
unsigned
littleCount(Design d)
{
    return d == Design::d1bDV ? 1u
                              : static_cast<unsigned>(littleLevels.size());
}

/** One app's results: the 1L baseline and each V/f design's cells. */
struct AppGrid
{
    std::string name;
    RunResult base;
    /** Per design, big-major: cells[d][bi * littleCount(d) + li]. */
    std::map<Design, std::vector<RunResult>> cells;

    const RunResult &
    cell(Design d, unsigned bi, unsigned li) const
    {
        return cells.at(d)[bi * littleCount(d) + li];
    }
};

void
submitApp(SweepResults &runs, const std::string &name, Scale scale)
{
    runs.push(Design::d1L, name, scale);
    for (Design d : vfDesigns) {
        for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
            for (unsigned li = 0; li < littleCount(d); ++li) {
                RunOptions opts;
                opts.bigGhz = bigLevels[bi].freqGhz;
                opts.littleGhz = littleLevels[li].freqGhz;
                runs.push(d, name, scale, opts);
            }
        }
    }
}

AppGrid
popApp(SweepResults &runs, const std::string &name)
{
    AppGrid app{name, runs.pop(), {}};
    for (Design d : vfDesigns)
        for (unsigned i = 0; i < bigLevels.size() * littleCount(d); ++i)
            app.cells[d].push_back(runs.pop());
    return app;
}

void
printHeatmap(Design design, const AppGrid &app)
{
    std::printf("\n%s on %s (speedup over 1L@1GHz)\n", app.name.c_str(),
                designName(design));
    std::printf("%6s", "");
    for (const auto &l : littleLevels)
        std::printf(" %7s", l.name);
    std::printf("\n");
    for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
        std::printf("%6s", bigLevels[bi].name);
        for (unsigned li = 0; li < littleLevels.size(); ++li) {
            const RunResult &r = app.cell(design, bi, li);
            if (double s = speedupOf(app.base, r))
                std::printf(" %7.2f", s);
            else
                std::printf(" %7s", runStatusName(r.status));
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

/**
 * The (time, power) points of @p d's usable cells for one app. A
 * failed cell stays off the frontier: with @p printFailed it gets a
 * status row (Figure 10), otherwise it is skipped (Figure 11;
 * SweepResults::pop already warned).
 */
std::vector<PerfPowerPoint>
vfPoints(const AppGrid &app, Design d, bool printFailed)
{
    std::vector<PerfPowerPoint> points;
    for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
        for (unsigned li = 0; li < littleCount(d); ++li) {
            const RunResult &r = app.cell(d, bi, li);
            if (usable(r))
                points.push_back(
                    {bi, li, r.ns,
                     systemPowerW(d, bigLevels[bi], littleLevels[li])});
            else if (printFailed)
                std::printf("%6s %6s %12s\n", bigLevels[bi].name,
                            littleLevels[li].name,
                            runStatusName(r.status));
        }
    }
    return points;
}

void
printScatter(const AppGrid &app)
{
    std::printf("\n%s\n%6s %6s %12s %8s %7s\n", app.name.c_str(), "big",
                "little", "time(ns)", "power(W)", "pareto");
    auto points = vfPoints(app, Design::d1b4VL, true);
    auto frontier = paretoFrontier(points);
    for (const auto &pt : points) {
        bool onFrontier = false;
        for (const auto &f : frontier)
            if (f.bigLevel == pt.bigLevel &&
                f.littleLevel == pt.littleLevel) {
                onFrontier = true;
            }
        std::printf("%6s %6s %12.0f %8.3f %7s\n",
                    bigLevels[pt.bigLevel].name,
                    littleLevels[pt.littleLevel].name, pt.ns, pt.watts,
                    onFrontier ? "*" : "");
    }
    std::fflush(stdout);
}

void
printFrontiers(const AppGrid &app)
{
    std::printf("\n%s\n", app.name.c_str());
    for (Design d : vfDesigns) {
        std::printf("  %-8s frontier:", designName(d));
        for (const auto &f : paretoFrontier(vfPoints(app, d, false)))
            std::printf("  (%.3fW, %.0fns)", f.watts, f.ns);
        std::printf("\n");
    }
    std::fflush(stdout);
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::tiny);
    const auto names = workloadNames(Suite::dataParallel);

    SweepService pool(sweepServiceOptionsFromEnv("fig09_11_vf"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : names)
            submitApp(runs, name, scale);

        // Figure 9 streams: each app prints once its 53 cells are in.
        printHeader("Figure 9: V/f scaling heat maps for 1bIV-4L and "
                    "1b-4VL", scale);
        std::vector<AppGrid> apps;
        for (const auto &name : names) {
            const AppGrid &app = apps.emplace_back(popApp(runs, name));
            printHeatmap(Design::d1bIV4L, app);
            printHeatmap(Design::d1b4VL, app);
        }

        printHeader("Figure 10: 1b-4VL execution time vs power across V/f "
                    "combinations", scale);
        for (const auto &app : apps)
            printScatter(app);

        printHeader("Figure 11: per-design Pareto frontiers (time vs "
                    "power)", scale);
        for (const auto &app : apps)
            printFrontiers(app);
    });
}
