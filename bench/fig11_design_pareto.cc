/**
 * @file
 * Figure 11: execution time vs estimated power Pareto frontiers for
 * 1b-4L, 1bIV-4L, 1bDV and 1b-4VL across the Table-VII V/f levels.
 * Expected shape: 1b-4VL owns the low-power (<1 W) region; 1bDV only
 * competes above ~1.4 W because its engine burns 1.4x the big core.
 */

#include "bench/bench_util.hh"
#include "power/power_model.hh"

using namespace bvlbench;

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::tiny);
    printHeader("Figure 11: per-design Pareto frontiers (time vs "
                "power)", scale);

    const Design designs[] = {Design::d1b4L, Design::d1bIV4L,
                              Design::d1bDV, Design::d1b4VL};

    SweepService pool(benchServiceOptions("fig11_design_pareto"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : workloadNames(Suite::dataParallel)) {
            for (Design d : designs) {
                for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
                    // 1bDV has no little cluster: big levels only.
                    unsigned lcount = d == Design::d1bDV
                        ? 1u
                        : static_cast<unsigned>(littleLevels.size());
                    for (unsigned li = 0; li < lcount; ++li) {
                        RunOptions opts;
                        opts.bigGhz = bigLevels[bi].freqGhz;
                        opts.littleGhz = littleLevels[li].freqGhz;
                        runs.push(d, name, scale, opts);
                    }
                }
            }
        }

        for (const auto &name : workloadNames(Suite::dataParallel)) {
            std::printf("\n%s\n", name.c_str());
            for (Design d : designs) {
                std::vector<PerfPowerPoint> points;
                for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
                    unsigned lcount = d == Design::d1bDV
                        ? 1u
                        : static_cast<unsigned>(littleLevels.size());
                    for (unsigned li = 0; li < lcount; ++li) {
                        auto r = runs.pop();
                        if (!usable(r))
                            continue;   // runChecked already warned
                        points.push_back(
                            {bi, li, r.ns,
                             systemPowerW(d, bigLevels[bi],
                                          littleLevels[li])});
                    }
                }
                std::printf("  %-8s frontier:", designName(d));
                for (const auto &f : paretoFrontier(points))
                    std::printf("  (%.3fW, %.0fns)", f.watts, f.ns);
                std::printf("\n");
                std::fflush(stdout);
            }
        }
    });
}
