/**
 * @file
 * Figure 10: execution time vs estimated average power of 1b-4VL at
 * every Table-VII V/f combination. The paper's point: slowing the
 * big core and boosting the little cores traces the Pareto-optimal
 * curve — the engine does the heavy work, so power is best spent on
 * the little cluster.
 */

#include "bench/bench_util.hh"
#include "power/power_model.hh"

using namespace bvlbench;

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::tiny);
    printHeader("Figure 10: 1b-4VL execution time vs power across V/f "
                "combinations", scale);

    SweepService pool(benchServiceOptions("fig10_vf_pareto"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : workloadNames(Suite::dataParallel)) {
            (void)name;
            for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
                for (unsigned li = 0; li < littleLevels.size(); ++li) {
                    RunOptions opts;
                    opts.bigGhz = bigLevels[bi].freqGhz;
                    opts.littleGhz = littleLevels[li].freqGhz;
                    runs.push(Design::d1b4VL, name, scale, opts);
                }
            }
        }

        for (const auto &name : workloadNames(Suite::dataParallel)) {
            std::printf("\n%s\n%6s %6s %12s %8s %7s\n", name.c_str(),
                        "big", "little", "time(ns)", "power(W)",
                        "pareto");
            std::vector<PerfPowerPoint> points;
            for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
                for (unsigned li = 0; li < littleLevels.size(); ++li) {
                    auto r = runs.pop();
                    if (!usable(r)) {
                        // Keep the failed combination off the frontier.
                        std::printf("%6s %6s %12s\n", bigLevels[bi].name,
                                    littleLevels[li].name,
                                    runStatusName(r.status));
                        continue;
                    }
                    points.push_back(
                        {bi, li, r.ns,
                         systemPowerW(Design::d1b4VL, bigLevels[bi],
                                      littleLevels[li])});
                }
            }
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
                            littleLevels[pt.littleLevel].name, pt.ns,
                            pt.watts, onFrontier ? "*" : "");
            }
            std::fflush(stdout);
        }
    });
}
