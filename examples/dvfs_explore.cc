/**
 * @file
 * Section-VII style design-space exploration for one workload on
 * big.VLITTLE: sweep the big/little voltage-frequency levels of
 * Table VII, estimate power, and print the Pareto-optimal points.
 * Demonstrates the paper's conclusion — slow the big core, boost the
 * little cluster.
 *
 * The 16 V/f points are independent simulations, so they run through
 * the crash-safe sweep service (BVL_JOBS threads; journal/cache via
 * BVL_SWEEP_DIR, BVL_SWEEP_JOURNAL and BVL_CACHE_DIR).
 *
 *   $ ./example_dvfs_explore [workload]
 */

#include <cstdio>
#include <future>

#include "power/power_model.hh"
#include "sweep/service/service.hh"

using namespace bvl;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string name = argc > 1 ? argv[1] : "blackscholes";

    SweepService pool(sweepServiceOptionsFromEnv("dvfs_explore"));
    SweepService::installSignalHandlers();
    std::vector<std::future<RunResult>> futures;
    for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
        for (unsigned li = 0; li < littleLevels.size(); ++li) {
            RunOptions opts;
            opts.bigGhz = bigLevels[bi].freqGhz;
            opts.littleGhz = littleLevels[li].freqGhz;
            futures.push_back(pool.submit(
                {Design::d1b4VL, name, Scale::tiny, opts}));
        }
    }

    std::vector<PerfPowerPoint> points;
    auto fut = futures.begin();
    try {
        for (unsigned bi = 0; bi < bigLevels.size(); ++bi) {
            for (unsigned li = 0; li < littleLevels.size(); ++li) {
                auto r = (fut++)->get();
                if (!r.finished)
                    continue;
                points.push_back({bi, li, r.ns,
                                  systemPowerW(Design::d1b4VL,
                                               bigLevels[bi],
                                               littleLevels[li])});
                std::printf(
                    "big=%s little=%s  time=%9.0f ns  power=%.3f W\n",
                    bigLevels[bi].name, littleLevels[li].name, r.ns,
                    points.back().watts);
            }
        }
    } catch (const SweepInterrupted &e) {
        // Completed V/f points are journaled; a rerun resumes.
        std::fprintf(stderr, "%s\n", e.what());
        return exitResumable;
    }

    std::printf("\nPareto-optimal points for %s on 1b-4VL:\n",
                name.c_str());
    for (const auto &f : paretoFrontier(points))
        std::printf("  big=%s little=%s  time=%9.0f ns  power=%.3f W\n",
                    bigLevels[f.bigLevel].name,
                    littleLevels[f.littleLevel].name, f.ns, f.watts);
    std::fprintf(stderr, "%s\n", pool.summaryLine().c_str());
    return 0;
}
