/**
 * @file
 * Run one workload from the built-in suite on all seven evaluated
 * systems and print a Figure-4-style speedup row. The seven runs are
 * independent simulations, so they go through the crash-safe sweep
 * service (BVL_JOBS threads; journal/cache via BVL_SWEEP_DIR,
 * BVL_SWEEP_JOURNAL and BVL_CACHE_DIR) and are printed in submission
 * order.
 *
 *   $ ./example_compare_designs [workload] [tiny|small|medium]
 */

#include <cstdio>
#include <future>

#include "soc/run_io.hh"
#include "sweep/service/service.hh"

using namespace bvl;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string name = argc > 1 ? argv[1] : "saxpy";
    auto scale = argc > 2 ? scaleFromName(argv[2]) : Scale::small;
    if (!scale) {
        std::fprintf(stderr,
                     "usage: %s [workload] [tiny|small|medium]\n",
                     argv[0]);
        return 1;
    }

    const Design others[] = {Design::d1b, Design::d1bIV, Design::d1b4L,
                             Design::d1bIV4L, Design::d1bDV,
                             Design::d1b4VL};

    // All seven runs are submitted before any result is consumed, so
    // they execute concurrently; futures resolve in submission order.
    // The journal makes a rerun after a crash (or a warm rerun) replay
    // completed results instead of re-simulating.
    SweepService pool(sweepServiceOptionsFromEnv("compare_designs"));
    SweepService::installSignalHandlers();
    auto baseFut = pool.submit({Design::d1L, name, *scale, {}});
    std::vector<std::future<RunResult>> futures;
    for (Design d : others)
        futures.push_back(pool.submit({d, name, *scale, {}}));

    try {
        auto base = baseFut.get();
        if (!base.ok()) {
            std::fprintf(stderr, "baseline failed (%s): %s\n",
                         runStatusName(base.status),
                         base.message.c_str());
            return 1;
        }

        std::printf("%-10s %12s %10s %14s\n", "design", "time(ns)",
                    "speedup", "status");
        std::printf("%-10s %12.0f %10.2f %14s\n", "1L", base.ns, 1.0,
                    runStatusName(base.status));
        for (unsigned i = 0; i < futures.size(); ++i) {
            auto r = futures[i].get();
            // A failed design is reported and skipped, not fatal: the
            // remaining designs still produce their rows.
            if (r.ok())
                std::printf("%-10s %12.0f %10.2f %14s\n",
                            designName(others[i]), r.ns, base.ns / r.ns,
                            runStatusName(r.status));
            else
                std::printf("%-10s %12s %10s %14s\n",
                            designName(others[i]), "-", "-",
                            runStatusName(r.status));
        }
    } catch (const SweepInterrupted &e) {
        // Completed runs are journaled; a rerun resumes from them.
        std::fprintf(stderr, "%s\n", e.what());
        return exitResumable;
    }
    std::fprintf(stderr, "%s\n", pool.summaryLine().c_str());
    return 0;
}
