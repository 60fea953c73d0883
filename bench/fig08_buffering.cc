/**
 * @file
 * Figure 8: performance of 1b-4VL as the VMU's per-bank load/store
 * data queues (the re-purposed L1I SRAM FIFOs) grow. Memory-intensive
 * workloads keep improving with deeper buffers: more in-flight lines
 * exploit the banked L1D bandwidth and decouple memory further ahead
 * of compute.
 */

#include "bench/bench_util.hh"
#include "vector/engine_presets.hh"

using namespace bvlbench;

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    printHeader("Figure 8: 1b-4VL speedup over 1L vs VMU data-queue "
                "depth (lines per bank)", scale);

    const unsigned depths[] = {2, 4, 8, 16, 32};
    // The paper highlights the memory-intensive subset.
    const std::vector<std::string> apps = {"vvadd", "saxpy",
                                           "pathfinder", "backprop",
                                           "jacobi-2d", "kmeans"};

    SweepService pool(sweepServiceOptionsFromEnv("fig08_buffering"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : apps) {
            runs.push(Design::d1L, name, scale);
            for (unsigned d : depths) {
                VEngineParams ep = vlittlePreset();
                ep.loadQueueLines = d;
                ep.storeQueueLines = d;
                RunOptions opts;
                opts.engineOverride = ep;
                runs.push(Design::d1b4VL, name, scale, opts);
            }
        }

        std::printf("%-14s", "workload");
        for (unsigned d : depths)
            std::printf(" %7u", d);
        std::printf("\n");

        for (const auto &name : apps) {
            auto base = runs.pop();
            std::printf("%-14s", name.c_str());
            for (unsigned d : depths) {
                (void)d;
                auto r = runs.pop();
                if (double s = speedupOf(base, r))
                    std::printf(" %7.2f", s);
                else
                    std::printf(" %7s", runStatusName(r.status));
                std::fflush(stdout);
            }
            std::printf("\n");
        }
    });
}
