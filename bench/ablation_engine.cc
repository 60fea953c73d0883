/**
 * @file
 * Ablations of big.VLITTLE's design choices (beyond the paper's own
 * Figure 7/8 sweeps): contribution of chimes and packing to end
 * performance, VCU command-queue depth (decoupling distance from the
 * big core), lane micro-op queue depth (lock-step slack), and the
 * indexed-coalescing window. Prints 1b-4VL speedup over 1L per
 * configuration.
 */

#include "bench/bench_util.hh"
#include "vector/engine_presets.hh"

using namespace bvlbench;

namespace
{

void
sweep(const char *title,
      const std::vector<std::pair<std::string, VEngineParams>> &configs,
      const std::vector<std::string> &apps, Scale scale,
      SweepService &pool)
{
    SweepResults runs(pool);
    for (const auto &name : apps) {
        runs.push(Design::d1L, name, scale);
        for (const auto &cfg : configs) {
            RunOptions opts;
            opts.engineOverride = cfg.second;
            runs.push(Design::d1b4VL, name, scale, opts);
        }
    }

    std::printf("\n[%s]\n%-14s", title, "workload");
    for (const auto &cfg : configs)
        std::printf(" %9s", cfg.first.c_str());
    std::printf("\n");
    for (const auto &name : apps) {
        auto base = runs.pop();
        std::printf("%-14s", name.c_str());
        for (const auto &cfg : configs) {
            (void)cfg;
            auto r = runs.pop();
            if (double s = speedupOf(base, r))
                std::printf(" %9.2f", s);
            else
                std::printf(" %9s", runStatusName(r.status));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
}

VEngineParams
withChimes(unsigned chimes, bool packed)
{
    auto p = vlittlePreset();
    p.chimes = chimes;
    p.packed = packed;
    return p;
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::tiny);
    printHeader("Ablation: big.VLITTLE design choices "
                "(1b-4VL speedup over 1L)", scale);

    SweepService pool(sweepServiceOptionsFromEnv("ablation_engine"));
    return finishSweep(pool, [&] {
        sweep("chimes x packing (effective VLEN)",
              {{"1c", withChimes(1, false)},
               {"1c+sw", withChimes(1, true)},
               {"2c+sw", withChimes(2, true)},
               {"4c+sw", withChimes(4, true)}},
              {"saxpy", "blackscholes", "jacobi-2d", "lavamd"}, scale,
              pool);

        {
            std::vector<std::pair<std::string, VEngineParams>> cfgs;
            for (unsigned depth : {2u, 4u, 8u, 16u, 32u}) {
                auto p = vlittlePreset();
                p.cmdQueueDepth = depth;
                p.uopQueueDepth = 2 * depth;
                p.vmiuQueueDepth = depth;
                cfgs.push_back({"cmdq" + std::to_string(depth), p});
            }
            sweep("VCU command-queue depth (decoupling from the big "
                  "core)",
                  cfgs, {"saxpy", "pathfinder", "blackscholes"}, scale,
                  pool);
        }

        {
            std::vector<std::pair<std::string, VEngineParams>> cfgs;
            for (unsigned depth : {1u, 2u, 4u, 8u}) {
                auto p = vlittlePreset();
                p.laneUopQueueDepth = depth;
                cfgs.push_back({"laneq" + std::to_string(depth), p});
            }
            sweep("lane micro-op queue depth (lock-step slack)", cfgs,
                  {"saxpy", "kmeans", "lavamd"}, scale, pool);
        }

        {
            std::vector<std::pair<std::string, VEngineParams>> cfgs;
            for (unsigned w : {1u, 2u, 4u, 8u}) {
                auto p = vlittlePreset();
                p.coalesceWindow = w;
                cfgs.push_back({"coal" + std::to_string(w), p});
            }
            sweep("indexed-access coalescing window (gather-heavy "
                  "apps)",
                  cfgs, {"lavamd", "particlefilter"}, scale, pool);
        }
    });
}
