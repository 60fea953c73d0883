/**
 * @file
 * Figure 7: average execution-time breakdown of the four little cores
 * in 1b-4VL under three engine configurations:
 *   1c    — one chime, no packed-element support (128-bit VLEN)
 *   1c+sw — one chime with 2x32-bit packing (256-bit VLEN)
 *   2c+sw — two chimes with packing (512-bit VLEN, the default)
 * Packing raises utilization; the second chime hides long-latency
 * (FP/mul/memory) micro-ops, cutting raw_llfu/raw_mem stalls.
 */

#include "bench/bench_util.hh"
#include "vector/engine_presets.hh"

using namespace bvlbench;

namespace
{

const char *causes[] = {"busy", "simd", "raw_mem", "raw_llfu", "struct",
                        "xelem", "misc"};

/** One configuration's table; no @p ep runs the 1b-4VL default, so
 *  its cells are the very jobs fig04_speedup submits. */
void
runConfig(const char *label, const std::optional<VEngineParams> &ep,
          Scale scale, SweepService &pool)
{
    SweepResults runs(pool);
    for (const auto &name : workloadNames(Suite::dataParallel)) {
        RunOptions opts;
        opts.engineOverride = ep;
        runs.push(Design::d1b4VL, name, scale, opts);
    }

    std::printf("\n[%s] (VLEN=%u)\n", label,
                ep.value_or(vlittlePreset()).vlenBits());
    std::printf("%-14s", "workload");
    for (auto c : causes)
        std::printf(" %9s", c);
    std::printf("\n");

    for (const auto &name : workloadNames(Suite::dataParallel)) {
        auto r = runs.pop();

        // Average the four lanes' per-cause cycles; report percent.
        double total = 0.0;
        double sums[7] = {};
        for (unsigned l = 0; l < 4; ++l) {
            std::string pre = "little" + std::to_string(l) + ".stall.";
            for (int c = 0; c < 7; ++c) {
                double v = static_cast<double>(r.stat(pre + causes[c]));
                sums[c] += v;
                total += v;
            }
        }
        std::printf("%-14s", name.c_str());
        for (int c = 0; c < 7; ++c)
            std::printf(" %8.1f%%", total > 0 ? 100.0 * sums[c] / total
                                              : 0.0);
        std::printf("\n");
        std::fflush(stdout);
    }
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    printHeader("Figure 7: little-core execution time breakdown in "
                "1b-4VL", scale);

    VEngineParams oneChime = vlittlePreset();
    oneChime.chimes = 1;
    oneChime.packed = false;

    VEngineParams oneChimePacked = vlittlePreset();
    oneChimePacked.chimes = 1;

    SweepService pool(sweepServiceOptionsFromEnv("fig07_breakdown"));
    return finishSweep(pool, [&] {
        runConfig("1c", oneChime, scale, pool);
        runConfig("1c+sw", oneChimePacked, scale, pool);
        runConfig("2c+sw", std::nullopt, scale, pool);
    });
}
