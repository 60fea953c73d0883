/**
 * @file
 * Mobile kernel tier sweep (DESIGN.md §18): the Swan-style kernels
 * (integer IDCT, YCbCr->RGB, separable conv2d, int8 GEMM, byte
 * scanning) across the standard design points, reporting speedup over
 * the scalar big core and the per-kernel VMU access-pattern mix —
 * how many line requests each kernel generated through unit-stride,
 * constant-stride and indexed address generation.
 *
 * Runs go through the sweep service like every other figure bench, so
 * stdout is byte-identical for any BVL_JOBS and the write-ahead
 * journal records each cell for the CI journal gate.
 *
 * BVL_MOBILE_OUT=<file> additionally writes the table as JSON (schema
 * "bvl-mobile-tier-v1") for scripts/check_bench.py --mobile, which
 * gates simulated time and pattern-mix presence against the pinned
 * BENCH_mobile.json baseline.
 */

#include <fstream>

#include "bench/bench_util.hh"

using namespace bvlbench;

namespace
{

/** Stat prefix of the design's vector engine ("" = no engine). */
const char *
enginePrefix(Design d)
{
    switch (d) {
      case Design::d1bIV:
      case Design::d1bIV4L:
        return "ivu.";
      case Design::d1bDV:
        return "dve.";
      case Design::d1b4VL:
        return "vlittle.";
      default:
        return "";
    }
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    printHeader("Mobile tier: speedup over 1b and VMU access-pattern "
                "mix", scale);

    const Design base = Design::d1b;
    const Design vec[] = {Design::d1bIV, Design::d1bDV, Design::d1b4VL};

    SweepService pool(sweepServiceOptionsFromEnv("fig_mobile"));
    Json rows = Json::array();
    bool failed = false;
    int rc = finishSweep(pool, [&] {
        SweepResults runs(pool);
        for (const auto &name : workloadNames(Suite::mobile)) {
            runs.push(base, name, scale);
            for (Design d : vec)
                runs.push(d, name, scale);
        }

        std::printf("%-10s %8s %8s %8s   %-7s %9s %9s %9s\n",
                    "workload", "1bIV", "1bDV", "1b-4VL", "design",
                    "unit", "strided", "indexed");
        for (const auto &name : workloadNames(Suite::mobile)) {
            RunResult b = runs.pop();
            failed |= !usable(b) || !b.verified;
            double sp[3];
            RunResult vr[3];
            for (int i = 0; i < 3; ++i) {
                vr[i] = runs.pop();
                failed |= !usable(vr[i]) || !vr[i].verified;
                sp[i] = speedupOf(b, vr[i]);
            }
            for (int i = 0; i < 3; ++i) {
                std::string pfx = enginePrefix(vec[i]);
                std::uint64_t unit = vr[i].stat(pfx + "unitLines");
                std::uint64_t strided = vr[i].stat(pfx + "stridedLines");
                std::uint64_t indexed = vr[i].stat(pfx + "indexedLines");
                if (i == 0)
                    std::printf("%-10s %7.2fx %7.2fx %7.2fx   ",
                                name.c_str(), sp[0], sp[1], sp[2]);
                else
                    std::printf("%-10s %8s %8s %8s   ", "", "", "", "");
                std::printf("%-7s %9llu %9llu %9llu\n",
                            designName(vec[i]),
                            static_cast<unsigned long long>(unit),
                            static_cast<unsigned long long>(strided),
                            static_cast<unsigned long long>(indexed));
                std::fflush(stdout);

                Json row = Json::object();
                row.set("workload", name);
                row.set("design", designName(vec[i]));
                row.set("ns", vr[i].ns);
                row.set("baseNs", b.ns);
                row.set("speedup", sp[i]);
                row.set("verified", vr[i].verified);
                row.set("unitLines", unit);
                row.set("stridedLines", strided);
                row.set("indexedLines", indexed);
                rows.push(std::move(row));
            }
        }
    });

    if (const char *out = std::getenv("BVL_MOBILE_OUT"); out && *out) {
        Json doc = Json::object();
        doc.set("schema", "bvl-mobile-tier-v1");
        doc.set("scale", scaleName(scale));
        doc.set("rows", std::move(rows));
        std::ofstream f(out, std::ios::trunc);
        f << doc.dump(2) << "\n";
        if (!f)
            fatal("cannot write %s", out);
    }
    return failed ? 1 : rc;
}
