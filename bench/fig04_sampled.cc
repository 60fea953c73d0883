/**
 * @file
 * Figure 4 validation leg: sampled (SMARTS fast-forward) simulation
 * versus full detail on 1b-4VL across the data-parallel suite.
 *
 * For each workload this runs full detail first (ground-truth cycles
 * and dynamic instruction count), then the sampled configuration, and
 * reports per-workload cycle error plus measured wall-clock speedup.
 * The simulated columns go to stdout, byte-identical from run to run;
 * the host wall-clock columns (seconds and speedup) go to stderr.
 * Runs are serial and in-process — wall time is std::chrono around
 * runWorkload() itself, so neither process startup nor workload
 * construction (program assembly and host-side reference generation,
 * identical for both modes and not simulation) pollutes a measurement
 * — which is also why this bench does not go through the sweep
 * service.
 *
 * BVL_SAMPLED_OUT=<file> additionally writes the table as JSON
 * (schema "bvl-sampled-validation-v1") for scripts/check_bench.py,
 * which gates the mean cycle error at 3%.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench/bench_util.hh"

using namespace bvlbench;

namespace
{

struct SampleConfig
{
    unsigned periods;
    std::uint64_t warmupInsts;
    std::uint64_t detailInsts;
};

/**
 * Tuned per-workload configurations, valid at Scale::medium (the
 * validated scale of EXPERIMENTS.md §"Sampled simulation"). Warmup
 * must comfortably exceed ROB fill (192) so the measurement mark lands
 * in retire-coupled steady state; the gather-heavy workloads (lavamd,
 * sw) get long detailed warmups because fast-forward deliberately
 * leaves the mode-dependent banked L1D cold (DESIGN.md §15) and their
 * vector element traffic misses hurt until it refills; particlefilter
 * is phase-y on top of that and wants many short windows so the
 * sample average sees every phase.
 */
const std::pair<const char *, SampleConfig> kMediumConfigs[] = {
    {"vvadd",          {4, 400,  512}},
    {"mmult",          {8, 400,  1800}},
    {"saxpy",          {4, 400,  500}},
    {"backprop",       {6, 400,  1250}},
    {"kmeans",         {8, 400,  3200}},
    {"blackscholes",   {5, 400,  800}},
    {"particlefilter", {28, 300, 150}},
    {"jacobi-2d",      {6, 400,  1667}},
    {"pathfinder",     {8, 400,  900}},
    {"lavamd",         {4, 1500, 1200}},
    {"sw",             {6, 2000, 1000}},
};

/**
 * Fallback for unknown workloads or non-medium scales: aim for ~12
 * periods of ~1/12th detail coverage each, clamped so short programs
 * still get a few meaningful windows.
 */
SampleConfig
formulaConfig(std::uint64_t totalInsts)
{
    double p = std::round(double(totalInsts) / 12000.0);
    unsigned periods = unsigned(std::min(16.0, std::max(4.0, p)));
    std::uint64_t detail =
        std::max<std::uint64_t>(500, totalInsts / (12 * periods));
    return {periods, 400, detail};
}

SampleConfig
configFor(const std::string &name, Scale scale, std::uint64_t totalInsts)
{
    if (scale == Scale::medium)
        for (const auto &[n, cfg] : kMediumConfigs)
            if (name == n)
                return cfg;
    return formulaConfig(totalInsts);
}

double
wallSeconds(const std::function<void()> &body)
{
    auto t0 = std::chrono::steady_clock::now();
    body();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::medium);
    printHeader("Figure 4 validation: sampled vs full detail on 1b-4VL",
                scale);
    std::printf("%-14s %10s %12s %12s %8s\n", "workload", "insts",
                "full_ns", "sampled_ns", "err%");
    std::fprintf(stderr, "%-14s %9s %9s %8s\n", "workload", "full_s",
                 "sampled_s", "speedup");

    Json rows = Json::array();
    double absErrSum = 0.0, fullWallSum = 0.0, sampledWallSum = 0.0;
    unsigned counted = 0;
    bool failed = false;

    for (const auto &name : workloadNames(Suite::dataParallel)) {
        auto wl = makeWorkload(name, scale);
        bvl_assert(wl != nullptr, "unknown workload '%s'", name.c_str());
        RunResult full;
        double fullWall = wallSeconds([&] {
            full = checkResult(runWorkload(Design::d1b4VL, *wl));
        });
        if (!usable(full)) {
            failed = true;
            std::printf("%-14s %10s\n", name.c_str(),
                        runStatusName(full.status));
            continue;
        }
        std::uint64_t insts = full.stat("big.fetched");

        SampleConfig cfg = configFor(name, scale, insts);
        std::uint64_t perPeriod = insts / cfg.periods;
        std::uint64_t windowInsts = cfg.warmupInsts + cfg.detailInsts;
        RunOptions opts;
        opts.sampling.periods = cfg.periods;
        opts.sampling.warmupInsts = cfg.warmupInsts;
        opts.sampling.detailInsts = cfg.detailInsts;
        opts.sampling.ffInsts =
            perPeriod > windowInsts ? perPeriod - windowInsts : 0;

        RunResult sampled;
        double sampledWall = wallSeconds([&] {
            sampled = checkResult(runWorkload(Design::d1b4VL, *wl, opts));
        });
        if (!usable(sampled)) {
            failed = true;
            std::printf("%-14s %10llu %12.0f %12s\n", name.c_str(),
                        static_cast<unsigned long long>(insts), full.ns,
                        runStatusName(sampled.status));
            continue;
        }

        double err = (sampled.ns - full.ns) / full.ns;
        double speedup = sampledWall > 0.0 ? fullWall / sampledWall : 0.0;
        std::printf("%-14s %10llu %12.0f %12.0f %+7.2f%%\n",
                    name.c_str(), static_cast<unsigned long long>(insts),
                    full.ns, sampled.ns, err * 100.0);
        std::fflush(stdout);
        std::fprintf(stderr, "%-14s %9.3f %9.3f %7.1fx\n", name.c_str(),
                     fullWall, sampledWall, speedup);

        absErrSum += std::fabs(err);
        fullWallSum += fullWall;
        sampledWallSum += sampledWall;
        ++counted;

        Json row = Json::object();
        row.set("workload", name);
        row.set("insts", insts);
        row.set("fullNs", full.ns);
        row.set("sampledNs", sampled.ns);
        row.set("error", err);
        row.set("fullWallSec", fullWall);
        row.set("sampledWallSec", sampledWall);
        row.set("speedup", speedup);
        row.set("periods", cfg.periods);
        row.set("warmupInsts", cfg.warmupInsts);
        row.set("detailInsts", cfg.detailInsts);
        row.set("ffInsts", opts.sampling.ffInsts);
        row.set("periodsMeasured",
                sampled.stat("sample.periodsMeasured"));
        rows.push(std::move(row));
    }

    double meanAbsError = counted ? absErrSum / counted : 1.0;
    double aggSpeedup =
        sampledWallSum > 0.0 ? fullWallSum / sampledWallSum : 0.0;
    std::printf("%-14s %10s %12s %12s %+7.2f%%\n", "mean|err|", "", "",
                "", meanAbsError * 100.0);
    std::fprintf(stderr, "%-14s %9.3f %9.3f %7.1fx\n", "total",
                 fullWallSum, sampledWallSum, aggSpeedup);

    if (const char *out = std::getenv("BVL_SAMPLED_OUT"); out && *out) {
        Json doc = Json::object();
        doc.set("schema", "bvl-sampled-validation-v1");
        doc.set("design", designName(Design::d1b4VL));
        doc.set("scale", scaleName(scale));
        doc.set("rows", std::move(rows));
        doc.set("meanAbsError", meanAbsError);
        doc.set("aggregateSpeedup", aggSpeedup);
        std::ofstream f(out, std::ios::trunc);
        f << doc.dump(2) << "\n";
        if (!f)
            fatal("cannot write %s", out);
    }
    return failed ? 1 : 0;
}
