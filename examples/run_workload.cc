/**
 * @file
 * Command-line driver: run any suite workload on any design at any
 * scale and frequency, optionally dumping the full statistics table —
 * the quickest way to poke at the simulator.
 *
 *   $ ./example_run_workload --workload saxpy --design 1b-4VL \
 *         --scale small --big-ghz 1.0 --little-ghz 1.2 --stats
 *   $ ./example_run_workload --list
 *
 * Checkpointing and sampled simulation (DESIGN.md §15/§16):
 *
 *   $ ./example_run_workload --checkpoint ckpt.bvl --ff 20000
 *   $ ./example_run_workload --checkpoint ckpt.bvl
 *   $ ./example_run_workload --ckpt-farm --ff 20000
 *   $ ./example_run_workload --sample 20000:1000:4000:8
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "soc/run_io.hh"

using namespace bvl;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME] [--design D] "
                 "[--scale tiny|small|medium]\n"
                 "          [--big-ghz F] [--little-ghz F] "
                 "[--limit-ns NS] [--stats]\n"
                 "          [--no-verify] [--list]\n"
                 "          [--trace FILE] [--trace-cats CSV] "
                 "[--trace-start NS] [--trace-stop NS]\n"
                 "          [--stat-sample FILE] "
                 "[--sample-interval NS]\n"
                 "          [--checkpoint FILE] [--ff N]\n"
                 "          [--ckpt-farm] [--ckpt-dir DIR]\n"
                 "          [--sample FF:WARM:DETAIL:PERIODS]\n"
                 "designs: 1L 1b 1bIV 1b-4L 1bIV-4L 1bDV 1b-4VL\n"
                 "trace cats: big,core,vcu,lane,vxu,vmu,cache,dram "
                 "(default all)\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string workload = "saxpy";
    Design design = Design::d1b4VL;
    Scale scale = Scale::small;
    RunOptions opts;
    bool dumpStats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            for (const auto &n : allWorkloadNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--design") {
            auto d = designFromName(next());
            if (!d) {
                usage(argv[0]);
                return 1;
            }
            design = *d;
        } else if (arg == "--scale") {
            auto s = scaleFromName(next());
            if (!s) {
                usage(argv[0]);
                return 1;
            }
            scale = *s;
        } else if (arg == "--big-ghz") {
            opts.bigGhz = std::atof(next());
        } else if (arg == "--little-ghz") {
            opts.littleGhz = std::atof(next());
        } else if (arg == "--stats") {
            dumpStats = true;
        } else if (arg == "--no-verify") {
            opts.verifyResult = false;
        } else if (arg == "--limit-ns") {
            opts.limitNs = std::atof(next());
        } else if (arg == "--trace") {
            opts.trace.path = next();
        } else if (arg == "--trace-cats") {
            opts.trace.categories = parseTraceCats(next());
        } else if (arg == "--trace-start") {
            opts.trace.startNs = std::atof(next());
        } else if (arg == "--trace-stop") {
            opts.trace.stopNs = std::atof(next());
        } else if (arg == "--stat-sample") {
            opts.trace.samplePath = next();
        } else if (arg == "--sample-interval") {
            opts.trace.sampleIntervalNs = std::atof(next());
        } else if (arg == "--checkpoint") {
            opts.checkpoint.path = next();
        } else if (arg == "--ckpt-farm") {
            opts.checkpoint.farm = true;
        } else if (arg == "--ckpt-dir") {
            opts.checkpoint.farmDir = next();
        } else if (arg == "--ff") {
            opts.checkpoint.ffInsts = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sample") {
            // FF:WARM:DETAIL:PERIODS, e.g. 20000:1000:4000:8.
            unsigned long long ff = 0, wu = 0, det = 0, per = 0;
            if (std::sscanf(next(), "%llu:%llu:%llu:%llu", &ff, &wu,
                            &det, &per) != 4) {
                usage(argv[0]);
                return 1;
            }
            opts.sampling.ffInsts = ff;
            opts.sampling.warmupInsts = wu;
            opts.sampling.detailInsts = det;
            opts.sampling.periods = static_cast<unsigned>(per);
        } else {
            usage(argv[0]);
            return 1;
        }
    }

    auto w = makeWorkload(workload, scale);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     workload.c_str());
        return 1;
    }

    auto r = runWorkload(design, *w, opts);
    // Diagnostics (e.g. a quarantined corrupt checkpoint) are captured
    // into the result by the driver; surface them like a plain run.
    // The engine rejects contradictory options, and the status and
    // message below report why.
    if (!r.log.empty())
        std::fputs(r.log.c_str(), stderr);
    std::printf("workload  %s (%s)\n", r.workload.c_str(),
                w->isDataParallel() ? "data-parallel" : "task-parallel");
    std::printf("design    %s  (big %.1f GHz, little %.1f GHz)\n",
                r.design.c_str(), opts.bigGhz, opts.littleGhz);
    std::printf("time      %.0f ns\n", r.ns);
    std::printf("status    %s\n", runStatusName(r.status));
    if (!r.ok() && !r.message.empty())
        std::printf("%s\n", r.message.c_str());
    if (opts.verifyResult)
        std::printf("verified  %s\n", r.verified ? "yes" : "NO");
    std::printf("ifetch    %llu requests\n",
                (unsigned long long)r.stat("sys.ifetchReqs"));
    std::printf("data reqs %llu requests\n",
                (unsigned long long)r.stat("sys.dataReqs"));

    if (dumpStats) {
        std::printf("\n-- statistics --\n");
        for (const auto &kv : r.stats)
            if (kv.second != 0)
                std::printf("%-40s %llu\n", kv.first.c_str(),
                            (unsigned long long)kv.second);
    }
    return r.finished && (!opts.verifyResult || r.verified) ? 0 : 1;
}
