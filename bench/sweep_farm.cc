/**
 * @file
 * Checkpoint-farm demo sweep (DESIGN.md §16): one workload, seven
 * design points, three distinct fast-forward prefixes — 1bIV
 * (VLEN 128), 1bDV (VLEN 2048), and five 1b-4VL VMU queue-depth
 * variants that all share the VLEN-512 prefix.
 *
 * Every cell fast-forwards the common prefix and simulates only the
 * last instructions in detail. Cold (default), each cell pays its own
 * fast-forward; with BVL_CKPT_FARM=1 the farm produces each prefix
 * once and every other cell restores it. stdout is byte-identical
 * either way — only the wall clock moves — which is what
 * scripts/checkpoint_smoke.sh's farm leg measures and asserts.
 */

#include <filesystem>

#include "bench/bench_util.hh"
#include "isa/arch_state.hh"
#include "sim/io/sim_io.hh"
#include "soc/checkpoint_farm.hh"
#include "sweep/service/job_hash.hh"
#include "vector/engine_presets.hh"

using namespace bvlbench;

namespace
{

/**
 * Dynamic instruction count of the workload's vector program at
 * @p vlenBits, measured by a pure functional dry run (the same oracle
 * fast-forward steps through).
 */
std::uint64_t
measureDynamicInsts(const std::string &name, Scale scale,
                    unsigned vlenBits)
{
    auto w = makeWorkload(name, scale);
    bvl_assert(w != nullptr, "unknown workload %s", name.c_str());
    BackingStore mem;
    w->init(mem);
    ArchState arch(vlenBits);
    arch.seed(w->fullRangeArgs());
    auto prog = w->vectorProgram();
    bvl_assert(prog != nullptr, "%s has no vector program",
               name.c_str());
    return runFunctional(arch, *prog, mem);
}

/**
 * Like measureDynamicInsts(), but in farm mode the count is memoized
 * under the farm directory (it is prefix metadata: a pure function of
 * workload/scale/VLEN/library revision, exactly the coordinates the
 * prefix hash covers). Cold sweeps always pay the dry run — that is
 * the per-cell cost the farm exists to amortize; warm sweeps read the
 * count back and touch no functional execution at all.
 */
std::uint64_t
dynamicInsts(const std::string &name, Scale scale, unsigned vlenBits)
{
    std::string memoPath;
    if (envBool01("BVL_CKPT_FARM", false)) {
        memoPath = CheckpointFarm::defaultDir() + "/counts/" + name +
                   "-" + scaleName(scale) + "-v" +
                   std::to_string(vlenBits) + "-" + kLibraryRevision +
                   ".txt";
        std::string text;
        if (io::readFile("farm_memo.read", memoPath, &text)) {
            // Trust the memo only when it is one complete
            // newline-terminated number: a torn publish leaves a
            // digit *prefix*, which would parse fine and silently
            // fast-forward the wrong number of instructions. An
            // invalid memo is simply re-measured and re-published.
            char *end = nullptr;
            std::uint64_t cached = std::strtoull(text.c_str(), &end,
                                                 10);
            if (cached > 0 && end && end != text.c_str() &&
                end[0] == '\n' && end[1] == '\0')
                return cached;
        }
    }
    std::uint64_t n = measureDynamicInsts(name, scale, vlenBits);
    if (!memoPath.empty()) {
        // Best effort: the memo is a pure accelerator, so a failed
        // publish just means the next cold sweep re-measures.
        auto parent = std::filesystem::path(memoPath).parent_path();
        if (io::mkdirs("farm_memo.mkdir", parent.string()))
            io::writeFileAtomic("farm_memo.store", memoPath,
                                std::to_string(n) + "\n");
    }
    return n;
}

/** Stop the prefix shortly before the halt so a detailed tail runs. */
std::uint64_t
prefixInsts(std::uint64_t dynamic)
{
    return dynamic > 128 ? dynamic - 64 : dynamic / 2;
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    const std::string workload = "kmeans";
    printHeader("Checkpoint-farm sweep: 7 design points, 3 shared "
                "fast-forward prefixes", scale);

    // One prefix per distinct flavor/VLEN trajectory.
    std::uint64_t ffIv =
        prefixInsts(dynamicInsts(workload, scale,
                                 integratedVuPreset().vlenBits()));
    std::uint64_t ffDv =
        prefixInsts(dynamicInsts(workload, scale,
                                 decoupledVePreset().vlenBits()));
    std::uint64_t ffVl =
        prefixInsts(dynamicInsts(workload, scale,
                                 vlittlePreset().vlenBits()));

    const unsigned depths[] = {2, 4, 8, 16, 32};

    SweepService pool(sweepServiceOptionsFromEnv("sweep_farm"));
    return finishSweep(pool, [&] {
        SweepResults runs(pool);

        RunOptions iv;
        iv.checkpoint.ffInsts = ffIv;
        runs.push(Design::d1bIV, workload, scale, iv);

        RunOptions dv;
        dv.checkpoint.ffInsts = ffDv;
        runs.push(Design::d1bDV, workload, scale, dv);

        for (unsigned d : depths) {
            VEngineParams ep = vlittlePreset();
            ep.loadQueueLines = d;
            ep.storeQueueLines = d;
            RunOptions opts;
            opts.engineOverride = ep;
            opts.checkpoint.ffInsts = ffVl;
            runs.push(Design::d1b4VL, workload, scale, opts);
        }

        std::printf("%-10s %-8s %12s %s\n", "design", "tag", "ns",
                    "verified");
        auto row = [&](const char *tag) {
            auto r = runs.pop();
            if (usable(r))
                std::printf("%-10s %-8s %12.0f %s\n", r.design.c_str(),
                            tag, r.ns, r.verified ? "yes" : "NO");
            else
                std::printf("%-10s %-8s %12s %s\n", r.design.c_str(),
                            tag, runStatusName(r.status), "-");
            std::fflush(stdout);
        };

        row("-");
        row("-");
        for (unsigned d : depths) {
            char tag[16];
            std::snprintf(tag, sizeof(tag), "q%u", d);
            row(tag);
        }
    });
}
