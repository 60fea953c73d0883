/**
 * @file
 * Shared helpers for the figure-regeneration benches: scale selection
 * (BVL_SCALE=tiny|small|medium), row printing, and the crash-safe
 * sweep-service plumbing every bench shares. Which workloads a figure
 * sweeps, and in what order, comes from workloadNames(Suite).
 *
 * All benches submit their full simulation grid to a SweepService and
 * consume the futures in submission order, so stdout is byte-identical
 * for any BVL_JOBS — and, because completed jobs replay from the
 * write-ahead journal and result cache, also across kill/resume and
 * warm reruns (DESIGN.md §14). The sweep summary goes to stderr so it
 * never perturbs the figure output.
 */

#ifndef BVL_BENCH_BENCH_UTIL_HH
#define BVL_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "sim/env.hh"
#include "sim/logging.hh"
#include "soc/run_io.hh"
#include "sweep/service/service.hh"

namespace bvlbench
{

using namespace bvl;

inline Scale
chosenScale(Scale fallback)
{
    int i = envChoice("BVL_SCALE", EnumNames<Scale>::names, -1);
    return i < 0 ? fallback : static_cast<Scale>(i);
}

/**
 * BVL_TRACE_DIR=<dir>: every run the bench launches writes a
 * Perfetto trace to <dir>/<seq>_<design>_<workload>.json. The
 * sequence number is assigned at submission time (single-threaded),
 * so concurrent sweep jobs never share a file and the filenames are
 * stable for any BVL_JOBS.
 */
inline void
applyTraceEnv(RunOptions &opts, Design d, const std::string &name)
{
    const char *dir = std::getenv("BVL_TRACE_DIR");
    if (!dir || !*dir)
        return;
    static unsigned seq = 0;
    opts.trace.path = std::string(dir) + "/" + std::to_string(seq++) +
                      "_" + designName(d) + "_" + name + ".json";
}

/**
 * BVL_CKPT_FARM=1: route every fast-forwarded run the bench launches
 * through the shared checkpoint-prefix farm (DESIGN.md §16) instead
 * of a per-cell cold fast-forward. Only applied to runs that already
 * fast-forward (ffInsts > 0) and name no checkpoint file;
 * BVL_CKPT_DIR picks the farm directory.
 */
inline void
applyCkptEnv(RunOptions &opts)
{
    if (envBool01("BVL_CKPT_FARM", false) &&
        opts.checkpoint.ffInsts > 0 && opts.checkpoint.path.empty())
        opts.checkpoint.farm = true;
}

/**
 * Run a bench body under graceful-stop supervision: installs the
 * SIGINT/SIGTERM handlers, translates SweepInterrupted into the
 * distinct resumable exit code (75), and prints the machine-readable
 * sweep summary plus any quarantine records to stderr — stdout stays
 * byte-identical across cold, warm, and kill/resume runs.
 */
inline int
finishSweep(SweepService &svc, const std::function<void()> &body)
{
    SweepService::installSignalHandlers();
    bool interrupted = false;
    try {
        body();
    } catch (const SweepInterrupted &e) {
        interrupted = true;
        std::fprintf(stderr, "bvl-sweep: %s\n", e.what());
    }
    std::fflush(stdout);
    for (const auto &q : svc.quarantined())
        std::fprintf(stderr,
                     "bvl-sweep-quarantined: %s on %s: %s after %u "
                     "attempt(s)%s%s\n",
                     q.workload.c_str(), q.design.c_str(),
                     runStatusName(q.status), q.attempts,
                     q.forensicsPath.empty() ? "" : "; forensics at ",
                     q.forensicsPath.c_str());
    std::fprintf(stderr, "%s\n", svc.summaryLine().c_str());
    return interrupted ? exitResumable : 0;
}

/** Report a failed run while consuming sweep results. */
inline RunResult
checkResult(RunResult r)
{
    if (!r.ok())
        warn("%s on %s: %s%s%s", r.workload.c_str(), r.design.c_str(),
             runStatusName(r.status), r.message.empty() ? "" : ": ",
             r.message.c_str());
    return r;
}

/**
 * Submission-ordered consumer of sweep futures: benches push every
 * run of their grid, then pop results in the same order while
 * printing. Deterministic output regardless of completion order.
 */
class SweepResults
{
  public:
    explicit SweepResults(SweepService &pool) : pool(pool) {}

    void
    push(Design d, const std::string &name, Scale scale,
         RunOptions opts = {})
    {
        applyTraceEnv(opts, d, name);
        applyCkptEnv(opts);
        futures.push_back(pool.submit({d, name, scale, opts}));
    }

    /** Next result in submission order (warns if the run failed). */
    RunResult
    pop()
    {
        bvl_assert(next < futures.size(),
                   "more sweep results consumed than submitted");
        return checkResult(futures[next++].get());
    }

  private:
    SweepService &pool;
    std::vector<std::future<RunResult>> futures;
    std::size_t next = 0;
};

/** Can this result be used as the denominator/numerator of a ratio? */
inline bool
usable(const RunResult &r)
{
    return r.ok() && r.ns > 0.0;
}

/** Speedup of @p fast over @p base, or 0.0 if either run failed. */
inline double
speedupOf(const RunResult &base, const RunResult &fast)
{
    if (!usable(base) || !usable(fast))
        return 0.0;
    return base.ns / fast.ns;
}

inline void
printHeader(const char *title, Scale scale)
{
    std::printf("# %s\n# scale=%s (set BVL_SCALE=tiny|small|medium)\n",
                title, scaleName(scale));
}

} // namespace bvlbench

#endif // BVL_BENCH_BENCH_UTIL_HH
