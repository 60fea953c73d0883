/**
 * @file
 * Parallel sweep runner: executes independent (design, workload,
 * RunOptions) simulation jobs on a fixed thread pool.
 *
 * The paper's evaluation is a large grid of independent simulations
 * (7 designs x 19 workloads for Figure 4, times 16 V/f points for the
 * DVFS studies). Every job builds its own workload and Soc, so jobs
 * share no mutable state (DESIGN.md §10) and can run concurrently.
 *
 * Results are consumed in deterministic submission order regardless of
 * completion order: submit() returns a std::future and callers get()
 * them in the order they submitted, or use runSweep()/runAll() which
 * return a vector indexed by submission order. Combined with the
 * library's re-entrancy guarantees this makes sweep output
 * byte-identical for any thread count.
 *
 * The thread count comes from BVL_JOBS (default: all hardware
 * threads). BVL_JOBS=1 is *exact* legacy behavior: jobs execute
 * inline on the submitting thread, at submission time, with no worker
 * threads created.
 */

#ifndef BVL_SWEEP_SWEEP_RUNNER_HH
#define BVL_SWEEP_SWEEP_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "soc/run_driver.hh"

namespace bvl
{

class SweepRunner
{
  public:
    /**
     * @p jobs worker threads; 0 means defaultJobs() (the BVL_JOBS
     * environment variable, falling back to hardware_concurrency).
     * With 1 job no threads are created and submit() runs the work
     * inline — exact legacy serial behavior.
     */
    explicit SweepRunner(unsigned jobs = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Number of concurrent jobs this runner executes. */
    unsigned jobs() const { return numJobs; }

    /**
     * Queue one simulation; the future yields its RunResult. Futures
     * complete in any order — get() them in submission order for
     * deterministic consumption.
     */
    std::future<RunResult> submit(SweepJob job);

    /** Queue an arbitrary run thunk (custom Workload subclasses). */
    std::future<RunResult> submit(std::function<RunResult()> fn);

    /**
     * Submit every job and wait for all of them; results are indexed
     * by submission order.
     */
    std::vector<RunResult> runAll(const std::vector<SweepJob> &sweep);

    /** Resolved BVL_JOBS (>= 1); see the file comment. */
    static unsigned defaultJobs();

  private:
    void workerLoop();

    unsigned numJobs;
    std::vector<std::thread> workers;
    std::deque<std::packaged_task<RunResult()>> queue;
    std::mutex m;
    std::condition_variable cv;
    bool stopping = false;
};

/** One-shot convenience: run a whole sweep on a temporary runner. */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &sweep,
                                unsigned jobs = 0);

} // namespace bvl

#endif // BVL_SWEEP_SWEEP_RUNNER_HH
