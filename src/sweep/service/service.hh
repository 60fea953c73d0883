/**
 * @file
 * Crash-safe sweep service: journaled, resumable, cache-backed
 * simulation with supervised workers (DESIGN.md §14).
 *
 * SweepService layers orchestration-level fault tolerance on the
 * SweepRunner thread pool:
 *
 *  - every completed job is appended (fsync'd) to a write-ahead
 *    journal keyed by the canonical job hash, so a sweep killed at
 *    any point — including kill -9 — resumes from the journal and
 *    completes with byte-identical submission-ordered results;
 *  - ok results are also stored in a content-addressed result cache
 *    (BVL_CACHE_DIR) with integrity digests, so overlapping sweeps
 *    and warm reruns perform zero simulations;
 *  - each job is supervised: simulated-time and wall-clock deadlines,
 *    bounded retry with deterministic seeded backoff for recoverable
 *    outcomes, and quarantine — a persistently failing job degrades
 *    to a recorded failed row (with its forensics report path)
 *    instead of aborting the sweep;
 *  - with isolate (BVL_SWEEP_ISOLATE=1), jobs run in forked worker
 *    processes so a SIGSEGV/abort in one design point is contained,
 *    reported as RunStatus::worker_lost and retried rather than
 *    killing the whole sweep.
 *
 * Futures resolve in any order; callers consume them in submission
 * order (bench_util.hh SweepResults), which keeps sweep output
 * byte-identical for any BVL_JOBS, with or without a warm journal or
 * cache.
 *
 * SIGINT/SIGTERM handling (installSignalHandlers): the first signal
 * requests a graceful stop — in-flight jobs drain and journal, queued
 * jobs fail fast with SweepInterrupted — and a second signal kills
 * the process. Benches translate SweepInterrupted into the distinct
 * "resumable" exit code (exitResumable) after flushing the journal.
 */

#ifndef BVL_SWEEP_SERVICE_SERVICE_HH
#define BVL_SWEEP_SERVICE_SERVICE_HH

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/service/journal.hh"
#include "sweep/service/result_cache.hh"
#include "sweep/sweep_runner.hh"

namespace bvl
{

/** Thrown into job futures when a graceful stop was requested. */
class SweepInterrupted : public std::runtime_error
{
  public:
    SweepInterrupted()
        : std::runtime_error("sweep interrupted; journaled results are "
                             "durable, rerun to resume")
    {}
};

/** Exit code meaning "interrupted but resumable" (BSD EX_TEMPFAIL). */
constexpr int exitResumable = 75;

struct SweepServiceOptions
{
    /** Worker threads; 0 = SweepRunner::defaultJobs() (BVL_JOBS). */
    unsigned jobs = 0;
    /** Write-ahead journal file; empty disables journaling. */
    std::string journalPath;
    /** Content-addressed result cache root; empty disables caching. */
    std::string cacheDir;
    /** Total tries per job (1 = no retry). */
    unsigned maxAttempts = 3;
    /** First retry delay; doubles per attempt, with seeded jitter. */
    double backoffBaseMs = 10.0;
    /** Seed for the deterministic backoff jitter. */
    std::uint64_t backoffSeed = 0xb161764c;
    /** Per-job wall-clock budget (watchdog hook / worker kill). */
    double wallDeadlineSec = 0.0;
    /** Fork one worker process per job (BVL_SWEEP_ISOLATE=1). */
    bool isolate = false;
    /** Statuses worth retrying (environmental, not deterministic). */
    std::vector<RunStatus> retryOn = {RunStatus::worker_lost,
                                      RunStatus::deadline};
    /**
     * Test hook, called before each simulation attempt — inside the
     * forked child in isolate mode, so a hook that raises a fatal
     * signal exercises real worker loss.
     */
    std::function<void(const SweepJob &, unsigned attempt)> preRunHook;
};

/**
 * Options for a named sweep (a figure bench or a sweep example),
 * configured from the environment:
 *
 *  - journal: ${BVL_SWEEP_DIR:-.bvl-sweep}/<sweepName>.journal.jsonl.
 *    BVL_SWEEP_JOURNAL=0 disables journaling; any other non-"1" value
 *    overrides the journal path verbatim.
 *  - cache: BVL_CACHE_DIR (unset = no cache).
 *  - isolation: BVL_SWEEP_ISOLATE=1 (read by SweepService itself).
 */
SweepServiceOptions sweepServiceOptionsFromEnv(const char *sweepName);

class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions options = {});
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Queue one simulation. The future yields the journal/cache/sim
     * result, or throws SweepInterrupted if a stop was requested
     * before the job started.
     */
    std::future<RunResult> submit(SweepJob job);

    unsigned jobs() const { return runner.jobs(); }
    const SweepServiceOptions &options() const { return opts; }

    /** A job that exhausted its retries (recorded, sweep continued). */
    struct QuarantineRecord
    {
        std::string hash;
        std::string design;
        std::string workload;
        RunStatus status = RunStatus::sim_error;
        unsigned attempts = 0;
        /** Failure report location, "" if forensics was not armed. */
        std::string forensicsPath;
    };

    std::vector<QuarantineRecord> quarantined() const;

    struct Summary
    {
        std::uint64_t submitted = 0;    ///< jobs accepted by submit()
        std::uint64_t simulated = 0;    ///< simulation attempts executed
        std::uint64_t journalHits = 0;  ///< served from the journal
        std::uint64_t cacheHits = 0;    ///< served from the cache
        std::uint64_t cacheCorrupt = 0; ///< quarantined cache entries
        std::uint64_t retries = 0;      ///< extra attempts after failures
        std::uint64_t quarantines = 0;  ///< jobs that exhausted retries
        std::uint64_t failed = 0;       ///< jobs with a non-ok result
        bool interrupted = false;       ///< a stop was requested
        /**
         * Checkpoint-farm telemetry (CheckpointFarm's process-wide
         * counters; thread-mode only — isolate-mode children count in
         * their own processes and report via each cell's log instead).
         */
        std::uint64_t farmHits = 0;      ///< prefixes restored
        std::uint64_t farmProduced = 0;  ///< prefixes fast-forwarded
        std::uint64_t farmCorrupt = 0;   ///< entries quarantined
        std::uint64_t farmEvicted = 0;   ///< entries evicted (budget)
        /** I/O-robustness telemetry (DESIGN.md §17). */
        std::uint64_t tmpCleaned = 0;    ///< stale temps removed
        std::uint64_t ioFaults = 0;      ///< injected faults fired
        bool journalDegraded = false;    ///< journal lost durability
        bool cacheDegraded = false;      ///< cache stores disabled
        bool farmDegraded = false;       ///< farm stores disabled
    };

    Summary summary() const;

    /** One-line machine-readable form, for scripts (stderr). */
    std::string summaryLine() const { return summaryLine(summary()); }
    static std::string summaryLine(const Summary &s);

    /**
     * The deterministic retry-delay schedule (maxAttempts - 1 entries)
     * the service would use for a job with @p hashHex. Exposed so
     * tests can assert the backoff is reproducible across reruns.
     */
    static std::vector<double>
    backoffScheduleMs(const SweepServiceOptions &options,
                      const std::string &hashHex);

    // --- graceful-stop machinery (process-wide, signal-safe) ---------

    /** Install SIGINT/SIGTERM handlers that requestStop(). */
    static void installSignalHandlers();
    static void requestStop();
    static bool stopRequested();
    /** Clear the stop flag (tests reuse the process). */
    static void clearStop();

  private:
    SweepJob effectiveJob(const SweepJob &job,
                          const std::string &hash) const;
    RunResult runJob(SweepJob job);
    RunResult runAttempt(const SweepJob &job, unsigned attempt);
    RunResult runIsolated(const SweepJob &job, unsigned attempt);
    bool retryable(RunStatus s) const;

    SweepServiceOptions opts;
    SweepJournal journal;
    ResultCache cache;
    SweepRunner runner;

    std::atomic<std::uint64_t> nSubmitted{0};
    std::atomic<std::uint64_t> nSimulated{0};
    std::atomic<std::uint64_t> nJournalHits{0};
    std::atomic<std::uint64_t> nCacheHits{0};
    std::atomic<std::uint64_t> nRetries{0};
    std::atomic<std::uint64_t> nFailed{0};

    mutable std::mutex qm;
    std::vector<QuarantineRecord> quarantine;
};

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_SERVICE_HH
