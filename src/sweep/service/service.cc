#include "sweep/service/service.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sim/env.hh"
#include "sim/io/io_fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/checkpoint_farm.hh"
#include "soc/run_io.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{

namespace
{

std::atomic<bool> g_stop{false};

extern "C" void
sweepStopHandler(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    // Async-signal-safe note; SA_RESETHAND makes a second signal kill.
    const char msg[] =
        "\nbvl-sweep: stop requested; draining in-flight jobs "
        "(signal again to kill)\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
}

} // namespace

void
SweepService::installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sweepStopHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
SweepService::requestStop()
{
    g_stop.store(true, std::memory_order_relaxed);
}

bool
SweepService::stopRequested()
{
    return g_stop.load(std::memory_order_relaxed);
}

void
SweepService::clearStop()
{
    g_stop.store(false, std::memory_order_relaxed);
}

SweepServiceOptions
sweepServiceOptionsFromEnv(const char *sweepName)
{
    SweepServiceOptions o;
    const char *j = std::getenv("BVL_SWEEP_JOURNAL");
    if (j && !std::strcmp(j, "0")) {
        // Journaling explicitly off.
    } else if (j && *j && std::strcmp(j, "1") != 0) {
        o.journalPath = j;
    } else {
        const char *dir = std::getenv("BVL_SWEEP_DIR");
        o.journalPath = std::string(dir && *dir ? dir : ".bvl-sweep") +
                        "/" + sweepName + ".journal.jsonl";
    }
    if (const char *c = std::getenv("BVL_CACHE_DIR"); c && *c)
        o.cacheDir = c;
    return o;
}

SweepService::SweepService(SweepServiceOptions options)
    : opts(std::move(options)), runner(opts.jobs)
{
    bvl_assert(opts.maxAttempts >= 1,
               "SweepServiceOptions::maxAttempts must be >= 1");
    opts.isolate = envBool01("BVL_SWEEP_ISOLATE", opts.isolate);
    if (!opts.journalPath.empty())
        journal.open(opts.journalPath);
    if (!opts.cacheDir.empty())
        cache.setDir(opts.cacheDir);
}

SweepService::~SweepService() = default;

bool
SweepService::retryable(RunStatus s) const
{
    for (RunStatus r : opts.retryOn)
        if (r == s)
            return true;
    return false;
}

std::vector<double>
SweepService::backoffScheduleMs(const SweepServiceOptions &options,
                                const std::string &hashHex)
{
    // Per-job seed: fold the leading 16 hex digits of the hash into
    // the sweep-level seed, so the schedule is deterministic for a
    // given (options, job) but jobs don't retry in lock step.
    std::uint64_t h = 0;
    for (char c : hashHex.substr(0, 16)) {
        h <<= 4;
        if (c >= '0' && c <= '9')
            h |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            h |= static_cast<std::uint64_t>(c - 'a' + 10);
    }
    Rng rng(options.backoffSeed ^ h);
    std::vector<double> out;
    double base = options.backoffBaseMs;
    for (unsigned i = 0; i + 1 < options.maxAttempts; ++i) {
        double jitter =
            0.5 + static_cast<double>(rng.next() >> 11) /
                      static_cast<double>(1ull << 53);
        out.push_back(base * jitter);
        base *= 2.0;
    }
    return out;
}

SweepJob
SweepService::effectiveJob(const SweepJob &job,
                           const std::string &hash) const
{
    SweepJob eff = job;

    // Collision-free forensics: parallel jobs sharing one configured
    // forensicsPath each get a per-job file derived from the hash, so
    // two failing jobs can no longer race on the same report.
    if (!eff.opts.check.forensicsPath.empty()) {
        std::string p = eff.opts.check.forensicsPath;
        std::string tag = ".";
        tag.append(hash, 0, 16);
        auto slash = p.find_last_of('/');
        auto dot = p.find_last_of('.');
        if (dot != std::string::npos &&
            (slash == std::string::npos || dot > slash))
            p.insert(dot, tag);
        else
            p += tag;
        eff.opts.check.forensicsPath = std::move(p);
    }

    if (opts.wallDeadlineSec > 0.0)
        eff.opts.wallDeadlineSec = opts.wallDeadlineSec;
    return eff;
}

RunResult
SweepService::runAttempt(const SweepJob &job, unsigned attempt)
{
    if (opts.isolate)
        return runIsolated(job, attempt);
    if (opts.preRunHook)
        opts.preRunHook(job, attempt);
    return runWorkload(job.design, job.workload, job.scale, job.opts);
}

RunResult
SweepService::runIsolated(const SweepJob &job, unsigned attempt)
{
    auto failure = [&](const char *why) {
        RunResult r;
        r.workload = job.workload;
        r.design = designName(job.design);
        r.status = RunStatus::worker_lost;
        r.message = why;
        return r;
    };

    int fds[2];
    if (::pipe(fds) != 0)
        return failure("pipe() failed for isolated worker");

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return failure("fork() failed for isolated worker");
    }

    if (pid == 0) {
        // Worker child: run the simulation, ship the serialized result
        // through the pipe, and _exit without running any atexit or
        // static destructors inherited from the parent.
        ::close(fds[0]);
        try {
            if (opts.preRunHook)
                opts.preRunHook(job, attempt);
            RunResult r = runWorkload(job.design, job.workload,
                                      job.scale, job.opts);
            std::string payload = runResultToJson(r).dump(0);
            std::uint64_t len = payload.size();
            bool ok = ::write(fds[1], &len, sizeof(len)) ==
                      static_cast<ssize_t>(sizeof(len));
            std::size_t off = 0;
            while (ok && off < payload.size()) {
                ssize_t n = ::write(fds[1], payload.data() + off,
                                    payload.size() - off);
                if (n < 0)
                    ok = false;
                else
                    off += static_cast<std::size_t>(n);
            }
            ::_exit(ok ? 0 : 3);
        } catch (...) {
            ::_exit(3);
        }
    }

    // Parent: supervise. A wall-clock budget is enforced here with
    // poll(); a worker that blows it is killed and reported as
    // RunStatus::deadline (the in-child watchdog hook usually fires
    // first and exits cleanly with the same status).
    ::close(fds[1]);
    auto start = std::chrono::steady_clock::now();
    bool deadlineKill = false;
    std::string payload;
    std::uint64_t want = 0;
    std::size_t lenGot = 0;
    bool shortRead = false;

    auto readSome = [&](void *buf, std::size_t n) -> ssize_t {
        if (opts.wallDeadlineSec > 0.0) {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            double leftSec = opts.wallDeadlineSec - elapsed.count();
            if (leftSec <= 0.0)
                return -2;      // deadline
            struct pollfd pfd = {fds[0], POLLIN, 0};
            int pr = ::poll(&pfd, 1,
                            static_cast<int>(leftSec * 1000.0) + 1);
            if (pr == 0)
                return -2;      // deadline
            if (pr < 0)
                return -1;
        }
        return ::read(fds[0], buf, n);
    };

    for (;;) {
        if (lenGot < sizeof(want)) {
            ssize_t n = readSome(
                reinterpret_cast<char *>(&want) + lenGot,
                sizeof(want) - lenGot);
            if (n == -2) {
                deadlineKill = true;
                break;
            }
            if (n <= 0) {
                shortRead = true;
                break;
            }
            lenGot += static_cast<std::size_t>(n);
            if (lenGot == sizeof(want)) {
                if (want > (64u << 20)) {   // implausible: corrupt
                    shortRead = true;
                    break;
                }
                payload.reserve(want);
            }
            continue;
        }
        if (payload.size() >= want)
            break;
        char buf[65536];
        std::size_t chunk = want - payload.size();
        if (chunk > sizeof(buf))
            chunk = sizeof(buf);
        ssize_t n = readSome(buf, chunk);
        if (n == -2) {
            deadlineKill = true;
            break;
        }
        if (n <= 0) {
            shortRead = true;
            break;
        }
        payload.append(buf, static_cast<std::size_t>(n));
    }

    if (deadlineKill)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);

    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);

    if (deadlineKill) {
        RunResult r = failure("worker exceeded wall-clock deadline; "
                              "killed");
        r.status = RunStatus::deadline;
        return r;
    }
    if (shortRead || payload.size() < want) {
        char msg[128];
        if (WIFSIGNALED(wstatus))
            std::snprintf(msg, sizeof(msg),
                          "worker killed by signal %d (%s)",
                          WTERMSIG(wstatus),
                          strsignal(WTERMSIG(wstatus)));
        else
            std::snprintf(msg, sizeof(msg),
                          "worker exited without a result (status %d)",
                          WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                             : -1);
        return failure(msg);
    }

    try {
        return runResultFromJson(Json::parse(payload));
    } catch (const SimError &e) {
        return failure("worker result unparsable");
    }
}

RunResult
SweepService::runJob(SweepJob job)
{
    if (stopRequested())
        throw SweepInterrupted();

    const std::string hash = jobHashHex(job);
    const bool cacheable = jobCacheable(job);
    unsigned priorAttempts = 0;

    if (cacheable) {
        RunResult stored;
        unsigned storedAttempts = 0;
        if (journal.isOpen() &&
            journal.lookup(hash, &stored, &storedAttempts)) {
            // A journaled entry is final when it succeeded, failed
            // non-retryably, or already exhausted the retry budget.
            // Otherwise the sweep was interrupted mid-retry: resume
            // the loop below with the remaining budget instead of
            // replaying a failure that still had attempts left.
            bool exhausted = storedAttempts >= opts.maxAttempts;
            if (stored.ok() || !retryable(stored.status) || exhausted) {
                nJournalHits.fetch_add(1, std::memory_order_relaxed);
                if (!stored.ok()) {
                    nFailed.fetch_add(1, std::memory_order_relaxed);
                    if (exhausted && retryable(stored.status)) {
                        QuarantineRecord q;
                        q.hash = hash;
                        q.design = designName(job.design);
                        q.workload = job.workload;
                        q.status = stored.status;
                        q.attempts = storedAttempts;
                        q.forensicsPath =
                            effectiveJob(job, hash)
                                .opts.check.forensicsPath;
                        std::lock_guard<std::mutex> lock(qm);
                        quarantine.push_back(std::move(q));
                    }
                }
                return stored;
            }
            priorAttempts = storedAttempts;
        } else if (cache.enabled() && cache.lookup(hash, &stored)) {
            nCacheHits.fetch_add(1, std::memory_order_relaxed);
            // Journal the cache hit too: resume must not depend on
            // the cache still being intact.
            if (journal.isOpen())
                journal.append(hash, job, 0, "cache", stored);
            return stored;
        }
    }

    SweepJob eff = effectiveJob(job, hash);
    RunResult r;
    unsigned attempt = priorAttempts;
    auto simStart = std::chrono::steady_clock::now();
    for (;;) {
        nSimulated.fetch_add(1, std::memory_order_relaxed);
        r = runAttempt(eff, attempt);
        ++attempt;
        if (r.ok() || !retryable(r.status) ||
            attempt >= opts.maxAttempts || stopRequested())
            break;
        nRetries.fetch_add(1, std::memory_order_relaxed);
        double delayMs =
            backoffScheduleMs(opts, hash)[attempt - 1 <
                                          opts.maxAttempts - 1
                                              ? attempt - 1
                                              : opts.maxAttempts - 2];
        warn("%s on %s: %s (attempt %u/%u); retrying in %.0f ms",
             eff.workload.c_str(), designName(eff.design),
             runStatusName(r.status), attempt, opts.maxAttempts,
             delayMs);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delayMs));
    }

    if (!r.ok()) {
        nFailed.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= opts.maxAttempts && retryable(r.status)) {
            QuarantineRecord q;
            q.hash = hash;
            q.design = designName(job.design);
            q.workload = job.workload;
            q.status = r.status;
            q.attempts = attempt;
            q.forensicsPath = eff.opts.check.forensicsPath;
            std::lock_guard<std::mutex> lock(qm);
            quarantine.push_back(std::move(q));
        }
    }

    if (cacheable) {
        if (journal.isOpen()) {
            std::chrono::duration<double, std::milli> wall =
                std::chrono::steady_clock::now() - simStart;
            journal.append(hash, job, attempt, "sim", r, wall.count());
        }
        if (r.ok() && cache.enabled())
            cache.store(hash, r);
    }
    return r;
}

std::future<RunResult>
SweepService::submit(SweepJob job)
{
    nSubmitted.fetch_add(1, std::memory_order_relaxed);
    return runner.submit(
        [this, job = std::move(job)]() mutable {
            return runJob(std::move(job));
        });
}

std::vector<SweepService::QuarantineRecord>
SweepService::quarantined() const
{
    std::lock_guard<std::mutex> lock(qm);
    return quarantine;
}

SweepService::Summary
SweepService::summary() const
{
    Summary s;
    s.submitted = nSubmitted.load(std::memory_order_relaxed);
    s.simulated = nSimulated.load(std::memory_order_relaxed);
    s.journalHits = nJournalHits.load(std::memory_order_relaxed);
    s.cacheHits = nCacheHits.load(std::memory_order_relaxed);
    s.cacheCorrupt = cache.corruptEntries();
    s.retries = nRetries.load(std::memory_order_relaxed);
    s.failed = nFailed.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(qm);
        s.quarantines = quarantine.size();
    }
    s.interrupted = stopRequested();
    s.farmHits = CheckpointFarm::hits();
    s.farmProduced = CheckpointFarm::produced();
    s.farmCorrupt = CheckpointFarm::state().quarantined;
    s.farmEvicted = CheckpointFarm::state().evicted;
    s.tmpCleaned = io::ioTempsCleaned();
    s.ioFaults = io::ioFaultsFired();
    s.journalDegraded = journal.degraded();
    s.cacheDegraded = cache.storeBroken();
    s.farmDegraded = CheckpointFarm::state().publishDisabled;
    return s;
}

std::string
SweepService::summaryLine(const Summary &s)
{
    const std::pair<const char *, std::uint64_t> items[] = {
        {"submitted", s.submitted},
        {"simulated", s.simulated},
        {"journal_hits", s.journalHits},
        {"cache_hits", s.cacheHits},
        {"cache_corrupt", s.cacheCorrupt},
        {"retries", s.retries},
        {"quarantined", s.quarantines},
        {"failed", s.failed},
        {"interrupted", s.interrupted},
        {"farm_hits", s.farmHits},
        {"farm_produced", s.farmProduced},
        {"farm_corrupt", s.farmCorrupt},
        {"farm_evicted", s.farmEvicted},
        {"tmp_cleaned", s.tmpCleaned},
        {"io_faults", s.ioFaults},
        {"journal_degraded", s.journalDegraded},
        {"cache_degraded", s.cacheDegraded},
        {"farm_degraded", s.farmDegraded},
    };
    std::string line = "bvl-sweep-summary:";
    for (const auto &[name, value] : items)
        line += std::string(" ") + name + "=" + std::to_string(value);
    return line;
}

} // namespace bvl
