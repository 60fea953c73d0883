#include "sim/io/io_fault.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "sim/rng.hh"

namespace bvl
{
namespace io
{

namespace
{

/** Kinds that model a real failure of @p op (crash fits anywhere). */
bool
eligible(IoFaultKind k, IoOp op)
{
    switch (k) {
      case IoFaultKind::crash:
        return true;
      case IoFaultKind::fail_eio:
        return true;
      case IoFaultKind::fail_enospc:
        return op == IoOp::write || op == IoOp::fsync ||
               op == IoOp::mkdir;
      case IoFaultKind::short_write:
        return op == IoOp::write;
      case IoFaultKind::torn_rename:
        return op == IoOp::rename;
      case IoFaultKind::stale_lock:
        return op == IoOp::flock;
    }
    return false;
}

struct ScriptEntry
{
    IoFault fault;
    bool fired = false;
};

/**
 * Process-wide injector state. Counters are atomics so quiet (plan
 * disabled) sites never contend on the mutex; plan matching and trace
 * collection serialize on `m`.
 */
struct Injector
{
    std::mutex m;
    IoFaultPlan plan;
    std::vector<ScriptEntry> script;
    Rng rng{1};
    bool envSettled = false;     ///< env consulted or overridden
    bool traceInMemory = false;
    std::vector<IoSiteRecord> trace;
    int traceFd = -2;            ///< -2 unprobed, -1 disabled
    std::string traceFdPath;

    std::atomic<std::uint64_t> sites{0};
    std::atomic<std::uint64_t> fired{0};
    std::atomic<std::uint64_t> tempsCleaned{0};

    void
    installLocked(IoFaultPlan p)
    {
        plan = std::move(p);
        script.clear();
        for (const IoFault &f : plan.script)
            script.push_back({f, false});
        rng = Rng(plan.seed);
        envSettled = true;
    }

    /** Load BVL_IO_FAULT* once, unless a programmatic plan came first. */
    void
    settleEnvLocked()
    {
        if (envSettled)
            return;
        envSettled = true;
        IoFaultPlan p;
        if (const char *spec = std::getenv("BVL_IO_FAULT")) {
            if (*spec)
                p = ioFaultPlanFromSpec(spec);
        }
        if (const char *prob = std::getenv("BVL_IO_FAULT_PROB")) {
            char *end = nullptr;
            p.prob = std::strtod(prob, &end);
            if (end == prob || *end != '\0' || p.prob < 0.0 ||
                p.prob > 1.0)
                fatal("BVL_IO_FAULT_PROB must be a probability in "
                      "[0, 1], got '%s'", prob);
            p.enabled = p.enabled || p.prob > 0.0;
        }
        if (const char *seed = std::getenv("BVL_IO_FAULT_SEED"))
            p.seed = std::strtoull(seed, nullptr, 10);
        // Script harnesses drive whole processes: a crash should end
        // the process the way real death does, not unwind main().
        p.crashExits = true;
        if (const char *mode = std::getenv("BVL_IO_FAULT_CRASH")) {
            if (!std::strcmp(mode, "throw"))
                p.crashExits = false;
            else if (std::strcmp(mode, "exit"))
                fatal("BVL_IO_FAULT_CRASH must be exit or throw, "
                      "got '%s'", mode);
        }
        if (p.enabled)
            installLocked(std::move(p));
    }

    void
    traceSiteLocked(std::uint64_t index, const char *label, IoOp op,
                    const std::string &path)
    {
        if (traceInMemory)
            trace.push_back({index, label, op, path});
        if (traceFd == -2) {
            traceFd = -1;
            if (const char *tp = std::getenv("BVL_IO_SITE_TRACE")) {
                if (*tp) {
                    // Raw open: the site trace must never itself pass
                    // through the seam it observes.
                    traceFd = ::open(
                        tp, O_WRONLY | O_CREAT | O_APPEND, 0644);
                    traceFdPath = tp;
                }
            }
        }
        if (traceFd >= 0) {
            char line[512];
            int n = std::snprintf(line, sizeof(line),
                                  "%llu\t%s\t%s\t%s\n",
                                  (unsigned long long)index, label,
                                  ioOpName(op), path.c_str());
            if (n > 0) {
                ssize_t ignored = ::write(
                    traceFd, line,
                    n < (int)sizeof(line) ? (std::size_t)n
                                          : sizeof(line) - 1);
                (void)ignored;
            }
        }
    }
};

Injector &
injector()
{
    static Injector inj;
    return inj;
}

} // namespace

const char *
ioOpName(IoOp op)
{
    switch (op) {
      case IoOp::open: return "open";
      case IoOp::read: return "read";
      case IoOp::write: return "write";
      case IoOp::fsync: return "fsync";
      case IoOp::rename: return "rename";
      case IoOp::unlink: return "unlink";
      case IoOp::flock: return "flock";
      case IoOp::mkdir: return "mkdir";
    }
    return "?";
}

IoFaultPlan
ioFaultPlanFromSpec(const std::string &spec)
{
    IoFaultPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t at = item.find('@');
        if (at == std::string::npos || at == 0 || at + 1 == item.size())
            fatal("BVL_IO_FAULT entry '%s' is not <kind>@<site>",
                  item.c_str());
        IoFault f;
        auto kind = enumFromName<IoFaultKind>(item.substr(0, at));
        if (!kind) {
            std::string legal;
            for (const char *n : EnumNames<IoFaultKind>::names) {
                if (!legal.empty())
                    legal += '|';
                legal += n;
            }
            fatal("BVL_IO_FAULT entry '%s': unknown kind '%s' (want %s)",
                  item.c_str(), item.substr(0, at).c_str(), legal.c_str());
        }
        f.kind = *kind;
        std::string site = item.substr(at + 1);
        if (site.find_first_not_of("0123456789") == std::string::npos) {
            f.site = std::stoll(site);
        } else {
            f.site = -1;
            f.label = site;
        }
        plan.script.push_back(std::move(f));
    }
    plan.enabled = !plan.script.empty();
    return plan;
}

void
ioFaultInstall(IoFaultPlan plan)
{
    Injector &inj = injector();
    std::lock_guard<std::mutex> lock(inj.m);
    inj.installLocked(std::move(plan));
}

void
ioFaultReset()
{
    Injector &inj = injector();
    std::lock_guard<std::mutex> lock(inj.m);
    inj.installLocked(IoFaultPlan{});
    inj.trace.clear();
    inj.sites.store(0, std::memory_order_relaxed);
    inj.fired.store(0, std::memory_order_relaxed);
    inj.tempsCleaned.store(0, std::memory_order_relaxed);
}

std::uint64_t
ioSiteCount()
{
    return injector().sites.load(std::memory_order_relaxed);
}

std::uint64_t
ioFaultsFired()
{
    return injector().fired.load(std::memory_order_relaxed);
}

std::uint64_t
ioTempsCleaned()
{
    return injector().tempsCleaned.load(std::memory_order_relaxed);
}

void
ioNoteTempsCleaned(unsigned n)
{
    injector().tempsCleaned.fetch_add(n, std::memory_order_relaxed);
}

void
ioSiteTraceEnable(bool enable)
{
    Injector &inj = injector();
    std::lock_guard<std::mutex> lock(inj.m);
    inj.traceInMemory = enable;
    if (!enable)
        inj.trace.clear();
}

std::vector<IoSiteRecord>
ioSiteTraceSnapshot()
{
    Injector &inj = injector();
    std::lock_guard<std::mutex> lock(inj.m);
    return inj.trace;
}

std::optional<IoFaultKind>
ioSiteCheck(const char *label, IoOp op, const std::string &path)
{
    Injector &inj = injector();
    std::uint64_t index = inj.sites.fetch_add(1,
                                              std::memory_order_relaxed);

    IoFaultKind kind{};
    bool hit = false;
    bool crashExits = false;
    int crashExitCode = ioCrashExitCode;
    {
        std::lock_guard<std::mutex> lock(inj.m);
        inj.settleEnvLocked();
        if (inj.traceInMemory || inj.traceFd != -1)
            inj.traceSiteLocked(index, label, op, path);
        if (inj.plan.enabled) {
            for (ScriptEntry &e : inj.script) {
                if (e.fired)
                    continue;
                bool match = e.fault.site >= 0
                    ? static_cast<std::uint64_t>(e.fault.site) == index
                    : (e.fault.label.empty() || e.fault.label == label);
                if (!match)
                    continue;
                e.fired = true;
                kind = e.fault.kind;
                hit = true;
                break;
            }
            if (!hit && inj.plan.prob > 0.0 &&
                inj.rng.real() < inj.plan.prob) {
                // Uniform draw over the kinds this op can suffer.
                IoFaultKind pool[numIoFaultKinds];
                unsigned n = 0;
                for (unsigned i = 0; i < numIoFaultKinds; ++i) {
                    auto k = static_cast<IoFaultKind>(i);
                    if (eligible(k, op))
                        pool[n++] = k;
                }
                kind = pool[inj.rng.below(n)];
                hit = true;
            }
            crashExits = inj.plan.crashExits;
            crashExitCode = inj.plan.crashExitCode;
        }
    }
    if (!hit)
        return std::nullopt;
    if (!eligible(kind, op))
        kind = IoFaultKind::fail_eio;

    if (kind == IoFaultKind::crash) {
        if (crashExits) {
            // Flush nothing, run nothing: on-disk state stays exactly
            // as it is at this instant, like SIGKILL. The one-line
            // note goes straight to fd 2 so harnesses can tell an
            // injected crash from a real wreck.
            char msg[256];
            int n = std::snprintf(
                msg, sizeof(msg),
                "bvl-io: crash injected at site %llu (%s, %s)\n",
                (unsigned long long)index, label, path.c_str());
            if (n > 0) {
                ssize_t ignored = ::write(2, msg, (std::size_t)n);
                (void)ignored;
            }
            ::_exit(crashExitCode);
        }
        if (std::uncaught_exceptions() > 0) {
            // Already unwinding (a destructor flushing state): a
            // second throw would terminate. Real double-crashes do
            // not exist either — the first one ended the process.
            return std::nullopt;
        }
        inj.fired.fetch_add(1, std::memory_order_relaxed);
        throw IoCrashError(std::string("bvl-io: crash injected at "
                                       "site ") +
                           std::to_string(index) + " (" + label +
                           ", " + path + ")");
    }

    inj.fired.fetch_add(1, std::memory_order_relaxed);
    return kind;
}

} // namespace io
} // namespace bvl
