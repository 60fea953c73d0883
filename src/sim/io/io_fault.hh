/**
 * @file
 * Deterministic I/O fault injection (DESIGN.md §17).
 *
 * Every filesystem operation the persistence stack performs goes
 * through the seam in sim/io/sim_io.hh, and every seam call names an
 * *injection site*: a stable dotted label ("result_cache.store.write")
 * plus a process-wide dynamic site index (the Nth seam call since the
 * last reset). An IoFaultPlan — same seeded-plan discipline as the
 * simulator's FaultSpec (sim/fault.hh) — selects sites by index or by
 * label and makes them fail in a chosen way:
 *
 *   fail_enospc / fail_eio  the operation fails outright
 *   short_write             a prefix of the data lands, then ENOSPC
 *   torn_rename             the destination materializes truncated
 *                           (a non-atomic publish caught mid-flight)
 *   stale_lock              the lock is never granted in the deadline
 *   crash                   the process "dies" right here: either a
 *                           clean IoCrashError unwind (in-process
 *                           harnesses) or _exit() (script harnesses),
 *                           leaving on-disk state exactly as a kill -9
 *                           at this point would
 *
 * Scripted entries fire once each (first match wins); a probabilistic
 * mode rolls every site against `prob` with the plan's own Rng so a
 * seeded random soak is reproducible. Plans install process-wide —
 * persistence objects (journals, caches, farms) are not per-run
 * simulation state — and with BVL_JOBS=1 the site sequence is a pure
 * function of the work performed, so "inject at site N" is
 * deterministic and enumerable.
 *
 * The same machinery is reachable from the environment so shell
 * harnesses (scripts/chaos_smoke.sh) can drive unmodified binaries:
 *
 *   BVL_IO_FAULT=<kind>@<site>[,...]  site = index or exact label
 *   BVL_IO_FAULT_CRASH=exit|throw     crash flavor (default exit)
 *   BVL_IO_FAULT_PROB / BVL_IO_FAULT_SEED   probabilistic mode
 *   BVL_IO_SITE_TRACE=<path>          append "index<TAB>label<TAB>op
 *                                     <TAB>path" per site reached
 */

#ifndef BVL_SIM_IO_IO_FAULT_HH
#define BVL_SIM_IO_IO_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/enum_names.hh"
#include "sim/logging.hh"

namespace bvl
{
namespace io
{

/**
 * Thrown by an injected crash point in throw mode. Deliberately NOT
 * handled by the usual catch (SimError) recovery paths in the
 * persistence stack (they carve it out and rethrow): a crash must
 * unwind out of the process the way real death would, leaving partial
 * on-disk state for the next incarnation to recover from.
 */
class IoCrashError : public SimError
{
  public:
    using SimError::SimError;
};

/** Exit code used by exit-mode injected crashes. */
constexpr int ioCrashExitCode = 86;

/** Operation class of a seam call; decides which faults make sense. */
enum class IoOp
{
    open,
    read,
    write,
    fsync,
    rename,
    unlink,
    flock,
    mkdir,
};

const char *ioOpName(IoOp op);

enum class IoFaultKind
{
    fail_enospc,
    fail_eio,
    short_write,
    torn_rename,
    stale_lock,
    crash,
};

} // namespace io

/** Names as IoFaultPlan specs spell them (BVL_IO_FAULT). */
template <>
struct EnumNames<io::IoFaultKind>
{
    static constexpr const char *names[] = {
        "enospc", "eio", "short", "torn", "stale_lock", "crash"};
};

namespace io
{

constexpr unsigned numIoFaultKinds = enumCount<IoFaultKind>();

inline const char *ioFaultKindName(IoFaultKind k) { return enumName(k); }

/**
 * One scripted fault. Matches by global site index (site >= 0) or by
 * exact label (site < 0); fires once. A kind that makes no sense for
 * the matched operation degrades to fail_eio — every operation can at
 * least fail — so a plan never silently does nothing.
 */
struct IoFault
{
    long long site = -1;
    std::string label;
    IoFaultKind kind = IoFaultKind::fail_eio;
};

struct IoFaultPlan
{
    bool enabled = false;
    std::vector<IoFault> script;

    /** Probabilistic mode: every site rolls; kind drawn per op. */
    double prob = 0.0;
    std::uint64_t seed = 1;

    /** Crash flavor: _exit(crashExitCode) instead of IoCrashError. */
    bool crashExits = false;
    int crashExitCode = ioCrashExitCode;
};

/**
 * Parse a "kind@site[,kind@site...]" spec (the BVL_IO_FAULT format),
 * e.g. "enospc@12,crash@result_cache.store.rename". Throws
 * SimFatalError with a one-line diagnosis on malformed input.
 */
IoFaultPlan ioFaultPlanFromSpec(const std::string &spec);

/** Install @p plan process-wide (replacing any previous plan). */
void ioFaultInstall(IoFaultPlan plan);

/**
 * Clear the installed plan, zero the site counter and fired/trace
 * state, and suppress any BVL_IO_FAULT environment plan for the rest
 * of the process (tests own the injector after the first reset).
 */
void ioFaultReset();

/** Seam calls (injection sites) reached since the last reset. */
std::uint64_t ioSiteCount();

/** Faults actually injected since the last reset. */
std::uint64_t ioFaultsFired();

/** Stale temp files removed by sweepStaleTemps() since last reset. */
std::uint64_t ioTempsCleaned();
void ioNoteTempsCleaned(unsigned n);

/** One site reached, as recorded by the in-memory site trace. */
struct IoSiteRecord
{
    std::uint64_t index = 0;
    std::string label;
    IoOp op = IoOp::open;
    std::string path;
};

/** Start/stop collecting every site reached in memory (harnesses). */
void ioSiteTraceEnable(bool enable);
std::vector<IoSiteRecord> ioSiteTraceSnapshot();

/**
 * Seam-internal: register that injection site @p label (operation
 * @p op, on @p path) was reached, and return the fault to apply, if
 * any. Never returns crash — a matched crash fires here directly
 * (throw or _exit). A crash matched while an exception is already
 * unwinding is skipped in throw mode: destructors run during unwind
 * (trace footers, lock releases) must not convert a clean unwind into
 * std::terminate.
 */
std::optional<IoFaultKind> ioSiteCheck(const char *label, IoOp op,
                                       const std::string &path);

} // namespace io
} // namespace bvl

#endif // BVL_SIM_IO_IO_FAULT_HH
