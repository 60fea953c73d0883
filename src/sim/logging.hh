/**
 * @file
 * Error and status reporting, following the gem5 panic/fatal convention.
 *
 * panic() is for internal simulator bugs ("should never happen");
 * fatal() is for user errors (bad configuration, impossible
 * parameters). Both print their message and then throw a SimError
 * subclass so that sweep drivers can catch the failure, record it as a
 * structured per-run outcome and keep going. The pre-exception abort
 * behavior (useful for debugging with core dumps, and for death tests)
 * is restored with BVL_ABORT_ON_ERROR=1 in the environment.
 * warn()/inform() report conditions without stopping the simulation.
 *
 * Everything here is safe to use from concurrent simulation contexts:
 * the verbose flag is an atomic, the abort flag is read once from the
 * environment at start-up, and a LogCapture installed on a thread
 * redirects that thread's diagnostics into a private buffer so
 * parallel runs never interleave on stderr (DESIGN.md §10).
 */

#ifndef BVL_SIM_LOGGING_HH
#define BVL_SIM_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace bvl
{

/** Base class of every error thrown by the simulator. */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by panic(): a simulator-internal invariant was violated. */
class SimPanicError : public SimError
{
  public:
    using SimError::SimError;
};

/** Thrown by fatal(): unusable user input or configuration. */
class SimFatalError : public SimError
{
  public:
    using SimError::SimError;
};

/** Print a formatted message and throw SimPanicError (or abort). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message and throw SimFatalError (or exit). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a formatted status message to stderr and continue. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

/**
 * True when BVL_ABORT_ON_ERROR=1 opted out of recoverable errors:
 * panic() aborts and fatal() exits instead of throwing.
 */
bool abortOnError();

/**
 * RAII redirection of this thread's diagnostics into a buffer.
 *
 * While a LogCapture is alive on a thread, every warn()/inform() line
 * emitted from that thread — and the message printed by panic()/
 * fatal() before they throw — is appended to the capture instead of
 * stderr. Captures nest: the innermost one on the thread receives the
 * text. runWorkload() installs one per run so each RunResult owns its
 * diagnostics and concurrent sweeps never interleave output.
 */
class LogCapture
{
  public:
    LogCapture();
    ~LogCapture();
    LogCapture(const LogCapture &) = delete;
    LogCapture &operator=(const LogCapture &) = delete;

    /** Captured text so far (one "prefix: message\n" per line). */
    const std::string &text() const { return buf; }

    /** Return the captured text, leaving the capture empty. */
    std::string take() { return std::move(buf); }

    /** Internal: append one diagnostic line (used by the reporters). */
    void append(const char *prefix, const std::string &msg);

  private:
    std::string buf;
    LogCapture *prev;   ///< next-outer capture on this thread
};

/** panic() unless the given condition holds. */
// The condition text is passed as a %s argument, not pasted into the
// format string: a '%' inside the condition (e.g. "x % 64 == 0")
// would otherwise be misparsed as a conversion specifier.
#define bvl_assert(cond, fmt, ...)                                       \
    do {                                                                 \
        if (!(cond))                                                     \
            ::bvl::panic("assertion '%s' failed: " fmt, #cond,           \
                         ##__VA_ARGS__);                                 \
    } while (0)

} // namespace bvl

#endif // BVL_SIM_LOGGING_HH
