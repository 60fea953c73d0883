#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bvl
{

namespace
{

std::atomic<bool> verboseEnabled{true};

/** Read once at start-up; nothing changes it afterwards. */
const bool abortOnErrorEnabled = [] {
    const char *env = std::getenv("BVL_ABORT_ON_ERROR");
    return env && *env && std::strcmp(env, "0") != 0;
}();

/** Innermost capture installed on this thread (nullptr = stderr). */
thread_local LogCapture *activeCapture = nullptr;

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (len < 0)
        return fmt;
    std::string out(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

void
report(const char *prefix, const std::string &msg)
{
    if (activeCapture) {
        activeCapture->append(prefix, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace

LogCapture::LogCapture() : prev(activeCapture)
{
    activeCapture = this;
}

LogCapture::~LogCapture()
{
    activeCapture = prev;
}

void
LogCapture::append(const char *prefix, const std::string &msg)
{
    buf += prefix;
    buf += ": ";
    buf += msg;
    buf += '\n';
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    report("panic", msg);
    if (abortOnErrorEnabled)
        std::abort();
    throw SimPanicError(msg);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    report("fatal", msg);
    if (abortOnErrorEnabled)
        std::exit(1);
    throw SimFatalError(msg);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    report("warn", vformat(fmt, args));
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (!verboseEnabled.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    report("info", vformat(fmt, args));
    va_end(args);
}

void
notice(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    report("info", vformat(fmt, args));
    va_end(args);
}

void
setVerbose(bool verbose)
{
    verboseEnabled.store(verbose, std::memory_order_relaxed);
}

bool
abortOnError()
{
    return abortOnErrorEnabled;
}

} // namespace bvl
