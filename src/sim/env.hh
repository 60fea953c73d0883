/**
 * @file
 * Strict environment-variable parsing.
 *
 * Every BVL_* knob goes through these helpers so a malformed value is
 * a one-line fatal error instead of a silent fallback: a typo like
 * BVL_JOBS=4x or BVL_SWEEP_ISOLATE=yes must never quietly run with a
 * default the user did not ask for.
 */

#ifndef BVL_SIM_ENV_HH
#define BVL_SIM_ENV_HH

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/logging.hh"

namespace bvl
{

/**
 * Parse env var @p name as a decimal integer in [minValue, maxValue].
 * Unset returns @p fallback; anything else — trailing characters,
 * overflow, an empty string, an out-of-range value — is rejected with
 * an actionable fatal().
 */
inline long long
envInt(const char *name, long long fallback, long long minValue,
       long long maxValue)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(env, &end, 10);
    // strtoll skips leading whitespace; strict parsing must not.
    if (std::isspace(static_cast<unsigned char>(env[0])) || end == env ||
        *end != '\0' || errno == ERANGE || v < minValue || v > maxValue)
        fatal("%s must be an integer in [%lld, %lld], got '%s'", name,
              minValue, maxValue, env);
    return v;
}

/** Boolean env flag accepting exactly "0" or "1"; unset → fallback. */
inline bool
envBool01(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    if (!std::strcmp(env, "0"))
        return false;
    if (!std::strcmp(env, "1"))
        return true;
    fatal("%s must be 0 or 1, got '%s'", name, env);
}

/**
 * Enumerated env choice: returns the index of the variable's value in
 * @p choices (a braced list or an EnumNames table), @p fallback when
 * unset, and fatal()s (listing the legal values) on anything else.
 */
template <std::size_t N>
int
envChoice(const char *name, const char *const (&choices)[N],
          int fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    int i = 0;
    std::string legal;
    for (const char *c : choices) {
        if (!std::strcmp(env, c))
            return i;
        if (!legal.empty())
            legal += '|';
        legal += c;
        ++i;
    }
    fatal("%s must be one of %s, got '%s'", name, legal.c_str(), env);
}

} // namespace bvl

#endif // BVL_SIM_ENV_HH
