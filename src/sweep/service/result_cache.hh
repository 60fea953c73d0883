/**
 * @file
 * Content-addressed result cache with integrity verification.
 *
 * One ContentStore entry (sim/io/content_store.hh) per job hash under
 * <dir>/<hh>/<hash>.json, holding:
 *
 *   {"schema":"bvl-result-cache-v1","hash":"...","revision":"...",
 *    "digest":"<sha256 of the compact result serialization>",
 *    "result":{...}}
 *
 * Only ok results are cached — failures stay a per-sweep journal
 * concern so a transient failure never poisons future sweeps.
 *
 * lookup() re-serializes the embedded result and compares its SHA-256
 * against the stored digest, so a truncated, bit-flipped or
 * hand-edited entry is detected; the bad file is quarantined and the
 * lookup misses, which makes the service transparently re-simulate
 * and re-store. Layout, atomic publish, the sticky store disable, the
 * read-failure policy and the stale-temp sweep are the store's
 * (DESIGN.md §17); each cache carries its own store State, so those
 * counters and the disable are per sweep service.
 */

#ifndef BVL_SWEEP_SERVICE_RESULT_CACHE_HH
#define BVL_SWEEP_SERVICE_RESULT_CACHE_HH

#include <optional>
#include <string>

#include "sim/io/content_store.hh"
#include "soc/run_driver.hh"

namespace bvl
{

class ResultCache
{
  public:
    ResultCache() = default;

    /**
     * Enable the cache rooted at @p dir (created on first store).
     * Sweeps stale temp files orphaned under @p dir by dead writers.
     */
    void setDir(std::string dir);

    bool enabled() const { return _store.has_value(); }

    /**
     * Entry file path for @p hash (valid whether or not it exists);
     * requires enabled().
     */
    std::string entryPath(const std::string &hash) const;

    /**
     * Load and verify the entry for @p hash. Returns false on miss,
     * or — after quarantining the file — on any integrity failure.
     */
    bool lookup(const std::string &hash, RunResult *out);

    /** Atomically persist an ok @p result under @p hash. */
    void store(const std::string &hash, const RunResult &result);

    /** Integrity failures detected by lookup() so far. */
    std::uint64_t corruptEntries() const { return _state.quarantined; }

    /** True once a failed store disabled further stores. */
    bool storeBroken() const { return _state.publishDisabled; }

  private:
    ContentStore::State _state;
    std::optional<ContentStore> _store;
};

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_RESULT_CACHE_HH
