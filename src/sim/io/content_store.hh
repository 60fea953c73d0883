/**
 * @file
 * Content-addressed file store over the I/O seam: the one
 * implementation of the mechanics the result cache (DESIGN.md §14)
 * and the checkpoint-prefix farm (§16) share, and of the degradation
 * policy §17 gives them.
 *
 *  - Layout: one file per content hash at <dir>/<hash[0:2]>/<hash><ext>.
 *  - read(): a missing entry and a present-but-unreadable one both
 *    miss. Unreadable is a transient I/O problem, not proof of
 *    corruption, so the entry is kept (one warning) for a later run.
 *  - publish(): mkdir + atomic write (temp + fsync + rename), so a
 *    reader never observes a partial entry under its final name. One
 *    failed publish very likely means they all fail (disk full,
 *    directory unwritable), so the first failure disables publishing
 *    for the store's State with one warning. Reads stay live.
 *  - quarantine(): the caller found an entry corrupt; it is counted
 *    and renamed to "<entry>.corrupt" so no later read trusts it.
 *  - The first store over a directory in a State sweeps the
 *    "*.tmp.*" orphans that writers who died mid-publish left there.
 *
 * The checkpoint farm additionally uses Claim (single-flight
 * production), touch() and evictOverBudget() (LRU byte budget).
 */

#ifndef BVL_SIM_IO_CONTENT_STORE_HH
#define BVL_SIM_IO_CONTENT_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

namespace bvl
{

class ContentStore
{
  public:
    /** What one store holds and the seam sites its calls name. */
    struct Kind
    {
        const char *name;            ///< warning prefix
        const char *ext;             ///< entry extension, with the dot
        const char *readSite;
        const char *publishSite;     ///< mkdir at "<publishSite>.mkdir"
        const char *quarantineSite;
        const char *sweepSite;
    };

    /**
     * Bookkeeping shared by every store object in one scope: the
     * result cache keeps one per sweep service, the checkpoint farm
     * one per process.
     */
    struct State
    {
        std::atomic<std::uint64_t> hits{0};        ///< counted by callers
        std::atomic<std::uint64_t> published{0};
        std::atomic<std::uint64_t> quarantined{0};
        std::atomic<std::uint64_t> evicted{0};
        std::atomic<bool> publishDisabled{false};  ///< sticky

        /** Zero the counters, re-enable publishing, forget sweeps. */
        void reset();

      private:
        friend class ContentStore;
        std::mutex sweptMu;
        std::set<std::string> sweptDirs;  ///< guarded by sweptMu
    };

    /**
     * A store rooted at @p dir, which may be "" when the caller only
     * passes explicit paths. Sweeps @p dir on its first use in @p state.
     */
    ContentStore(std::string dir, const Kind &kind, State &state);

    /** "<dir>/<hash[0:2]>/<hash><ext>", whether or not it exists. */
    std::string entryPath(const std::string &hash) const;

    /** False (reason in @p why) when @p path is missing or unreadable. */
    bool read(const std::string &path, std::string *bytes,
              std::string *why = nullptr) const;

    /** Atomic; false when disabled or failed (reason in @p why). */
    bool publish(const std::string &path, const std::string &bytes,
                 std::string *why = nullptr);

    bool publishDisabled() const { return _state.publishDisabled; }

    /** Count and rename a corrupt entry to "<path>.corrupt". */
    void quarantine(const std::string &path, const std::string &why);

    /**
     * RAII exclusive flock on "<entry>.lock", waited for at most
     * @p timeoutMs (-1 = BVL_CKPT_LOCK_TIMEOUT_MS, default 60000) and
     * released by destruction or process death. held() is false after
     * a timeout or when the lock file cannot be created (one warning
     * names the holder pid); the caller then produces without
     * single-flight. A held claim removes the entry's orphaned temps.
     */
    class Claim
    {
      public:
        explicit Claim(const std::string &entryPath,
                       long long timeoutMs = -1);
        ~Claim();
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;

        bool held() const { return fd >= 0; }

      private:
        int fd = -1;
    };

    /** Mark @p entryPath recently used (best effort, for LRU). */
    static void touch(const std::string &entryPath);

    /**
     * Delete oldest-mtime entries until the store fits @p budgetBytes
     * (0 = unlimited). @p keepPath, the entry just produced, is never
     * evicted. Stops at the first failed unlink rather than evict
     * younger entries out of LRU order. Returns the number removed.
     */
    unsigned evictOverBudget(std::uint64_t budgetBytes,
                             const std::string &keepPath) const;

  private:
    std::string _dir;
    const Kind &_kind;
    State &_state;
};

} // namespace bvl

#endif // BVL_SIM_IO_CONTENT_STORE_HH
