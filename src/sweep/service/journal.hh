/**
 * @file
 * Write-ahead results journal for crash-safe sweeps.
 *
 * Append-only JSONL file, one completed job per line:
 *
 *   {"schema":"bvl-sweep-journal-v1","hash":"...","design":"...",
 *    "workload":"...","scale":"...","attempts":N,"source":"sim|cache",
 *    "wallMs":N.N,"result":{...}}
 *
 * "wallMs" is the host wall-clock time the recorded attempt(s) took
 * (0.0 for cache/journal replays); parsers must tolerate its absence
 * — rows written before it existed simply lack the field.
 *
 * Every append is written with a single write(2) and fsync'd before
 * the job's future resolves, so after a kill -9 at any point the
 * journal holds every job whose result was ever observable. On open,
 * existing entries are loaded for replay; a truncated final line (the
 * crash case) or an otherwise corrupt line is skipped with a warning
 * — the affected job simply re-simulates.
 *
 * Thread-safe: appends from concurrent sweep workers are serialized
 * on an internal mutex.
 *
 * Degradation policy (DESIGN.md §17): a failed append write or fsync
 * closes the file and marks the journal degraded — the sweep keeps
 * running and stays correct (in-memory replay still dedupes within
 * this process) but is no longer resumable, announced with one loud
 * warning. All filesystem access goes through the sim/io seam, so
 * every failure mode here is reachable deterministically.
 */

#ifndef BVL_SWEEP_SERVICE_JOURNAL_HH
#define BVL_SWEEP_SERVICE_JOURNAL_HH

#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/io/sim_io.hh"
#include "soc/run_driver.hh"

namespace bvl
{

class SweepJournal
{
  public:
    SweepJournal() = default;

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open (creating parent directories and the file as needed) and
     * load existing entries. Returns false — with a warn() — when the
     * file cannot be opened for appending; the journal then behaves
     * as disabled and lookups/appends are no-ops.
     */
    bool open(const std::string &path);

    bool isOpen() const { return file.isOpen(); }
    const std::string &path() const { return _path; }

    /**
     * True once an append failed durably: the journal file is closed,
     * this sweep is no longer resumable, and further appends only
     * update the in-memory replay map.
     */
    bool degraded() const { return _degraded; }

    /** Entries loaded from disk at open() time (resume candidates). */
    std::size_t loadedEntries() const { return replay.size(); }
    /** Corrupt/truncated lines skipped during open(). */
    std::size_t skippedLines() const { return _skipped; }

    /**
     * Fetch the journaled result for @p hash, if any. When
     * @p attemptsOut is non-null it receives the attempt counter the
     * entry was recorded with, so a resumed sweep can account a
     * partially-retried job against its remaining retry budget
     * instead of trusting the last intact record unconditionally.
     */
    bool lookup(const std::string &hash, RunResult *out,
                unsigned *attemptsOut = nullptr) const;

    /**
     * Durably record one completed job. @p source is "sim" for a
     * fresh simulation or "cache" for a verified cache hit; @p wallMs
     * is the host time the attempt(s) took (0.0 for replays). The
     * entry also becomes visible to subsequent lookup()s.
     */
    void append(const std::string &hash, const SweepJob &job,
                unsigned attempts, const char *source,
                const RunResult &result, double wallMs = 0.0);

  private:
    struct Entry
    {
        RunResult result;
        unsigned attempts = 0;
    };

    io::SimFile file;
    std::string _path;
    bool _degraded = false;
    std::size_t _skipped = 0;
    mutable std::mutex m;
    std::unordered_map<std::string, Entry> replay;
};

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_JOURNAL_HH
