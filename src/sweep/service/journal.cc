#include "sweep/service/journal.hh"

#include <filesystem>
#include <sstream>

#include "sim/logging.hh"
#include "soc/run_io.hh"

namespace bvl
{

namespace
{

constexpr const char *kJournalSchema = "bvl-sweep-journal-v1";

} // namespace

bool
SweepJournal::open(const std::string &path)
{
    bvl_assert(!file.isOpen(), "journal opened twice");
    _path = path;

    auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        io::mkdirs("journal.open.mkdir", parent.string());

    // Load existing entries before opening for append: a line is the
    // unit of durability, so anything unparsable (the torn tail of a
    // killed writer) is skipped, not fatal. An unreadable-but-present
    // file is the same deal — every loss here only costs re-simulation.
    std::string text;
    bool missing = false;
    std::string rerr;
    if (io::readFile("journal.load.read", path, &text, &missing,
                     &rerr)) {
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            try {
                Json row = Json::parse(line);
                const std::string &hash = row["hash"].asString();
                if (row["schema"].asString() != kJournalSchema ||
                    hash.empty() || !row.has("result")) {
                    ++_skipped;
                    continue;
                }
                Entry e;
                e.result = runResultFromJson(row["result"]);
                if (row.has("attempts"))
                    e.attempts = static_cast<unsigned>(
                        row["attempts"].asU64());
                replay[hash] = std::move(e);
            } catch (const io::IoCrashError &) {
                throw;
            } catch (const SimError &) {
                ++_skipped;
            }
        }
        if (_skipped)
            warn("sweep journal %s: skipped %zu corrupt/truncated "
                 "line(s)", path.c_str(), _skipped);
    } else if (!missing) {
        warn("sweep journal %s: unreadable (%s); starting over without "
             "replay entries", path.c_str(), rerr.c_str());
    }

    std::string oerr;
    if (!file.openAppend("journal.open", path, &oerr)) {
        warn("sweep journal: cannot open %s for append; journaling "
             "disabled (%s)", path.c_str(), oerr.c_str());
        return false;
    }
    return true;
}

bool
SweepJournal::lookup(const std::string &hash, RunResult *out,
                     unsigned *attemptsOut) const
{
    std::lock_guard<std::mutex> lock(m);
    auto it = replay.find(hash);
    if (it == replay.end())
        return false;
    *out = it->second.result;
    if (attemptsOut)
        *attemptsOut = it->second.attempts;
    return true;
}

void
SweepJournal::append(const std::string &hash, const SweepJob &job,
                     unsigned attempts, const char *source,
                     const RunResult &result, double wallMs)
{
    Json row = Json::object();
    row.set("schema", kJournalSchema);
    row.set("hash", hash);
    // The job's keys come from its field list (run_io.cc); its
    // options are already folded into the hash.
    Json fields = sweepJobToJson(job);
    for (const auto &[key, value] : fields.members())
        if (key != "options")
            row.set(key, value);
    row.set("attempts", attempts);
    row.set("source", source);
    row.set("wallMs", wallMs);
    row.set("result", runResultToJson(result));
    std::string line = row.dump(0);
    line += '\n';

    std::lock_guard<std::mutex> lock(m);
    // The in-memory entry stays correct whatever the disk does: the
    // rest of this process still dedupes against it.
    replay[hash] = Entry{result, attempts};
    if (!file.isOpen())
        return;

    // One write per line keeps a torn append confined to the tail;
    // fsync before the caller's future resolves makes the entry
    // survive kill -9. If either fails the journal can no longer
    // promise that, so it degrades — loudly, once — rather than
    // aborting a sweep whose results are still perfectly good.
    std::string err;
    if (!file.writeAll("journal.append.write", line.data(),
                       line.size(), &err) ||
        !file.sync("journal.append.fsync", &err)) {
        file.close();
        _degraded = true;
        warn("sweep journal %s: append failed (%s); journaling "
             "DISABLED — this sweep will finish but is NOT resumable "
             "after a crash", _path.c_str(), err.c_str());
    }
}

} // namespace bvl
