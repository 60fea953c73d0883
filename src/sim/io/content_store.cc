#include "sim/io/content_store.hh"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "sim/env.hh"
#include "sim/io/sim_io.hh"
#include "sim/logging.hh"

namespace bvl
{

void
ContentStore::State::reset()
{
    hits = 0;
    published = 0;
    quarantined = 0;
    evicted = 0;
    publishDisabled = false;
    std::lock_guard<std::mutex> lock(sweptMu);
    sweptDirs.clear();
}

ContentStore::ContentStore(std::string dir, const Kind &kind,
                           State &state)
    : _dir(std::move(dir)), _kind(kind), _state(state)
{
    if (_dir.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(_state.sweptMu);
        if (!_state.sweptDirs.insert(_dir).second)
            return;
    }
    // Nothing of ours can be mid-publish into a directory this State
    // has not used yet, so our own pid's temps are orphans too.
    io::sweepStaleTemps(_kind.sweepSite, _dir, /*selfStale=*/true);
}

std::string
ContentStore::entryPath(const std::string &hash) const
{
    return _dir + "/" + hash.substr(0, 2) + "/" + hash + _kind.ext;
}

bool
ContentStore::read(const std::string &path, std::string *bytes,
                   std::string *why) const
{
    bool missing = false;
    std::string err;
    if (io::readFile(_kind.readSite, path, bytes, &missing, &err))
        return true;
    if (!missing)
        warn("%s: cannot read %s (%s); treated as a miss, entry kept",
             _kind.name, path.c_str(), err.c_str());
    if (why)
        *why = err;
    return false;
}

bool
ContentStore::publish(const std::string &path, const std::string &bytes,
                      std::string *why)
{
    if (_state.publishDisabled)
        return false;
    std::string parent = std::filesystem::path(path).parent_path();
    std::string err;
    if ((parent.empty() ||
         io::mkdirs((std::string(_kind.publishSite) + ".mkdir").c_str(),
                    parent, &err)) &&
        io::writeFileAtomic(_kind.publishSite, path, bytes, &err)) {
        ++_state.published;
        return true;
    }
    if (!_state.publishDisabled.exchange(true))
        warn("%s: cannot publish %s (%s); publishing DISABLED from here "
             "on", _kind.name, path.c_str(), err.c_str());
    if (why)
        *why = err;
    return false;
}

void
ContentStore::quarantine(const std::string &path, const std::string &why)
{
    ++_state.quarantined;
    warn("%s: %s is corrupt (%s); quarantined as %s.corrupt", _kind.name,
         path.c_str(), why.c_str(), path.c_str());
    std::string err;
    if (!io::renameFile(_kind.quarantineSite, path, path + ".corrupt",
                        &err))
        warn("%s: cannot quarantine %s: %s", _kind.name, path.c_str(),
             err.c_str());
}

ContentStore::Claim::Claim(const std::string &entryPath,
                           long long timeoutMs)
{
    auto parent = std::filesystem::path(entryPath).parent_path();
    if (!parent.empty())
        io::mkdirs("ckpt_farm.claim.mkdir", parent.string());
    std::string lock = entryPath + ".lock";
    // Each Claim opens its own file description, so LOCK_EX contends
    // between threads of one process as well as between processes.
    // The wait is bounded (BVL_CKPT_LOCK_TIMEOUT_MS): the kernel
    // drops the flock when a holder *dies*, so a timeout means a
    // live-but-wedged holder — waiting forever behind it would wedge
    // this cell too, when producing privately is always available.
    if (timeoutMs < 0)
        timeoutMs = envInt("BVL_CKPT_LOCK_TIMEOUT_MS", 60000, 1,
                           24ll * 3600 * 1000);
    std::string diag;
    fd = io::lockExclusive("ckpt_farm.lock", lock, timeoutMs, &diag);
    if (fd < 0) {
        warn("checkpoint farm: %s; producing without single-flight",
             diag.c_str());
    } else {
        // Anything "<entry>.tmp.*" under a held claim is an orphan of
        // a dead or failed producer — the claim serializes writers.
        // If this throws (injected crash) the destructor will never
        // run, so the flock must be released here or a later claimant
        // in this process would wait out the whole deadline on it.
        try {
            io::sweepTempsFor("ckpt_farm.claim.sweep", entryPath);
        } catch (...) {
            io::unlockAndClose(fd);
            fd = -1;
            throw;
        }
    }
}

ContentStore::Claim::~Claim()
{
    io::unlockAndClose(fd);
}

void
ContentStore::touch(const std::string &entryPath)
{
    std::error_code ec;
    std::filesystem::last_write_time(
        entryPath, std::filesystem::file_time_type::clock::now(), ec);
}

unsigned
ContentStore::evictOverBudget(std::uint64_t budgetBytes,
                              const std::string &keepPath) const
{
    if (budgetBytes == 0)
        return 0;

    namespace fs = std::filesystem;
    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t bytes;
    };
    std::error_code ec;
    fs::path keep = fs::weakly_canonical(keepPath, ec);

    std::vector<Entry> entries;
    std::uint64_t total = 0;
    for (auto it = fs::recursive_directory_iterator(
             _dir, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file(ec) ||
            it->path().extension() != _kind.ext)
            continue;
        entries.push_back(
            {it->path(), it->last_write_time(ec), it->file_size(ec)});
        total += entries.back().bytes;
    }
    if (total <= budgetBytes)
        return 0;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });

    unsigned removed = 0;
    for (const Entry &e : entries) {
        if (total <= budgetBytes)
            break;
        if (fs::weakly_canonical(e.path, ec) == keep)
            continue;
        if (!io::unlinkFile("ckpt_farm.evict.unlink", e.path.string()))
            break;
        total -= e.bytes;
        ++removed;
    }
    _state.evicted += removed;
    return removed;
}

} // namespace bvl
