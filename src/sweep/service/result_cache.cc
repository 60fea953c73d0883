#include "sweep/service/result_cache.hh"

#include "sim/io/io_fault.hh"
#include "sim/logging.hh"
#include "soc/run_io.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{

namespace
{

constexpr const char *kCacheSchema = "bvl-result-cache-v1";

const ContentStore::Kind kCacheKind = {
    "result cache", ".json", "result_cache.lookup.read",
    "result_cache.store", "result_cache.quarantine.rename",
    "result_cache.sweep"};

} // namespace

void
ResultCache::setDir(std::string dir)
{
    _store.reset();
    if (!dir.empty())
        _store.emplace(std::move(dir), kCacheKind, _state);
}

std::string
ResultCache::entryPath(const std::string &hash) const
{
    return _store->entryPath(hash);
}

bool
ResultCache::lookup(const std::string &hash, RunResult *out)
{
    if (!enabled())
        return false;
    std::string path = entryPath(hash);
    std::string text;
    if (!_store->read(path, &text))
        return false;

    // Any structural problem from here on is an integrity failure:
    // quarantine the entry and miss so the job re-simulates.
    try {
        Json doc = Json::parse(text);
        if (doc["schema"].asString() != kCacheSchema ||
            doc["hash"].asString() != hash)
            throw SimFatalError("schema/hash mismatch");
        std::string payload = doc["result"].dump(0);
        if (sha256Hex(payload) != doc["digest"].asString())
            throw SimFatalError("digest mismatch");
        *out = runResultFromJson(doc["result"]);
    } catch (const io::IoCrashError &) {
        throw;
    } catch (const SimError &e) {
        _store->quarantine(path, e.what());
        return false;
    }
    return true;
}

void
ResultCache::store(const std::string &hash, const RunResult &result)
{
    if (!enabled() || storeBroken())
        return;
    Json doc = Json::object();
    doc.set("schema", kCacheSchema);
    doc.set("hash", hash);
    doc.set("revision", kLibraryRevision);
    Json payload = runResultToJson(result);
    doc.set("digest", sha256Hex(payload.dump(0)));
    doc.set("result", std::move(payload));
    std::string text = doc.dump(0);
    text += '\n';

    // Two writers racing on the same hash both publish identical
    // bytes, so either rename winning is correct.
    _store->publish(entryPath(hash), text);
}

} // namespace bvl
