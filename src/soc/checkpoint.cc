#include "soc/checkpoint.hh"

#include <cstring>
#include <string_view>

#include "sim/check/json.hh"
#include "sim/logging.hh"
#include "sweep/service/digest.hh"

namespace bvl
{

namespace
{

constexpr const char *kSchema = "bvl-checkpoint-v2";
constexpr unsigned kVersion = 2;

// --- little-endian payload writer/reader --------------------------------

void put8(std::string &out, std::uint8_t v) { out.push_back(char(v)); }

void
put32(std::string &out, std::uint32_t v)
{
    out.append(reinterpret_cast<const char *>(&v), 4);
}

void
put64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), 8);
}

/** Bounds-checked sequential reader over the payload bytes. */
struct Reader
{
    const char *p;
    const char *end;
    bool ok = true;

    /** The next @p n bytes, in place; empty (and !ok) past the end. */
    std::string_view
    view(std::size_t n)
    {
        if (!ok || std::size_t(end - p) < n) {
            ok = false;
            return {};
        }
        std::string_view v(p, n);
        p += n;
        return v;
    }

    template <typename T>
    T
    get()
    {
        T v = 0;
        if (std::string_view b = view(sizeof(T)); ok)
            std::memcpy(&v, b.data(), sizeof(T));
        return v;
    }
    std::uint8_t get8() { return get<std::uint8_t>(); }
    std::uint32_t get32() { return get<std::uint32_t>(); }
    std::uint64_t get64() { return get<std::uint64_t>(); }
};

/** One memory-image record: page number, then the page's bytes. */
constexpr std::size_t kPageRecordBytes = 8 + BackingStore::pageBytes;

/**
 * Fully parsed payload, held aside until verification passes. The
 * byte images are views into the checkpoint bytes, which outlive it.
 */
struct Parsed
{
    std::string_view arch;

    bool hasBpred = false;
    std::uint32_t bpredBits = 0;
    std::string_view bpredTable;
    std::uint32_t bpredHistory = 0;

    /** Records of (page number, page bytes), kPageRecordBytes each. */
    std::string_view pages;

    /** Tier-B recipe, fully decoded before anything is applied. */
    std::vector<WarmRecord> warm;
};

bool
parsePayload(std::string_view payload, Parsed &out)
{
    Reader r{payload.data(), payload.data() + payload.size()};

    if (r.get64() != ArchState::dumpedBytes)
        return false;
    out.arch = r.view(ArchState::dumpedBytes);

    out.hasBpred = r.get8() != 0;
    if (out.hasBpred) {
        out.bpredBits = r.get32();
        std::uint32_t tableSize = r.get32();
        if (tableSize > (1u << 24))
            return false;
        out.bpredTable = r.view(tableSize);
        out.bpredHistory = r.get32();
    }

    std::uint64_t pageCount = r.get64();
    if (!r.ok || pageCount > std::uint64_t(r.end - r.p) / kPageRecordBytes)
        return false;
    out.pages = r.view(pageCount * kPageRecordBytes);

    std::uint64_t warmRecords = r.get64();
    std::uint64_t warmBytes = r.get64();
    // Each record is at least 2 bytes (tag + one varint byte), so the
    // count is bounded by the remaining payload.
    if (!r.ok || warmBytes > std::uint64_t(r.end - r.p) ||
        warmRecords > warmBytes / 2 + 1) {
        return false;
    }
    if (!decodeWarmTrace(r.view(warmBytes), warmRecords, out.warm))
        return false;

    return r.ok && r.p == r.end;
}

} // namespace

const char *
checkpointStatusName(CheckpointStatus s)
{
    switch (s) {
      case CheckpointStatus::ok: return "ok";
      case CheckpointStatus::missing: return "missing";
      case CheckpointStatus::corrupt: return "corrupt";
      case CheckpointStatus::mismatch: return "mismatch";
    }
    return "?";
}

const char *
checkpointFlavor(const Soc &soc)
{
    RunShape shape = soc.shape(true);
    if (!shape.useBig)
        return "little-scalar";
    return shape.vector ? "big-vector" : "big-scalar";
}

std::string
checkpointInputSha256(const Soc &soc, Workload &workload)
{
    Sha256 d;
    auto pages = soc.backing.sortedPages();
    for (const auto &[num, bytes] : pages) {
        std::uint64_t n = num;
        d.update(&n, sizeof(n));
        d.update(bytes->data(), bytes->size());
    }
    for (const auto &[reg, value] : workload.fullRangeArgs()) {
        std::uint32_t r = static_cast<std::uint32_t>(reg);
        std::uint64_t v = value;
        d.update(&r, sizeof(r));
        d.update(&v, sizeof(v));
    }
    return d.hex();
}

const ContentStore::Kind kCheckpointKind = {
    "checkpoint", ".bvl", "checkpoint.load.read", "checkpoint.save",
    "checkpoint.quarantine.rename", "ckpt_farm.sweep"};

std::string
encodeCheckpoint(Soc &soc, const std::string &workloadName,
                 std::uint64_t ffInsts, const WarmTrace &trace,
                 const std::string &inputSha)
{
    ProgramCore &core = *soc.streamCore();
    GsharePredictor *bp = core.predictor();
    auto pages = soc.backing.sortedPages();

    // The payload is sized up front, so the header line that names
    // its size and digest and the payload itself share one buffer:
    // a publish holds the memory image once beside the SoC's pages.
    const std::size_t payloadBytes =
        8 + ArchState::dumpedBytes + 1 +
        (bp ? 4 + 4 + bp->rawTable().size() + 4 : 0) + 8 +
        pages.size() * (8 + BackingStore::pageBytes) + 8 + 8 +
        trace.bytes().size();
    Json header = Json::object();
    header.set("schema", kSchema);
    header.set("version", kVersion);
    header.set("flavor", checkpointFlavor(soc));
    header.set("vlen", std::uint64_t(soc.vlenBits()));
    header.set("workload", workloadName);
    header.set("ffInsts", ffInsts);
    header.set("inputSha256", inputSha);
    header.set("payloadBytes", std::uint64_t(payloadBytes));
    // A placeholder of the digest's length holds its place.
    header.set("payloadSha256", std::string(64, '0'));
    std::string text = header.dump(0);
    text += '\n';
    const std::size_t headerBytes = text.size();
    text.reserve(headerBytes + payloadBytes);

    // 1. Architectural state of the executing core.
    put64(text, ArchState::dumpedBytes);
    core.archState().dumpState(text);

    // 2. Branch predictor (big-core flavors only).
    put8(text, bp ? 1 : 0);
    if (bp) {
        put32(text, bp->tableIndexBits());
        put32(text, std::uint32_t(bp->rawTable().size()));
        text.append(
            reinterpret_cast<const char *>(bp->rawTable().data()),
            bp->rawTable().size());
        put32(text, bp->rawHistory());
    }

    // 3. Memory image, sorted by page number for determinism.
    put64(text, pages.size());
    for (const auto &[num, bytes] : pages) {
        put64(text, num);
        text.append(reinterpret_cast<const char *>(bytes->data()),
                    bytes->size());
    }

    // 4. Tier-B warm stream (replayed, not imaged, at load time).
    put64(text, trace.records());
    put64(text, trace.bytes().size());
    text += trace.bytes();

    bvl_assert(text.size() == headerBytes + payloadBytes,
               "checkpoint payload is %zu bytes, sized as %zu",
               text.size() - headerBytes, payloadBytes);
    header.set("payloadSha256",
               sha256Hex(std::string_view(text).substr(headerBytes)));
    // As long as the placeholder line, so it is overwritten in place.
    text.replace(0, headerBytes - 1, header.dump(0));
    return text;
}

CheckpointStatus
applyCheckpoint(std::string_view data, Soc &soc,
                const std::string &workloadName,
                const std::string &inputSha, std::string *error)
{
    auto fail = [&](CheckpointStatus st, const std::string &why) {
        if (error)
            *error = why;
        return st;
    };

    auto nl = data.find('\n');
    if (nl == std::string_view::npos)
        return fail(CheckpointStatus::corrupt, "missing header line");

    Json header;
    try {
        header = Json::parse(std::string(data.substr(0, nl)));
    } catch (const SimError &e) {
        return fail(CheckpointStatus::corrupt,
                    std::string("bad header: ") + e.what());
    }
    if (header["schema"].asString() != kSchema ||
        header["version"].asU64() != kVersion) {
        return fail(CheckpointStatus::corrupt,
                    "unknown schema/version");
    }
    if (header["workload"].asString() != workloadName ||
        header["flavor"].asString() != checkpointFlavor(soc) ||
        header["vlen"].asU64() != soc.vlenBits()) {
        return fail(CheckpointStatus::mismatch,
                    "checkpoint is for " +
                        header["workload"].asString() + "/" +
                        header["flavor"].asString() + "/vlen" +
                        std::to_string(header["vlen"].asU64()) +
                        ", not " + workloadName + "/" +
                        checkpointFlavor(soc) + "/vlen" +
                        std::to_string(soc.vlenBits()));
    }
    if (header["inputSha256"].asString() != inputSha)
        return fail(CheckpointStatus::mismatch,
                    "initial memory/argument digest differs (other "
                    "scale or dataset?)");

    std::string_view payload = data.substr(nl + 1);
    if (payload.size() != header["payloadBytes"].asU64())
        return fail(CheckpointStatus::corrupt, "truncated payload");
    if (sha256Hex(payload) != header["payloadSha256"].asString())
        return fail(CheckpointStatus::corrupt, "payload digest mismatch");

    Parsed img;
    if (!parsePayload(payload, img))
        return fail(CheckpointStatus::corrupt, "malformed payload");

    // Predictor-geometry verification before anything is applied.
    ProgramCore &core = *soc.streamCore();
    GsharePredictor *bp = core.predictor();
    if (img.hasBpred != (bp != nullptr) ||
        (bp && (img.bpredBits != bp->tableIndexBits() ||
                img.bpredTable.size() != bp->rawTable().size()))) {
        return fail(CheckpointStatus::mismatch,
                    "branch-predictor geometry differs");
    }

    // --- apply (cannot fail from here on) ---------------------------

    bool archOk = core.archState().loadState(img.arch.data(),
                                             img.arch.size());
    bvl_assert(archOk, "arch image size verified but load failed");
    if (bp) {
        const auto *table =
            reinterpret_cast<const std::uint8_t *>(img.bpredTable.data());
        bp->restore({table, img.bpredTable.size()}, img.bpredHistory);
    }

    soc.backing.clear();
    for (const char *rec = img.pages.data();
         rec != img.pages.data() + img.pages.size();
         rec += kPageRecordBytes) {
        Addr pageNum;
        std::memcpy(&pageNum, rec, sizeof(pageNum));
        soc.backing.write(pageNum << BackingStore::pageShift,
                          rec + sizeof(pageNum),
                          BackingStore::pageBytes);
    }

    // Tier B: replay the recorded warm calls through *this* SoC's
    // hierarchy. Warm accesses at tick 0 are deterministic functions
    // of the access sequence alone, so this leaves exactly the state
    // a live fast-forward would have — whatever the cache geometry.
    unsigned coreId = core.coreId();
    for (const WarmRecord &w : img.warm) {
        Addr addr = w.lineNum << lineShift;
        switch (w.kind) {
          case WarmRecord::fetch:
            soc.mem.warmFetch(coreId, addr);
            break;
          case WarmRecord::data:
            soc.mem.warmData(coreId, addr, w.isStore);
            break;
          case WarmRecord::l2:
            soc.mem.warmL2(addr, w.isStore);
            break;
        }
    }

    return CheckpointStatus::ok;
}

} // namespace bvl
