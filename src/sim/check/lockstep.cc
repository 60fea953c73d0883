#include "sim/check/lockstep.hh"

#include <algorithm>
#include <cstdio>

namespace bvl
{

namespace
{

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = fnvOffset)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

} // namespace

std::string
RetireRecord::brief() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "#%llu pc=%llu ",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(pc));
    std::string out = buf;
    out += inst ? inst->toString() : "?";
    if (isMem && !isVec) {
        std::snprintf(buf, sizeof(buf), " [addr=0x%llx]",
                      static_cast<unsigned long long>(addr));
        out += buf;
    }
    if (inst && inst->rd != regIdInvalid && !isVReg(inst->rd)) {
        std::snprintf(buf, sizeof(buf), " rd=0x%llx",
                      static_cast<unsigned long long>(rdValue));
        out += buf;
    }
    return out;
}

std::string
DivergenceRecord::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "lockstep divergence on stream '%s' at tick %llu, "
                  "instr #%llu: %s",
                  stream.c_str(), static_cast<unsigned long long>(tick),
                  static_cast<unsigned long long>(seq), instr.c_str());
    std::string out = buf;
    std::snprintf(buf, sizeof(buf),
                  "\n  field %s%s: timed=0x%llx ref=0x%llx",
                  field.c_str(),
                  chime >= 0 ? (" (chime " + std::to_string(chime) + ")")
                                   .c_str()
                             : "",
                  static_cast<unsigned long long>(timedValue),
                  static_cast<unsigned long long>(refValue));
    out += buf;
    if (!lastRetires.empty()) {
        out += "\n  last retires (oldest first):";
        for (const auto &r : lastRetires)
            out += "\n    " + r;
    }
    if (!queueContext.empty()) {
        out += "\n  pipeline context:\n    ";
        for (char c : queueContext) {
            out += c;
            if (c == '\n')
                out += "    ";
        }
    }
    return out;
}

LockstepChecker::LockstepChecker(std::string streamName,
                                 unsigned vlenBits, unsigned chimes,
                                 const BackingStore &snapshot,
                                 unsigned retireContext)
    : streamName(std::move(streamName)),
      chimes(std::max(1u, chimes)),
      retireContext(std::max(1u, retireContext)),
      refArch(vlenBits),
      shadowMem(snapshot)
{
}

void
LockstepChecker::onProgramStart(const Program *p, const ArchState &arch)
{
    prog = p;
    refArch = arch;
    if (!pending.empty()) {
        throw CheckError("lockstep: stream '" + streamName +
                         "' restarted a program with " +
                         std::to_string(pending.size()) +
                         " instructions still in flight");
    }
}

RetireRecord
LockstepChecker::capture(const ArchState &arch, const ExecTrace &tr,
                         const BackingStore &mem,
                         std::uint64_t seq) const
{
    RetireRecord rec;
    rec.inst = tr.inst;
    rec.seq = seq;
    rec.pc = tr.pc;
    rec.nextPc = tr.nextPc;
    rec.op = tr.inst ? tr.inst->op : Op::nop;
    rec.isBranch = tr.isBranch;
    rec.taken = tr.taken;
    rec.isMem = tr.isMem;
    rec.isStore = tr.isStore;
    rec.isVec = tr.isVec;
    rec.addr = tr.addr;
    rec.vl = tr.vl;
    rec.sew = tr.sew;

    RegId rd = tr.inst ? tr.inst->rd : regIdInvalid;
    if (rd != regIdInvalid && !isVReg(rd))
        rec.rdValue = arch.getScalar(rd);

    if (tr.isMem && !tr.isVec) {
        std::uint8_t buf[8] = {};
        mem.read(tr.addr, buf, std::min<unsigned>(tr.size, 8));
        rec.memHash = fnv1a(buf, std::min<unsigned>(tr.size, 8));
    }
    if (!tr.elemAddrs.empty()) {
        unsigned ew = std::min<unsigned>(tr.sew ? tr.sew : 1, 8);
        std::uint64_t mh = fnvOffset;
        std::uint64_t ah = fnvOffset;
        std::uint8_t buf[8] = {};
        for (Addr a : tr.elemAddrs) {
            ah = fnv1a(&a, sizeof(a), ah);
            mem.read(a, buf, ew);
            mh = fnv1a(buf, ew, mh);
        }
        rec.memHash = mh;
        rec.addrHash = ah;
    }

    if (rd != regIdInvalid && isVReg(rd) && tr.isVec) {
        rec.hasVecDest = true;
        unsigned ew = std::min<unsigned>(tr.sew ? tr.sew : 1, 8);
        unsigned vlmax = std::max(1u, arch.vlenb() / ew);
        unsigned epc = std::max(1u, vlmax / chimes);
        unsigned slots =
            std::min((vlmax + epc - 1) / epc, maxChimeSlots);
        const auto &raw = arch.vecRaw(rd);
        for (unsigned g = 0; g < slots; ++g) {
            unsigned lo = g * epc;
            // The last slot folds any tail elements so every element
            // is covered even when vlmax does not divide evenly.
            unsigned hi = (g + 1 == slots) ? vlmax
                                           : std::min(vlmax, lo + epc);
            rec.chimeHash[g] = fnv1a(raw.data() + lo * ew,
                                     (hi - lo) * static_cast<std::size_t>(ew));
        }
        rec.chimes = slots;
    }
    return rec;
}

void
LockstepChecker::onFetchExecuted(const ArchState &arch,
                                 const ExecTrace &tr,
                                 const BackingStore &mem, Tick now)
{
    (void)now;
    std::uint64_t seq = nextSeq++;
    RetireRecord rec = capture(arch, tr, mem, seq);
    if (seq == corruptSeq) {
        rec.rdValue ^= corruptMask;
        rec.chimeHash[0] ^= corruptMask;
    }
    pending.push_back(std::move(rec));
}

void
LockstepChecker::onVecQueued()
{
    bvl_assert(!pending.empty(),
               "onVecQueued with no captured instruction");
    const RetireRecord &rec = pending.back();
    VecShadow sh;
    sh.seq = rec.seq;
    sh.hasDest = rec.hasVecDest;
    sh.chimes = rec.chimes;
    sh.inst = rec.inst;
    sh.timedHash = rec.chimeHash;
    vecFifo.push_back(std::move(sh));
}

void
LockstepChecker::onRetire(Tick now)
{
    if (pending.empty()) {
        throw CheckError("lockstep: stream '" + streamName +
                         "' retired with no instruction in flight");
    }
    RetireRecord timed = std::move(pending.front());
    pending.pop_front();

    stepOne(refArch, *prog, shadowMem, refTrace);
    RetireRecord ref = capture(refArch, refTrace, shadowMem, timed.seq);

    compare(timed, ref, now);
    ++numRetires;

    if (timed.isVec) {
        // Hand the reference chime hashes to the engine-side shadow so
        // per-uop compares (which usually arrive after retire in the
        // decoupled designs) have both sides available.
        auto it = seqToVseq.find(timed.seq);
        VecShadow *sh = nullptr;
        SeqNum vseq = 0;
        if (it != seqToVseq.end()) {
            vseq = it->second;
            auto vit = inflightVec.find(vseq);
            if (vit != inflightVec.end())
                sh = &vit->second;
        } else {
            for (auto &f : vecFifo) {
                if (f.seq == timed.seq) {
                    sh = &f;
                    break;
                }
            }
        }
        if (sh) {
            sh->refHash = ref.chimeHash;
            sh->refReady = true;
            std::uint32_t deferred = sh->deferredMask;
            sh->deferredMask = 0;
            for (unsigned c = 0; deferred; ++c, deferred >>= 1) {
                if (deferred & 1)
                    checkChime(*sh, vseq, c, now);
            }
            if (sh->completed)
                onVecComplete(vseq);
        }
    }

    pushHistory(timed);
}

void
LockstepChecker::onVecDispatch(SeqNum vseq)
{
    if (vecFifo.empty()) {
        throw CheckError("lockstep: stream '" + streamName +
                         "' engine dispatched vseq " +
                         std::to_string(vseq) +
                         " with an empty vector shadow FIFO");
    }
    VecShadow sh = std::move(vecFifo.front());
    vecFifo.pop_front();
    seqToVseq[sh.seq] = vseq;
    inflightVec.emplace(vseq, std::move(sh));
}

void
LockstepChecker::checkChime(VecShadow &sh, SeqNum vseq, unsigned chime,
                            Tick now)
{
    if (!sh.hasDest || sh.chimes == 0)
        return;
    unsigned slot = std::min(chime, sh.chimes - 1);
    if (!sh.refReady) {
        sh.deferredMask |= (1u << slot);
        return;
    }
    ++numUopChecks;
    if (sh.timedHash[slot] == sh.refHash[slot])
        return;

    DivergenceRecord rec;
    rec.stream = streamName;
    rec.seq = sh.seq;
    rec.tick = now;
    rec.instr = sh.inst ? sh.inst->toString() : "?";
    rec.field = "vector chime hash (vseq " + std::to_string(vseq) + ")";
    rec.timedValue = sh.timedHash[slot];
    rec.refValue = sh.refHash[slot];
    rec.chime = static_cast<int>(slot);
    if (contextProvider)
        rec.queueContext = contextProvider();
    rec.lastRetires.assign(history.begin(), history.end());
    // Message built before the record is moved: function-argument
    // evaluation order would otherwise be free to move first.
    std::string msg = rec.toString();
    throw CheckError(std::move(msg), std::move(rec));
}

void
LockstepChecker::onUopRetired(SeqNum vseq, unsigned chime, Tick now)
{
    auto it = inflightVec.find(vseq);
    if (it == inflightVec.end())
        return;
    checkChime(it->second, vseq, chime, now);
}

void
LockstepChecker::onVecComplete(SeqNum vseq)
{
    auto it = inflightVec.find(vseq);
    if (it == inflightVec.end())
        return;
    if (!it->second.refReady) {
        // Engine finished before the instruction retired in program
        // order; keep the shadow until onRetire fills the reference
        // hashes and re-issues this cleanup.
        it->second.completed = true;
        return;
    }
    seqToVseq.erase(it->second.seq);
    inflightVec.erase(it);
}

void
LockstepChecker::onDrain(Tick now)
{
    (void)now;
    if (!pending.empty()) {
        throw CheckError(
            "lockstep: stream '" + streamName + "' drained with " +
            std::to_string(pending.size()) +
            " fetched instructions never retired; oldest: " +
            pending.front().brief());
    }
    if (!vecFifo.empty()) {
        throw CheckError(
            "lockstep: stream '" + streamName + "' drained with " +
            std::to_string(vecFifo.size()) +
            " vector instructions queued but never dispatched");
    }
}

void
LockstepChecker::compare(const RetireRecord &timed,
                         const RetireRecord &ref, Tick now)
{
    auto check = [&](const char *field, std::uint64_t t,
                     std::uint64_t r) {
        if (t != r)
            diverge(timed, ref, now, field, t, r);
    };
    check("pc", timed.pc, ref.pc);
    check("opcode", static_cast<std::uint64_t>(timed.op),
          static_cast<std::uint64_t>(ref.op));
    check("nextPc", timed.nextPc, ref.nextPc);
    check("branch taken", timed.taken, ref.taken);
    check("is-store", timed.isStore, ref.isStore);
    check("memory address", timed.addr, ref.addr);
    check("element address hash", timed.addrHash, ref.addrHash);
    check("memory data hash", timed.memHash, ref.memHash);
    check("vl", timed.vl, ref.vl);
    check("sew", timed.sew, ref.sew);
    check("rd value", timed.rdValue, ref.rdValue);
    check("chime count", timed.chimes, ref.chimes);
    for (unsigned c = 0; c < std::min(timed.chimes, ref.chimes); ++c) {
        if (timed.chimeHash[c] != ref.chimeHash[c]) {
            diverge(timed, ref, now, "vector chime hash",
                    timed.chimeHash[c], ref.chimeHash[c],
                    static_cast<int>(c));
        }
    }
}

void
LockstepChecker::diverge(const RetireRecord &timed,
                         const RetireRecord &ref, Tick now,
                         const std::string &field,
                         std::uint64_t timedValue,
                         std::uint64_t refValue, int chime)
{
    (void)ref;
    DivergenceRecord rec;
    rec.stream = streamName;
    rec.seq = timed.seq;
    rec.tick = now;
    rec.instr = timed.inst ? timed.inst->toString() : "?";
    rec.field = field;
    rec.timedValue = timedValue;
    rec.refValue = refValue;
    rec.chime = chime;
    if (contextProvider)
        rec.queueContext = contextProvider();
    rec.lastRetires.assign(history.begin(), history.end());
    // Message built before the record is moved: function-argument
    // evaluation order would otherwise be free to move first.
    std::string msg = rec.toString();
    throw CheckError(std::move(msg), std::move(rec));
}

void
LockstepChecker::pushHistory(const RetireRecord &rec)
{
    history.push_back(rec.brief());
    while (history.size() > retireContext)
        history.pop_front();
}

} // namespace bvl
