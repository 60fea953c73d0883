/**
 * @file
 * Online lockstep checker.
 *
 * When armed, the checker runs a private functional model — a
 * reference ArchState plus a *shadow* BackingStore snapshotted at arm
 * time — in parallel with the timed execution of one instruction
 * stream, and compares every retired instruction against it:
 * destination value, memory address and data, PC and branch outcome,
 * and per-chime hashes of vector destination registers so a wrong
 * vector micro-op is caught at the chime that produced it. The first
 * mismatch raises CheckError carrying a DivergenceRecord with the
 * pipeline context captured at that tick, instead of letting the run
 * finish and fail a final-state diff.
 *
 * The comparison is exact only for single-program-stream runs (one
 * core executing one program, optionally offloading vector work to
 * one engine): with multiple cores racing on shared memory the shadow
 * store cannot reproduce the timed interleaving. Soc::armLockstep
 * refuses to arm for those shapes and the run falls back to
 * structural invariants only (DESIGN.md §12).
 *
 * Both sides build their RetireRecord through the same capture
 * function, so any disagreement in partitioning or hashing cancels
 * out — a compare can only fail on a genuine semantic difference (or
 * the deliberate test corruption hook).
 */

#ifndef BVL_SIM_CHECK_LOCKSTEP_HH
#define BVL_SIM_CHECK_LOCKSTEP_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/arch_state.hh"
#include "mem/backing_store.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bvl
{

/** Maximum chime groups tracked per vector destination register. */
constexpr unsigned maxChimeSlots = 8;

/**
 * Everything compared about one retired instruction. Built by
 * LockstepChecker::capture for both the timed and the reference side.
 */
struct RetireRecord
{
    const Instr *inst = nullptr; ///< static instruction (program-owned)
    std::uint64_t seq = 0;      ///< per-stream dynamic instruction number
    std::uint64_t pc = 0;
    std::uint64_t nextPc = 0;
    Op op = Op::nop;
    bool isBranch = false;
    bool taken = false;
    bool isMem = false;
    bool isStore = false;
    bool isVec = false;
    bool hasVecDest = false;    ///< destination is a vector register
    Addr addr = 0;              ///< scalar memory address
    std::uint32_t vl = 0;
    std::uint8_t sew = 0;
    std::uint64_t rdValue = 0;  ///< scalar destination value after execute
    std::uint64_t memHash = 0;  ///< FNV over accessed memory bytes
    std::uint64_t addrHash = 0; ///< FNV over vector element addresses
    unsigned chimes = 0;        ///< valid entries in chimeHash
    std::array<std::uint64_t, maxChimeSlots> chimeHash{};

    std::string brief() const;  ///< one-line form for retire history
};

/** First-divergence report: what, where, and the pipeline around it. */
struct DivergenceRecord
{
    std::string stream;         ///< armed stream name, e.g. "big"
    std::uint64_t seq = 0;
    Tick tick = 0;
    std::string instr;          ///< disassembly of the diverging instr
    std::string field;          ///< which compared field mismatched
    std::uint64_t timedValue = 0;
    std::uint64_t refValue = 0;
    int chime = -1;             ///< chime slot for vector mismatches
    std::string queueContext;   ///< in-flight VMU/VCU/pipeline state
    std::vector<std::string> lastRetires; ///< last N retires, oldest first

    std::string toString() const;
};

/** Raised on the first lockstep divergence or invariant violation. */
class CheckError : public SimError
{
  public:
    explicit CheckError(std::string msg) : SimError(std::move(msg)) {}
    CheckError(std::string msg, DivergenceRecord rec)
        : SimError(std::move(msg)), _divergence(std::move(rec)),
          _hasDivergence(true)
    {}

    bool hasDivergence() const { return _hasDivergence; }
    const DivergenceRecord &divergence() const { return _divergence; }

  private:
    DivergenceRecord _divergence;
    bool _hasDivergence = false;
};

class LockstepChecker
{
  public:
    /**
     * @param streamName  armed stream, for reports ("big", "little0")
     * @param vlenBits    hardware VLEN of the armed stream
     * @param chimes      chime count of the serving vector engine (1
     *                    when the stream has no engine)
     * @param snapshot    backing store contents at arm time; copied
     * @param retireContext  size of the last-retires history ring
     */
    LockstepChecker(std::string streamName, unsigned vlenBits,
                    unsigned chimes, const BackingStore &snapshot,
                    unsigned retireContext);

    /**
     * Timed stream is (re)starting @p prog with its architectural
     * state already reset and arguments applied; mirror it.
     */
    void onProgramStart(const Program *prog, const ArchState &arch);

    /**
     * Timed stream functionally executed one instruction (trace @p tr,
     * state @p arch now *after* the step, memory effects applied to
     * @p mem). Queues the timed-side record for the retire compare.
     */
    void onFetchExecuted(const ArchState &arch, const ExecTrace &tr,
                         const BackingStore &mem, Tick now);

    /** The instruction just captured was queued for the vector engine. */
    void onVecQueued();

    /**
     * Oldest in-flight instruction retired: step the reference model,
     * compare, and throw CheckError on the first mismatch.
     */
    void onRetire(Tick now);

    /** Engine dispatched the next queued vector instruction as @p vseq. */
    void onVecDispatch(SeqNum vseq);

    /** Engine retired chime @p chime of instruction @p vseq. */
    void onUopRetired(SeqNum vseq, unsigned chime, Tick now);

    /** Engine fully completed @p vseq; drop its shadow entry. */
    void onVecComplete(SeqNum vseq);

    /** Retire-ordered stream drained; verify nothing is left pending. */
    void onDrain(Tick now);

    /**
     * Test hook: XOR @p mask into the timed-side destination value and
     * first chime hash of dynamic instruction @p seq, seeding a
     * divergence the checker must catch at that instruction's retire.
     */
    void
    corruptRetireForTest(std::uint64_t seq, std::uint64_t mask)
    {
        corruptSeq = seq;
        corruptMask = mask;
    }

    /** Context provider queried once when building a divergence. */
    void
    setContextProvider(std::function<std::string()> fn)
    {
        contextProvider = std::move(fn);
    }

    std::uint64_t retires() const { return numRetires; }
    std::uint64_t uopChecks() const { return numUopChecks; }
    const std::string &stream() const { return streamName; }

  private:
    /** Shared capture: hash state + trace into a comparable record. */
    RetireRecord capture(const ArchState &arch, const ExecTrace &tr,
                         const BackingStore &mem, std::uint64_t seq) const;

    [[noreturn]] void diverge(const RetireRecord &timed,
                              const RetireRecord &ref, Tick now,
                              const std::string &field,
                              std::uint64_t timedValue,
                              std::uint64_t refValue, int chime = -1);

    void compare(const RetireRecord &timed, const RetireRecord &ref,
                 Tick now);
    void pushHistory(const RetireRecord &rec);

    /** Per-chime state of one engine-dispatched vector instruction. */
    struct VecShadow
    {
        std::uint64_t seq = 0;
        bool hasDest = false;
        bool refReady = false;
        bool completed = false;
        unsigned chimes = 0;
        const Instr *inst = nullptr;
        std::array<std::uint64_t, maxChimeSlots> timedHash{};
        std::array<std::uint64_t, maxChimeSlots> refHash{};
        /** Chimes retired by the engine before the ref side stepped. */
        std::uint32_t deferredMask = 0;
    };

    void checkChime(VecShadow &sh, SeqNum vseq, unsigned chime,
                    Tick now);

    std::string streamName;
    unsigned chimes;
    unsigned retireContext;

    const Program *prog = nullptr;
    ArchState refArch;
    BackingStore shadowMem;
    /** The reference step's trace, reused across retires. */
    ExecTrace refTrace;

    /** Timed-side records between fetch and retire, oldest first. */
    std::deque<RetireRecord> pending;
    /** Ring of the last retireContext retires (both sides agreed). */
    std::deque<std::string> history;

    /** Captured vec records awaiting engine dispatch, oldest first. */
    std::deque<VecShadow> vecFifo;
    std::unordered_map<SeqNum, VecShadow> inflightVec;
    std::unordered_map<std::uint64_t, SeqNum> seqToVseq;

    std::function<std::string()> contextProvider;

    std::uint64_t nextSeq = 0;
    std::uint64_t numRetires = 0;
    std::uint64_t numUopChecks = 0;

    std::uint64_t corruptSeq = ~0ull;
    std::uint64_t corruptMask = 0;
};

} // namespace bvl

#endif // BVL_SIM_CHECK_LOCKSTEP_HH
