/**
 * @file
 * Out-of-order big core.
 *
 * Functional-first like the little core: the oracle path is executed
 * at fetch, and the pipeline schedules timing through a ROB with
 * dataflow wakeup, per-class FU pools, a load/store queue with precise
 * (oracle-address) store->load disambiguation, and a gshare front end
 * whose mispredictions stall fetch until the branch resolves plus a
 * redirect penalty (wrong-path fetch is not modelled; DESIGN.md §5).
 *
 * Vector instructions do not issue to FUs: they wait for the ROB head
 * and dispatch to the attached VlittleEngine (paper Section III-A).
 * Scalar-writing vector instructions complete (and wake dependents)
 * only when the engine responds.
 */

#ifndef BVL_CPU_BIG_CORE_HH
#define BVL_CPU_BIG_CORE_HH

#include <array>
#include <vector>

#include "cpu/bpred.hh"
#include "cpu/fetch_buffer.hh"
#include "cpu/fu_params.hh"
#include "cpu/pending_hits.hh"
#include "cpu/program_core.hh"
#include "mem/mem_system.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class InvariantRegistry;
class Tracer;
class VlittleEngine;

struct BigCoreParams
{
    unsigned fetchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 192;
    unsigned lsqLoads = 48;
    unsigned lsqStores = 32;
    FuLatencies fu{};
    unsigned numIntAlu = 3;
    unsigned numMulDiv = 1;
    unsigned numFp = 2;
    unsigned numMemPorts = 2;
    unsigned numBranch = 1;
    Cycles redirectPenalty = 3;   ///< cycles after branch resolution
    unsigned bpredIndexBits = 12;
};

class BigCore : public ProgramCore
{
  public:
    BigCore(ClockDomain &cd, StatGroup &stats, MemSystem &mem,
            BackingStore &backing, unsigned vlenBits,
            BigCoreParams params = {});

    /** Attach the vector engine vector instructions dispatch to. */
    void setVectorEngine(VlittleEngine *engine) { vengine = engine; }

    /**
     * The engine finished the vector instruction dispatched from ROB
     * entry @p seq. A scalar-writing one still holds the ROB head, so
     * @p seq names a live slot and its completion wakes dependents.
     */
    void vecCompleted(SeqNum seq, bool writesScalar);

    /** Branch predictor (checkpoint save/restore, DESIGN.md §15). */
    GsharePredictor *predictor() override { return &bpred; }

    /** Register ROB/LSQ structural invariants with the checker. */
    void registerInvariants(InvariantRegistry &reg);

    /**
     * Attach the tracer (nullptr = disarmed; the hot paths then cost
     * exactly one null-pointer branch, DESIGN.md §13). Registers this
     * core's track.
     */
    void setTracer(Tracer *t);

    std::string progressDetail() const override;

  protected:
    bool tick() override;

  private:
    /** A ROB slot's bookkeeping, reset on every fetch into it. */
    struct RobInstState
    {
        SeqNum seq = 0;
        /** Distinct in-flight producers this instruction waits on. */
        unsigned pendingSrcs = 0;
        bool issued = false;
        bool complete = false;
        bool vecDispatched = false;
        bool predictedWrong = false;
        /** Scalar store: the next older store in its store-table
         *  bucket (0 = none). */
        SeqNum prevStoreInBucket = 0;
        /** Fixed-latency FU op: the tick it completes at. */
        Tick doneAt = 0;
        /** Pipeline-stage timestamps, recorded only while tracing. */
        Tick fetchTick = 0;
        Tick issueTick = 0;
        Tick completeTick = 0;
    };

    /** One ROB slot. Fetch steps the oracle straight into its trace,
     *  which keeps its address buffer from one occupant to the next
     *  (DESIGN.md §11). */
    struct RobInst : RobInstState
    {
        ExecTrace trace;
    };

    void beginWindow() override;

    void fetchStage();
    void issueStage();
    void vecDispatchStage();
    void commitStage();
    /**
     * Mark @p inst complete at tick @p at and wake its consumers.
     * Does not arm the tick event, so the completion drains may call
     * it mid-tick (DESIGN.md §11).
     */
    void resolveInst(RobInst *inst, Tick at);
    /** resolveInst() for a completion delivered by another component
     *  (memory, vector engine), then make sure the core ticks. */
    void completeInst(RobInst *inst);
    /** Resolve the fixed-latency FU ops due this cycle. */
    void drainDone();
    /** Issue a scalar load or store to the L1D. */
    void issueMem(RobInst *inst);
    /** Complete scalar load or store @p inst, a hit or a miss, at
     *  tick @p at. */
    void memDone(RobInst *inst, Tick at);

    std::size_t robSize() const { return nextSeq - robHeadSeq; }
    RobInst &robAt(SeqNum seq) { return robSlots[seq & robMask]; }
    const RobInst &robAt(SeqNum seq) const
    { return robSlots[seq & robMask]; }
    /** Bit of a ROB slot in a slot-indexed bitmap. */
    static std::uint64_t slotBit(SeqNum seq) { return 1ull << (seq & 63); }
    std::uint64_t &readyWord(SeqNum seq)
    { return readyBits[(seq & robMask) >> 6]; }
    /** The completion-ring set of cycle @p c (maskWords words). */
    std::uint64_t *doneSet(Cycles c)
    { return &doneRing[(c & doneMask) * maskWords]; }
    /** The consumer mask of @p producer's slot (maskWords words). */
    std::uint64_t *consumersOf(const RobInst &producer)
    { return &consumerBits[(producer.seq & robMask) * maskWords]; }
    /** Make @p inst wait on @p producer unless it already does. */
    void addDep(RobInst &inst, RobInst *producer);
    /** Youngest scalar store to @p line still in the ROB. */
    RobInst *lastStoreTo(Addr line);
    bool fuAvailable(FuClass fu, Tick now);
    void consumeFu(FuClass fu, Tick now);
    void maybeFinish();

    StatGroup &stats;
    MemSystem &mem;
    BackingStore &backing;
    BigCoreParams p;
    std::string prefix = "big.";
    /** Interned counters (DESIGN.md §11). */
    StatHandle sFetched, sRetired, sCycles, sMispredicts, sVecDispatched;

    VlittleEngine *vengine = nullptr;
    Tracer *trace = nullptr;
    unsigned traceTid = 0;

    // front end
    GsharePredictor bpred;
    FetchBuffer fetchBuf;
    Tick fetchStallUntil = 0;
    RobInst *blockingBranch = nullptr;  ///< unresolved mispredict

    // ROB / rename
    /**
     * The ROB: a ring of preallocated slots holding seqs
     * [robHeadSeq, nextSeq), seq s in slot s & robMask. The slot count
     * is a power of two (at least 64) covering robEntries.
     */
    std::vector<RobInst> robSlots;
    std::uint64_t robMask = 0;
    SeqNum robHeadSeq = 1;
    SeqNum nextSeq = 1;
    std::array<RobInst *, 64> lastWriter{};
    /** Issue candidates, one bit per ROB slot, scanned oldest-first
     *  from the head. */
    std::vector<std::uint64_t> readyBits;
    /** Per-slot wakeup masks: bit c of slot p's mask means the
     *  instruction in slot c waits on the one in slot p. */
    std::vector<std::uint64_t> consumerBits;
    unsigned maskWords = 0;
    /**
     * Fixed-latency FU completions (DESIGN.md §11): the set of cycle c
     * holds one bit per ROB slot whose op completes at c, and tick()
     * resolves the current cycle's set before any stage runs. There
     * are more sets than the longest FU latency, so a set always
     * drains before an issue reuses it.
     */
    std::vector<std::uint64_t> doneRing;
    std::uint64_t doneMask = 0;
    /**
     * Store->load table: bucket (line & mask) holds the youngest
     * scalar store whose line maps there, chained to older ones via
     * prevStoreInBucket. Retired stores drop out of the chains by
     * seq, so no entry is ever evicted or lost.
     */
    std::vector<SeqNum> storeBuckets;
    /** Vector instructions awaiting dispatch, program order. */
    Ring<RobInst *> vecQueue;

    // execution resources
    std::array<unsigned, 16> fuInUseThisCycle{};
    Tick fuCycleTick = 0;                 ///< cycle the counters refer to
    std::array<Tick, 16> unpipedBusyUntil{};
    /** Scalar loads and stores in flight, hits and misses. */
    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    /** Of those, the misses: the rest are in pendingHits. */
    unsigned missesInFlight = 0;
    PendingHits<RobInst *> pendingHits;
    unsigned vecOutstanding = 0;
};

} // namespace bvl

#endif // BVL_CPU_BIG_CORE_HH
