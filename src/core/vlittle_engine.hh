/**
 * @file
 * The big.VLITTLE decoupled vector engine (paper Section III).
 *
 * One parameterized engine models all three vector machines of the
 * evaluation:
 *
 *  - the VLITTLE engine itself: 4 lanes (reconfigured little cores),
 *    2 chimes, packed 32-bit elements (512-bit VLEN), banked shared
 *    L1D memory path, L1I-SRAM-backed VMSU data queues, 500-cycle
 *    mode-switch penalty;
 *  - the integrated vector unit of 1bIV: 2 lane-equivalents (128-bit
 *    VLEN), one chime, memory through the big core's L1D port;
 *  - the decoupled vector engine of 1bDV: 8 wide lanes (2048-bit
 *    VLEN), 4 chimes, deep buffers, direct high-bandwidth L2 path.
 *
 * Structure (Figure 1): the VCU cracks each dispatched vector
 * instruction into per-chime micro-ops and broadcasts them in lock
 * step over a pipelined bus; the VMU (VMIU + per-bank VMSUs + VLU +
 * VSU) decouples memory from execution; the VXU is a uni-directional
 * ring serving one cross-element instruction at a time.
 */

#ifndef BVL_CORE_VLITTLE_ENGINE_HH
#define BVL_CORE_VLITTLE_ENGINE_HH

#include <memory>
#include <vector>

#include "core/lane.hh"
#include "core/vuop.hh"
#include "isa/arch_state.hh"
#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "sim/enum_names.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class BigCore;
class CheckContext;
class FaultInjector;
class InvariantRegistry;
class Tracer;
class Watchdog;

struct VEngineParams
{
    unsigned numLanes = 4;
    unsigned chimes = 2;
    bool packed = true;

    unsigned cmdQueueDepth = 32;   ///< VCU instruction command queue
    unsigned uopQueueDepth = 64;   ///< VCU micro-op queue (UopQ)
    unsigned dataQueueDepth = 8;   ///< VCU scalar-data queue
    unsigned laneUopQueueDepth = 4;
    unsigned vmiuQueueDepth = 16;
    /** Per-VMSU outstanding load/store line-data slots (the paper's
     *  re-purposed L1I SRAM FIFOs; swept in Figure 8). */
    unsigned loadQueueLines = 16;
    unsigned storeQueueLines = 16;
    unsigned storeCamEntries = 8;
    unsigned coalesceWindow = 4;   ///< indexed elems coalesced per line

    Cycles switchPenalty = 500;    ///< vector-region entry cost

    /**
     * Where vector memory goes. It also fixes how the engine couples
     * to the rest of the SoC: on bankedL1 the engine toggles the
     * little L1Ds into banked mode on a mode switch; on bigL1D it
     * executes inside the big core's pipeline (in-pipeline dispatch),
     * while the other paths dispatch from the head of the ROB.
     */
    enum class MemPath { bankedL1, bigL1D, directL2 };
    MemPath memPath = MemPath::bankedL1;

    /** The engine's stat/track prefix and its lanes' stat prefix
     *  (lane i uses "<lane><i>."), one row per MemPath: the memory
     *  path names the machine (paper Table III). */
    struct Names
    {
        const char *engine;
        const char *lane;
    };
    static constexpr Names names[] = {
        {"vlittle", "little"}, {"ivu", "ivu"}, {"dve", "dve"}};

    const char *name() const { return names[unsigned(memPath)].engine; }
    const char *lanePrefix() const
    { return names[unsigned(memPath)].lane; }

    /** Hardware vector length presented to vsetvli (32-bit data). */
    unsigned
    vlenBits() const
    {
        return numLanes * chimes * (packed ? 64 : 32);
    }
};

template <>
struct EnumNames<VEngineParams::MemPath>
{
    static constexpr const char *names[] = {"bankedL1", "bigL1D",
                                            "directL2"};
};

/**
 * The engine behind the big core's vector dispatch unit (paper Section
 * III-A): a vector instruction waits there until it reaches the head
 * of the ROB and the engine can accept it. Non-scalar-writing
 * instructions commit on dispatch; scalar-writing instructions
 * (vsetvli, vmv.x.s, vpopc, ...) hold the ROB head until the engine
 * responds. Either way the engine reports each completion to the big
 * core by ROB sequence number (BigCore::vecCompleted).
 */
class VlittleEngine : public Clocked
{
  public:
    /** @p fu: the little cores' FU latencies, which the lanes re-use
     *  (paper Section III-C). */
    VlittleEngine(ClockDomain &cd, StatGroup &stats, MemSystem &mem,
                  BigCore &core, const FuLatencies &fu,
                  VEngineParams params);

    /**
     * Can the engine take this instruction now? (Command queue space,
     * plus a scalar-data queue slot if the instruction carries a
     * scalar operand — paper Section III-B.)
     */
    bool canAccept(const ExecTrace &trace) const;
    /** Take one (functionally already executed) vector instruction,
     *  ROB entry @p robSeq of the big core. */
    void dispatch(const ExecTrace &trace, SeqNum robSeq);
    /** True when no work is in flight anywhere in the engine. */
    bool idle() const;
    /**
     * Decoupled engines receive instructions only from the head of
     * the ROB (paper Section III-A); the integrated unit executes in
     * the pipeline and may receive them as soon as their scalar
     * operands are ready (in program order among vector instructions).
     */
    bool dispatchAtHead() const
    { return p.memPath != VEngineParams::MemPath::bigL1D; }

    /** Leave vector mode (driver calls when a vector region ends). */
    void exitVectorMode();
    bool inVectorMode() const { return vectorMode; }

    const VEngineParams &params() const { return p; }

    /** Attach a fault injector (VCU bus stalls, VMU response drops). */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /** Attach the checker front end (nullptr = disarmed). */
    void setCheckContext(CheckContext *cc) { check = cc; }

    /** Attach the tracer (nullptr = disarmed); registers the VCU /
     *  VMIU / per-VMSU / VLU / VSU / VXU tracks and forwards to every
     *  lane. */
    void setTracer(Tracer *t);

    /** Register VCU/VMU queue and credit invariants. */
    void registerInvariants(InvariantRegistry &reg);

    /** Register the engine's heartbeat with a progress watchdog. */
    void registerProgress(Watchdog &wd);

    /** In-flight instruction table for deadlock diagnostics. */
    std::string inflightReport();

  protected:
    bool tick() override;

  private:
    /** The lanes call the lane-side services below directly. */
    friend class VectorLane;

    // --- lane side ---
    /** Has the VLU delivered @p needed elements for this uop yet? */
    bool loadDataReady(SeqNum vseq, unsigned lane, unsigned chime,
                       unsigned needed);
    /** A lane sends @p elems store-data elements to the VSU. */
    void storeDataFromLane(SeqNum vseq, unsigned elems);
    /** A lane sends a chime's worth of indices to the VMIU. */
    void indexFromLane(SeqNum vseq);
    /** A lane sends cross-element source values into the VXU ring. */
    void vxSourceFromLane(SeqNum vseq, unsigned lane, unsigned chime);
    /** Has the VXU finished shifting values for this instruction? */
    bool vxDeliveryReady(SeqNum vseq);
    /** Have all vxRead micro-ops of this instruction completed? */
    bool vxReadsComplete(SeqNum vseq);
    /**
     * A lane micro-op of chime group @p chime writes back at
     * @p readyTick; the engine retires it at the start of its tick at
     * that time (DESIGN.md §11).
     */
    void retireUopAt(Tick readyTick, SeqNum vseq, unsigned chime);
    /** Is the VCU currently blocked broadcasting by a busy peer? */
    bool vcuBlockedLockstep() const { return lockstepBlocked; }

    /** The engine switches the little L1Ds into banked mode. */
    bool controlsL1Mode() const
    { return p.memPath == VEngineParams::MemPath::bankedL1; }

    /**
     * Scalar state of one dynamic vector instruction. Recycling a
     * window slot resets exactly this part, so VInstr's vectors keep
     * their capacity from one instruction to the next.
     */
    struct VInstrState
    {
        SeqNum vseq = 0;
        SeqNum robSeq = 0;            ///< the big core's ROB entry
        bool live = false;            ///< dispatched and not completed
        bool needsDataSlot = false;

        unsigned broadcastRemaining = 0;
        bool cracked = false;
        bool memCmdSent = false;
        bool isCross = false;
        bool scalarViaRing = false;   ///< vpopc & friends

        unsigned lanePending = 0;     ///< lane uops not yet retired
        unsigned storeLinesTotal = 0;
        unsigned storeLinesDone = 0;
        Tick ringDoneAt = maxTick;    ///< scalar-via-ring return time
        bool memGenDone = false;      ///< VMIU finished generating reqs
        /** Dispatch timestamp, recorded only while tracing. */
        Tick dispatchTick = 0;

        unsigned vmiuNextElem = 0;    ///< next element the VMIU splits
        unsigned idxSendCounts = 0;   ///< lane index sends received
        unsigned idxChimesReady = 0;  ///< chimes whose indices are in
        unsigned storeElemsReceived = 0;  ///< store data from lanes
    };

    /** One dynamic vector instruction in flight in the engine. */
    struct VInstr : VInstrState
    {
        ExecTrace trace;
        std::vector<VUop> plan;       ///< lane uops, broadcast in order
        std::vector<int> planTarget;  ///< -1 broadcast, else lane index
        /** Load elements delivered per (lane, chime). */
        std::vector<unsigned> arrived;
    };

    /** One cache-line request generated by the VMIU. */
    struct LineReq
    {
        std::uint64_t reqSeq = 0;
        SeqNum vseq = 0;
        Addr lineAddr = 0;
        unsigned elemStart = 0;
        unsigned elemCount = 0;
        unsigned vmsu = 0;
        bool isStore = false;
        bool indexed = false;
        /** Load in vluOrder: memory responded. Store in a VMSU queue:
         *  the VSU has its data. */
        bool ready = false;
    };

    /** A VMU response whose injected retry budget was exhausted. */
    struct LostVmuResponse
    {
        SeqNum vseq = 0;
        Addr lineAddr = 0;
        bool isStore = false;
        unsigned vmsu = 0;
        unsigned attempts = 0;
        Tick tick = 0;
    };

    /** Requests the VMSU's store-address CAM compares a load against. */
    static constexpr unsigned camScanWindow = 8;

    struct Vmsu
    {
        Ring<LineReq> queue;
        unsigned loadSlotsUsed = 0;
        unsigned storeSlotsUsed = 0;
        /** Stores buffered in the queue (CAM capacity constraint). */
        unsigned camUsed = 0;
    };

    // per-cycle unit models
    void vcuFrontTick();
    void vcuBroadcastTick();
    void vmiuTick();
    void vmsuTick(unsigned idx);
    void vluTick();
    void vsuTick();

    /** The live instruction @p vseq, or nullptr once it completed. */
    VInstr *findInflight(SeqNum vseq);
    VInstr &slot(SeqNum vseq) { return window[vseq & (window.size() - 1)]; }
    /** Double the window, keeping every slot at its vseq. */
    void growWindow();

    /** Retire the lane micro-ops whose write-back is due now. */
    void drainRetires();
    /** One lane micro-op wrote back. Does not arm the tick event, so
     *  drainRetires() may call it mid-tick (DESIGN.md §11). */
    void retireUop(SeqNum vseq, unsigned chime);

    void crack(VInstr &vi);
    void completeInstr(VInstr &vi);
    void checkInstrDone(SeqNum vseq);
    unsigned packFactor(unsigned sewBytes) const;
    unsigned elemsPerChime(unsigned sewBytes) const;
    unsigned activeChimes(const ExecTrace &trace) const;
    unsigned laneOfElem(unsigned elemIdx, unsigned sewBytes) const;
    void issueToMemory(const LineReq &req, unsigned attempt = 0);
    void deliverLine(const LineReq &req);

    StatGroup &stats;
    MemSystem &mem;
    BigCore &core;
    VEngineParams p;
    std::string sp;   ///< engine stat prefix "<name>."
    /** Interned counters (DESIGN.md §11). */
    StatHandle sModeSwitches, sDispatched, sVmiuCmds, sVcuStallsInjected,
               sUopsBroadcast, sVmuRetries, sVmuResponsesLost,
               sStoreLineReqs, sLoadLineReqs, sVmsuRawStalls,
               sVluDeliveries, sVsuLines, sCompleted, sCycles,
               sUnitLines, sStridedLines, sIndexedLines;
    FaultInjector *injector = nullptr;
    CheckContext *check = nullptr;
    Tracer *trace = nullptr;
    unsigned tidVcu = 0, tidVmiu = 0, tidVlu = 0, tidVsu = 0, tidVxu = 0;
    std::vector<unsigned> tidVmsu;
    /** Injected VCU command-bus stall: no broadcast until this tick. */
    Tick busStalledUntil = 0;
    /** Lost responses, recorded for deadlock forensics (bounded). */
    std::vector<LostVmuResponse> lostResponses;

    std::vector<std::unique_ptr<VectorLane>> lanes;

    // VCU state; the queues hold vseqs of in-flight instructions
    Ring<SeqNum> cmdQueue;
    /** Cracked micro-ops awaiting lock-step broadcast (paper's UopQ). */
    struct QueuedUop
    {
        SeqNum vseq;
        unsigned idx;
    };
    Ring<QueuedUop> uopQueue;
    unsigned dataSlotsUsed = 0;
    bool vectorMode = false;
    Tick switchReadyAt = 0;
    bool lockstepBlocked = false;

    /** One lane micro-op's pending write-back. */
    struct PendingRetire
    {
        Tick readyTick;
        SeqNum vseq;
        unsigned chime;
    };
    /**
     * Lane write-backs of every lane, in issue order (DESIGN.md §11).
     * tick() retires the ones due now before any unit runs, in the
     * order the lanes issued them. Latency is unbounded (a serialized
     * divide takes elems x latency cycles), so this is a short list
     * scanned each cycle, not a ring of cycles.
     */
    std::vector<PendingRetire> pendingRetires;

    /**
     * In-flight instructions, age-ordered: vseq v lives in slot
     * v & (size - 1), and every vseq in [oldestVseq, nextVseq) has its
     * own slot (growWindow() keeps the span within the size). A slot
     * is recycled, vectors and all, when its instruction completes.
     */
    std::vector<VInstr> window;
    /** Oldest live vseq (nextVseq when nothing is in flight). */
    SeqNum oldestVseq = 1;
    SeqNum nextVseq = 1;
    unsigned numInflight = 0;

    // VMIU state
    Ring<SeqNum> vmiuQueue;
    std::uint64_t nextReqSeq = 1;

    // VMSUs
    std::vector<Vmsu> vmsus;

    // VLU state
    Ring<LineReq> vluOrder;
    unsigned vluHeadDelivered = 0;

    // VSU state
    Ring<LineReq> vsuOrder;

    // VXU state
    SeqNum vxuVseq = 0;
    unsigned vxReadsExpected = 0;
    unsigned vxReadsDone = 0;
    Tick vxDeliverAt = maxTick;
};

} // namespace bvl

#endif // BVL_CORE_VLITTLE_ENGINE_HH
