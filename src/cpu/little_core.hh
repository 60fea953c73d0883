/**
 * @file
 * In-order single-issue little core (scalar mode).
 *
 * Functional-first: instructions are executed against the shared
 * backing store at fetch time (oracle EX); the pipeline model then
 * schedules their timing through a scoreboard with per-register ready
 * times, a small non-blocking load/store queue, and the FuLatencies
 * table. Every stall cycle is attributed to one StallCause so the
 * paper's Figure-7 breakdown can be reported.
 *
 * In vector mode the core's pipeline is modelled by core::VectorLane
 * (paper: the core's front end is disabled and its back end executes
 * VCU micro-ops); this class then sits idle.
 */

#ifndef BVL_CPU_LITTLE_CORE_HH
#define BVL_CPU_LITTLE_CORE_HH

#include <array>
#include <vector>

#include "cpu/fetch_buffer.hh"
#include "cpu/fu_params.hh"
#include "cpu/pending_hits.hh"
#include "cpu/program_core.hh"
#include "mem/mem_system.hh"
#include "sim/stats.hh"

namespace bvl
{

class InvariantRegistry;
class Tracer;

struct LittleCoreParams
{
    FuLatencies fu{};
    unsigned lsqEntries = 4;
    Cycles takenBranchPenalty = 2;
    unsigned fetchQueueDepth = 4;
};

class LittleCore : public ProgramCore
{
  public:
    LittleCore(ClockDomain &cd, StatGroup &stats, MemSystem &mem,
               BackingStore &backing, unsigned coreId, unsigned vlenBits,
               LittleCoreParams params = {});
    ~LittleCore() override;

    /** Register fetch-queue/LSQ structural invariants. */
    void registerInvariants(InvariantRegistry &reg);

    /** Attach the tracer (nullptr = disarmed) and register the
     *  "little<id>" track. */
    void setTracer(Tracer *t);

    std::string progressDetail() const override;

  protected:
    bool tick() override;

  private:
    struct PendingInst
    {
        ExecTrace trace;
        /** Fetch timestamp, read only while tracing. */
        Tick fetchTick = 0;
    };

    /** The @p i-th fetch-queue entry from the oldest. */
    PendingInst &
    fetchAt(unsigned i)
    {
        unsigned slot = fetchHead + i;
        return fetchSlots[slot < p.fetchQueueDepth
                          ? slot : slot - p.fetchQueueDepth];
    }

    /** What a cache hit completes: a load's destination register
     *  and write generation, or a store. */
    struct HitTarget
    {
        RegId rd = regIdInvalid;
        std::uint32_t gen = 0;
        bool store = false;
    };

    /**
     * Ends a window whose last cache hits are still pending, at the
     * youngest one's reserved slot: where that hit's closure used to
     * run and finish the window.
     */
    struct HitDrainEvent final : Event
    {
        explicit HitDrainEvent(LittleCore &c) : core(c) {}
        void process() override;
        LittleCore &core;
    };

    void beginWindow() override;

    void fetchStage();
    bool issueStage();
    /** Issue a load or store to the L1D. */
    void issueMem(const Instr &in, Addr addr);
    /** Complete load or store @p t, a hit or a miss, at tick @p at. */
    void memDone(const HitTarget &t, Tick at);
    void recordStall(StallCause cause);
    void maybeFinish();

    StatGroup &stats;
    MemSystem &mem;
    BackingStore &backing;
    LittleCoreParams p;
    std::string prefix;
    /** Interned counters (DESIGN.md §11); sStall is indexed by
     *  StallCause so recordStall() is a single pointer add. */
    StatHandle sFetched, sRetired, sCycles;
    std::array<StatHandle, numStallCauses> sStall;

    Tracer *trace = nullptr;
    unsigned traceTid = 0;
    bool haltIssued = false;

    // fetch state
    /** The fetch queue: fetchQueueDepth fixed slots, fetchCount of
     *  them in flight from fetchHead on. Fetch steps the oracle
     *  straight into the tail slot's trace (DESIGN.md §11). */
    std::vector<PendingInst> fetchSlots;
    unsigned fetchHead = 0;
    unsigned fetchCount = 0;
    FetchBuffer fetchBuf;
    Tick fetchStallUntil = 0;

    // scoreboard
    std::array<Tick, 64> regReadyAt{};          // x0-x31, f0-f31
    std::array<ProducerKind, 64> regProducer{};
    /** Write generation per register: a load callback only marks its
     *  destination ready if no younger producer overwrote it. */
    std::array<std::uint32_t, 64> regGen{};
    std::array<Tick, 16> fuBusyUntil{};          // per FuClass
    /** Loads and stores in flight, hits and misses. */
    unsigned outstandingLoads = 0;
    unsigned outstandingStores = 0;
    /** Of those, the misses: the rest are in pendingHits. */
    unsigned missesInFlight = 0;
    PendingHits<HitTarget> pendingHits;
    HitDrainEvent hitDrain{*this};
};

} // namespace bvl

#endif // BVL_CPU_LITTLE_CORE_HH
