/**
 * @file
 * Non-blocking set-associative cache timing model.
 *
 * The cache tracks tags, LRU state, dirtiness and MSHRs but no data.
 * Throughput is one tag lookup per cycle; hits respond after the hit
 * latency, misses allocate an MSHR and forward a line request to the
 * next level. Reconfigurable L1 data caches support two set-indexing
 * modes (IndexMode); a line filled in one mode is findable only in that
 * mode's set, which reproduces the paper's lazy eviction/migration of
 * wrongly-banked lines after a mode switch.
 */

#ifndef BVL_MEM_CACHE_HH
#define BVL_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/clock_domain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class FaultInjector;
class InvariantRegistry;
class Tracer;
class Watchdog;

/** Construction parameters of one Cache. */
struct CacheParams
{
    std::string name = "cache";
    unsigned sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    Cycles hitLatency = 2;
    unsigned numMshrs = 8;
    /** Number of banks used when indexing in vectorBanked mode. */
    unsigned numBanks = 4;
};

/**
 * Interface to the level below a cache (another cache or DRAM), plus
 * a hook for sharer bookkeeping on evictions.
 */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Request one line. @p requesterId identifies the L1 for directory
     * purposes (-1 for requests not from an L1).
     */
    virtual void request(int requesterId, Addr lineAddr, bool isWrite,
                         MemCallback done) = 0;

    /** An L1 dropped its copy of @p lineAddr (eviction/invalidation). */
    virtual void evicted(int requesterId, Addr lineAddr) {
        (void)requesterId; (void)lineAddr;
    }

    /**
     * Timing-free counterpart of request() for fast-forward cache
     * warming (DESIGN.md §15): propagate the line functionally —
     * directory bookkeeping, next-level tag/LRU update — with no
     * events, callbacks or stats. Default no-op (DRAM keeps no
     * warmable state: the model is fixed-latency with no row
     * tracking).
     */
    virtual void warmRequest(int requesterId, Addr lineAddr,
                             bool isWrite) {
        (void)requesterId; (void)lineAddr; (void)isWrite;
    }
};

class Cache
{
  public:
    Cache(ClockDomain &cd, StatGroup &stats, CacheParams params,
          MemLevel *next, int l1Id = -1);

    /**
     * Access one cache line. @p done fires when the line is present
     * (load use / store completion time).
     */
    void access(Addr addr, bool isWrite, MemCallback done);

    /**
     * access() for a requester that completes its own hits
     * (DESIGN.md §11): a hit schedules nothing and returns the tick
     * the line is ready at; a miss returns maxTick, and @p onMiss
     * fires when the line is present, as access()'s @p done would.
     * Only a miss wraps @p onMiss in a MemCallback: a hit neither
     * moves nor copies it.
     */
    template <typename OnMiss>
    Tick
    accessTick(Addr addr, bool isWrite, OnMiss &&onMiss)
    {
        Addr lineNum = lineOf(lineAlign(addr));
        Tick tagDone = 0;
        if (lookup(lineNum, isWrite, tagDone))
            return tagDone;
        handleMiss(lineNum, isWrite,
                   MemCallback(std::forward<OnMiss>(onMiss)), tagDone);
        return maxTick;
    }

    /** Switch set-indexing mode (vector-mode entry/exit). */
    void setIndexMode(IndexMode mode) { indexMode = mode; }
    IndexMode getIndexMode() const { return indexMode; }

    /**
     * Functional (timing-free) access for fast-forward cache warming
     * (DESIGN.md §15): updates tags, LRU and dirty bits exactly like
     * the timed hit/fill paths — including stale-mode drop, victim
     * selection, eviction notification and dirty writeback through
     * MemLevel::warmRequest — but schedules no events, allocates no
     * MSHRs and increments no stats, so a warmed-then-run simulation
     * is byte-identical to one restored from a checkpoint of the same
     * warm state.
     */
    void warmAccess(Addr addr, bool isWrite);

    /**
     * Drop a line from whichever set holds it (directory
     * invalidation); no timing charged here. @p warm (fast-forward
     * warming) skips the stat.
     */
    void invalidate(Addr lineAddr, bool warm);

    /** Tag-only presence check under the current mode (tests). */
    bool probe(Addr addr) const;

    /** Attach a fault injector that may stretch miss responses. */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /** Attach the tracer (nullptr = disarmed) and register this
     *  cache's track; miss lifetimes trace MSHR allocate -> fill. */
    void setTracer(Tracer *t);

    /** Register this cache's heartbeat with a progress watchdog. */
    void registerProgress(Watchdog &wd);

    /** Register MSHR/state sanity invariants (O(1) checks only). */
    void registerInvariants(InvariantRegistry &reg);

    /** One-line MSHR occupancy description for diagnostics. */
    std::string mshrReport() const;

    /** True if the line is resident under either index mode (tests). */
    bool residentAnywhere(Addr addr) const
    { return findAnywhere(lineOf(lineAlign(addr))) != nullptr; }

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;       ///< full line number (addr >> lineShift)
        bool dirty = false;
        Tick lastUse = 0;
    };

    /** Waiters each MSHR has room for before its first miss. */
    static constexpr unsigned mshrWaiterSlots = 8;

    /** One slot of the fixed MSHR file. Its waiter list keeps its
     *  capacity from one miss to the next (DESIGN.md §11). */
    struct Mshr
    {
        bool busy = false;
        Addr line = 0;       ///< line number of the outstanding miss
        bool isWrite = false;
        std::vector<MemCallback> waiters;
        /** Allocation timestamp, recorded only while tracing. */
        Tick allocTick = 0;
    };

    /** A request stalled on a full MSHR file. */
    struct PendingReq
    {
        Addr lineNum = 0;
        bool isWrite = false;
        MemCallback done;
    };

    /** The ways of set @p set: assoc entries from this one on. */
    const Way *setWays(unsigned set) const { return &ways[set * p.assoc]; }
    Way *setWays(unsigned set) { return &ways[set * p.assoc]; }
    unsigned setIndex(Addr lineNum, IndexMode mode) const;
    const Way *findWay(Addr lineNum, unsigned set) const;
    Way *
    findWay(Addr lineNum, unsigned set)
    {
        return const_cast<Way *>(std::as_const(*this).findWay(lineNum, set));
    }
    /** The way holding @p lineNum in its set under either index mode. */
    const Way *findAnywhere(Addr lineNum) const;
    Way *
    findAnywhere(Addr lineNum)
    {
        return const_cast<Way *>(std::as_const(*this).findAnywhere(lineNum));
    }
    /**
     * The timed tag lookup of one access: occupies the tag port, sets
     * @p tagDone to the tick the lookup completes and counts the
     * access. On a hit it also updates LRU and dirty state and counts
     * the hit; a miss is counted and left to the caller.
     */
    bool lookup(Addr lineNum, bool isWrite, Tick &tagDone);
    /** Line-install path of the timed fill and of warmAccess(). */
    void installLine(Addr lineNum, bool isWrite, bool warm);
    void handleMiss(Addr lineNum, bool isWrite, MemCallback done,
                    Tick readyTick);
    /** The MSHR slot tracking @p lineNum, or -1 if it has none. */
    int findMshr(Addr lineNum) const;
    /** Fill path of MSHR slot @p slot: install, wake, retry stalls. */
    void fillMshr(unsigned slot);
    void issuePending();

    ClockDomain &clock;
    CacheParams p;
    MemLevel *next;
    int l1Id;
    FaultInjector *injector = nullptr;
    Tracer *trace = nullptr;
    unsigned traceTid = 0;

    /** Counters interned once at construction (DESIGN.md §11): the
     *  per-access path increments through these, never by name. */
    StatHandle sAccesses, sHits, sMisses, sFills, sEvictions,
               sWritebacks, sInvalidations, sMshrFull;

    unsigned numSets;
    IndexMode indexMode = IndexMode::scalarPrivate;

    /** numSets x assoc ways, set-major. A line lives in its set
     *  under one index mode or the other, never both: there is no
     *  side index (DESIGN.md §7). */
    std::vector<Way> ways;
    /** The MSHR file: numMshrs slots, mshrsBusy of them in use. */
    std::vector<Mshr> mshrs;
    unsigned mshrsBusy = 0;
    /** Requests stalled on a full MSHR file, oldest first. */
    Ring<PendingReq> pendingQueue;

    /** Tag-port occupancy: next tick a new lookup can start. */
    Tick portNextFree = 0;
};

} // namespace bvl

#endif // BVL_MEM_CACHE_HH
