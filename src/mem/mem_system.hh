/**
 * @file
 * Assembled memory hierarchy of one simulated SoC: per-core L1I/L1D, a
 * shared L2 with a directory (sharer bitmaps + invalidate-on-write),
 * and DRAM. Provides the three access paths the cores and vector
 * engines use:
 *
 *  - instruction fetches (core -> its L1I -> L2 -> DRAM)
 *  - scalar data accesses (core -> its L1D -> L2 -> DRAM)
 *  - vector-mode banked accesses (VMSU -> little L1D bank -> L2 -> DRAM)
 *  - high-bandwidth engine accesses (DVE -> L2 -> DRAM)
 *
 * Core/L1 numbering: ids [0, numLittle) are the little cores,
 * id numLittle is the big core.
 */

#ifndef BVL_MEM_MEM_SYSTEM_HH
#define BVL_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_types.hh"
#include "sim/addr_map.hh"
#include "sim/clock_domain.hh"
#include "sim/stats.hh"

namespace bvl
{

struct MemSystemParams
{
    unsigned numLittle = 4;

    CacheParams littleL1I{"l1i", 32 * 1024, 2, 2, 4, 4};
    CacheParams littleL1D{"l1d", 32 * 1024, 2, 2, 8, 4};
    CacheParams bigL1I{"bigl1i", 64 * 1024, 4, 2, 8, 4};
    CacheParams bigL1D{"bigl1d", 64 * 1024, 4, 2, 16, 4};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, 20, 32, 4};
    DramParams dram{};

    /** Extra L2 cycles charged when a write miss invalidates sharers. */
    Cycles invalPenalty = 8;
};

/**
 * L2 front end: a shared Cache plus a directory of which L1Ds hold
 * each line. Writes invalidate all other sharers; the requester is
 * charged an extra penalty when that happens. The directory is not
 * inclusive: an entry outlives the L2's own copy of the line.
 */
class L2Front : public MemLevel
{
  public:
    L2Front(ClockDomain &cd, StatGroup &sg, const CacheParams &l2p,
            Cycles inval_penalty, MemLevel *dram)
        : clock(cd), invalPenalty(inval_penalty),
          sDirInvalidates(sg.handle("l2.dir.invalidates")),
          cache(cd, sg, l2p, dram)
    {
        parked.reserve(l2p.numMshrs);
        freeParked.reserve(l2p.numMshrs);
    }

    /** Register an L1D participating in coherence. */
    void
    addL1(Cache *l1)
    {
        l1ds.push_back(l1);
    }

    void
    request(int requesterId, Addr lineAddr, bool isWrite,
            MemCallback done) override
    {
        bool invalidated =
            updateDirectory(requesterId, lineAddr, isWrite, false);
        if (invalidated && invalPenalty > 0 && done) {
            // The requester's callback waits in a recycled slot, so
            // the wrapper captures an index and stays inline.
            unsigned slot = parkCallback(std::move(done));
            cache.access(lineAddr, isWrite, [this, slot] {
                MemCallback cb = std::move(parked[slot]);
                freeParked.push_back(slot);
                clock.eventQueue().schedule(
                    clock.cyclesToTicks(invalPenalty), std::move(cb));
            });
        } else {
            cache.access(lineAddr, isWrite, std::move(done));
        }
    }

    void
    evicted(int requesterId, Addr lineAddr) override
    {
        if (requesterId < 0)
            return;
        Addr lineNum = lineOf(lineAddr);
        sharers.set(lineNum, sharers.get(lineNum) & ~(1u << requesterId));
    }

    void
    warmRequest(int requesterId, Addr lineAddr, bool isWrite) override
    {
        // The same directory step as request(), then a warm tag/LRU
        // update of the L2 itself: no events, penalties or stats
        // (DESIGN.md §15).
        updateDirectory(requesterId, lineAddr, isWrite, true);
        cache.warmAccess(lineAddr, isWrite);
    }

    Cache &l2cache() { return cache; }

  private:
    /**
     * The directory step of request() and warmRequest(): a write drops
     * every other sharer's copy, then the requester (an L1D, id >= 0)
     * is recorded as a sharer. Returns true if copies were dropped;
     * @p warm skips the stats. A dirty L1D eviction's writeback also
     * lands here and records the evicting L1 again, so a later writer
     * pays for invalidating a copy that is gone. Fixing that changes
     * simulated results, so it is left for a change that re-pins them.
     */
    bool
    updateDirectory(int requesterId, Addr lineAddr, bool isWrite,
                    bool warm)
    {
        Addr lineNum = lineOf(lineAddr);
        std::uint32_t bits = sharers.get(lineNum);
        std::uint32_t mine = requesterId >= 0 ? 1u << requesterId : 0;
        bool invalidated = false;
        std::uint32_t others = isWrite ? bits & ~mine : 0;
        if (others != 0) {
            for (unsigned i = 0; i < l1ds.size(); ++i)
                if (others & (1u << i))
                    l1ds[i]->invalidate(lineAddr, warm);
            invalidated = true;
            if (!warm)
                sDirInvalidates++;
        }
        std::uint32_t after = (bits & ~others) | mine;
        if (after != bits)
            sharers.set(lineNum, after);
        return invalidated;
    }

    /** Park @p cb in a free slot of parked and return its index. */
    unsigned
    parkCallback(MemCallback cb)
    {
        if (freeParked.empty()) {
            parked.push_back(std::move(cb));
            return static_cast<unsigned>(parked.size() - 1);
        }
        unsigned slot = freeParked.back();
        freeParked.pop_back();
        parked[slot] = std::move(cb);
        return slot;
    }

    ClockDomain &clock;
    Cycles invalPenalty;
    StatHandle sDirInvalidates;
    Cache cache;
    std::vector<Cache *> l1ds;
    /**
     * Line -> mask of the L1Ds recorded as holding it; a line whose
     * mask drops to zero leaves the table. It is a side table, not
     * bits beside the L2 tags: the directory is not inclusive, and its
     * entries (stale ones included, see updateDirectory) outlive the
     * L2's own copy. Sized for every L1D line at half load.
     */
    AddrMap<std::uint32_t> sharers{8192};
    /** Callbacks waiting out the invalidation penalty, by slot. */
    std::vector<MemCallback> parked;
    std::vector<unsigned> freeParked;
};

class MemSystem
{
  public:
    MemSystem(ClockDomain &uncore, StatGroup &stats,
              MemSystemParams params = {});

    /** Instruction fetch from core @p coreId (big = numLittle). */
    void fetchInst(unsigned coreId, Addr addr, MemCallback done);

    /** Scalar data access through core @p coreId's private L1D. */
    void accessData(unsigned coreId, Addr addr, bool isWrite,
                    MemCallback done);

    /** accessData() for a core that completes its own hits: see
     *  Cache::accessTick(). */
    Tick
    accessDataTick(unsigned coreId, Addr addr, bool isWrite,
                   MemCallback onMiss)
    {
        sDataReqs++;
        return l1d(coreId).accessTick(addr, isWrite, std::move(onMiss));
    }

    /**
     * Vector-mode access through L1D bank @p bank of the logically
     * shared multi-bank cache (VMSU path).
     */
    void accessBank(unsigned bank, Addr addr, bool isWrite,
                    MemCallback done);

    /** Direct L2 access (decoupled vector engine path). */
    void accessL2(Addr addr, bool isWrite, MemCallback done);

    /**
     * Enter/exit vector mode: little L1Ds switch to banked indexing.
     * Resident lines are left in place and migrate on demand, as in
     * the paper.
     */
    void setVectorMode(bool on);

    /** Bank selection for an address (paper's interleaving). */
    unsigned bankOf(Addr addr) const { return bankMap.bankOf(addr); }

    // --- functional warm-up (fast-forward engine, DESIGN.md §15) -----

    /** Warm the instruction-fetch path of core @p coreId. */
    void
    warmFetch(unsigned coreId, Addr addr)
    {
        l1i(coreId).warmAccess(addr, false);
    }

    /** Warm the scalar data path of core @p coreId. */
    void
    warmData(unsigned coreId, Addr addr, bool isWrite)
    {
        l1d(coreId).warmAccess(addr, isWrite);
    }

    /** Warm the L2 + directory directly (vector element traffic). */
    void
    warmL2(Addr addr, bool isWrite)
    {
        l2front->warmRequest(-1, lineAlign(addr), isWrite);
    }

    /** Attach a fault injector to every cache and the DRAM channel. */
    void setFaultInjector(FaultInjector *inj);

    /** Attach the tracer to every cache and the DRAM channel. */
    void setTracer(Tracer *t);

    /** Register every level's heartbeat with a progress watchdog. */
    void registerProgress(Watchdog &wd);

    /** Register every cache's structural invariants. */
    void registerInvariants(InvariantRegistry &reg);

    unsigned numLittle() const { return p.numLittle; }
    unsigned bigCoreId() const { return p.numLittle; }

    /** Private L1 instruction/data cache of core @p coreId. */
    Cache &
    l1i(unsigned coreId)
    {
        return coreId == bigCoreId() ? *bigL1Ic : *littleL1Is[coreId];
    }
    Cache &
    l1d(unsigned coreId)
    {
        return coreId == bigCoreId() ? *bigL1Dc : *littleL1Ds[coreId];
    }

  private:
    MemSystemParams p;
    StatHandle sIfetchReqs, sDataReqs;
    BankMap bankMap;

    std::unique_ptr<Dram> dram;
    std::unique_ptr<L2Front> l2front;
    std::vector<std::unique_ptr<Cache>> littleL1Ds;
    std::vector<std::unique_ptr<Cache>> littleL1Is;
    std::unique_ptr<Cache> bigL1Dc;
    std::unique_ptr<Cache> bigL1Ic;
};

} // namespace bvl

#endif // BVL_MEM_MEM_SYSTEM_HH
