/**
 * @file
 * Front-end fetch line buffer with next-line prefetch.
 *
 * Holds a small window of instruction-cache lines that have completed
 * their L1I access. A demand request for a new line also prefetches
 * the sequential next line, modelling a pipelined front end: straight-
 * line code streams at full fetch width, while taken branches to cold
 * lines pay the L1I (or miss) latency.
 *
 * Both sets are a handful of lines, so they are flat arrays searched
 * linearly: the per-fetch lookups neither hash nor allocate
 * (DESIGN.md §11). Consecutive fetches from one line skip even that:
 * the buffer remembers the last line it found ready.
 */

#ifndef BVL_CPU_FETCH_BUFFER_HH
#define BVL_CPU_FETCH_BUFFER_HH

#include <algorithm>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/clock_domain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class FetchBuffer
{
  public:
    FetchBuffer(MemSystem &mem, unsigned coreId, StatGroup &stats,
                std::string statPrefix, unsigned capacity = 8,
                unsigned prefetchDepth = 3)
        : mem(mem), coreId(coreId), stats(stats),
          prefix(std::move(statPrefix)),
          sLineReqs(stats.handle(prefix + "fetchLineReqs")),
          sPrefetches(stats.handle(prefix + "fetchPrefetches")),
          capacity(capacity), prefetchDepth(prefetchDepth),
          ready(capacity + 1)
    {
        pending.reserve(2 * (prefetchDepth + 1));
    }

    /**
     * True if the line containing @p addr is in the buffer. If not,
     * issues a demand fetch (plus a next-line prefetch) and arranges
     * for @p waker (when non-null) to be re-activated when the demand
     * line arrives. A Clocked pointer rather than a callable: both
     * cores wake the same way, and the completion closure stays a
     * fixed 24-byte capture.
     */
    bool
    lineReady(Addr addr, Clocked *waker)
    {
        Addr line = lineOf(addr);
        if (line == lastReady)
            return true;
        if (isReady(line)) {
            lastReady = line;
            for (unsigned d = 1; d <= prefetchDepth; ++d)
                prefetch(line + d);
            return true;
        }
        if (!isPending(line)) {
            sLineReqs++;
            request(line, waker);
            for (unsigned d = 1; d <= prefetchDepth; ++d)
                prefetch(line + d);
        }
        return false;
    }

    void
    reset()
    {
        lastReady = noLine;
        ready.clear();
        // Pending requests may still complete; their callbacks tolerate
        // a reset because they only insert into the (cleared) sets.
        pending.clear();
    }

  private:
    bool
    isReady(Addr line) const
    {
        for (std::size_t i = 0; i < ready.size(); ++i)
            if (ready[i] == line)
                return true;
        return false;
    }

    bool
    isPending(Addr line) const
    {
        return std::find(pending.begin(), pending.end(), line) !=
               pending.end();
    }

    void
    prefetch(Addr line)
    {
        if (isReady(line) || isPending(line))
            return;
        sPrefetches++;
        request(line, nullptr);
    }

    void
    request(Addr line, Clocked *waker)
    {
        pending.push_back(line);
        mem.fetchInst(coreId, line << lineShift, [this, line, waker] {
            auto it = std::find(pending.begin(), pending.end(), line);
            if (it != pending.end()) {
                *it = pending.back();
                pending.pop_back();
            }
            insertReady(line);
            if (waker)
                waker->activate();
        });
    }

    void
    insertReady(Addr line)
    {
        lastReady = noLine;
        if (isReady(line))
            return;
        ready.push_back(line);
        if (ready.size() > capacity)
            ready.pop_front();
    }

    MemSystem &mem;
    unsigned coreId;
    StatGroup &stats;
    std::string prefix;
    StatHandle sLineReqs, sPrefetches;
    unsigned capacity;
    unsigned prefetchDepth;

    /** Arrived lines, oldest first; the oldest leaves on overflow. */
    Ring<Addr> ready;
    /** Lines requested and not yet arrived (no duplicates). */
    std::vector<Addr> pending;

    static constexpr Addr noLine = ~Addr(0);
    /**
     * The line lineReady() last found ready, or noLine. A line leaves
     * the ready ring only in insertReady() or reset(), and the pending
     * list only there or in the arrival callback just before its
     * insertReady(). Until then the line is still ready and its
     * prefetch lines are ready or pending, so a repeat lookup has
     * nothing to do.
     */
    Addr lastReady = noLine;
};

} // namespace bvl

#endif // BVL_CPU_FETCH_BUFFER_HH
