/**
 * @file
 * The scalar cache hits a core has issued and not yet applied
 * (DESIGN.md §11).
 *
 * An L1D hit has a fixed latency behind the tag port, so the core that
 * issued it completes it itself instead of through a closure event. At
 * issue it reserves the FIFO sequence number the closure would have
 * drawn, and files (ready tick, seq, what completes) here. The core
 * applies an entry once its (tick, seq) slot comes before the running
 * event's, which is where the closure would have run. One cache's port
 * serializes its lookups, so ready ticks never decrease in issue order
 * and the FIFO is sorted by (tick, seq) as it is filled.
 */

#ifndef BVL_CPU_PENDING_HITS_HH
#define BVL_CPU_PENDING_HITS_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/ring.hh"

namespace bvl
{

template <typename What>
class PendingHits
{
  public:
    struct Entry
    {
        Tick due = 0;
        std::uint64_t seq = 0;
        What what{};
    };

    /** @param capacity the core's load/store queue entries. */
    explicit PendingHits(std::size_t capacity) : fifo(capacity) {}

    /** File a hit ready at @p due in a freshly reserved slot. */
    void
    push(EventQueue &eq, Tick due, What what)
    {
        fifo.push_back(Entry{due, eq.reserveSeq(), what});
    }

    /** Apply, oldest first, every hit whose slot comes before the
     *  running event's. */
    template <typename Apply>
    void
    applyDue(const EventQueue &eq, Apply &&apply)
    {
        while (!fifo.empty() && eq.before(fifo.front().due,
                                          fifo.front().seq)) {
            Entry e = fifo.front();
            fifo.pop_front();
            apply(e);
        }
    }

    /** applyDue() at the start of the owner's tick; the invariant
     *  checks that it left nothing due behind. */
    template <typename Apply>
    void
    applyAtTick(const EventQueue &eq, Apply &&apply)
    {
        appliedAt = eq.now();
        appliedSeq = eq.runningSeq();
        applyDue(eq, apply);
    }

    /** Apply every hit; the caller runs at the last one's slot. */
    template <typename Apply>
    void
    applyAll(Apply &&apply)
    {
        for (; !fifo.empty(); fifo.pop_front())
            apply(fifo.front());
    }

    bool empty() const { return fifo.empty(); }
    /** The youngest hit: the last to complete. */
    const Entry &back() const { return fifo[fifo.size() - 1]; }
    void clear() { fifo.clear(); }

    /**
     * The `<core>.mem.pending` invariant: entries sorted by
     * (due, seq), @p inFlight of them (the core's hits in flight),
     * and none due before the owner's last tick started.
     */
    std::string
    check(std::size_t inFlight) const
    {
        if (fifo.size() != inFlight)
            return std::to_string(fifo.size()) + " pending hits, " +
                   std::to_string(inFlight) + " hits in flight";
        for (std::size_t i = 0; i < fifo.size(); ++i) {
            const Entry &e = fifo[i];
            if (e.due < appliedAt ||
                (e.due == appliedAt && e.seq < appliedSeq))
                return "hit (" + std::to_string(e.due) + ", " +
                       std::to_string(e.seq) + ") still pending after "
                       "the tick at (" + std::to_string(appliedAt) +
                       ", " + std::to_string(appliedSeq) + ")";
            if (i == 0)
                continue;
            const Entry &prev = fifo[i - 1];
            if (prev.due > e.due ||
                (prev.due == e.due && prev.seq > e.seq))
                return "hit (" + std::to_string(e.due) + ", " +
                       std::to_string(e.seq) + ") queued after (" +
                       std::to_string(prev.due) + ", " +
                       std::to_string(prev.seq) + ")";
        }
        return "";
    }

  private:
    Ring<Entry> fifo;
    /** Slot of the owner's last tick (applyAtTick()). */
    Tick appliedAt = 0;
    std::uint64_t appliedSeq = 0;
};

} // namespace bvl

#endif // BVL_CPU_PENDING_HITS_HH
