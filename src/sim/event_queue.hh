/**
 * @file
 * Global discrete-event queue driving a simulation.
 *
 * Time is measured in picosecond Ticks so that clock domains with
 * different frequencies (the big-core and little-core clusters under
 * DVFS) can coexist in one queue. Events fire in (tick, seq) order,
 * where seq is a FIFO sequence number drawn when the event is
 * scheduled, so events scheduled for the same tick fire in the order
 * they were scheduled, which keeps the simulation deterministic.
 *
 * Pending events live in one FIFO bucket per distinct pending tick.
 * A bucket is an intrusive doubly linked list threaded through the
 * events themselves; a min-heap over the buckets' ticks finds the
 * earliest one, and a tick -> bucket hash map finds the bucket a
 * schedule appends to when it is not the previous schedule's, the
 * front one or a new latest tick. Sequence numbers are handed out in
 * append order, so appending keeps each bucket sorted by seq and the
 * firing order is (tick, seq) by construction. Only a new distinct
 * tick touches the heap (O(log ticks)); schedule, deschedule and step
 * are otherwise O(1), and nothing scans the pending ticks.
 *
 * Two scheduling paths share the buckets and one sequence space:
 *
 *  - intrusive Events (gem5 style): a component owns the event object
 *    and re-arms it via schedule()/deschedule()/reschedule(). Nothing
 *    is allocated per firing — this is the steady-state tick path.
 *  - closure events: scheduleAt(when, fn) for one-shot callbacks. The
 *    callable is a SmallFn (no allocation for captures <= 64 bytes)
 *    moved into a pooled event node, so the steady state allocates
 *    nothing here either.
 *
 * A component that completes work without an event (a scalar cache
 * hit, DESIGN.md §11) reserves the sequence number the event would
 * have drawn (reserveSeq()), compares it with the running event's
 * (runningSeq()), and may later arm an event at exactly that
 * (tick, seq) slot; such an event is sorted into its bucket.
 */

#ifndef BVL_SIM_EVENT_QUEUE_HH
#define BVL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/addr_map.hh"
#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace bvl
{

/** Callback type executed when a closure event fires. */
using EventFn = SmallFn;

/**
 * An intrusive, reschedulable event. Components embed one (e.g. the
 * Clocked tick event) and arm it through the EventQueue; the queue
 * never owns it. While armed it is linked into its tick's bucket, so
 * descheduling unlinks it in O(1).
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event() = default;

    /** Called when the event fires; the event is already disarmed. */
    virtual void process() = 0;

    /** True while armed in a queue. */
    bool scheduled() const { return _scheduled; }

    /** Absolute tick this event is (or was last) armed for. */
    Tick when() const { return _when; }

  private:
    friend class EventQueue;
    Tick _when = 0;
    /** FIFO sequence number of the current (or last) arming. */
    std::uint64_t _seq = 0;
    /** Neighbours in the bucket while armed. */
    Event *_prev = nullptr;
    Event *_next = nullptr;
    /** Index of the bucket it is linked into while armed. */
    std::uint32_t _bucket = 0;
    bool _scheduled = false;
};

/**
 * The pending events of one simulated system in (tick, seq) order.
 * One EventQueue exists per simulated system; components hold a
 * reference to it.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        // Room for a busy system's in-flight events and pending ticks
        // up front, so the pools do not grow mid-run (DESIGN.md §11).
        buckets.reserve(initialTicks);
        freeBuckets.reserve(initialTicks);
        tickHeap.reserve(initialTicks);
        // Bucket 0 starts on the free list, so lastBucket always
        // names a bucket.
        buckets.emplace_back();
        freeBuckets.push_back(0);
        freeClosures.reserve(initialEvents);
        for (std::size_t i = 0; i < initialEvents; ++i) {
            closurePool.emplace_back().owner = this;
            freeClosures.push_back(&closurePool.back());
        }
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    // ---------------------------------------------------------------
    // Intrusive (non-owning) path: zero allocation per schedule.
    // ---------------------------------------------------------------

    /** Arm @p ev to fire at absolute time @p when (>= now). */
    void
    scheduleAt(Event &ev, Tick when)
    {
        checkNotPast(when);
        bvl_assert(!ev._scheduled, "event double-scheduled");
        ev._when = when;
        ev._seq = nextSeq++;
        Bucket &b = bucketFor(when, ev);
        ev._prev = b.tail;
        ev._next = nullptr;
        (b.tail ? b.tail->_next : b.head) = &ev;
        b.tail = &ev;
        ev._scheduled = true;
        ++numLive;
    }

    /**
     * Arm @p ev at the slot (@p when, @p seq) of a sequence number
     * taken earlier with reserveSeq(), as if it had been scheduled
     * then. The slot must lie after the running event's.
     */
    void
    scheduleAt(Event &ev, Tick when, std::uint64_t seq)
    {
        checkNotPast(when);
        bvl_assert(!ev._scheduled, "event double-scheduled");
        bvl_assert(seq < nextSeq && (when > _now || seq > _runningSeq),
                   "reserved slot (%llu, %llu) is not pending",
                   (unsigned long long)when, (unsigned long long)seq);
        ev._when = when;
        ev._seq = seq;
        Bucket &b = bucketFor(when, ev);
        // Younger entries sit at the tail: walk back past them.
        Event *after = b.tail;
        while (after && after->_seq > seq)
            after = after->_prev;
        ev._prev = after;
        ev._next = after ? after->_next : b.head;
        (ev._next ? ev._next->_prev : b.tail) = &ev;
        (after ? after->_next : b.head) = &ev;
        ev._scheduled = true;
        ++numLive;
    }

    /** Arm @p ev to fire @p delay ticks from now. */
    void schedule(Event &ev, Tick delay)
    { scheduleAt(ev, _now + delay); }

    /**
     * Disarm a pending event. O(1): it is unlinked from its bucket,
     * and an emptied bucket is dropped when it reaches the front.
     * The event can be re-armed immediately.
     */
    void
    deschedule(Event &ev)
    {
        bvl_assert(ev._scheduled, "deschedule of an idle event");
        Bucket &b = buckets[ev._bucket];
        (ev._prev ? ev._prev->_next : b.head) = ev._next;
        (ev._next ? ev._next->_prev : b.tail) = ev._prev;
        ev._scheduled = false;
        --numLive;
    }

    /** Move a (possibly armed) event to a new absolute time. The
     *  event re-enters the same-tick FIFO at its new schedule point. */
    void
    reschedule(Event &ev, Tick when)
    {
        if (ev._scheduled)
            deschedule(ev);
        scheduleAt(ev, when);
    }

    // ---------------------------------------------------------------
    // Closure path: one-shot callbacks on pooled event nodes.
    // ---------------------------------------------------------------

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void
    scheduleAt(Tick when, EventFn fn)
    {
        checkNotPast(when);
        ClosureEvent *ev = acquireClosure();
        ev->fn = std::move(fn);
        scheduleAt(*ev, when);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    void schedule(Tick delay, EventFn fn)
    { scheduleAt(_now + delay, std::move(fn)); }

    // ---------------------------------------------------------------
    // Reserved slots: work completed without an event.
    // ---------------------------------------------------------------

    /** Draw the sequence number a schedule made now would get. */
    std::uint64_t reserveSeq() { return nextSeq++; }

    /** Sequence number of the event running (or last run). */
    std::uint64_t runningSeq() const { return _runningSeq; }

    /**
     * True if the slot (@p when, @p seq) comes before the running
     * event's: an event armed there would already have fired.
     */
    bool
    before(Tick when, std::uint64_t seq) const
    {
        return when < _now || (when == _now && seq < _runningSeq);
    }

    // ---------------------------------------------------------------

    /** True if no live events remain. */
    bool empty() const { return numLive == 0; }

    /** Number of pending (armed) events. */
    std::size_t size() const { return numLive; }

    /** Time of the earliest pending event (maxTick if none). */
    Tick
    nextEventTick()
    {
        Event *ev = front();
        return ev ? ev->_when : maxTick;
    }

    /**
     * Pop and execute the earliest event, advancing time.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        Event *ev = front();
        if (!ev)
            return false;
        fire(*ev);
        return true;
    }

    /**
     * Run until the queue drains or @p limit ticks of simulated time
     * elapse.
     * @retval true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = maxTick)
    {
        for (;;) {
            Event *ev = front();
            if (!ev)
                return true;
            if (ev->_when > limit)
                return false;
            fire(*ev);
        }
    }

    /**
     * Run until an event sets @p stop, the queue drains, or the tick
     * limit is reached. The flag is a plain load per event, not a
     * call.
     * @retval true iff @p stop became true.
     */
    bool
    runUntil(const bool &stop, Tick limit = maxTick)
    {
        while (!stop) {
            Event *ev = front();
            if (!ev || ev->_when > limit)
                return false;
            fire(*ev);
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

  private:
    /** The events pending at one tick, oldest seq first. */
    struct Bucket
    {
        Tick when = 0;
        Event *head = nullptr;
        Event *tail = nullptr;
        /** Listed in tickHeap (not on the free list). */
        bool inUse = false;
        /** Listed in bucketAt (see bucketFor()). */
        bool inMap = false;
    };

    /** 16-byte min-heap entry: a pending tick and its bucket. */
    struct TickEntry
    {
        Tick when;
        std::uint32_t bucket;
    };

    /**
     * Min-heap comparator over distinct ticks: the standard heap
     * algorithms build a max-heap, so "greater" puts the earliest
     * tick at the front. A stateless functor, so push_heap/pop_heap
     * inline the comparison.
     */
    struct LaterThan
    {
        bool
        operator()(const TickEntry &a, const TickEntry &b) const
        {
            return a.when > b.when;
        }
    };

    /** Pooled node backing one one-shot closure event. */
    struct ClosureEvent final : Event
    {
        EventQueue *owner = nullptr;
        EventFn fn;

        void
        process() override
        {
            // Move the callable out and free the node first: the
            // callback may schedule new closures and reuse it.
            EventFn f = std::move(fn);
            owner->freeClosures.push_back(this);
            f();
        }
    };

    void
    checkNotPast(Tick when) const
    {
        bvl_assert(when >= _now, "event scheduled in the past "
                   "(when=%llu now=%llu)",
                   (unsigned long long)when, (unsigned long long)_now);
    }

    /**
     * The bucket of tick @p when, made if none is pending; records it
     * as @p ev's.
     *
     * A schedule mostly targets the tick of the previous one (a clock
     * edge several components re-arm for, a burst of same-tick
     * closures), the front tick, or a tick later than any pending
     * one, so the tick -> bucket map is kept lazily: a bucket enters
     * it only when it stops being both the last one used and the
     * front, the two found without it. A lone clock re-arming at
     * now + period then never touches the map.
     */
    Bucket &
    bucketFor(Tick when, Event &ev)
    {
        Bucket *b = &buckets[lastBucket];
        if (b->when != when || !b->inUse) {
            std::uint32_t idx = findOrOpen(when);
            if (idx != lastBucket)
                index(lastBucket);
            lastBucket = idx;
            b = &buckets[idx];
        }
        ev._bucket = lastBucket;
        return *b;
    }

    /** The pending bucket of tick @p when, or a new one. */
    std::uint32_t
    findOrOpen(Tick when)
    {
        if (!tickHeap.empty() && tickHeap.front().when == when)
            return tickHeap.front().bucket;
        if (when <= latestTick) {
            // The map stores index + 1: AddrMap reads 0 as absent.
            if (std::uint32_t found = bucketAt.get(when))
                return found - 1;
        }
        return retargetFront(when) ? tickHeap.front().bucket
                                   : openBucket(when);
    }

    /**
     * Move the front bucket to tick @p when, which has none, if it is
     * drained and @p when still comes before every other pending
     * tick: a lone clock re-arming from its own tick event then
     * reuses its bucket in place instead of opening one and
     * releasing the other.
     */
    bool
    retargetFront(Tick when)
    {
        if (tickHeap.empty())
            return false;
        TickEntry &top = tickHeap.front();
        Bucket &b = buckets[top.bucket];
        if (b.head)
            return false;
        std::size_t n = tickHeap.size();
        if ((n > 1 && tickHeap[1].when < when) ||
            (n > 2 && tickHeap[2].when < when))
            return false;
        if (b.inMap) {
            bucketAt.set(b.when, 0);
            b.inMap = false;
        }
        b.when = top.when = when;
        latestTick = std::max(latestTick, when);
        return true;
    }

    /** List pending bucket @p idx in the map unless it is there or
     *  is the front. */
    void
    index(std::uint32_t idx)
    {
        Bucket &b = buckets[idx];
        if (!b.inUse || b.inMap || tickHeap.front().bucket == idx)
            return;
        bucketAt.set(b.when, idx + 1);
        b.inMap = true;
    }

    /** Start an empty bucket for tick @p when; returns its index. */
    std::uint32_t
    openBucket(Tick when)
    {
        std::uint32_t idx;
        if (freeBuckets.empty()) {
            idx = static_cast<std::uint32_t>(buckets.size());
            buckets.emplace_back();
        } else {
            idx = freeBuckets.back();
            freeBuckets.pop_back();
        }
        Bucket &b = buckets[idx];
        b.when = when;
        b.head = b.tail = nullptr;
        b.inUse = true;
        b.inMap = false;
        latestTick = std::max(latestTick, when);
        std::uint32_t oldFront =
            tickHeap.empty() ? idx : tickHeap.front().bucket;
        tickHeap.push_back(TickEntry{when, idx});
        std::push_heap(tickHeap.begin(), tickHeap.end(), LaterThan{});
        // A bucket that stops being the front must be findable.
        index(oldFront);
        return idx;
    }

    /**
     * The earliest armed event, or null if none. Empty buckets at
     * the front (drained, or emptied by deschedule) are released on
     * the way.
     */
    Event *
    front()
    {
        while (!tickHeap.empty()) {
            std::uint32_t idx = tickHeap.front().bucket;
            Bucket &b = buckets[idx];
            if (b.head)
                return b.head;
            std::pop_heap(tickHeap.begin(), tickHeap.end(), LaterThan{});
            tickHeap.pop_back();
            if (b.inMap)
                bucketAt.set(b.when, 0);
            b.inUse = false;
            freeBuckets.push_back(idx);
        }
        return nullptr;
    }

    /** Unlink the front event @p ev, advance time and run it. */
    void
    fire(Event &ev)
    {
        Bucket &b = buckets[ev._bucket];
        b.head = ev._next;
        (b.head ? b.head->_prev : b.tail) = nullptr;
        --numLive;
        _now = ev._when;
        _runningSeq = ev._seq;
        // Disarm before process() so the handler may re-arm itself;
        // a closure node returns to the pool the same way.
        ev._scheduled = false;
        ev.process();
        ++_executed;
    }

    ClosureEvent *
    acquireClosure()
    {
        if (freeClosures.empty()) {
            closurePool.emplace_back().owner = this;
            return &closurePool.back();
        }
        ClosureEvent *ev = freeClosures.back();
        freeClosures.pop_back();
        return ev;
    }

    static constexpr std::size_t initialEvents = 1024;
    static constexpr std::size_t initialTicks = 512;

    /** Bucket pool; indices are stable, free ones are recycled. */
    std::vector<Bucket> buckets;
    std::vector<std::uint32_t> freeBuckets;
    /** Min-heap of the pending ticks, one entry per bucket in use. */
    std::vector<TickEntry> tickHeap;
    /** Pending tick -> its bucket index + 1, for every pending
     *  bucket but lastBucket and the front (bucketFor()). */
    AddrMap<std::uint32_t> bucketAt{2 * initialTicks};
    /** Bucket of the most recent schedule (may since be released). */
    std::uint32_t lastBucket = 0;
    /** No bucket is pending at a later tick than this. */
    Tick latestTick = 0;
    /** Closure nodes live here for the queue's lifetime (deque: node
     *  addresses are stable) and recycle through freeClosures. The
     *  first initialEvents are made up front; more only if that many
     *  closures are ever in flight at once. */
    std::deque<ClosureEvent> closurePool;
    std::vector<ClosureEvent *> freeClosures;
    std::size_t numLive = 0;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _runningSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace bvl

#endif // BVL_SIM_EVENT_QUEUE_HH
