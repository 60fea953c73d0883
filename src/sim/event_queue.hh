/**
 * @file
 * Global discrete-event queue driving a simulation.
 *
 * Time is measured in picosecond Ticks so that clock domains with
 * different frequencies (the big-core and little-core clusters under
 * DVFS) can coexist in one queue. Events scheduled for the same tick
 * fire in FIFO order of their scheduling, which keeps the simulation
 * deterministic.
 *
 * Two scheduling paths share one heap and one FIFO sequence space:
 *
 *  - intrusive Events (gem5 style): a component owns the event object
 *    and re-arms it via schedule()/deschedule()/reschedule(). Nothing
 *    is allocated per firing — this is the steady-state tick path.
 *  - closure events: scheduleAt(when, fn) for one-shot callbacks. The
 *    callable is a SmallFn (no allocation for captures <= 64 bytes)
 *    moved into a pooled event node, so the steady state allocates
 *    nothing here either.
 *
 * Both paths draw FIFO sequence numbers from the same counter at
 * schedule time, so mixing them cannot perturb same-tick ordering.
 */

#ifndef BVL_SIM_EVENT_QUEUE_HH
#define BVL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

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
 * never owns it. Descheduling is O(1): the heap entry is left behind
 * and lazily skipped, identified by a stale sequence stamp.
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
    /** Sequence stamp of the live heap entry (staleness check). */
    std::uint64_t _stamp = 0;
    bool _scheduled = false;
};

/**
 * A min-heap of timestamped events. One EventQueue exists per
 * simulated system; components hold a reference to it.
 */
class EventQueue
{
  public:
    EventQueue()
    {
        // Room for a busy system's in-flight events up front, so the
        // heap and the closure pool do not grow mid-run (DESIGN.md §11).
        heap.reserve(initialEvents);
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
        bvl_assert(when >= _now, "event scheduled in the past "
                   "(when=%llu now=%llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        bvl_assert(!ev._scheduled, "event double-scheduled");
        ev._when = when;
        ev._stamp = nextSeq;
        ev._scheduled = true;
        heap.push_back(HeapEntry{when, nextSeq++, &ev});
        std::push_heap(heap.begin(), heap.end(), LaterThan{});
        ++numLive;
    }

    /** Arm @p ev to fire @p delay ticks from now. */
    void schedule(Event &ev, Tick delay)
    { scheduleAt(ev, _now + delay); }

    /**
     * Disarm a pending event. O(1): the stale heap entry is skipped
     * when it surfaces. The event can be re-armed immediately.
     */
    void
    deschedule(Event &ev)
    {
        bvl_assert(ev._scheduled, "deschedule of an idle event");
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
        bvl_assert(when >= _now, "event scheduled in the past "
                   "(when=%llu now=%llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        ClosureEvent *ev = acquireClosure();
        ev->fn = std::move(fn);
        scheduleAt(*ev, when);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    void schedule(Tick delay, EventFn fn)
    { scheduleAt(_now + delay, std::move(fn)); }

    // ---------------------------------------------------------------

    /** True if no live events remain. */
    bool empty() const { return numLive == 0; }

    /** Number of pending (armed) events. */
    std::size_t size() const { return numLive; }

    /** Time of the earliest pending event (maxTick if none). */
    Tick
    nextEventTick()
    {
        purgeStale();
        return heap.empty() ? maxTick : heap.front().when;
    }

    /**
     * Pop and execute the earliest event, advancing time.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        purgeStale();
        if (heap.empty())
            return false;
        HeapEntry top = heap.front();
        popFront();
        --numLive;
        _now = top.when;
        // Disarm before process() so the handler may re-arm itself;
        // a closure node returns to the pool the same way.
        top.ev->_scheduled = false;
        top.ev->process();
        ++_executed;
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
            purgeStale();
            if (heap.empty())
                return true;
            if (heap.front().when > limit)
                return false;
            step();
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
            purgeStale();
            if (heap.empty() || heap.front().when > limit)
                return false;
            step();
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

  private:
    /**
     * 24-byte heap entry: the heap stores (when, seq, event pointer)
     * only, so sift operations move small trivially-copyable values
     * and never touch a callable.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
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

    /**
     * Min-heap comparator: the standard heap algorithms build a
     * max-heap, so "greater" puts the earliest event at the front. A
     * stateless functor rather than a function pointer, so
     * push_heap/pop_heap inline the comparison.
     */
    struct LaterThan
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

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

    /** Drop stale heap entries (descheduled or rescheduled events)
     *  off the top so heap.front() is the earliest live event. */
    void
    purgeStale()
    {
        while (!heap.empty()) {
            const HeapEntry &top = heap.front();
            if (top.ev->_scheduled && top.ev->_stamp == top.seq)
                return;
            popFront();
        }
    }

    void
    popFront()
    {
        std::pop_heap(heap.begin(), heap.end(), LaterThan{});
        heap.pop_back();
    }

    static constexpr std::size_t initialEvents = 1024;

    /** Binary min-heap maintained with std::push_heap/std::pop_heap;
     *  after purgeStale(), heap.front() is the earliest live event. */
    std::vector<HeapEntry> heap;
    /** Closure nodes live here for the queue's lifetime (deque: node
     *  addresses are stable) and recycle through freeClosures. The
     *  first initialEvents are made up front; more only if that many
     *  closures are ever in flight at once. */
    std::deque<ClosureEvent> closurePool;
    std::vector<ClosureEvent *> freeClosures;
    std::size_t numLive = 0;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace bvl

#endif // BVL_SIM_EVENT_QUEUE_HH
