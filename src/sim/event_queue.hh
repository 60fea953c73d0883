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
 * The tick events of each clock domain wait in its EdgeQueue, every
 * other event in one indexed 4-ary min-heap, and step() fires the
 * least of the heap's top and each domain's front (DESIGN.md §10).
 * Nothing is allocated per firing: components embed intrusive Events,
 * and one-shot closures (scheduleAt(when, fn)) are SmallFns moved into
 * pooled event nodes.
 *
 * A component that completes work without an event (a scalar cache
 * hit, DESIGN.md §11) reserves the sequence number the event would
 * have drawn (reserveSeq()), compares it with the running event's
 * (runningSeq()), and may later arm an event at exactly that
 * (tick, seq) slot.
 */

#ifndef BVL_SIM_EVENT_QUEUE_HH
#define BVL_SIM_EVENT_QUEUE_HH

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
 * An intrusive, reschedulable event. Components embed one and arm it
 * through the EventQueue; the queue never owns it. While armed it
 * knows its heap entry's position, so descheduling removes the entry.
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

  private:
    friend class EventQueue;
    friend class EdgeQueue;
    Tick _when = 0;
    /** FIFO sequence number of the current (or last) arming. */
    std::uint64_t _seq = 0;
    std::uint32_t _pos = 0;
    bool _scheduled = false;
};

/**
 * An event armed only on the edges of its clock domain (the Clocked
 * tick event): it waits in the domain's EdgeQueue, never in the heap.
 */
class EdgeEvent : public Event
{
  private:
    friend class EdgeQueue;
    EdgeEvent *_prev = nullptr;
    EdgeEvent *_next = nullptr;
};

/**
 * The armed edge events of one clock domain: an intrusive FIFO for its
 * pending edge and one for the edge after it. A tick event is armed
 * only for the next edge after now, so no third edge can be pending,
 * and it draws the largest seq yet, so appending keeps each FIFO
 * sorted. An arm anywhere else panics.
 */
class EdgeQueue
{
  public:
    explicit EdgeQueue(Tick period) : _period(period) {}
    EdgeQueue(const EdgeQueue &) = delete;
    EdgeQueue &operator=(const EdgeQueue &) = delete;

    Tick period() const { return _period; }

  private:
    friend class EventQueue;

    struct Fifo
    {
        EdgeEvent *head = nullptr;
        EdgeEvent *tail = nullptr;
    };

    void
    arm(EdgeEvent &ev, Tick when)
    {
        Fifo *f = &pending;
        if (!pending.head) {
            // With nothing pending, any edge of the domain.
            bvl_assert(when == edge + _period || when % _period == 0,
                       "tick event armed at %llu, off its %llu ps edges",
                       (unsigned long long)when,
                       (unsigned long long)_period);
            edge = when;
        } else if (when != edge) {
            bvl_assert(when == edge + _period,
                       "tick event armed at %llu, off its pending edges "
                       "%llu and %llu", (unsigned long long)when,
                       (unsigned long long)edge,
                       (unsigned long long)(edge + _period));
            f = &following;
        }
        ev._prev = f->tail;
        ev._next = nullptr;
        (f->tail ? f->tail->_next : f->head) = &ev;
        f->tail = &ev;
    }

    void
    unlink(EdgeEvent &ev)
    {
        Fifo &f = ev._when == edge ? pending : following;
        (ev._prev ? ev._prev->_next : f.head) = ev._next;
        (ev._next ? ev._next->_prev : f.tail) = ev._prev;
        if (!pending.head)
            advance();
    }

    void
    popFront()
    {
        pending.head = pending.head->_next;
        if (pending.head)
            pending.head->_prev = nullptr;
        else
            advance();
    }

    /** The pending edge drained: the next one becomes pending. With
     *  neither armed, edge stays the last pending edge. */
    void
    advance()
    {
        pending = following;
        following = Fifo{};
        if (pending.head)
            edge += _period;
    }

    Tick _period;
    /** The tick of every event in pending; following's is one period
     *  later. */
    Tick edge = 0;
    Fifo pending;
    Fifo following;
};

/**
 * The pending events of one simulated system in (tick, seq) order.
 * One EventQueue exists per simulated system; components hold a
 * reference to it, and its clock domains register their EdgeQueues.
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

    /** Fire the events armed in @p edges, before any is armed. */
    void addDomain(EdgeQueue &edges) { domains.push_back(&edges); }

    /** Stop scanning @p edges, which has nothing armed. */
    void removeDomain(EdgeQueue &edges) { std::erase(domains, &edges); }

    // ---------------------------------------------------------------
    // Intrusive (non-owning) path: zero allocation per schedule.
    // ---------------------------------------------------------------

    /** Arm @p ev to fire at absolute time @p when (>= now). */
    void scheduleAt(Event &ev, Tick when) { push(ev, when, nextSeq++); }

    /**
     * Arm @p ev at the slot (@p when, @p seq) of a sequence number
     * taken earlier with reserveSeq(), as if it had been scheduled
     * then. The slot must lie after the running event's.
     */
    void
    scheduleAt(Event &ev, Tick when, std::uint64_t seq)
    {
        bvl_assert(seq < nextSeq && (when > _now || seq > _runningSeq),
                   "reserved slot (%llu, %llu) is not pending",
                   (unsigned long long)when, (unsigned long long)seq);
        push(ev, when, seq);
    }

    /** Disarm a pending event; it can be re-armed immediately. */
    void
    deschedule(Event &ev)
    {
        bvl_assert(ev._scheduled, "deschedule of an idle event");
        erase(ev._pos);
        ev._scheduled = false;
        --numLive;
    }

    /** Arm @p ev on the clock edge @p when of the domain whose FIFOs
     *  are @p edges. */
    void
    scheduleAt(EdgeEvent &ev, Tick when, EdgeQueue &edges)
    {
        checkNotPast(when);
        bvl_assert(!ev._scheduled, "event double-scheduled");
        edges.arm(ev, when);
        ev._when = when;
        ev._seq = nextSeq++;
        ev._scheduled = true;
        ++numLive;
    }

    /** Disarm @p ev, pending in @p edges. */
    void
    deschedule(EdgeEvent &ev, EdgeQueue &edges)
    {
        bvl_assert(ev._scheduled, "deschedule of an idle event");
        edges.unlink(ev);
        ev._scheduled = false;
        --numLive;
    }

    /** Edge events never enter the heap. */
    void scheduleAt(EdgeEvent &, Tick) = delete;
    void deschedule(EdgeEvent &) = delete;

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

    /**
     * Pop and execute the earliest event, advancing time.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        EdgeQueue *from;
        Event *ev = front(from);
        if (!ev)
            return false;
        fire(*ev, from);
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
        const bool never = false;
        runUntil(never, limit);
        return empty();
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
            EdgeQueue *from;
            Event *ev = front(from);
            if (!ev || ev->_when > limit)
                return false;
            fire(*ev, from);
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _tickEvents + _heapEvents; }

    /** Events executed from the domains' edge FIFOs. */
    std::uint64_t tickEventsExecuted() const { return _tickEvents; }

    /** Events executed from the heap. */
    std::uint64_t heapEventsExecuted() const { return _heapEvents; }

  private:
    /** 24-byte heap entry: sifts move small trivially-copyable values
     *  and never touch a callable. */
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

    /** (tick, seq) order as one 128-bit key, so comparing does not
     *  branch. */
    static bool
    earlier(Tick aWhen, std::uint64_t aSeq, Tick bWhen, std::uint64_t bSeq)
    {
        using Key = unsigned __int128;
        return ((Key(aWhen) << 64) | aSeq) < ((Key(bWhen) << 64) | bSeq);
    }

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return earlier(a.when, a.seq, b.when, b.seq);
    }

    void
    checkNotPast(Tick when) const
    {
        bvl_assert(when >= _now, "event scheduled in the past "
                   "(when=%llu now=%llu)",
                   (unsigned long long)when, (unsigned long long)_now);
    }

    void
    push(Event &ev, Tick when, std::uint64_t seq)
    {
        checkNotPast(when);
        bvl_assert(!ev._scheduled, "event double-scheduled");
        ev._when = when;
        ev._seq = seq;
        ev._scheduled = true;
        ++numLive;
        heap.emplace_back();
        siftUp(heap.size() - 1, HeapEntry{when, seq, &ev});
    }

    /** Store @p e at heap position @p i and tell its event. */
    void
    place(std::size_t i, const HeapEntry &e)
    {
        heap[i] = e;
        e.ev->_pos = static_cast<std::uint32_t>(i);
    }

    /** Fill the hole at @p i with @p e, moving it toward the root. */
    void
    siftUp(std::size_t i, const HeapEntry &e)
    {
        for (; i > 0 && earlier(e, heap[(i - 1) / arity]);
             i = (i - 1) / arity)
            place(i, heap[(i - 1) / arity]);
        place(i, e);
    }

    /**
     * Remove the entry at @p i: move the hole down along the least
     * children to a leaf, then fill it with the last entry from there.
     * The least child is picked by a select, not a branch: which one
     * it is follows no pattern.
     */
    void
    erase(std::size_t i)
    {
        HeapEntry last = heap.back();
        heap.pop_back();
        std::size_t n = heap.size();
        if (i == n)
            return;
        for (std::size_t c; (c = arity * i + 1) < n;) {
            std::size_t least = c;
            for (std::size_t k = c + 1; k < c + arity && k < n; ++k)
                least = earlier(heap[k], heap[least]) ? k : least;
            place(i, heap[least]);
            i = least;
        }
        siftUp(i, last);
    }

    /** The earliest armed event, or null; @p from is set to the
     *  domain FIFOs it waits in, or null for the heap. */
    Event *
    front(EdgeQueue *&from) const
    {
        Event *best = heap.empty() ? nullptr : heap.front().ev;
        from = nullptr;
        for (EdgeQueue *d : domains) {
            Event *ev = d->pending.head;
            if (ev && (!best || earlier(ev->_when, ev->_seq, best->_when,
                                        best->_seq))) {
                best = ev;
                from = d;
            }
        }
        return best;
    }

    /** Unlink the front event @p ev, advance time and run it. */
    void
    fire(Event &ev, EdgeQueue *from)
    {
        if (from)
            from->popFront();
        else
            erase(0);
        --numLive;
        _now = ev._when;
        _runningSeq = ev._seq;
        // Disarm before process() so the handler may re-arm itself;
        // a closure node returns to the pool the same way.
        ev._scheduled = false;
        ev.process();
        ++(from ? _tickEvents : _heapEvents);
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
    /** Children per heap node: half the levels of a binary heap, so
     *  half the position writes per pop. */
    static constexpr std::size_t arity = 4;

    std::vector<HeapEntry> heap;
    /** The registered clock domains' edge FIFOs. */
    std::vector<EdgeQueue *> domains;
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
    std::uint64_t _tickEvents = 0;
    std::uint64_t _heapEvents = 0;
};

} // namespace bvl

#endif // BVL_SIM_EVENT_QUEUE_HH
