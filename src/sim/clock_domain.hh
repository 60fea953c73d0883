/**
 * @file
 * Clock domains and the Clocked component base class.
 *
 * A ClockDomain converts between cycles and picosecond ticks for one
 * frequency island (big-core cluster, little-core cluster, uncore).
 * Frequencies are set at configuration time and stay fixed for a run;
 * the DVFS design-space exploration re-runs the simulation at each
 * voltage/frequency combination, exactly as the paper does.
 */

#ifndef BVL_SIM_CLOCK_DOMAIN_HH
#define BVL_SIM_CLOCK_DOMAIN_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bvl
{

/**
 * One frequency island. It keeps its components' armed tick events in
 * its own EdgeQueue, which it registers with the event queue on its
 * first tick arm: a domain that never ticks anything (the uncore) is
 * never scanned.
 */
class ClockDomain
{
  public:
    /**
     * @param eq     owning event queue
     * @param name   domain name for reporting
     * @param freq_ghz operating frequency in GHz
     */
    ClockDomain(EventQueue &eq, std::string name, double freq_ghz)
        : queue(eq), _name(std::move(name)), edges(periodOf(freq_ghz))
    {}
    /** Destroyed after its components, so nothing is armed here. */
    ~ClockDomain()
    {
        if (registered)
            queue.removeDomain(edges);
    }

    const std::string &name() const { return _name; }
    Tick periodPs() const { return edges.period(); }

    /** Duration of @p n cycles in ticks. */
    Tick cyclesToTicks(Cycles n) const { return n * periodPs(); }

    /** Cycles elapsed at current time (rounded down). */
    Cycles curCycle() const { return queue.now() / periodPs(); }

    /** Convert an absolute tick count into whole cycles of this domain. */
    Cycles ticksToCycles(Tick t) const { return t / periodPs(); }

    /** Ticks until the next clock edge strictly after now. */
    Tick
    ticksToNextEdge() const
    {
        Tick rem = queue.now() % periodPs();
        return periodPs() - rem;
    }

    /** Schedule @p fn a whole number of cycles from now. */
    void scheduleCycles(Cycles n, EventFn fn)
    { queue.schedule(cyclesToTicks(n), std::move(fn)); }

    /**
     * Arm @p ev on this domain's edge @p when. Only the pending edge
     * and the one after it may be armed (EdgeQueue).
     */
    void
    scheduleTick(EdgeEvent &ev, Tick when)
    {
        if (!registered) [[unlikely]] {
            queue.addDomain(edges);
            registered = true;
        }
        queue.scheduleAt(ev, when, edges);
    }

    /** Disarm @p ev, armed with scheduleTick(). */
    void descheduleTick(EdgeEvent &ev) { queue.deschedule(ev, edges); }

    EventQueue &eventQueue() { return queue; }

  private:
    static Tick
    periodOf(double freq_ghz)
    {
        bvl_assert(freq_ghz > 0.0, "frequency must be positive");
        auto period = static_cast<Tick>(1000.0 / freq_ghz + 0.5);
        bvl_assert(period > 0, "frequency too high");
        return period;
    }

    EventQueue &queue;
    std::string _name;
    EdgeQueue edges;
    /** edges is in the queue's scan list. */
    bool registered = false;
};

/**
 * Base class for components that tick once per cycle of their clock
 * domain while active. Components call activate() when they have work
 * and go dormant by returning false from tick(); memory callbacks etc.
 * re-activate them.
 *
 * Each Clocked owns one intrusive TickEvent that activate() re-arms,
 * so the steady-state tick loop never allocates: no closure is built
 * per cycle and re-arming appends the event to its domain's FIFO for
 * the next edge.
 */
class Clocked
{
  public:
    Clocked(ClockDomain &cd, std::string name)
        : _clock(cd), _name(std::move(name)), tickEvent(*this)
    {}

    /** Components are destroyed before their clock domain, so disarm
     *  the tick event rather than leave it linked into its FIFO. */
    virtual ~Clocked() { deactivate(); }

    ClockDomain &clock() { return _clock; }
    const ClockDomain &clock() const { return _clock; }
    const std::string &name() const { return _name; }

    /**
     * Ensure a tick event is pending. Safe to call redundantly; only
     * one tick event is in flight at a time.
     */
    void
    activate()
    {
        if (tickEvent.scheduled())
            return;
        // Align to the next clock edge so multi-domain systems stay
        // phase-consistent.
        _clock.scheduleTick(tickEvent,
                            _clock.eventQueue().now() +
                                _clock.ticksToNextEdge());
    }

    /** Cancel a pending tick event, going dormant immediately. */
    void
    deactivate()
    {
        if (tickEvent.scheduled())
            _clock.descheduleTick(tickEvent);
    }

    /** True if a tick event is currently scheduled. */
    bool active() const { return tickEvent.scheduled(); }

  protected:
    /**
     * Do one cycle of work.
     * @retval true to keep ticking next cycle, false to go dormant.
     */
    virtual bool tick() = 0;

  private:
    /** The component's single pre-allocated tick event. The queue
     *  disarms it before process(), so re-arming via activate()
     *  consumes exactly one FIFO sequence number per cycle — the same
     *  schedule points as the old per-cycle closure, preserving
     *  deterministic same-tick ordering bit-for-bit. */
    struct TickEvent final : EdgeEvent
    {
        explicit TickEvent(Clocked &c) : owner(c) {}
        void
        process() override
        {
            // A tick fires on its own clock's edge (activate() aligns
            // the first one), so the next edge is one period on.
            if (owner.tick() && !scheduled())
                owner._clock.scheduleTick(
                    *this, owner._clock.eventQueue().now() +
                               owner._clock.periodPs());
        }
        Clocked &owner;
    };

    ClockDomain &_clock;
    std::string _name;
    TickEvent tickEvent;
};

} // namespace bvl

#endif // BVL_SIM_CLOCK_DOMAIN_HH
