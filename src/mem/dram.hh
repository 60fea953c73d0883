/**
 * @file
 * DRAM timing model: fixed access latency plus a channel-bandwidth
 * occupancy, matching the paper's single-channel LPDDR-class memory.
 */

#ifndef BVL_MEM_DRAM_HH
#define BVL_MEM_DRAM_HH

#include <algorithm>
#include <string>

#include "mem/cache.hh"
#include "mem/mem_types.hh"
#include "sim/clock_domain.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

struct DramParams
{
    std::string name = "dram";
    double latencyNs = 80.0;
    double bandwidthGBps = 25.6;
};

class Dram : public MemLevel
{
  public:
    Dram(ClockDomain &cd, StatGroup &sg, DramParams params)
        : clock(cd), p(std::move(params)),
          sReads(sg.handle(p.name + ".reads")),
          sWrites(sg.handle(p.name + ".writes"))
    {
        latencyTicks = static_cast<Tick>(p.latencyNs * ticksPerNs);
        // Ticks to transfer one line at the channel bandwidth.
        // bandwidthGBps == bytes/ns, so ticks = bytes / (GB/s) * 1000.
        lineTicks = static_cast<Tick>(
            lineBytes / p.bandwidthGBps * ticksPerNs + 0.5);
    }

    void
    request(int, Addr lineAddr, bool isWrite, MemCallback done) override
    {
        auto &eq = clock.eventQueue();
        Tick start = std::max(eq.now(), channelNextFree);
        channelNextFree = start + lineTicks;
        (isWrite ? sWrites : sReads)++;
        // Injected transient: response latency stretched as if a
        // refresh or rank conflict got in the way.
        Tick extra = injector
            ? clock.cyclesToTicks(injector->memResponseDelay(eq.now()))
            : 0;
        if (trace && trace->wants(TraceCat::dram)) {
            // Channel occupancy: grants are serialized, so transfer
            // spans never overlap and trace as complete events.
            Json args = Json::object();
            args.set("line", lineOf(lineAddr));
            trace->span(TraceCat::dram, traceTid,
                        isWrite ? "write" : "read", start,
                        start + lineTicks, std::move(args));
        }
        if (done)
            eq.scheduleAt(start + latencyTicks + extra, std::move(done));
    }

    /** Attach a fault injector that may stretch responses. */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /** Attach the tracer and register the channel's track. */
    void
    setTracer(Tracer *t)
    {
        trace = t;
        if (trace)
            traceTid = trace->track(p.name);
    }

    /** Register the channel's heartbeat with a progress watchdog. */
    void
    registerProgress(Watchdog &wd)
    {
        wd.addSource(p.name,
                     [this] { return sReads.value() + sWrites.value(); });
    }

  private:
    ClockDomain &clock;
    DramParams p;
    StatHandle sReads, sWrites;
    FaultInjector *injector = nullptr;
    Tracer *trace = nullptr;
    unsigned traceTid = 0;
    Tick latencyTicks;
    Tick lineTicks;
    Tick channelNextFree = 0;
};

} // namespace bvl

#endif // BVL_MEM_DRAM_HH
