/**
 * @file
 * Vector execution lane: the back end of one reconfigured little core.
 *
 * In vector mode a little core's fetch/decode stages are disabled and
 * its issue stage consumes VCU micro-ops in order (paper Section
 * III-C). The lane re-uses the core's scalar FU latencies, tracks
 * per-(vreg, chime) readiness in the re-purposed physical register
 * file, and attributes every stalled cycle to the paper's Figure-7
 * categories. The engine provides the VLU/VSU/VXU/VMIU
 * interactions.
 */

#ifndef BVL_CORE_LANE_HH
#define BVL_CORE_LANE_HH

#include <array>
#include <string>

#include "core/vuop.hh"
#include "cpu/fu_params.hh"
#include "isa/reg.hh"
#include "sim/clock_domain.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace bvl
{

class Tracer;
class VlittleEngine;

class VectorLane
{
  public:
    VectorLane(ClockDomain &cd, StatGroup &stats, VlittleEngine &engine,
               unsigned laneIdx, std::string statPrefix,
               FuLatencies fu, unsigned uopQueueDepth);

    bool queueFree() const { return uopQueue.size() < queueDepth; }
    void pushUop(const VUop &uop) { uopQueue.push_back(uop); }

    /** One cycle of in-order micro-op issue; called by the engine. */
    void tick();

    bool idle() const { return uopQueue.empty(); }
    void reset();

    std::uint64_t uopsRetired() const { return numUops; }

    /** Attach the tracer (nullptr = disarmed) and register this
     *  lane's "<prefix>lane" track. */
    void setTracer(Tracer *t);

  private:
    void recordStall(StallCause cause);
    bool srcsReady(const VUop &uop, StallCause &why) const;
    Tick occupyFu(const VUop &uop, unsigned subOps);

    ClockDomain &clock;
    VlittleEngine &engine;
    unsigned lane;
    std::string prefix;
    /** Interned counters (DESIGN.md §11); sStall indexed by StallCause. */
    StatHandle sCycles, sUops;
    std::array<StatHandle, numStallCauses> sStall;
    FuLatencies fu;
    unsigned queueDepth;
    Tracer *trace = nullptr;
    unsigned traceTid = 0;

    Ring<VUop> uopQueue;

    static constexpr unsigned maxChimes = 8;
    std::array<std::array<Tick, maxChimes>, numVRegs> vregReadyAt{};
    std::array<std::array<ProducerKind, maxChimes>, numVRegs>
        vregProducer{};
    std::array<Tick, 16> fuBusyUntil{};

    std::uint64_t numUops = 0;
};

} // namespace bvl

#endif // BVL_CORE_LANE_HH
