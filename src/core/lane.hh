/**
 * @file
 * Vector execution lane: the back end of one reconfigured little core.
 *
 * In vector mode a little core's fetch/decode stages are disabled and
 * its issue stage consumes VCU micro-ops in order (paper Section
 * III-C). The lane re-uses the core's scalar FU latencies, tracks
 * per-(vreg, chime) readiness in the re-purposed physical register
 * file, and attributes every stalled cycle to the paper's Figure-7
 * categories. The engine (LaneEnv) provides the VLU/VSU/VXU/VMIU
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

/** Engine services a lane needs while executing micro-ops. */
class LaneEnv
{
  public:
    virtual ~LaneEnv() = default;

    /** Has the VLU delivered @p needed elements for this uop yet? */
    virtual bool loadDataReady(SeqNum vseq, unsigned lane, unsigned chime,
                               unsigned needed) = 0;
    /** Lane sends @p elems store-data elements to the VSU. */
    virtual void storeDataFromLane(SeqNum vseq, unsigned lane,
                                   unsigned chime, unsigned elems) = 0;
    /** Lane sends a chime's worth of indices to the VMIU. */
    virtual void indexFromLane(SeqNum vseq, unsigned lane,
                               unsigned chime) = 0;
    /** Lane sends cross-element source values into the VXU ring. */
    virtual void vxSourceFromLane(SeqNum vseq, unsigned lane,
                                  unsigned chime) = 0;
    /** Has the VXU finished shifting values for this instruction? */
    virtual bool vxDeliveryReady(SeqNum vseq) = 0;
    /** Have all vxRead micro-ops of this instruction completed? */
    virtual bool vxReadsComplete(SeqNum vseq) = 0;
    /**
     * A lane micro-op of chime group @p chime writes back at
     * @p readyTick; the engine retires it at the start of its tick at
     * that time (DESIGN.md §11).
     */
    virtual void retireUopAt(Tick readyTick, SeqNum vseq,
                             unsigned chime) = 0;
    /** Is the VCU currently blocked broadcasting by a busy peer? */
    virtual bool vcuBlockedLockstep() const = 0;
};

class VectorLane
{
  public:
    VectorLane(ClockDomain &cd, StatGroup &stats, LaneEnv &env,
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
    StatGroup &stats;
    LaneEnv &env;
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
