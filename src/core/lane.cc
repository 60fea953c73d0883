#include "core/lane.hh"

#include "core/vlittle_engine.hh"
#include "isa/reg.hh"
#include "sim/trace/tracer.hh"

namespace bvl
{

VectorLane::VectorLane(ClockDomain &cd, StatGroup &sg,
                       VlittleEngine &eng, unsigned lane_idx,
                       std::string stat_prefix, FuLatencies fu_params,
                       unsigned uop_queue_depth)
    : clock(cd), engine(eng), lane(lane_idx),
      prefix(std::move(stat_prefix)),
      sCycles(sg.handle(prefix + "cycles")),
      sUops(sg.handle(prefix + "uops")),
      fu(fu_params), queueDepth(uop_queue_depth),
      uopQueue(uop_queue_depth)
{
    for (unsigned c = 0; c < numStallCauses; ++c)
        sStall[c] = sg.handle(prefix + "stall." +
                              stallName(StallCause(c)));
    reset();
}

void
VectorLane::reset()
{
    uopQueue.clear();
    for (auto &row : vregReadyAt)
        row.fill(0);
    for (auto &row : vregProducer)
        row.fill(ProducerKind::none);
    fuBusyUntil.fill(0);
}

void
VectorLane::recordStall(StallCause cause)
{
    sStall[unsigned(cause)]++;
}

bool
VectorLane::srcsReady(const VUop &uop, StallCause &why) const
{
    Tick now = clock.eventQueue().now();
    unsigned chime = uop.chime < maxChimes ? uop.chime : maxChimes - 1;
    for (int r : {uop.vs1, uop.vs2, uop.vs3}) {
        if (r < 0)
            continue;
        if (vregReadyAt[r][chime] > now) {
            switch (vregProducer[r][chime]) {
              case ProducerKind::memory: why = StallCause::rawMem; break;
              case ProducerKind::crossElem: why = StallCause::xelem; break;
              default: why = StallCause::rawLlfu; break;
            }
            return false;
        }
    }
    if (uop.masked && vregReadyAt[0][chime] > now) {
        why = StallCause::rawLlfu;
        return false;
    }
    return true;
}

Tick
VectorLane::occupyFu(const VUop &uop, unsigned subOps)
{
    Tick now = clock.eventQueue().now();
    Cycles lat = fu.latency(uop.fu);
    Tick ready;
    if (subOps <= 1) {
        fuBusyUntil[unsigned(uop.fu)] =
            now + clock.cyclesToTicks(fu.pipelined(uop.fu) ? 1 : lat);
        ready = now + clock.cyclesToTicks(lat);
    } else if (fu.pipelined(uop.fu)) {
        // One packed element issued per cycle into the pipeline.
        fuBusyUntil[unsigned(uop.fu)] = now + clock.cyclesToTicks(subOps);
        ready = now + clock.cyclesToTicks(subOps - 1 + lat);
    } else {
        // Iterative unit (divide): fully serialized.
        fuBusyUntil[unsigned(uop.fu)] =
            now + clock.cyclesToTicks(subOps * lat);
        ready = now + clock.cyclesToTicks(subOps * lat);
    }
    return ready;
}

void
VectorLane::tick()
{
    Tick now = clock.eventQueue().now();
    sCycles++;

    if (uopQueue.empty()) {
        recordStall(engine.vcuBlockedLockstep() ? StallCause::simd
                                                : StallCause::misc);
        return;
    }

    VUop &uop = uopQueue.front();
    unsigned chime = uop.chime < maxChimes ? uop.chime : maxChimes - 1;

    StallCause why = StallCause::misc;
    if (!srcsReady(uop, why)) {
        recordStall(why);
        return;
    }
    if (uop.fu != FuClass::nop && fuBusyUntil[unsigned(uop.fu)] > now) {
        recordStall(StallCause::structural);
        return;
    }

    SeqNum vseq = uop.vseq;
    Tick readyTick = now + clock.cyclesToTicks(1);

    switch (uop.kind) {
      case UopKind::arith: {
        bool complex = FuLatencies::longLatency(uop.fu);
        unsigned subOps =
            (uop.serialized && complex) ? std::max(1u, uop.elems) : 1;
        readyTick = occupyFu(uop, subOps);
        if (uop.vd >= 0) {
            vregReadyAt[uop.vd][chime] = readyTick;
            vregProducer[uop.vd][chime] = complex ? ProducerKind::longFu
                                                  : ProducerKind::shortOp;
        }
        break;
      }

      case UopKind::loadWb: {
        if (!engine.loadDataReady(vseq, lane, chime, uop.elems)) {
            recordStall(StallCause::rawMem);
            return;
        }
        readyTick = occupyFu(uop, 1);
        if (uop.vd >= 0) {
            vregReadyAt[uop.vd][chime] = readyTick;
            vregProducer[uop.vd][chime] = ProducerKind::memory;
        }
        break;
      }

      case UopKind::storeRd: {
        occupyFu(uop, 1);
        engine.storeDataFromLane(vseq, uop.elems);
        break;
      }

      case UopKind::indexSend: {
        occupyFu(uop, 1);
        engine.indexFromLane(vseq);
        break;
      }

      case UopKind::vxRead: {
        occupyFu(uop, 1);
        engine.vxSourceFromLane(vseq, lane, chime);
        break;
      }

      case UopKind::vxWrite: {
        if (!engine.vxDeliveryReady(vseq)) {
            recordStall(StallCause::xelem);
            return;
        }
        readyTick = occupyFu(uop, 1);
        if (uop.vd >= 0) {
            vregReadyAt[uop.vd][chime] = readyTick;
            vregProducer[uop.vd][chime] = ProducerKind::crossElem;
        }
        break;
      }

      case UopKind::vxReduce: {
        if (!engine.vxReadsComplete(vseq)) {
            recordStall(StallCause::xelem);
            return;
        }
        // One element streams in from the ring per cycle and issues
        // into the execution pipeline (paper Section III-D).
        readyTick = occupyFu(uop, std::max(1u, uop.reduceElems));
        if (uop.vd >= 0) {
            vregReadyAt[uop.vd][chime] = readyTick;
            vregProducer[uop.vd][chime] = ProducerKind::crossElem;
        }
        break;
      }
    }

    if (trace && trace->wants(TraceCat::lane)) {
        Json args = Json::object();
        args.set("vseq", vseq);
        args.set("chime", uop.chime);
        args.set("elems", uop.elems);
        args.set("op", opName(uop.op));
        trace->span(TraceCat::lane, traceTid, uopKindName(uop.kind),
                    now, readyTick, std::move(args));
    }

    // Completion (write-back) notification to the engine.
    engine.retireUopAt(readyTick, vseq, chime);

    uopQueue.pop_front();
    ++numUops;
    sUops++;
    recordStall(StallCause::busy);
}

void
VectorLane::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track(prefix + "lane");
}

} // namespace bvl
