#include "core/vlittle_engine.hh"

#include <algorithm>
#include <array>
#include <cstdio>

#include "cpu/big_core.hh"
#include "sim/check/check_context.hh"
#include "sim/fault.hh"
#include "sim/small_fn.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

namespace
{

/** Does the instruction consume a VCU scalar-data queue slot? */
bool
needsScalarData(const Instr &in)
{
    if (in.vsrc == VSrc2::vx || in.vsrc == VSrc2::vf)
        return true;
    if (in.traits().isVecMem)
        return true;   // base address (and stride)
    switch (in.op) {
      case Op::vsetvli:
      case Op::vmv_s_x:
      case Op::vfmv_s_f:
        return true;
      default:
        return false;
    }
}

int
vregIdx(RegId r)
{
    return isVReg(r) ? static_cast<int>(regIndex(r)) : -1;
}

} // namespace

VlittleEngine::VlittleEngine(ClockDomain &cd, StatGroup &sg,
                             MemSystem &ms, BigCore &big,
                             const FuLatencies &fu, VEngineParams params)
    : Clocked(cd, params.name()), stats(sg), mem(ms), core(big),
      p(std::move(params)), sp(std::string(p.name()) + "."),
      sModeSwitches(sg.handle(sp + "modeSwitches")),
      sDispatched(sg.handle(sp + "dispatched")),
      sVmiuCmds(sg.handle(sp + "vmiuCmds")),
      sVcuStallsInjected(sg.handle(sp + "vcuStallsInjected")),
      sUopsBroadcast(sg.handle(sp + "uopsBroadcast")),
      sVmuRetries(sg.handle(sp + "vmuRetries")),
      sVmuResponsesLost(sg.handle(sp + "vmuResponsesLost")),
      sStoreLineReqs(sg.handle(sp + "storeLineReqs")),
      sLoadLineReqs(sg.handle(sp + "loadLineReqs")),
      sVmsuRawStalls(sg.handle(sp + "vmsuRawStalls")),
      sVluDeliveries(sg.handle(sp + "vluDeliveries")),
      sVsuLines(sg.handle(sp + "vsuLines")),
      sCompleted(sg.handle(sp + "completed")),
      sCycles(sg.handle(sp + "cycles")),
      sUnitLines(sg.handle(sp + "unitLines")),
      sStridedLines(sg.handle(sp + "stridedLines")),
      sIndexedLines(sg.handle(sp + "indexedLines")),
      cmdQueue(p.cmdQueueDepth), uopQueue(p.uopQueueDepth),
      vmiuQueue(p.vmiuQueueDepth)
{
    // A lane write-back lands on a later cycle than its issue, where
    // drainRetires() finds it.
    if (fu.latencyRange().first == 0)
        fatal("%s: FU latencies must be at least one cycle", p.name());
    for (unsigned i = 0; i < p.numLanes; ++i) {
        lanes.push_back(std::make_unique<VectorLane>(
            cd, stats, *this, i,
            p.lanePrefix() + std::to_string(i) + ".", fu,
            p.laneUopQueueDepth));
    }
    unsigned n_vmsus =
        p.memPath == VEngineParams::MemPath::bigL1D ? 1 :
        p.memPath == VEngineParams::MemPath::bankedL1 ? mem.numLittle()
                                                      : p.numLanes;
    vmsus.resize(n_vmsus);
    for (Vmsu &m : vmsus)
        m.queue.reserve(p.loadQueueLines + p.storeQueueLines);
    vluOrder.reserve(n_vmsus * p.loadQueueLines);
    vsuOrder.reserve(n_vmsus * p.storeQueueLines);
    // Sized to the VCU's queues; the span of in-flight vseqs rarely
    // exceeds them, and growWindow() handles it when it does.
    std::size_t slots = 8;
    while (slots < p.cmdQueueDepth + p.uopQueueDepth)
        slots *= 2;
    window.resize(slots);
}

VlittleEngine::VInstr *
VlittleEngine::findInflight(SeqNum vseq)
{
    if (vseq < oldestVseq || vseq >= nextVseq)
        return nullptr;
    VInstr &vi = slot(vseq);
    return vi.live ? &vi : nullptr;
}

void
VlittleEngine::growWindow()
{
    std::vector<VInstr> grown(window.size() * 2);
    for (SeqNum v = oldestVseq; v < oldestVseq + window.size(); ++v)
        grown[v & (grown.size() - 1)] = std::move(slot(v));
    window = std::move(grown);
}

unsigned
VlittleEngine::packFactor(unsigned sew_bytes) const
{
    if (!p.packed)
        return 1;
    return std::max(1u, 8u / std::max(1u, sew_bytes));
}

unsigned
VlittleEngine::elemsPerChime(unsigned sew_bytes) const
{
    return p.numLanes * packFactor(sew_bytes);
}

unsigned
VlittleEngine::activeChimes(const ExecTrace &trace) const
{
    unsigned sew = trace.inst->traits().isVecMem ? trace.inst->ew
                                                 : std::max<unsigned>(
                                                       1, trace.sew);
    unsigned epc = elemsPerChime(sew);
    unsigned c = (trace.vl + epc - 1) / epc;
    return std::clamp(c, 1u, p.chimes);
}

unsigned
VlittleEngine::laneOfElem(unsigned elem_idx, unsigned sew_bytes) const
{
    unsigned epc = elemsPerChime(sew_bytes);
    unsigned local = elem_idx % epc;
    return std::min(local / packFactor(sew_bytes), p.numLanes - 1);
}

// --------------------------------------------------------------------
// Big core side
// --------------------------------------------------------------------

bool
VlittleEngine::canAccept(const ExecTrace &trace) const
{
    if (cmdQueue.size() >= p.cmdQueueDepth)
        return false;
    if (needsScalarData(*trace.inst) && dataSlotsUsed >= p.dataQueueDepth)
        return false;
    return true;
}

void
VlittleEngine::dispatch(const ExecTrace &tr, SeqNum robSeq)
{
    bvl_assert(canAccept(tr), "%s: dispatch without canAccept", p.name());

    if (!vectorMode) {
        vectorMode = true;
        switchReadyAt = clock().eventQueue().now() +
                        clock().cyclesToTicks(p.switchPenalty);
        if (controlsL1Mode())
            mem.setVectorMode(true);
        sModeSwitches++;
        if (trace && trace->wants(TraceCat::vcu)) {
            trace->span(TraceCat::vcu, tidVcu, "modeSwitch",
                        clock().eventQueue().now(), switchReadyAt);
        }
    }

    SeqNum vseq = nextVseq++;
    if (nextVseq - oldestVseq > window.size())
        growWindow();
    VInstr &vi = slot(vseq);
    static_cast<VInstrState &>(vi) = VInstrState{};
    vi.vseq = vseq;
    vi.robSeq = robSeq;
    vi.live = true;
    vi.trace = tr;
    vi.plan.clear();
    vi.planTarget.clear();
    vi.arrived.assign(p.numLanes * p.chimes, 0);
    vi.needsDataSlot = needsScalarData(*tr.inst);
    if (vi.needsDataSlot)
        ++dataSlotsUsed;

    cmdQueue.push_back(vseq);
    ++numInflight;
    sDispatched++;
    if (trace) {
        vi.dispatchTick = clock().eventQueue().now();
        if (trace->wants(TraceCat::vcu)) {
            Json args = Json::object();
            args.set("vseq", vseq);
            args.set("op", opName(tr.inst->op));
            trace->instant(TraceCat::vcu, tidVcu, "dispatch",
                           vi.dispatchTick, std::move(args));
        }
    }
    if (check)
        check->onVecDispatch(vseq);
    activate();
}

bool
VlittleEngine::idle() const
{
    return cmdQueue.empty() && numInflight == 0;
}

void
VlittleEngine::exitVectorMode()
{
    bvl_assert(idle(), "%s: exitVectorMode while busy", p.name());
    if (!vectorMode)
        return;
    vectorMode = false;
    if (controlsL1Mode())
        mem.setVectorMode(false);
    for (auto &lane : lanes)
        lane->reset();
}

// --------------------------------------------------------------------
// Cracking
// --------------------------------------------------------------------

void
VlittleEngine::crack(VInstr &vi)
{
    const Instr &in = *vi.trace.inst;
    const auto &tr = vi.trace;
    unsigned sew = in.traits().isVecMem ? in.ew
                                        : std::max<unsigned>(1, tr.sew);
    unsigned pf = packFactor(sew);
    unsigned chimeCount = activeChimes(tr);

    auto addBroadcast = [&](UopKind kind, unsigned chime, int vd, int vs1,
                            int vs2, int vs3, FuClass fuc) {
        VUop uop;
        uop.vseq = vi.vseq;
        uop.kind = kind;
        uop.op = in.op;
        uop.fu = fuc;
        uop.chime = chime;
        uop.vd = vd;
        uop.vs1 = vs1;
        uop.vs2 = vs2;
        uop.vs3 = vs3;
        uop.masked = in.masked;
        uop.packFactor = pf;
        uop.serialized = true;
        uop.reduceElems = tr.vl;
        vi.plan.push_back(uop);
        vi.planTarget.push_back(-1);
        vi.lanePending += p.numLanes;
    };
    auto addSingle = [&](UopKind kind, unsigned chime, int vd, int vs1,
                         FuClass fuc, unsigned targetLane) {
        VUop uop;
        uop.vseq = vi.vseq;
        uop.kind = kind;
        uop.op = in.op;
        uop.fu = fuc;
        uop.chime = chime;
        uop.vd = vd;
        uop.vs1 = vs1;
        uop.packFactor = pf;
        uop.reduceElems = tr.vl;
        vi.plan.push_back(uop);
        vi.planTarget.push_back(static_cast<int>(targetLane));
        vi.lanePending += 1;
    };

    switch (in.op) {
      case Op::vsetvli:
      case Op::vmfence:
        break;   // handled entirely in the VCU

      case Op::vle: case Op::vlse: case Op::vluxei: {
        bool indexed = in.op == Op::vluxei;
        if (indexed)
            for (unsigned c = 0; c < chimeCount; ++c)
                addBroadcast(UopKind::indexSend, c, -1, vregIdx(in.rs2),
                             -1, -1, FuClass::mem);
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::loadWb, c, vregIdx(in.rd), -1, -1, -1,
                         FuClass::mem);
        break;
      }

      case Op::vse: case Op::vsse: case Op::vsuxei: {
        bool indexed = in.op == Op::vsuxei;
        RegId dataReg = in.op == Op::vse ? in.rs2 : in.rs3;
        if (indexed)
            for (unsigned c = 0; c < chimeCount; ++c)
                addBroadcast(UopKind::indexSend, c, -1, vregIdx(in.rs2),
                             -1, -1, FuClass::mem);
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::storeRd, c, -1, vregIdx(dataReg), -1,
                         -1, FuClass::mem);
        break;
      }

      case Op::vrgather: case Op::vslideup: case Op::vslidedown: {
        vi.isCross = true;
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::vxRead, c, -1, vregIdx(in.rs1),
                         vregIdx(in.rs2), -1, FuClass::intAlu);
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::vxWrite, c, vregIdx(in.rd), -1, -1, -1,
                         FuClass::intAlu);
        break;
      }

      case Op::vredsum: case Op::vredmax: case Op::vredmin:
      case Op::vfredsum: case Op::vfredmax: case Op::vfredmin: {
        vi.isCross = true;
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::vxRead, c, -1, vregIdx(in.rs2),
                         vregIdx(in.rs1), -1, in.traits().fu);
        addSingle(UopKind::vxReduce, 0, vregIdx(in.rd), -1,
                  in.traits().fu, 0);
        break;
      }

      case Op::vpopc: case Op::vfirst: case Op::vmv_x_s:
      case Op::vfmv_f_s: {
        vi.isCross = true;
        vi.scalarViaRing = true;
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::vxRead, c, -1, vregIdx(in.rs1), -1, -1,
                         FuClass::intAlu);
        break;
      }

      case Op::vmv_s_x: case Op::vfmv_s_f:
        addSingle(UopKind::arith, 0, vregIdx(in.rd), -1,
                  FuClass::intAlu, 0);
        break;

      default: {
        // Plain per-chime arithmetic / compare / mask / move ops.
        int vs2 = in.vsrc == VSrc2::vv ? vregIdx(in.rs2) : -1;
        // FMA-style ops accumulate into vd.
        int vs3 = (in.op == Op::vfmacc || in.op == Op::vfnmsac)
                      ? vregIdx(in.rd) : -1;
        for (unsigned c = 0; c < chimeCount; ++c)
            addBroadcast(UopKind::arith, c, vregIdx(in.rd),
                         vregIdx(in.rs1), vs2, vs3, in.traits().fu);
        break;
      }
    }

    vi.cracked = true;
}

// --------------------------------------------------------------------
// VCU
// --------------------------------------------------------------------

void
VlittleEngine::vcuFrontTick()
{
    // Front stage (1 instruction/cycle): crack into the UopQ, forward
    // memory commands to the VMIU, execute vsetvli, resolve fences.
    // Decoupled from the broadcast stage so that stalled lanes do not
    // keep the memory side from running ahead (paper Section III-B).
    auto &eq = clock().eventQueue();
    if (cmdQueue.empty() || eq.now() < switchReadyAt)
        return;

    VInstr &vi = slot(cmdQueue.front());
    const Instr &in = *vi.trace.inst;

    if (!vi.cracked) {
        crack(vi);
        vi.broadcastRemaining = static_cast<unsigned>(vi.plan.size());
    }

    // vsetvli executes in the VCU (paper Section III-B).
    if (in.op == Op::vsetvli) {
        cmdQueue.pop_front();
        if (vi.needsDataSlot)
            --dataSlotsUsed;
        completeInstr(vi);
        return;
    }

    // vmfence: all older instructions must have fully completed.
    if (in.op == Op::vmfence) {
        if (numInflight == 1 && vmiuQueue.empty() && uopQueue.empty()) {
            cmdQueue.pop_front();
            if (vi.needsDataSlot)
                --dataSlotsUsed;
            completeInstr(vi);
        }
        return;
    }

    // Cross-element instructions: one at a time in the VXU.
    if (vi.isCross) {
        if (vxuVseq != 0 && vxuVseq != vi.vseq)
            return;   // wait for the outstanding cross-element op
        if (vxuVseq == 0) {
            vxuVseq = vi.vseq;
            unsigned chimeCount = activeChimes(vi.trace);
            vxReadsExpected = chimeCount * p.numLanes;
            vxReadsDone = 0;
            vxDeliverAt = maxTick;
        }
    }

    // Memory command to the VMIU (decoupling: issued before any of
    // this instruction's micro-ops reach the lanes).
    if (in.traits().isVecMem && !vi.memCmdSent) {
        if (vmiuQueue.size() >= p.vmiuQueueDepth)
            return;
        vmiuQueue.push_back(vi.vseq);
        vi.memCmdSent = true;
        sVmiuCmds++;
    }

    // Move the whole micro-op plan into the UopQ.
    if (uopQueue.size() + vi.plan.size() > p.uopQueueDepth)
        return;
    for (unsigned i = 0; i < vi.plan.size(); ++i)
        uopQueue.push_back(QueuedUop{vi.vseq, i});
    cmdQueue.pop_front();
    if (vi.needsDataSlot)
        --dataSlotsUsed;
    if (vi.plan.empty())
        checkInstrDone(vi.vseq);
}

void
VlittleEngine::vcuBroadcastTick()
{
    // Broadcast stage: one micro-op per cycle from the UopQ head,
    // in lock step to all lanes.
    lockstepBlocked = false;
    if (uopQueue.empty())
        return;

    // Injected fault: the command bus freezes for a number of cycles
    // (queried only when there is something to broadcast, so a
    // disabled plan leaves the Rng untouched).
    auto &beq = clock().eventQueue();
    if (injector) {
        if (Cycles stall = injector->vcuStall(beq.now())) {
            busStalledUntil = std::max(
                busStalledUntil,
                beq.now() + clock().cyclesToTicks(stall));
            sVcuStallsInjected++;
        }
    }
    if (beq.now() < busStalledUntil) {
        lockstepBlocked = true;
        return;
    }

    const QueuedUop &qu = uopQueue.front();
    VInstr &vi = slot(qu.vseq);
    const Instr &in = *vi.trace.inst;
    const VUop &uop = vi.plan[qu.idx];
    int target = vi.planTarget[qu.idx];

    if (target < 0) {
        for (const auto &lane : lanes) {
            if (!lane->queueFree()) {
                lockstepBlocked = true;
                return;
            }
        }
        unsigned sew = in.traits().isVecMem
            ? in.ew : std::max<unsigned>(1, vi.trace.sew);
        unsigned pf = packFactor(sew);
        unsigned epc = elemsPerChime(sew);
        for (unsigned l = 0; l < p.numLanes; ++l) {
            VUop laneUop = uop;
            // Elements this lane handles in this chime.
            unsigned base = uop.chime * epc + l * pf;
            unsigned vl = vi.trace.vl;
            laneUop.elems = base >= vl
                ? 0 : std::min<unsigned>(pf, vl - base);
            lanes[l]->pushUop(laneUop);
        }
    } else {
        if (!lanes[target]->queueFree()) {
            lockstepBlocked = true;
            return;
        }
        VUop laneUop = uop;
        laneUop.elems = std::min<unsigned>(laneUop.packFactor,
                                           std::max(1u, vi.trace.vl));
        lanes[target]->pushUop(laneUop);
    }

    uopQueue.pop_front();
    sUopsBroadcast++;
    if (trace && trace->wants(TraceCat::vcu)) {
        Json args = Json::object();
        args.set("vseq", vi.vseq);
        args.set("chime", uop.chime);
        args.set("kind", uopKindName(uop.kind));
        args.set("op", opName(in.op));
        trace->instant(TraceCat::vcu, tidVcu, "broadcast", beq.now(),
                       std::move(args));
    }
    bvl_assert(vi.broadcastRemaining > 0, "broadcast underflow");
    if (--vi.broadcastRemaining == 0)
        checkInstrDone(vi.vseq);
}

// --------------------------------------------------------------------
// VMIU: break memory commands into cache-line requests
// --------------------------------------------------------------------

void
VlittleEngine::deliverLine(const LineReq &req)
{
    if (trace && trace->wants(TraceCat::vmu)) {
        trace->asyncEnd(TraceCat::vmu, tidVmsu[req.vmsu],
                        req.isStore ? "store" : "load", req.reqSeq,
                        clock().eventQueue().now());
    }
    if (req.isStore) {
        --vmsus[req.vmsu].storeSlotsUsed;
        if (VInstr *vi = findInflight(req.vseq)) {
            ++vi->storeLinesDone;
            checkInstrDone(req.vseq);
        }
    } else {
        // vluOrder keeps request order and holds at most
        // numVmsus x loadQueueLines entries.
        std::size_t i = 0;
        while (i < vluOrder.size() && vluOrder[i].reqSeq != req.reqSeq)
            ++i;
        bvl_assert(i < vluOrder.size(), "%s: VLU order lost load "
                   "request %llu", p.name(),
                   static_cast<unsigned long long>(req.reqSeq));
        vluOrder[i].ready = true;
    }
    activate();
}

void
VlittleEngine::issueToMemory(const LineReq &req, unsigned attempt)
{
    unsigned vmsu_idx = req.vmsu;
    Addr addr = req.lineAddr << lineShift;
    bool isStore = req.isStore;

    if (attempt == 0 && trace && trace->wants(TraceCat::vmu)) {
        // Outstanding line requests overlap per VMSU, so their memory
        // lifetimes pair as async events keyed by the request seq.
        Json args = Json::object();
        args.set("vseq", req.vseq);
        args.set("line", req.lineAddr);
        args.set("elems", req.elemCount);
        trace->asyncBegin(TraceCat::vmu, tidVmsu[vmsu_idx],
                          isStore ? "store" : "load", req.reqSeq,
                          clock().eventQueue().now(), std::move(args));
    }

    // Injected fault: the response is dropped on the way back to the
    // VMSU. Bounded retries re-issue the line request after a timeout;
    // once they are exhausted the queue slot is stuck forever and the
    // progress watchdog reports the hang. The capture (LineReq + this
    // + attempt) fits MemCallback's inline buffer.
    auto done = [this, req, attempt] {
        Tick now = clock().eventQueue().now();
        if (injector && injector->dropVmuResponse(now)) {
            if (attempt < injector->vmuMaxRetries()) {
                sVmuRetries++;
                clock().scheduleCycles(
                    injector->vmuRetryDelay(),
                    [this, req, attempt] {
                        issueToMemory(req, attempt + 1);
                    });
            } else {
                sVmuResponsesLost++;
                // Remember the injection point so the watchdog's
                // deadlock diagnostic can name it (bounded table).
                if (lostResponses.size() < 16) {
                    lostResponses.push_back({req.vseq, req.lineAddr,
                                             req.isStore, req.vmsu,
                                             attempt + 1, now});
                }
                warn("%s: VMU %s response for line 0x%llx (vseq %llu, "
                     "vmsu %u) lost after %u attempts; retry budget "
                     "exhausted",
                     p.name(), req.isStore ? "store" : "load",
                     static_cast<unsigned long long>(req.lineAddr),
                     static_cast<unsigned long long>(req.vseq),
                     req.vmsu, attempt + 1);
            }
            return;
        }
        deliverLine(req);
    };
    static_assert(sizeof(done) <= SmallFn::inlineBytes,
                  "VMU completion must not allocate (DESIGN.md §11)");

    switch (p.memPath) {
      case VEngineParams::MemPath::bankedL1:
        mem.accessBank(vmsu_idx, addr, isStore, std::move(done));
        break;
      case VEngineParams::MemPath::bigL1D:
        mem.accessData(mem.bigCoreId(), addr, isStore, std::move(done));
        break;
      case VEngineParams::MemPath::directL2:
        mem.accessL2(addr, isStore, std::move(done));
        break;
    }
}

void
VlittleEngine::vmiuTick()
{
    if (vmiuQueue.empty())
        return;
    VInstr &vi = slot(vmiuQueue.front());
    const Instr &in = *vi.trace.inst;
    const auto &addrs = vi.trace.elemAddrs;
    bool isStore = in.traits().isVecStore;
    bool indexed = in.op == Op::vluxei || in.op == Op::vsuxei;
    SeqNum vseq = vi.vseq;

    if (addrs.empty()) {
        vi.memGenDone = true;
        vmiuQueue.pop_front();
        checkInstrDone(vseq);
        return;
    }

    unsigned ne = vi.vmiuNextElem;
    unsigned avail = static_cast<unsigned>(addrs.size());
    if (indexed) {
        unsigned epc = elemsPerChime(in.ew);
        avail = std::min<unsigned>(avail, vi.idxChimesReady * epc);
        if (ne >= avail)
            return;   // waiting for index values from the lanes
    }

    // Build one cache-line request from consecutive elements.
    Addr line0 = lineOf(addrs[ne]);
    unsigned limit = indexed ? p.coalesceWindow
                             : static_cast<unsigned>(addrs.size());
    unsigned count = 1;
    while (ne + count < avail && count < limit &&
           lineOf(addrs[ne + count]) == line0) {
        ++count;
    }

    unsigned vmsuIdx;
    switch (p.memPath) {
      case VEngineParams::MemPath::bankedL1:
        vmsuIdx = mem.bankOf(line0 << lineShift);
        break;
      case VEngineParams::MemPath::bigL1D:
        vmsuIdx = 0;
        break;
      default:
        vmsuIdx = static_cast<unsigned>(line0 % vmsus.size());
        break;
    }
    Vmsu &m = vmsus[vmsuIdx];

    if (isStore) {
        if (m.storeSlotsUsed >= p.storeQueueLines ||
            m.camUsed >= p.storeCamEntries) {
            return;   // backpressure
        }
    } else if (m.loadSlotsUsed >= p.loadQueueLines) {
        return;
    }

    LineReq req;
    req.reqSeq = nextReqSeq++;
    req.vseq = vseq;
    req.lineAddr = line0;
    req.isStore = isStore;
    req.indexed = indexed;
    req.elemStart = ne;
    req.elemCount = count;
    req.vmsu = vmsuIdx;

    if (isStore) {
        m.queue.push_back(req);
        ++m.storeSlotsUsed;
        ++m.camUsed;
        vsuOrder.push_back(req);
        ++vi.storeLinesTotal;
    } else {
        m.queue.push_back(req);
        ++m.loadSlotsUsed;
        vluOrder.push_back(req);
    }
    (isStore ? sStoreLineReqs : sLoadLineReqs)++;
    // Access-pattern taxonomy (DESIGN.md §18): line requests broken
    // down by how the element addresses were generated.
    bool strided = in.op == Op::vlse || in.op == Op::vsse;
    (indexed ? sIndexedLines : strided ? sStridedLines : sUnitLines)++;
    if (trace && trace->wants(TraceCat::vmu)) {
        Json args = Json::object();
        args.set("vseq", vseq);
        args.set("line", req.lineAddr);
        args.set("vmsu", vmsuIdx);
        args.set("elems", count);
        args.set("store", isStore);
        trace->instant(TraceCat::vmu, tidVmiu, "lineReq",
                       clock().eventQueue().now(), std::move(args));
    }

    vi.vmiuNextElem = ne + count;
    if (ne + count == addrs.size()) {
        vi.memGenDone = true;
        vmiuQueue.pop_front();
        checkInstrDone(vseq);
    }
}

// --------------------------------------------------------------------
// VMSU: per-bank request issue with store-address CAM
// --------------------------------------------------------------------

void
VlittleEngine::vmsuTick(unsigned idx)
{
    // Issue one request per cycle, oldest-first. A load may bypass
    // older stores that are still waiting for their data from the
    // VSU, but only if its line does not match any of them (the
    // store-address CAM check, paper Section III-E).
    Vmsu &m = vmsus[idx];
    std::array<Addr, camScanWindow> olderStoreLines;
    unsigned numOlderStores = 0;
    std::size_t scan = std::min<std::size_t>(m.queue.size(), camScanWindow);
    for (std::size_t i = 0; i < scan; ++i) {
        const LineReq &req = m.queue[i];
        auto olderEnd = olderStoreLines.begin() + numOlderStores;
        if (req.isStore) {
            if (!req.ready) {
                *olderEnd = req.lineAddr;
                ++numOlderStores;
                continue;
            }
            bvl_assert(m.camUsed > 0, "CAM underflow");
            --m.camUsed;
        } else if (std::find(olderStoreLines.begin(), olderEnd,
                             req.lineAddr) != olderEnd) {
            sVmsuRawStalls++;
            continue;   // RAW through memory: wait for the store
        }
        LineReq issued = req;
        m.queue.erase(i);
        issueToMemory(issued);
        return;
    }
}

// --------------------------------------------------------------------
// VLU: in-order data delivery to the lanes
// --------------------------------------------------------------------

void
VlittleEngine::vluTick()
{
    if (vluOrder.empty())
        return;
    const LineReq &req = vluOrder.front();
    if (!req.ready)
        return;

    // Indexed loads are pulled element by element (paper Section
    // III-E); unit/constant-stride responses push a whole line slice.
    if (req.indexed) {
        ++vluHeadDelivered;
        if (vluHeadDelivered < req.elemCount)
            return;
    }

    if (VInstr *vi = findInflight(req.vseq)) {
        unsigned ew = vi->trace.inst->ew;
        unsigned epc = elemsPerChime(ew);
        for (unsigned e = req.elemStart; e < req.elemStart + req.elemCount;
             ++e) {
            unsigned chime = std::min(e / epc, p.chimes - 1);
            unsigned lane = laneOfElem(e, ew);
            ++vi->arrived[lane * p.chimes + chime];
        }
    }

    if (trace && trace->wants(TraceCat::vmu)) {
        Json args = Json::object();
        args.set("vseq", req.vseq);
        args.set("line", req.lineAddr);
        args.set("elems", req.elemCount);
        trace->instant(TraceCat::vmu, tidVlu, "deliver",
                       clock().eventQueue().now(), std::move(args));
    }
    --vmsus[req.vmsu].loadSlotsUsed;
    vluOrder.pop_front();
    vluHeadDelivered = 0;
    sVluDeliveries++;
}

// --------------------------------------------------------------------
// VSU: assemble store lines from lane data
// --------------------------------------------------------------------

void
VlittleEngine::vsuTick()
{
    if (vsuOrder.empty())
        return;
    const LineReq &req = vsuOrder.front();
    const VInstr *vi = findInflight(req.vseq);
    unsigned have = vi ? vi->storeElemsReceived : 0;
    if (have < req.elemStart + req.elemCount)
        return;   // lanes have not produced this line's elements yet
    if (trace && trace->wants(TraceCat::vmu)) {
        Json args = Json::object();
        args.set("vseq", req.vseq);
        args.set("line", req.lineAddr);
        trace->instant(TraceCat::vmu, tidVsu, "lineReady",
                       clock().eventQueue().now(), std::move(args));
    }
    // Hand the data to the request waiting in its VMSU's queue, which
    // keeps request (reqSeq) order.
    Ring<LineReq> &q = vmsus[req.vmsu].queue;
    std::size_t i = 0;
    while (i < q.size() && q[i].reqSeq != req.reqSeq)
        ++i;
    bvl_assert(i < q.size(), "%s: store line %llu left its VMSU queue "
               "before its data", p.name(),
               static_cast<unsigned long long>(req.reqSeq));
    q[i].ready = true;
    vsuOrder.pop_front();
    sVsuLines++;
}

// --------------------------------------------------------------------
// Lane side
// --------------------------------------------------------------------

bool
VlittleEngine::loadDataReady(SeqNum vseq, unsigned lane, unsigned chime,
                             unsigned needed)
{
    if (needed == 0)
        return true;
    const VInstr *vi = findInflight(vseq);
    return vi &&
           vi->arrived[lane * p.chimes + std::min(chime, p.chimes - 1)] >=
               needed;
}

void
VlittleEngine::storeDataFromLane(SeqNum vseq, unsigned elems)
{
    if (VInstr *vi = findInflight(vseq))
        vi->storeElemsReceived += elems;
}

void
VlittleEngine::indexFromLane(SeqNum vseq)
{
    // A chime's indices are complete once every lane has sent its
    // share; lanes execute chimes in order, so counting is enough.
    VInstr *vi = findInflight(vseq);
    if (vi && ++vi->idxSendCounts % p.numLanes == 0)
        ++vi->idxChimesReady;
}

void
VlittleEngine::vxSourceFromLane(SeqNum vseq, unsigned lane,
                                unsigned chime)
{
    if (vseq != vxuVseq)
        return;
    ++vxReadsDone;
    if (trace && trace->wants(TraceCat::vxu)) {
        Json args = Json::object();
        args.set("vseq", vseq);
        args.set("lane", lane);
        args.set("chime", chime);
        args.set("reads", vxReadsDone);
        trace->instant(TraceCat::vxu, tidVxu, "ringRead",
                       clock().eventQueue().now(), std::move(args));
    }
    if (vxReadsDone == vxReadsExpected) {
        VInstr *vi = findInflight(vseq);
        unsigned totalElems = vi ? std::max(1u, vi->trace.vl) : 1;
        // The ring shifts one hop per cycle for N element slots.
        vxDeliverAt = clock().eventQueue().now() +
                      clock().cyclesToTicks(totalElems);
        if (trace && trace->wants(TraceCat::vxu)) {
            Json args = Json::object();
            args.set("vseq", vseq);
            args.set("elems", totalElems);
            trace->span(TraceCat::vxu, tidVxu, "ringShift",
                        clock().eventQueue().now(), vxDeliverAt,
                        std::move(args));
        }
        if (vi && vi->scalarViaRing) {
            // Scalar result returns to the big core after the ring
            // traversal plus one response hop.
            vi->ringDoneAt = clock().eventQueue().now() +
                             clock().cyclesToTicks(p.numLanes + 1);
            clock().eventQueue().scheduleAt(
                vi->ringDoneAt, [this, vseq] { checkInstrDone(vseq); });
        }
    }
}

bool
VlittleEngine::vxDeliveryReady(SeqNum vseq)
{
    return vseq == vxuVseq &&
           clock().eventQueue().now() >= vxDeliverAt;
}

bool
VlittleEngine::vxReadsComplete(SeqNum vseq)
{
    return vseq == vxuVseq && vxReadsDone == vxReadsExpected;
}

void
VlittleEngine::retireUopAt(Tick readyTick, SeqNum vseq, unsigned chime)
{
    pendingRetires.push_back(PendingRetire{readyTick, vseq, chime});
}

void
VlittleEngine::drainRetires()
{
    Tick now = clock().eventQueue().now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pendingRetires.size(); ++i) {
        PendingRetire r = pendingRetires[i];
        if (r.readyTick != now) {
            bvl_assert(r.readyTick > now, "%s: vseq %llu write-back due "
                       "at tick %llu drained at %llu (missed tick)",
                       p.name(), (unsigned long long)r.vseq,
                       (unsigned long long)r.readyTick,
                       (unsigned long long)now);
            pendingRetires[kept++] = r;
            continue;
        }
        retireUop(r.vseq, r.chime);
    }
    pendingRetires.resize(kept);
}

void
VlittleEngine::retireUop(SeqNum vseq, unsigned chime)
{
    VInstr *vi = findInflight(vseq);
    if (!vi)
        return;
    bvl_assert(vi->lanePending > 0, "%s: uop underflow", p.name());
    --vi->lanePending;
    if (check)
        check->onUopRetired(vseq, chime, clock().eventQueue().now());
    checkInstrDone(vseq);
}

// --------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------

void
VlittleEngine::checkInstrDone(SeqNum vseq)
{
    VInstr *found = findInflight(vseq);
    if (!found)
        return;
    VInstr &vi = *found;
    if (!vi.cracked || vi.broadcastRemaining > 0)
        return;

    if (vi.scalarViaRing) {
        // Completed by the ring-delay event scheduled when the last
        // vxRead arrived; lanePending only tracks the reads.
        if (vi.lanePending > 0)
            return;
        if (clock().eventQueue().now() < vi.ringDoneAt)
            return;
    } else {
        if (vi.lanePending > 0)
            return;
        if (vi.trace.inst->traits().isVecMem) {
            if (!vi.memGenDone)
                return;
            if (vi.trace.inst->traits().isVecStore &&
                vi.storeLinesDone < vi.storeLinesTotal) {
                return;
            }
        }
    }
    completeInstr(vi);
}

void
VlittleEngine::completeInstr(VInstr &vi)
{
    sCompleted++;
    if (trace && trace->wants(TraceCat::vcu)) {
        // Vector instruction lifetimes overlap in the engine, so they
        // pair as async events on the VCU track.
        Tick now = clock().eventQueue().now();
        std::uint64_t id = trace->nextAsyncId();
        const char *name = opName(vi.trace.inst->op);
        Json args = Json::object();
        args.set("vseq", vi.vseq);
        args.set("op", name);
        args.set("dispatch", vi.dispatchTick);
        args.set("complete", now);
        trace->asyncBegin(TraceCat::vcu, tidVcu, name, id,
                          vi.dispatchTick, std::move(args));
        trace->asyncEnd(TraceCat::vcu, tidVcu, name, id, now);
    }

    if (vxuVseq == vi.vseq) {
        vxuVseq = 0;
        vxReadsExpected = vxReadsDone = 0;
        vxDeliverAt = maxTick;
    }

    SeqNum vseq = vi.vseq;
    SeqNum robSeq = vi.robSeq;
    bool writesScalar = vi.trace.inst->traits().writesScalar;
    vi.live = false;
    --numInflight;
    while (oldestVseq < nextVseq && !slot(oldestVseq).live)
        ++oldestVseq;
    if (check)
        check->onVecComplete(vseq);
    core.vecCompleted(robSeq, writesScalar);
}

// --------------------------------------------------------------------
// Hardening hooks
// --------------------------------------------------------------------

void
VlittleEngine::setTracer(Tracer *t)
{
    trace = t;
    if (!trace)
        return;
    tidVcu = trace->track(sp + "vcu");
    tidVmiu = trace->track(sp + "vmiu");
    tidVmsu.clear();
    for (unsigned i = 0; i < vmsus.size(); ++i)
        tidVmsu.push_back(trace->track(sp + "vmsu" +
                                       std::to_string(i)));
    tidVlu = trace->track(sp + "vlu");
    tidVsu = trace->track(sp + "vsu");
    tidVxu = trace->track(sp + "vxu");
    for (auto &lane : lanes)
        lane->setTracer(trace);
}

void
VlittleEngine::registerInvariants(InvariantRegistry &reg)
{
    // VCU queue and credit conservation: every bound here is a credit
    // the dispatch/crack logic must never oversubscribe.
    reg.add(sp + "vcu.queues", [this]() -> std::string {
        if (cmdQueue.size() > p.cmdQueueDepth)
            return "command queue " + std::to_string(cmdQueue.size()) +
                   " > depth " + std::to_string(p.cmdQueueDepth);
        if (uopQueue.size() > p.uopQueueDepth)
            return "uop queue " + std::to_string(uopQueue.size()) +
                   " > depth " + std::to_string(p.uopQueueDepth);
        if (dataSlotsUsed > p.dataQueueDepth)
            return "scalar-data slots " + std::to_string(dataSlotsUsed) +
                   " > depth " + std::to_string(p.dataQueueDepth);
        return "";
    });
    reg.add(sp + "vcu.dataCredits", [this]() -> std::string {
        // Every consumed scalar-data slot must belong to an in-flight
        // or still-queued instruction that claimed one.
        unsigned claimed = 0;
        for (SeqNum v = oldestVseq; v < nextVseq; ++v)
            if (const VInstr *vi = findInflight(v))
                claimed += vi->needsDataSlot ? 1 : 0;
        if (dataSlotsUsed > claimed)
            return std::to_string(dataSlotsUsed) +
                   " data slots used but only " +
                   std::to_string(claimed) + " in-flight claimants";
        return "";
    });
    reg.add(sp + "vcu.window", [this]() -> std::string {
        // The in-flight window: one live slot per in-flight
        // instruction, all inside [oldestVseq, nextVseq), and the
        // oldest vseq itself still live.
        unsigned live = 0;
        for (const VInstr &vi : window)
            live += vi.live ? 1 : 0;
        if (live != numInflight)
            return std::to_string(live) + " live window slots but " +
                   std::to_string(numInflight) + " in flight";
        if (nextVseq - oldestVseq > window.size())
            return "vseqs [" + std::to_string(oldestVseq) + ", " +
                   std::to_string(nextVseq) + ") overflow a window of " +
                   std::to_string(window.size());
        if (numInflight > 0 && !findInflight(oldestVseq))
            return "oldest vseq " + std::to_string(oldestVseq) +
                   " is not live";
        return "";
    });
    reg.add(sp + "vmiu.queue", [this]() -> std::string {
        if (vmiuQueue.size() > p.vmiuQueueDepth)
            return "VMIU queue " + std::to_string(vmiuQueue.size()) +
                   " > depth " + std::to_string(p.vmiuQueueDepth);
        return "";
    });
    reg.add(sp + "vmsu.credits", [this]() -> std::string {
        for (unsigned i = 0; i < vmsus.size(); ++i) {
            const Vmsu &m = vmsus[i];
            if (m.loadSlotsUsed > p.loadQueueLines)
                return "vmsu" + std::to_string(i) + " load slots " +
                       std::to_string(m.loadSlotsUsed) + " > " +
                       std::to_string(p.loadQueueLines);
            if (m.storeSlotsUsed > p.storeQueueLines)
                return "vmsu" + std::to_string(i) + " store slots " +
                       std::to_string(m.storeSlotsUsed) + " > " +
                       std::to_string(p.storeQueueLines);
            if (m.camUsed > p.storeCamEntries)
                return "vmsu" + std::to_string(i) + " CAM entries " +
                       std::to_string(m.camUsed) + " > " +
                       std::to_string(p.storeCamEntries);
        }
        return "";
    });
    reg.add(sp + "retire", [this]() -> std::string {
        // Every pending write-back belongs to a live instruction that
        // still owes at least that many lane retires, and is not past.
        Tick now = clock().eventQueue().now();
        std::vector<SeqNum> seqs;
        seqs.reserve(pendingRetires.size());
        for (const PendingRetire &r : pendingRetires) {
            if (r.readyTick < now)
                return "vseq " + std::to_string(r.vseq) +
                       " write-back due at " + std::to_string(r.readyTick) +
                       " is past (now " + std::to_string(now) + ")";
            seqs.push_back(r.vseq);
        }
        std::sort(seqs.begin(), seqs.end());
        for (std::size_t i = 0, j = 0; i < seqs.size(); i = j) {
            while (j < seqs.size() && seqs[j] == seqs[i])
                ++j;
            const VInstr *vi = findInflight(seqs[i]);
            if (!vi)
                return "write-back pending for vseq " +
                       std::to_string(seqs[i]) + ", which is not live";
            if (j - i > vi->lanePending)
                return "vseq " + std::to_string(seqs[i]) + " has " +
                       std::to_string(j - i) + " write-backs pending but " +
                       "lanePending " + std::to_string(vi->lanePending);
        }
        return "";
    });
    reg.add(sp + "uop.accounting", [this]() -> std::string {
        // Broadcast bookkeeping: an instruction past cracking can
        // never owe more broadcasts than its plan contains, nor more
        // lane retires than a full per-lane fan-out of that plan.
        for (SeqNum v = oldestVseq; v < nextVseq; ++v) {
            const VInstr *found = findInflight(v);
            if (!found || !found->cracked)
                continue;
            const VInstr &vi = *found;
            if (vi.broadcastRemaining > vi.plan.size())
                return "vseq " + std::to_string(vi.vseq) +
                       " broadcastRemaining " +
                       std::to_string(vi.broadcastRemaining) +
                       " exceeds plan of " +
                       std::to_string(vi.plan.size());
            if (vi.lanePending > vi.plan.size() * p.numLanes)
                return "vseq " + std::to_string(vi.vseq) +
                       " lanePending " + std::to_string(vi.lanePending) +
                       " exceeds plan fan-out of " +
                       std::to_string(vi.plan.size() * p.numLanes);
        }
        return "";
    });
}

void
VlittleEngine::registerProgress(Watchdog &wd)
{
    // Work counters only (never cycles): chime micro-op broadcasts,
    // completions, and every VMU queue movement. A livelocked engine
    // keeps ticking but advances none of these.
    wd.addSource(p.name(),
                 [this] {
                     return sDispatched.value() +
                            sUopsBroadcast.value() +
                            sCompleted.value() +
                            sLoadLineReqs.value() +
                            sStoreLineReqs.value() +
                            sVluDeliveries.value() +
                            sVsuLines.value();
                 },
                 [this] { return inflightReport(); });
}

std::string
VlittleEngine::inflightReport()
{
    if (idle())
        return vectorMode ? "idle (vector mode)" : "";

    std::string out = "cmdQ " + std::to_string(cmdQueue.size()) +
                      " uopQ " + std::to_string(uopQueue.size()) +
                      " vmiuQ " + std::to_string(vmiuQueue.size()) +
                      " vluQ " + std::to_string(vluOrder.size()) +
                      " vsuQ " + std::to_string(vsuOrder.size());
    if (busStalledUntil > clock().eventQueue().now())
        out += " busStalledUntil " + std::to_string(busStalledUntil);
    for (const auto &lost : lostResponses) {
        out += " | LOST " + std::string(lost.isStore ? "store" : "load") +
               " response: vseq " + std::to_string(lost.vseq) +
               " line 0x" + [&] {
                   char buf[20];
                   std::snprintf(buf, sizeof(buf), "%llx",
                                 static_cast<unsigned long long>(
                                     lost.lineAddr));
                   return std::string(buf);
               }() +
               " vmsu " + std::to_string(lost.vmsu) + " after " +
               std::to_string(lost.attempts) + " attempts at tick " +
               std::to_string(lost.tick);
    }
    for (unsigned i = 0; i < vmsus.size(); ++i) {
        const Vmsu &m = vmsus[i];
        if (m.queue.empty() && !m.loadSlotsUsed && !m.storeSlotsUsed)
            continue;
        out += " | vmsu" + std::to_string(i) + " q" +
               std::to_string(m.queue.size()) + " ld" +
               std::to_string(m.loadSlotsUsed) + " st" +
               std::to_string(m.storeSlotsUsed) + " cam" +
               std::to_string(m.camUsed);
    }
    unsigned listed = 0;
    for (SeqNum v = oldestVseq; v < nextVseq; ++v) {
        const VInstr *found = findInflight(v);
        if (!found)
            continue;
        const VInstr &vi = *found;
        out += " | v" + std::to_string(vi.vseq) + " " +
               opName(vi.trace.inst->op) + " lanePend " +
               std::to_string(vi.lanePending) + " bcastRem " +
               std::to_string(vi.broadcastRemaining);
        if (vi.trace.inst->traits().isVecStore)
            out += " stLines " + std::to_string(vi.storeLinesDone) +
                   "/" + std::to_string(vi.storeLinesTotal);
        if (!vi.memGenDone && vi.trace.inst->traits().isVecMem)
            out += " memGenPending";
        if (++listed == 8) {
            out += " | ...";
            break;
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Engine tick
// --------------------------------------------------------------------

bool
VlittleEngine::tick()
{
    // Write-backs first: the last one may leave the engine idle.
    drainRetires();
    if (idle())
        return false;
    sCycles++;

    vcuFrontTick();
    vcuBroadcastTick();
    for (auto &lane : lanes)
        lane->tick();
    vmiuTick();
    for (unsigned i = 0; i < vmsus.size(); ++i)
        vmsuTick(i);
    vluTick();
    vsuTick();

    return !idle();
}

} // namespace bvl
