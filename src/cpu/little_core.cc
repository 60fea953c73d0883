#include "cpu/little_core.hh"

#include "sim/check/check_context.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

LittleCore::LittleCore(ClockDomain &cd, StatGroup &sg, MemSystem &ms,
                       BackingStore &bs, unsigned core_id,
                       unsigned vlen_bits, LittleCoreParams params)
    : ProgramCore(cd, "little" + std::to_string(core_id), core_id,
                  vlen_bits),
      stats(sg), mem(ms), backing(bs), p(params),
      prefix("little" + std::to_string(core_id) + "."),
      sFetched(sg.handle(prefix + "fetched")),
      sRetired(sg.handle(prefix + "retired")),
      sCycles(sg.handle(prefix + "cycles")),
      fetchSlots(p.fetchQueueDepth), fetchBuf(ms, core_id, sg, prefix)
{
    for (unsigned c = 0; c < numStallCauses; ++c)
        sStall[c] = sg.handle(prefix + "stall." +
                              stallName(StallCause(c)));
    regReadyAt.fill(0);
    regProducer.fill(ProducerKind::none);
    fuBusyUntil.fill(0);
}

void
LittleCore::beginWindow()
{
    haltIssued = false;
    fetchHead = 0;
    fetchCount = 0;
    fetchBuf.reset();
    fetchStallUntil = 0;
    regReadyAt.fill(0);
    regProducer.fill(ProducerKind::none);
    fuBusyUntil.fill(0);
    outstandingLoads = 0;
    outstandingStores = 0;
}

void
LittleCore::recordStall(StallCause cause)
{
    sStall[unsigned(cause)]++;
}

void
LittleCore::fetchStage()
{
    auto &eq = clock().eventQueue();
    if (haltSeen || fetchLimitHit() || fetchStallUntil > eq.now() ||
        fetchCount >= p.fetchQueueDepth) {
        return;
    }
    if (arch.pc >= prog->size())
        return;

    Addr instAddr = prog->instAddr(arch.pc);
    if (!fetchBuf.lineReady(instAddr, this))
        return;

    // Functional-first execution at fetch (oracle EX).
    PendingInst &slot = fetchAt(fetchCount);
    stepOne(arch, *prog, backing, slot.trace);
    if (check)
        check->onFetchExecuted(this, arch, slot.trace, backing, eq.now());
    slot.fetchTick = eq.now();
    ++fetchCount;
    sFetched++;
    countFetch(eq.now());

    const ExecTrace &t = slot.trace;
    if (t.inst->op == Op::halt)
        haltSeen = true;
    if (t.isBranch && t.taken)
        fetchStallUntil =
            eq.now() + clock().cyclesToTicks(p.takenBranchPenalty);
}

bool
LittleCore::issueStage()
{
    auto &eq = clock().eventQueue();
    Tick now = eq.now();

    if (fetchCount == 0) {
        recordStall(StallCause::misc);
        return false;
    }

    const PendingInst &head = fetchAt(0);
    const ExecTrace &t = head.trace;
    const Instr &in = *t.inst;
    bvl_assert(!in.isVector(),
               "little%u executed vector instruction in scalar mode", id);

    FuClass fu = in.traits().fu;

    // Source operand readiness.
    for (RegId r : {in.rs1, in.rs2, in.rs3}) {
        if (r == regIdInvalid || r >= 64)
            continue;
        if (regReadyAt[r] > now) {
            recordStall(regProducer[r] == ProducerKind::memory
                        ? StallCause::rawMem : StallCause::rawLlfu);
            return false;
        }
    }

    // Structural: FU occupancy and LSQ space.
    if (fu != FuClass::nop && fuBusyUntil[unsigned(fu)] > now) {
        recordStall(StallCause::structural);
        return false;
    }
    if (in.op == Op::load && outstandingLoads >= p.lsqEntries) {
        recordStall(StallCause::structural);
        return false;
    }
    if (in.op == Op::store && outstandingStores >= p.lsqEntries) {
        recordStall(StallCause::structural);
        return false;
    }

    // --- issue ---
    if (fu != FuClass::nop) {
        Cycles lat = p.fu.latency(fu);
        fuBusyUntil[unsigned(fu)] =
            now + clock().cyclesToTicks(p.fu.pipelined(fu) ? 1 : lat);
    }

    if (in.op == Op::halt) {
        haltIssued = true;
    } else if (in.op == Op::load) {
        RegId rd = in.rd;
        regReadyAt[rd] = maxTick;
        regProducer[rd] = ProducerKind::memory;
        ++outstandingLoads;
        ++regGen[rd];
        std::uint32_t gen = regGen[rd];
        mem.accessData(id, t.addr, false, [this, rd, gen] {
            --outstandingLoads;
            if (regGen[rd] == gen)
                regReadyAt[rd] = clock().eventQueue().now();
            activate();
            maybeFinish();
        });
    } else if (in.op == Op::store) {
        ++outstandingStores;
        mem.accessData(id, t.addr, true, [this] {
            --outstandingStores;
            activate();
            maybeFinish();
        });
    } else if (in.rd != regIdInvalid && in.rd < 64) {
        Cycles lat = p.fu.latency(fu);
        regReadyAt[in.rd] = now + clock().cyclesToTicks(lat);
        regProducer[in.rd] = FuLatencies::longLatency(fu)
            ? ProducerKind::longFu : ProducerKind::shortOp;
        ++regGen[in.rd];
    }

    if (trace && trace->wants(TraceCat::core)) {
        // Fetch-to-issue lifetimes of queued instructions overlap, so
        // they trace as async begin/end pairs.
        std::uint64_t aid = trace->nextAsyncId();
        Json args = Json::object();
        args.set("seq", numRetired + 1);
        args.set("op", opName(in.op));
        args.set("fetch", head.fetchTick);
        args.set("issue", now);
        trace->asyncBegin(TraceCat::core, traceTid, opName(in.op), aid,
                          head.fetchTick, std::move(args));
        trace->asyncEnd(TraceCat::core, traceTid, opName(in.op), aid,
                        now);
    }
    if (++fetchHead == p.fetchQueueDepth)
        fetchHead = 0;
    --fetchCount;
    ++numRetired;
    sRetired++;
    if (check)
        check->onRetire(this, now);
    recordStall(StallCause::busy);
    return true;
}

void
LittleCore::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track("little" + std::to_string(id));
}

void
LittleCore::maybeFinish()
{
    bool windowDone = fetchLimitHit() && fetchCount == 0;
    if (!running || !(haltIssued || windowDone))
        return;
    if (outstandingLoads != 0 || outstandingStores != 0)
        return;
    finishWindow();
}

bool
LittleCore::tick()
{
    if (!running)
        return false;
    sCycles++;
    fetchStage();
    if (!haltIssued)
        issueStage();
    else
        recordStall(StallCause::misc);   // draining memory
    maybeFinish();
    return running;
}

void
LittleCore::registerInvariants(InvariantRegistry &reg)
{
    reg.add(prefix + "fetchQ.bound", [this]() -> std::string {
        if (fetchCount <= p.fetchQueueDepth)
            return "";
        return "fetch queue holds " +
               std::to_string(fetchCount) + " entries, depth " +
               std::to_string(p.fetchQueueDepth);
    });
    reg.add(prefix + "lsq.bound", [this]() -> std::string {
        if (outstandingLoads <= p.lsqEntries &&
            outstandingStores <= p.lsqEntries) {
            return "";
        }
        return "LSQ credit overflow: " +
               std::to_string(outstandingLoads) + " loads, " +
               std::to_string(outstandingStores) + " stores, " +
               std::to_string(p.lsqEntries) + " entries each";
    });
}

std::string
LittleCore::progressDetail() const
{
    if (!running)
        return "";
    return "fetchQ " + std::to_string(fetchCount) + " ld " +
           std::to_string(outstandingLoads) + " st " +
           std::to_string(outstandingStores) +
           (haltSeen ? " halting" : "");
}

} // namespace bvl
