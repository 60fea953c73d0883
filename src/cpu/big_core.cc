#include "cpu/big_core.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/vlittle_engine.hh"
#include "sim/check/check_context.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

namespace
{

/** Map a FuClass to its pool index / size lookup. */
unsigned
poolSize(const BigCoreParams &p, FuClass fu)
{
    switch (fu) {
      case FuClass::intAlu: return p.numIntAlu;
      case FuClass::intMul:
      case FuClass::intDiv: return p.numMulDiv;
      case FuClass::fpAdd:
      case FuClass::fpMul:
      case FuClass::fpDiv: return p.numFp;
      case FuClass::mem: return p.numMemPorts;
      case FuClass::branch: return p.numBranch;
      default: return 1000;   // nop class: unconstrained
    }
}

} // namespace

BigCore::BigCore(ClockDomain &cd, StatGroup &sg, MemSystem &ms,
                 BackingStore &bs, unsigned vlen_bits,
                 BigCoreParams params)
    : ProgramCore(cd, "big", ms.bigCoreId(), vlen_bits), stats(sg),
      mem(ms), backing(bs), p(params),
      sFetched(sg.handle(prefix + "fetched")),
      sRetired(sg.handle(prefix + "retired")),
      sCycles(sg.handle(prefix + "cycles")),
      sMispredicts(sg.handle(prefix + "mispredicts")),
      sVecDispatched(sg.handle(prefix + "vecDispatched")),
      bpred(params.bpredIndexBits), fetchBuf(ms, id, sg, prefix),
      vecQueue(p.robEntries), pendingHits(p.lsqLoads + p.lsqStores)
{
    std::size_t slots = 64;
    while (slots < p.robEntries)
        slots *= 2;
    robSlots.resize(slots);
    robMask = slots - 1;
    maskWords = static_cast<unsigned>(slots / 64);
    readyBits.assign(maskWords, 0);
    consumerBits.assign(slots * maskWords, 0);
    storeBuckets.assign(slots, 0);
    lastWriter.fill(nullptr);

    // A completion lands on a later cycle than its issue, so a zero
    // latency has no ring set to go to.
    auto [minLat, maxLat] = p.fu.latencyRange();
    if (minLat == 0)
        fatal("big core: FU latencies must be at least one cycle");
    std::size_t sets = 1;
    while (sets <= maxLat)
        sets *= 2;
    doneRing.assign(sets * maskWords, 0);
    doneMask = sets - 1;
}

void
BigCore::beginWindow()
{
    fetchBuf.reset();
    fetchStallUntil = 0;
    blockingBranch = nullptr;
    robHeadSeq = nextSeq;
    lastWriter.fill(nullptr);
    std::fill(readyBits.begin(), readyBits.end(), 0);
    std::fill(consumerBits.begin(), consumerBits.end(), 0);
    std::fill(doneRing.begin(), doneRing.end(), 0);
    std::fill(storeBuckets.begin(), storeBuckets.end(), 0);
    fuInUseThisCycle.fill(0);
    unpipedBusyUntil.fill(0);
    loadsInFlight = 0;
    storesInFlight = 0;
    missesInFlight = 0;
    pendingHits.clear();
    vecOutstanding = 0;
    vecQueue.clear();
}

void
BigCore::addDep(RobInst &inst, RobInst *producer)
{
    if (!producer || producer->complete)
        return;
    // Two edges from one producer resolve in the same completeInst(),
    // so one mask bit (and one pendingSrcs count) stands for both.
    std::uint64_t &word = consumersOf(*producer)[(inst.seq & robMask) >> 6];
    if (word & slotBit(inst.seq))
        return;
    word |= slotBit(inst.seq);
    ++inst.pendingSrcs;
}

BigCore::RobInst *
BigCore::lastStoreTo(Addr line)
{
    SeqNum s = storeBuckets[line & robMask];
    while (s >= robHeadSeq) {
        RobInst &store = robAt(s);
        if (lineOf(store.trace.addr) == line)
            return &store;
        s = store.prevStoreInBucket;
    }
    return nullptr;
}

void
BigCore::fetchStage()
{
    auto &eq = clock().eventQueue();
    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (haltSeen || fetchLimitHit() || blockingBranch ||
            fetchStallUntil > eq.now() || robSize() >= p.robEntries) {
            return;
        }
        if (arch.pc >= prog->size())
            return;

        Addr instAddr = prog->instAddr(arch.pc);
        if (!fetchBuf.lineReady(instAddr, this))
            return;

        std::uint64_t fetchPc = arch.pc;
        SeqNum seq = nextSeq++;
        RobInst *inst = &robAt(seq);
        static_cast<RobInstState &>(*inst) = RobInstState{};
        inst->seq = seq;
        stepOne(arch, *prog, backing, inst->trace);
        sFetched++;
        countFetch(eq.now());
        if (check)
            check->onFetchExecuted(this, arch, inst->trace, backing,
                                   eq.now());

        std::fill_n(consumersOf(*inst), maskWords, 0);
        if (trace)
            inst->fetchTick = eq.now();
        const Instr &in = *inst->trace.inst;
        const OpTraits &traits = in.traits();

        // Register (scalar) source dependences.
        auto addRegDep = [&](RegId r) {
            if (r != regIdInvalid && r < 64)
                addDep(*inst, lastWriter[r]);
        };
        addRegDep(in.rs1);
        // rs2 is a scalar source for scalar ops and .vx/.vf forms.
        if (!traits.isVector || in.vsrc == VSrc2::vx ||
            in.vsrc == VSrc2::vf)
            addRegDep(in.rs2);
        addRegDep(in.rs3);

        // Store -> load ordering through memory (scalar only; the
        // vector engines order their own memory, vmfence orders the
        // scalar/vector boundary).
        if (!traits.isVector && inst->trace.isMem) {
            Addr lnum = lineOf(inst->trace.addr);
            if (inst->trace.isStore) {
                SeqNum &bucket = storeBuckets[lnum & robMask];
                inst->prevStoreInBucket = bucket;
                bucket = seq;
            } else {
                addDep(*inst, lastStoreTo(lnum));
            }
        }

        // Rename the destination.
        if (in.rd != regIdInvalid && in.rd < 64 && in.op != Op::store)
            lastWriter[in.rd] = inst;

        // Branch prediction (conditional branches only).
        if (inst->trace.isBranch && in.op != Op::jump) {
            bool predicted = bpred.predict(fetchPc);
            bpred.update(fetchPc, inst->trace.taken);
            if (predicted != inst->trace.taken) {
                inst->predictedWrong = true;
                blockingBranch = inst;
                sMispredicts++;
            }
        }

        if (in.op == Op::halt)
            haltSeen = true;

        if (traits.isVector) {
            vecQueue.push_back(inst);
            if (check)
                check->onVecQueued(this);
        }

        if (traits.fu == FuClass::nop) {
            // li/nop/halt: complete at dispatch, no FU needed.
            inst->issued = true;
            inst->complete = true;
            if (trace)
                inst->issueTick = inst->completeTick = eq.now();
        } else if (!traits.isVector && inst->pendingSrcs == 0) {
            readyWord(seq) |= slotBit(seq);
        }
    }
}

bool
BigCore::fuAvailable(FuClass fu, Tick now)
{
    if (fu == FuClass::nop)
        return true;
    if (!p.fu.pipelined(fu) && unpipedBusyUntil[unsigned(fu)] > now)
        return false;
    return fuInUseThisCycle[unsigned(fu)] < poolSize(p, fu);
}

void
BigCore::consumeFu(FuClass fu, Tick now)
{
    if (fu == FuClass::nop)
        return;
    ++fuInUseThisCycle[unsigned(fu)];
    if (!p.fu.pipelined(fu))
        unpipedBusyUntil[unsigned(fu)] =
            now + clock().cyclesToTicks(p.fu.latency(fu));
}

void
BigCore::issueStage()
{
    auto &eq = clock().eventQueue();
    Tick now = eq.now();

    if (fuCycleTick != now) {
        fuInUseThisCycle.fill(0);
        fuCycleTick = now;
    }

    // Oldest-first over the ready bitmap: the words from the head's
    // slot to the end of the ring, then the wrapped words back to it
    // (the last pass keeps only the bits below the head).
    unsigned issued = 0;
    unsigned headBit = static_cast<unsigned>(robHeadSeq & robMask);
    unsigned headWord = headBit / 64;
    for (unsigned k = 0; k <= maskWords && issued < p.issueWidth; ++k) {
        unsigned w = (headWord + k) % maskWords;
        std::uint64_t bits = readyBits[w];
        if (k == 0)
            bits &= ~0ull << (headBit % 64);
        else if (k == maskWords)
            bits &= (1ull << (headBit % 64)) - 1;
        for (; bits && issued < p.issueWidth; bits &= bits - 1) {
            RobInst *inst = &robSlots[w * 64 + std::countr_zero(bits)];
            const Instr &in = *inst->trace.inst;
            FuClass fu = in.traits().fu;

            if (!fuAvailable(fu, now))
                continue;
            if (in.op == Op::load && loadsInFlight >= p.lsqLoads)
                continue;
            if (in.op == Op::store && storesInFlight >= p.lsqStores)
                continue;

            // Issue.
            consumeFu(fu, now);
            inst->issued = true;
            if (trace)
                inst->issueTick = now;
            readyBits[w] &= ~slotBit(inst->seq);
            ++issued;

            if (in.op == Op::load || in.op == Op::store) {
                issueMem(inst);
            } else {
                Cycles lat = p.fu.latency(fu);
                inst->doneAt = now + clock().cyclesToTicks(lat);
                doneSet(clock().curCycle() + lat)[w] |= slotBit(inst->seq);
            }
        }
    }
}

void
BigCore::issueMem(RobInst *inst)
{
    bool isStore = inst->trace.inst->op == Op::store;
    ++(isStore ? storesInFlight : loadsInFlight);
    Tick ready = mem.accessDataTick(id, inst->trace.addr, isStore,
                                    [this, inst] {
        --missesInFlight;
        memDone(inst, clock().eventQueue().now());
        activate();
    });
    if (ready == maxTick)
        ++missesInFlight;
    else
        pendingHits.push(clock().eventQueue(), ready, inst);
}

void
BigCore::memDone(RobInst *inst, Tick at)
{
    --(inst->trace.inst->op == Op::store ? storesInFlight : loadsInFlight);
    resolveInst(inst, at);
}

void
BigCore::drainDone()
{
    Tick now = clock().eventQueue().now();
    std::uint64_t *set = doneSet(clock().curCycle());
    for (unsigned w = 0; w < maskWords; ++w) {
        for (std::uint64_t bits = std::exchange(set[w], 0); bits;
             bits &= bits - 1) {
            RobInst *inst = &robSlots[w * 64 + std::countr_zero(bits)];
            bvl_assert(inst->doneAt == now, "big core: seq %llu due at "
                       "tick %llu drained at %llu (missed tick)",
                       (unsigned long long)inst->seq,
                       (unsigned long long)inst->doneAt,
                       (unsigned long long)now);
            resolveInst(inst, now);
        }
    }
}

void
BigCore::completeInst(RobInst *inst)
{
    resolveInst(inst, clock().eventQueue().now());
    activate();
}

void
BigCore::resolveInst(RobInst *inst, Tick at)
{
    if (inst->complete)
        return;
    inst->complete = true;
    if (trace)
        inst->completeTick = at;

    if (inst->predictedWrong && blockingBranch == inst) {
        blockingBranch = nullptr;
        fetchStallUntil = at + clock().cyclesToTicks(p.redirectPenalty);
    }

    std::uint64_t *consumers = consumersOf(*inst);
    for (unsigned w = 0; w < maskWords; ++w) {
        for (std::uint64_t bits = std::exchange(consumers[w], 0); bits;
             bits &= bits - 1) {
            RobInst &consumer = robSlots[w * 64 + std::countr_zero(bits)];
            bvl_assert(consumer.pendingSrcs > 0, "wakeup underflow");
            if (--consumer.pendingSrcs == 0 && !consumer.issued &&
                !consumer.trace.inst->isVector()) {
                readyWord(consumer.seq) |= slotBit(consumer.seq);
            }
        }
    }
}

void
BigCore::vecDispatchStage()
{
    // Vector instructions dispatch in program order among themselves.
    // Decoupled engines additionally require the ROB head (paper
    // Section III-A); the integrated unit dispatches as soon as the
    // scalar operands are ready. vmfence always waits for the head
    // and for outstanding scalar memory (paper Section III-B).
    while (vengine && !vecQueue.empty()) {
        RobInst *inst = vecQueue.front();
        const Instr &in = *inst->trace.inst;
        if (inst->pendingSrcs != 0)
            return;
        bool needHead = vengine->dispatchAtHead() ||
                        in.op == Op::vmfence;
        if (needHead && inst->seq != robHeadSeq)
            return;
        if (in.op == Op::vmfence &&
            (loadsInFlight != 0 || storesInFlight != 0)) {
            return;
        }
        if (!vengine->canAccept(inst->trace))
            return;

        inst->vecDispatched = true;
        ++vecOutstanding;
        sVecDispatched++;
        if (trace && trace->wants(TraceCat::big)) {
            Json args = Json::object();
            args.set("seq", inst->seq);
            args.set("op", opName(in.op));
            args.set("robHead", inst->seq == robHeadSeq);
            trace->instant(TraceCat::big, traceTid, "vecDispatch",
                           clock().eventQueue().now(), std::move(args));
        }
        vengine->dispatch(inst->trace, inst->seq);
        if (!in.traits().writesScalar)
            inst->complete = true;
        vecQueue.pop_front();
        // Only one dispatch per cycle (vector dispatch unit port).
        return;
    }
}

void
BigCore::vecCompleted(SeqNum seq, bool writesScalar)
{
    --vecOutstanding;
    if (writesScalar) {
        bvl_assert(robAt(seq).seq == seq, "big core: engine response "
                   "for seq %llu, which left the ROB",
                   (unsigned long long)seq);
        completeInst(&robAt(seq));
    } else {
        activate();
        maybeFinish();
    }
}

void
BigCore::commitStage()
{
    for (unsigned n = 0; n < p.commitWidth && robSize() != 0; ++n) {
        RobInst *head = &robAt(robHeadSeq);
        const Instr &in = *head->trace.inst;

        if (in.isVector()) {
            // Dispatch happens in vecDispatchStage; the ROB head only
            // waits here for dispatch (and, for scalar-writing ops,
            // for the engine's response).
            if (!head->vecDispatched || !head->complete)
                return;
        } else if (!head->complete) {
            return;
        }

        // Retire.
        if (in.rd != regIdInvalid && in.rd < 64 &&
            lastWriter[in.rd] == head) {
            lastWriter[in.rd] = nullptr;
        }
        if (trace && trace->wants(TraceCat::big)) {
            // Instruction lifetimes overlap (out-of-order core), so
            // they trace as async begin/end pairs, not complete spans.
            Tick now = clock().eventQueue().now();
            std::uint64_t id = trace->nextAsyncId();
            Json args = Json::object();
            args.set("seq", head->seq);
            args.set("op", opName(in.op));
            args.set("fetch", head->fetchTick);
            args.set("issue", head->issueTick);
            args.set("complete", head->completeTick);
            args.set("retire", now);
            trace->asyncBegin(TraceCat::big, traceTid, opName(in.op),
                              id, head->fetchTick, std::move(args));
            trace->asyncEnd(TraceCat::big, traceTid, opName(in.op),
                            id, now);
        }
        ++robHeadSeq;
        ++numRetired;
        sRetired++;
        if (check)
            check->onRetire(this, clock().eventQueue().now());
    }
}

void
BigCore::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track("big");
}

void
BigCore::registerInvariants(InvariantRegistry &reg)
{
    reg.add("big.rob.bound", [this]() -> std::string {
        if (robSize() <= p.robEntries)
            return "";
        return "ROB holds " + std::to_string(robSize()) +
               " entries, capacity " + std::to_string(p.robEntries);
    });
    // Every ready bit names an in-flight scalar instruction that has
    // not issued and waits on nothing.
    reg.add("big.rob.ready", [this]() -> std::string {
        for (std::size_t i = 0; i < robSlots.size(); ++i) {
            if (!(readyBits[i / 64] & (1ull << (i % 64))))
                continue;
            const RobInst &inst = robSlots[i];
            if (robSize() == 0 || inst.seq < robHeadSeq ||
                inst.seq >= nextSeq)
                return "ready bit on slot " + std::to_string(i) +
                       " outside the ROB";
            if (inst.issued || inst.pendingSrcs != 0 ||
                inst.trace.inst->isVector())
                return "seq " + std::to_string(inst.seq) +
                       " is in the ready set but cannot issue";
        }
        return "";
    });
    // Every completion-ring bit names an in-flight, issued, incomplete
    // scalar op, filed under the cycle it is due and not yet past.
    reg.add("big.rob.doneRing", [this]() -> std::string {
        Tick now = clock().eventQueue().now();
        for (std::size_t k = 0; k < doneRing.size(); ++k) {
            std::size_t set = k / maskWords;
            for (std::uint64_t bits = doneRing[k]; bits; bits &= bits - 1) {
                std::size_t i = (k % maskWords) * 64 + std::countr_zero(bits);
                if (i >= robSlots.size())
                    return "completion bit " + std::to_string(i) +
                           " past the last ROB slot";
                const RobInst &inst = robSlots[i];
                if (robSize() == 0 || inst.seq < robHeadSeq ||
                    inst.seq >= nextSeq)
                    return "completion bit on slot " + std::to_string(i) +
                           " outside the ROB";
                if (!inst.issued || inst.complete ||
                    inst.trace.inst->isVector())
                    return "seq " + std::to_string(inst.seq) +
                           " is in the completion ring but is not an "
                           "issued, incomplete scalar op";
                if (inst.doneAt < now ||
                    (clock().ticksToCycles(inst.doneAt) & doneMask) != set)
                    return "seq " + std::to_string(inst.seq) + " due at " +
                           std::to_string(inst.doneAt) + " sits in set " +
                           std::to_string(set) + " at tick " +
                           std::to_string(now);
            }
        }
        return "";
    });
    reg.add("big.mem.pending", [this]() -> std::string {
        return pendingHits.check(loadsInFlight + storesInFlight -
                                 missesInFlight);
    });
    reg.add("big.lsq.bound", [this]() -> std::string {
        if (loadsInFlight <= p.lsqLoads && storesInFlight <= p.lsqStores)
            return "";
        return "LSQ credit overflow: " + std::to_string(loadsInFlight) +
               "/" + std::to_string(p.lsqLoads) + " loads, " +
               std::to_string(storesInFlight) + "/" +
               std::to_string(p.lsqStores) + " stores";
    });
    // Vector instructions dispatch in program order, and with a
    // head-dispatch engine an incomplete dispatched instruction can
    // only be the ROB head (paper Section III-A).
    reg.add("big.vec.dispatchOrder", [this]() -> std::string {
        bool headDispatch = vengine && vengine->dispatchAtHead();
        bool sawUndispatched = false;
        for (SeqNum seq = robHeadSeq; seq < nextSeq; ++seq) {
            const RobInst &inst = robAt(seq);
            if (!inst.trace.inst || !inst.trace.inst->isVector())
                continue;
            if (!inst.vecDispatched) {
                sawUndispatched = true;
                continue;
            }
            if (sawUndispatched) {
                return "seq " + std::to_string(inst.seq) +
                       " dispatched before an older vector instruction";
            }
            if (headDispatch && seq != robHeadSeq && !inst.complete) {
                return "seq " + std::to_string(inst.seq) +
                       " dispatched while not at the ROB head";
            }
        }
        return "";
    });
}

std::string
BigCore::progressDetail() const
{
    if (!running)
        return "";
    unsigned ready = 0;
    for (std::uint64_t word : readyBits)
        ready += static_cast<unsigned>(std::popcount(word));
    std::string out = "rob " + std::to_string(robSize()) + "/" +
                      std::to_string(p.robEntries) + " ready " +
                      std::to_string(ready) + " vecQ " +
                      std::to_string(vecQueue.size()) + " vecOut " +
                      std::to_string(vecOutstanding) + " ld " +
                      std::to_string(loadsInFlight) + " st " +
                      std::to_string(storesInFlight);
    if (robSize() != 0) {
        const RobInst &head = robAt(robHeadSeq);
        out += " | head v" + std::to_string(head.seq) + " " +
               opName(head.trace.inst->op) +
               (head.complete ? " complete" : " pending") +
               (head.trace.inst->isVector() && !head.vecDispatched
                    ? " awaitingDispatch" : "");
    }
    if (blockingBranch)
        out += " | blocked on branch v" +
               std::to_string(blockingBranch->seq);
    return out;
}

void
BigCore::maybeFinish()
{
    if (!running || !(haltSeen || fetchLimitHit()) || robSize() != 0)
        return;
    // A pending hit's instruction holds the ROB, so with the ROB empty
    // none is left: the window never waits for a hit's slot.
    if (loadsInFlight != 0 || storesInFlight != 0 || vecOutstanding != 0)
        return;
    if (vengine && !vengine->idle())
        return;
    finishWindow();
}

bool
BigCore::tick()
{
    if (!running)
        return false;
    // Hits first: their closures used to run before this tick.
    pendingHits.applyAtTick(clock().eventQueue(),
                            [this](const auto &hit) {
        memDone(hit.what, hit.due);
    });
    sCycles++;
    drainDone();
    vecDispatchStage();
    commitStage();
    issueStage();
    fetchStage();
    maybeFinish();
    return running;
}

} // namespace bvl
