#include "mem/cache.hh"

#include <algorithm>

#include "sim/check/invariants.hh"
#include "sim/fault.hh"
#include "sim/trace/tracer.hh"
#include "sim/watchdog.hh"

namespace bvl
{

Cache::Cache(ClockDomain &cd, StatGroup &sg, CacheParams params,
             MemLevel *next_level, int l1_id)
    : clock(cd), p(std::move(params)), next(next_level),
      l1Id(l1_id),
      sAccesses(sg.handle(p.name + ".accesses")),
      sHits(sg.handle(p.name + ".hits")),
      sMisses(sg.handle(p.name + ".misses")),
      sFills(sg.handle(p.name + ".fills")),
      sEvictions(sg.handle(p.name + ".evictions")),
      sWritebacks(sg.handle(p.name + ".writebacks")),
      sInvalidations(sg.handle(p.name + ".invalidations")),
      sMshrFull(sg.handle(p.name + ".mshrFull"))
{
    bvl_assert(p.sizeBytes % (p.assoc * lineBytes) == 0,
               "%s: size not divisible by assoc*line", p.name.c_str());
    numSets = p.sizeBytes / (p.assoc * lineBytes);
    bvl_assert((numSets & (numSets - 1)) == 0,
               "%s: set count must be a power of two", p.name.c_str());
    ways.assign(std::size_t(numSets) * p.assoc, Way{});
    // Size the miss-handling state up front so a slot's first use
    // deep into a run does not allocate (DESIGN.md §11).
    mshrs.resize(p.numMshrs);
    for (Mshr &m : mshrs)
        m.waiters.reserve(mshrWaiterSlots);
    pendingQueue.reserve(p.numMshrs);
}

unsigned
Cache::setIndex(Addr lineNum, IndexMode mode) const
{
    if (mode == IndexMode::vectorBanked)
        return static_cast<unsigned>((lineNum / p.numBanks) % numSets);
    return static_cast<unsigned>(lineNum % numSets);
}

const Cache::Way *
Cache::findWay(Addr lineNum, unsigned set) const
{
    const Way *way = setWays(set);
    for (unsigned w = 0; w < p.assoc; ++w)
        if (way[w].valid && way[w].line == lineNum)
            return &way[w];
    return nullptr;
}

const Cache::Way *
Cache::findAnywhere(Addr lineNum) const
{
    // installLine() drops a stale copy before it fills, so at most one
    // of the two sets holds the line.
    unsigned scalarSet = setIndex(lineNum, IndexMode::scalarPrivate);
    if (const Way *way = findWay(lineNum, scalarSet))
        return way;
    unsigned bankedSet = setIndex(lineNum, IndexMode::vectorBanked);
    return bankedSet == scalarSet ? nullptr : findWay(lineNum, bankedSet);
}

bool
Cache::probe(Addr addr) const
{
    Addr lineNum = lineOf(lineAlign(addr));
    return findWay(lineNum, setIndex(lineNum, indexMode)) != nullptr;
}

void
Cache::invalidate(Addr lineAddr, bool warm)
{
    Way *way = findAnywhere(lineOf(lineAlign(lineAddr)));
    if (!way)
        return;
    way->valid = false;
    way->dirty = false;
    if (!warm)
        sInvalidations++;
}

void
Cache::registerInvariants(InvariantRegistry &reg)
{
    // O(1) structural checks only: invariant sweeps run at retire
    // granularity, so no per-set/per-way walks here.
    reg.add(p.name + ".mshr.bound", [this]() -> std::string {
        if (mshrsBusy <= p.numMshrs)
            return "";
        return std::to_string(mshrsBusy) +
               " MSHRs allocated, capacity " +
               std::to_string(p.numMshrs);
    });
    reg.add(p.name + ".mshr.stall", [this]() -> std::string {
        // A request may only stall in pendingQueue while the MSHR
        // file is genuinely full.
        if (pendingQueue.empty() || mshrsBusy >= p.numMshrs)
            return "";
        return std::to_string(pendingQueue.size()) +
               " requests stalled with only " +
               std::to_string(mshrsBusy) + "/" +
               std::to_string(p.numMshrs) + " MSHRs busy";
    });
}

void
Cache::setTracer(Tracer *t)
{
    trace = t;
    if (trace)
        traceTid = trace->track(p.name);
}

void
Cache::registerProgress(Watchdog &wd)
{
    // Hits and fills together advance on every serviced access; the
    // MSHR table is the in-flight request state worth dumping.
    wd.addSource(p.name,
                 [this] { return sHits.value() + sFills.value(); },
                 [this] { return mshrReport(); });
}

std::string
Cache::mshrReport() const
{
    if (mshrsBusy == 0 && pendingQueue.empty())
        return "";
    std::string out = "mshrs " + std::to_string(mshrsBusy) + "/" +
                      std::to_string(p.numMshrs) + " stalled " +
                      std::to_string(pendingQueue.size()) + " lines";
    unsigned listed = 0;
    for (const Mshr &m : mshrs) {
        if (!m.busy)
            continue;
        out += (listed == 0 ? ": " : " ");
        out += std::to_string(m.line);
        out += m.isWrite ? "(w," : "(r,";
        out += std::to_string(m.waiters.size()) + "w)";
        if (++listed == 8) {
            out += " ...";
            break;
        }
    }
    return out;
}

void
Cache::access(Addr addr, bool isWrite, MemCallback done)
{
    // accessTick() takes done only on a miss; a hit leaves it here.
    Tick ready = accessTick(addr, isWrite, std::move(done));
    if (ready != maxTick && done)
        clock.eventQueue().scheduleAt(ready, std::move(done));
}

bool
Cache::lookup(Addr lineNum, bool isWrite, Tick &tagDone)
{
    auto &eq = clock.eventQueue();

    // Tag-port occupancy: one lookup per clock period.
    Tick start = std::max(eq.now(), portNextFree);
    portNextFree = start + clock.periodPs();

    tagDone = start + clock.cyclesToTicks(p.hitLatency);
    sAccesses++;

    if (Way *way = findWay(lineNum, setIndex(lineNum, indexMode))) {
        way->lastUse = eq.now();
        way->dirty |= isWrite;
        sHits++;
        return true;
    }

    sMisses++;
    return false;
}

int
Cache::findMshr(Addr lineNum) const
{
    for (unsigned i = 0; i < mshrs.size(); ++i)
        if (mshrs[i].busy && mshrs[i].line == lineNum)
            return static_cast<int>(i);
    return -1;
}

void
Cache::handleMiss(Addr lineNum, bool isWrite, MemCallback done,
                  Tick readyTick)
{
    auto &eq = clock.eventQueue();

    if (int hit = findMshr(lineNum); hit >= 0) {
        // Secondary miss: piggyback on the outstanding request.
        Mshr &mshr = mshrs[hit];
        mshr.isWrite |= isWrite;
        if (done)
            mshr.waiters.push_back(std::move(done));
        return;
    }

    if (mshrsBusy >= p.numMshrs) {
        sMshrFull++;
        pendingQueue.push_back(PendingReq{lineNum, isWrite, std::move(done)});
        return;
    }

    unsigned slot = 0;
    while (mshrs[slot].busy)
        ++slot;
    Mshr &mshr = mshrs[slot];
    mshr.busy = true;
    mshr.line = lineNum;
    mshr.isWrite = isWrite;
    ++mshrsBusy;
    if (trace)
        mshr.allocTick = eq.now();
    if (done)
        mshr.waiters.push_back(std::move(done));

    Tick delay = readyTick > eq.now() ? readyTick - eq.now() : 0;
    // Injected transient: the miss response is stretched by a few
    // cycles, as if the fill got stuck behind unrelated traffic.
    if (injector)
        delay += clock.cyclesToTicks(
            injector->cacheResponseDelay(eq.now()));
    eq.schedule(delay, [this, slot] {
        const Mshr &m = mshrs[slot];
        bvl_assert(m.busy, "%s: lost MSHR", p.name.c_str());
        next->request(l1Id, m.line << lineShift, m.isWrite,
                      [this, slot] { fillMshr(slot); });
    });
}

void
Cache::fillMshr(unsigned slot)
{
    auto &eq = clock.eventQueue();
    Mshr &m = mshrs[slot];
    bvl_assert(m.busy, "%s: MSHR vanished", p.name.c_str());
    Addr lineNum = m.line;
    if (trace && trace->wants(TraceCat::cache)) {
        // Miss lifetimes overlap (non-blocking cache), so MSHR
        // allocate -> fill pairs as async events.
        std::uint64_t id = trace->nextAsyncId();
        Json args = Json::object();
        args.set("line", lineNum);
        args.set("write", m.isWrite);
        args.set("waiters", static_cast<unsigned>(m.waiters.size()));
        trace->asyncBegin(TraceCat::cache, traceTid, "miss", id,
                          m.allocTick, std::move(args));
        trace->asyncEnd(TraceCat::cache, traceTid, "miss", id, eq.now());
    }
    installLine(lineNum, m.isWrite, /*warm=*/false);
    // One-cycle fill-forward latency to the waiting requests.
    Tick respond = eq.now() + clock.cyclesToTicks(1);
    for (auto &w : m.waiters)
        eq.scheduleAt(respond, std::move(w));
    m.waiters.clear();
    m.busy = false;
    --mshrsBusy;
    issuePending();
}

void
Cache::installLine(Addr lineNum, bool isWrite, bool warm)
{
    // If this cache already holds the line under the *other* indexing
    // mode (mode switched while it was resident), drop the stale copy:
    // the coherence protocol migrates the line to its new home set.
    if (Way *old = findAnywhere(lineNum)) {
        old->valid = false;
        old->dirty = false;
    }

    Way *victim = nullptr;
    Way *set = setWays(setIndex(lineNum, indexMode));
    for (unsigned w = 0; w < p.assoc; ++w) {
        Way &way = set[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim || way.lastUse < victim->lastUse)
            victim = &way;
    }
    bvl_assert(victim, "%s: no victim way", p.name.c_str());

    if (victim->valid) {
        next->evicted(l1Id, victim->line << lineShift);
        if (!warm)
            sEvictions++;
        if (victim->dirty) {
            if (warm) {
                next->warmRequest(l1Id, victim->line << lineShift,
                                  true);
            } else {
                sWritebacks++;
                next->request(l1Id, victim->line << lineShift, true,
                              MemCallback());
            }
        }
    }

    victim->valid = true;
    victim->line = lineNum;
    victim->dirty = isWrite;
    victim->lastUse = clock.eventQueue().now();
    if (!warm)
        sFills++;
}

void
Cache::warmAccess(Addr addr, bool isWrite)
{
    Addr lineNum = lineOf(lineAlign(addr));
    if (Way *way = findWay(lineNum, setIndex(lineNum, indexMode))) {
        way->lastUse = clock.eventQueue().now();
        way->dirty |= isWrite;
        return;
    }
    // Mirror the timed miss path's directory order: the next level
    // sees the line request before this cache installs it.
    next->warmRequest(l1Id, lineNum << lineShift, isWrite);
    installLine(lineNum, isWrite, /*warm=*/true);
}

void
Cache::issuePending()
{
    while (!pendingQueue.empty() && mshrsBusy < p.numMshrs) {
        auto [lineNum, isWrite, done] = std::move(pendingQueue.front());
        pendingQueue.pop_front();
        // Re-check the tags: the line may have been filled meanwhile.
        if (Way *way = findWay(lineNum, setIndex(lineNum, indexMode))) {
            way->dirty |= isWrite;
            way->lastUse = clock.eventQueue().now();
            if (done)
                clock.eventQueue().schedule(clock.cyclesToTicks(1),
                                            std::move(done));
            continue;
        }
        handleMiss(lineNum, isWrite, std::move(done),
                   clock.eventQueue().now());
    }
}

} // namespace bvl
