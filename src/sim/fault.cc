#include "sim/fault.hh"

namespace bvl
{

FaultInjector::FaultInjector(FaultSpec spec, StatGroup &sg)
    : spec_(std::move(spec)), rng(spec_.seed), stats(sg),
      fired(spec_.script.size(), false)
{
}

void
FaultInjector::countFault(FaultKind kind, bool scripted)
{
    auto &handle = (scripted ? sKindScripted : sKind)[unsigned(kind)];
    if (!handle) {
        std::string name =
            std::string("faults.") + faultKindName(kind);
        if (scripted)
            name += ".scripted";
        handle = stats.handle(name);
    }
    handle++;
}

bool
FaultInjector::roll(double prob)
{
    // Draw only for live probabilities so that fault types stay
    // independent: enabling a scripted stall does not shift the draws
    // of a probabilistic memory-delay plan.
    if (prob <= 0.0)
        return false;
    return rng.real() < prob;
}

Cycles
FaultInjector::takeScripted(FaultKind kind, Tick now)
{
    Cycles total = 0;
    for (std::size_t i = 0; i < spec_.script.size(); ++i) {
        const ScriptedFault &f = spec_.script[i];
        if (fired[i] || f.kind != kind || f.atTick > now)
            continue;
        fired[i] = true;
        total += f.cycles;
        countFault(kind, true);
    }
    return total;
}

Cycles
FaultInjector::memResponseDelay(Tick now)
{
    if (!spec_.enabled)
        return 0;
    Cycles extra = takeScripted(FaultKind::memDelay, now);
    if (roll(spec_.memDelayProb)) {
        extra += spec_.memDelayCycles;
        countFault(FaultKind::memDelay, false);
    }
    return extra;
}

Cycles
FaultInjector::cacheResponseDelay(Tick now)
{
    if (!spec_.enabled)
        return 0;
    Cycles extra = takeScripted(FaultKind::cacheDelay, now);
    if (roll(spec_.cacheDelayProb)) {
        extra += spec_.cacheDelayCycles;
        countFault(FaultKind::cacheDelay, false);
    }
    return extra;
}

Cycles
FaultInjector::vcuStall(Tick now)
{
    if (!spec_.enabled)
        return 0;
    Cycles extra = takeScripted(FaultKind::vcuStall, now);
    if (roll(spec_.vcuStallProb)) {
        extra += spec_.vcuStallCycles;
        countFault(FaultKind::vcuStall, false);
    }
    return extra;
}

bool
FaultInjector::takeScriptedOne(FaultKind kind, Tick now)
{
    for (std::size_t i = 0; i < spec_.script.size(); ++i) {
        const ScriptedFault &f = spec_.script[i];
        if (fired[i] || f.kind != kind || f.atTick > now)
            continue;
        fired[i] = true;
        countFault(kind, true);
        return true;
    }
    return false;
}

bool
FaultInjector::dropVmuResponse(Tick now)
{
    if (!spec_.enabled)
        return false;
    // Scripted drops first: they never touch the Rng, so scripting a
    // deterministic drop does not shift a probabilistic plan's draws.
    if (takeScriptedOne(FaultKind::vmuDrop, now))
        return true;
    if (!roll(spec_.vmuDropProb))
        return false;
    countFault(FaultKind::vmuDrop, false);
    return true;
}

} // namespace bvl
