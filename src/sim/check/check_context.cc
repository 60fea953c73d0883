#include "sim/check/check_context.hh"

namespace bvl
{

CheckContext::CheckContext(const CheckOptions &opts, StatGroup &stats)
    : opts(opts),
      sRetires(stats.handle("check.retires")),
      sUops(stats.handle("check.uops")),
      sSweeps(stats.handle("check.sweeps")),
      sDivergences(stats.handle("check.divergences"))
{
    bvl_assert(this->opts.invariantPeriod > 0,
               "invariantPeriod must be positive");
}

bool
CheckContext::armLockstep(const void *tag, std::string streamName,
                          unsigned vlenBits, unsigned chimes,
                          const BackingStore &snapshot,
                          bool vectorStream)
{
    if (!opts.lockstep)
        return false;
    bvl_assert(!checker, "lockstep already armed for stream '%s'",
               checker ? checker->stream().c_str() : "");
    checker = std::make_unique<LockstepChecker>(
        std::move(streamName), vlenBits, chimes, snapshot,
        opts.retireContext);
    armedTag = tag;
    vecArmed = vectorStream;
    if (pendingContextProvider)
        checker->setContextProvider(std::move(pendingContextProvider));
    return true;
}

void
CheckContext::setContextProvider(std::function<std::string()> fn)
{
    if (checker)
        checker->setContextProvider(std::move(fn));
    else
        pendingContextProvider = std::move(fn);
}

void
CheckContext::onRetire(const void *tag, Tick now)
{
    if (checker && tag == armedTag) {
        sRetires++;
        try {
            checker->onRetire(now);
        } catch (const CheckError &) {
            sDivergences++;
            throw;
        }
    }
    if (opts.invariants && ++retireCount % opts.invariantPeriod == 0)
        sweepInvariants("retire");
}

void
CheckContext::onDrain(const void *tag, Tick now)
{
    if (checker && tag == armedTag)
        checker->onDrain(now);
    if (opts.invariants)
        sweepInvariants("drain");
}

void
CheckContext::onUopRetired(SeqNum vseq, unsigned chime, Tick now)
{
    if (!checker || !vecArmed)
        return;
    sUops++;
    try {
        checker->onUopRetired(vseq, chime, now);
    } catch (const CheckError &) {
        sDivergences++;
        throw;
    }
}

void
CheckContext::sweepInvariants(const char *where)
{
    sSweeps++;
    std::string violations = registry.sweep();
    if (!violations.empty()) {
        sDivergences++;
        throw CheckError(std::string("invariant violation (at ") +
                         where + "):\n" + violations);
    }
}

std::string
CheckContext::invariantReport()
{
    sSweeps++;
    return registry.sweep();
}

} // namespace bvl
