#include "cpu/program_core.hh"

#include "cpu/bpred.hh"
#include "sim/check/check_context.hh"
#include "sim/logging.hh"
#include "sim/watchdog.hh"

namespace bvl
{

ProgramCore::ProgramCore(ClockDomain &cd, std::string name,
                         unsigned coreId, unsigned vlenBits)
    : Clocked(cd, std::move(name)), id(coreId), arch(vlenBits)
{}

void
ProgramCore::seed(const ProgArgs &args)
{
    arch.seed(args);
    if (GsharePredictor *bp = predictor())
        bp->reset();
}

void
ProgramCore::runProgram(ProgramPtr program, const ProgArgs &args,
                        std::function<void()> done)
{
    seed(args);
    runWindow(std::move(program), 0, std::move(done));
    if (check)
        check->onProgramStart(this, prog.get(), arch);
}

void
ProgramCore::runWindow(ProgramPtr program, std::uint64_t maxFetch,
                       std::function<void()> done,
                       std::uint64_t markFetch)
{
    // Architectural state and the predictor are left exactly as the
    // caller seeded them (runProgram, fast-forward, checkpoint
    // restore).
    bvl_assert(!running, "%s: window start while busy", name().c_str());
    prog = std::move(program);
    onDone = std::move(done);
    running = true;
    haltSeen = false;
    fetchStopAt = maxFetch;
    windowFetched_ = 0;
    markFetchAt = markFetch;
    windowLastFetch_ = clock().eventQueue().now();
    windowMark_ = 0;
    beginWindow();
    activate();
}

void
ProgramCore::registerProgress(Watchdog &wd)
{
    wd.addSource(name() + ".retire", [this] { return numRetired; },
                 [this] { return progressDetail(); });
}

void
ProgramCore::finishWindow()
{
    running = false;
    if (check)
        check->onDrain(this, clock().eventQueue().now());
    if (onDone) {
        // Defer: the callback may immediately start another program.
        auto done = std::move(onDone);
        onDone = nullptr;
        clock().eventQueue().schedule(clock().cyclesToTicks(1),
                                      std::move(done));
    }
}

} // namespace bvl
