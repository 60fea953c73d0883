#include "runtime/ws_runtime.hh"

#include "sim/watchdog.hh"

namespace bvl
{

WsRuntime::WsRuntime(Soc &soc, RuntimeParams params)
    : soc(soc), p(params), rng(params.seed),
      sPhases(soc.stats.handle("runtime.phases")),
      sSteals(soc.stats.handle("runtime.steals")),
      sPops(soc.stats.handle("runtime.pops")),
      sOverheadCycles(soc.stats.handle("runtime.overheadCycles"))
{}

void
WsRuntime::registerProgress(Watchdog &wd)
{
    wd.addSource("runtime",
                 [this] {
                     return sPops.value() + sSteals.value() +
                            sPhases.value();
                 },
                 [this] { return progressDetail(); });
}

std::string
WsRuntime::progressDetail() const
{
    if (!running)
        return "";
    std::string out = "phase " + std::to_string(phaseIdx) + "/" +
                      std::to_string(graph.phases.size()) +
                      " inFlight " + std::to_string(tasksInFlight) +
                      " pending " + std::to_string(pendingTasks) +
                      " workers";
    for (const auto &w : workers) {
        out += w.core == soc.big.get() ? " b" : " l";
        out += w.idle ? "i" : "r";
        out += std::to_string(w.deque.size());
    }
    return out;
}

void
WsRuntime::run(TaskGraph g, bool useBig,
               unsigned numLittleWorkers, bool bigRunsVector,
               std::function<void()> done)
{
    bvl_assert(!running, "runtime: run() while busy");
    bvl_assert(useBig || numLittleWorkers > 0, "runtime: no workers");
    graph = std::move(g);
    onDone = std::move(done);
    running = true;
    phaseIdx = 0;

    workers.clear();
    if (useBig) {
        Worker w;
        w.core = soc.big.get();
        w.vector = bigRunsVector;
        workers.push_back(w);
    }
    unsigned count = std::min<std::size_t>(numLittleWorkers,
                                           soc.littles.size());
    for (unsigned i = 0; i < count; ++i) {
        Worker w;
        w.core = soc.littles[i].get();
        workers.push_back(w);
    }
    startPhase();
}

void
WsRuntime::startPhase()
{
    if (phaseIdx >= graph.phases.size()) {
        running = false;
        sPhases += phaseIdx;
        if (onDone) {
            auto done = std::move(onDone);
            onDone = nullptr;
            done();
        }
        return;
    }

    const Phase &phase = graph.phases[phaseIdx];
    for (auto &w : workers) {
        w.deque.clear();
        w.idle = true;
    }
    // Round-robin initial distribution (a fork tree reaches a similar
    // spread; stealing corrects any imbalance dynamically).
    pendingTasks = 0;
    for (std::size_t t = 0; t < phase.tasks.size(); ++t) {
        workers[t % workers.size()].deque.push_back(&phase.tasks[t]);
        ++pendingTasks;
    }
    tasksInFlight = 0;

    for (unsigned w = 0; w < workers.size(); ++w)
        schedule(w);
}

const Task *
WsRuntime::trySteal(unsigned thief, unsigned &attempts)
{
    attempts = 0;
    // Bounded random probing: each probe costs stealCost cycles.
    for (unsigned probe = 0; probe < 2 * workers.size(); ++probe) {
        ++attempts;
        unsigned victim =
            static_cast<unsigned>(rng.below(workers.size()));
        if (victim == thief)
            continue;
        auto &vd = workers[victim].deque;
        if (!vd.empty()) {
            const Task *task = vd.back();   // steal from the cold end
            vd.pop_back();
            sSteals++;
            return task;
        }
    }
    return nullptr;
}

void
WsRuntime::schedule(unsigned w)
{
    Worker &worker = workers[w];

    // Pop own deque first.
    if (!worker.deque.empty()) {
        const Task *task = worker.deque.front();
        worker.deque.pop_front();
        worker.idle = false;
        sPops++;
        sOverheadCycles += p.popCost;
        worker.core->clock().scheduleCycles(
            p.popCost, [this, w, task] { runTask(w, task); });
        return;
    }

    // Steal.
    unsigned attempts = 0;
    const Task *stolen = trySteal(w, attempts);
    if (stolen) {
        worker.idle = false;
        sOverheadCycles += p.stealCost * attempts;
        worker.core->clock().scheduleCycles(
            p.stealCost * attempts,
            [this, w, stolen] { runTask(w, stolen); });
        return;
    }

    // Nothing to do: idle until the phase barrier.
    worker.idle = true;
    maybePhaseDone();
}

void
WsRuntime::runTask(unsigned w, const Task *task)
{
    Worker &worker = workers[w];
    ++tasksInFlight;
    --pendingTasks;

    auto finished = [this, w] {
        --tasksInFlight;
        schedule(w);
        maybePhaseDone();
    };

    ProgramPtr prog =
        worker.vector && task->vector ? task->vector : task->scalar;
    worker.core->runProgram(prog, task->args, finished);
}

void
WsRuntime::maybePhaseDone()
{
    if (!running || phaseEnding || tasksInFlight != 0 ||
        pendingTasks != 0) {
        return;
    }
    for (const auto &w : workers)
        if (!w.deque.empty())
            return;
    // Defer the barrier crossing one cycle so that any schedule()
    // calls still walking the old phase observe a consistent state.
    phaseEnding = true;
    soc.littleClk.scheduleCycles(1, [this] {
        phaseEnding = false;
        ++phaseIdx;
        startPhase();
    });
}

} // namespace bvl
