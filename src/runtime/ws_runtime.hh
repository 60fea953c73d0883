/**
 * @file
 * Work-stealing task runtime model (paper Section IV-B).
 *
 * Models a Cilk/TBB-style random work-stealing scheduler executing a
 * TaskGraph on the simulated cores. Tasks of a phase are distributed
 * round-robin across the participating workers' deques; an idle
 * worker pops its own deque (popCost cycles of scheduler work) or
 * steals from a random victim (stealCost per attempt). Phases are
 * separated by barriers. On a heterogeneous system the big-core
 * worker runs the vectorized version of a task when one exists.
 */

#ifndef BVL_RUNTIME_WS_RUNTIME_HH
#define BVL_RUNTIME_WS_RUNTIME_HH

#include <deque>
#include <functional>

#include "runtime/task_graph.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

namespace bvl
{

class Watchdog;

struct RuntimeParams
{
    Cycles popCost = 20;      ///< deque pop + task setup
    Cycles stealCost = 100;   ///< one steal attempt (CAS + traffic)
    std::uint64_t seed = 12345;
};

class WsRuntime
{
  public:
    WsRuntime(Soc &soc, RuntimeParams params = {});

    /**
     * Execute @p graph and invoke @p done when the last phase drains.
     * The arguments are a RunShape's (soc/soc.hh).
     * @param useBig       big core participates as a worker
     * @param numLittleWorkers littles[0..n) participate as workers
     * @param bigRunsVector big-core worker prefers task.vector
     */
    void run(TaskGraph graph, bool useBig,
             unsigned numLittleWorkers, bool bigRunsVector,
             std::function<void()> done);

    /**
     * Register the scheduler's heartbeat with a watchdog. The runtime
     * must outlive the watchdog's armed window.
     */
    void registerProgress(Watchdog &wd);

    /** Scheduler occupancy snapshot for deadlock diagnostics. */
    std::string progressDetail() const;

  private:
    struct Worker
    {
        ProgramCore *core = nullptr;
        /** Runs each task's vectorized version when it has one. */
        bool vector = false;
        std::deque<const Task *> deque;
        bool idle = true;
    };

    void startPhase();
    void schedule(unsigned w);
    void runTask(unsigned w, const Task *task);
    const Task *trySteal(unsigned thief, unsigned &attempts);
    void maybePhaseDone();

    Soc &soc;
    RuntimeParams p;
    Rng rng;
    /** Interned counters (DESIGN.md §11). */
    StatHandle sPhases, sSteals, sPops, sOverheadCycles;

    TaskGraph graph;   ///< owned copy; tasks point into this
    std::function<void()> onDone;
    bool running = false;

    std::vector<Worker> workers;
    std::size_t phaseIdx = 0;
    unsigned tasksInFlight = 0;
    unsigned pendingTasks = 0;
    bool phaseEnding = false;
};

} // namespace bvl

#endif // BVL_RUNTIME_WS_RUNTIME_HH
