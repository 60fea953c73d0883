/**
 * @file
 * Task-graph representation consumed by the work-stealing runtime.
 *
 * A workload decomposes into phases separated by barriers (e.g. BFS
 * levels, Jacobi sweeps); each phase holds independent tasks. A task
 * carries a scalar program and, when the workload is vectorizable, a
 * vectorized version of the same computation: the runtime dynamically
 * picks the version matching the core a task lands on, exactly like
 * the paper's 1bIV-4L configuration (Section IV-B).
 */

#ifndef BVL_RUNTIME_TASK_GRAPH_HH
#define BVL_RUNTIME_TASK_GRAPH_HH

#include <vector>

#include "isa/program.hh"

namespace bvl
{

struct Task
{
    ProgramPtr scalar;    ///< scalar version (little cores / plain big)
    ProgramPtr vector;    ///< vectorized version (big core with a VU)
    ProgArgs args;        ///< argument registers (e.g. range bounds)
};

struct Phase
{
    std::vector<Task> tasks;
};

struct TaskGraph
{
    std::vector<Phase> phases;

    std::size_t
    totalTasks() const
    {
        std::size_t n = 0;
        for (const auto &ph : phases)
            n += ph.tasks.size();
        return n;
    }
};

} // namespace bvl

#endif // BVL_RUNTIME_TASK_GRAPH_HH
