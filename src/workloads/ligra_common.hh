/**
 * @file
 * Shared machinery for the Ligra-style task-parallel graph workloads.
 *
 * These apps are the paper's *task-parallel* suite: scalar, irregular,
 * executed through the work-stealing runtime (they are exactly the
 * workloads that do not vectorize well and motivate keeping the
 * little cores as independent scalar cores). Tasks carry only scalar
 * programs; the driver runs the task graph with one worker for the
 * single-core designs.
 *
 * All apps use deterministic pull-style iterations (reads from the
 * previous buffer, writes owned by the destination vertex) so that
 * multi-core execution is race-free and verifiable against the host
 * reference; dynamic iteration counts (convergence, BFS depth) are
 * precomputed by the same host algorithm (DESIGN.md §5).
 */

#ifndef BVL_WORKLOADS_LIGRA_COMMON_HH
#define BVL_WORKLOADS_LIGRA_COMMON_HH

#include "workloads/common.hh"
#include "workloads/graph.hh"

namespace bvl
{

class GraphWorkloadBase : public WorkloadBase
{
  public:
    bool isDataParallel() const override { return false; }

    ProgramPtr scalarProgram() override { return nullptr; }
    ProgramPtr vectorProgram() override { return nullptr; }

    ProgArgs fullRangeArgs() const override { return {}; }

  protected:
    explicit GraphWorkloadBase(Scale scale)
        : g(HostGraph::random(byScale(scale, 256, 2048, 8192),
                              scale == Scale::tiny ? 4 : 8))
    {}

    static constexpr Addr outOffsBase = regionA;
    static constexpr Addr outTgtsBase = regionA + 0x100000;
    static constexpr Addr inOffsBase = regionA + 0x200000;
    static constexpr Addr inTgtsBase = regionA + 0x300000;

    void
    writeGraph(BackingStore &mem) const
    {
        g.writeTo(mem, outOffsBase, outTgtsBase, inOffsBase, inTgtsBase);
    }

    /** Emit li's for the CSR base registers x2..x5. */
    static void
    emitGraphBases(Asm &a)
    {
        a.li(xreg(2), outOffsBase)
         .li(xreg(3), outTgtsBase)
         .li(xreg(4), inOffsBase)
         .li(xreg(5), inTgtsBase);
    }

    /**
     * Emit `for (v = x10; v < x11; ++v) { body }` with v in x6.
     * Labels are prefixed with @p tag.
     */
    static void
    emitVertexLoop(Asm &a, const std::string &tag,
                   const std::function<void()> &body)
    {
        a.mv(xreg(6), xreg(10));
        a.label(tag + ".vloop");
        body();
        a.addi(xreg(6), xreg(6), 1)
         .blt(xreg(6), xreg(11), tag + ".vloop");
    }

    /**
     * Emit a walk of an edge range: offs/tgts bases in @p offsReg /
     * @p tgtsReg, vertex in x6; neighbour id appears in x22 for each
     * edge. Uses x15 (e), x16 (eEnd), x28 temps.
     */
    static void
    emitEdgeLoop(Asm &a, RegId offsReg, RegId tgtsReg,
                 const std::string &tag,
                 const std::function<void()> &perEdge)
    {
        a.slli(xreg(28), xreg(6), 2)
         .add(xreg(28), xreg(28), offsReg)
         .lw(xreg(15), xreg(28), 0)
         .lw(xreg(16), xreg(28), 4)
         .bge(xreg(15), xreg(16), tag + ".edone")
         .label(tag + ".eloop")
         .slli(xreg(28), xreg(15), 2)
         .add(xreg(28), xreg(28), tgtsReg)
         .lw(xreg(22), xreg(28));
        perEdge();
        a.addi(xreg(15), xreg(15), 1)
         .blt(xreg(15), xreg(16), tag + ".eloop")
         .label(tag + ".edone");
    }

    /** Task graph of one phase chunked over the vertex range. */
    TaskGraph
    vertexPhases(const std::vector<std::pair<ProgramPtr, ProgArgs>>
                     &phasePrograms,
                 unsigned chunks = 8) const
    {
        TaskGraph graph;
        for (const auto &[prog, extraArgs] : phasePrograms) {
            Phase ph;
            std::uint64_t per = (g.n + chunks - 1) / chunks;
            for (std::uint64_t s = 0; s < g.n; s += per) {
                Task t;
                t.scalar = prog;
                t.args = {{xreg(10), s},
                          {xreg(11), std::min<std::uint64_t>(g.n,
                                                             s + per)}};
                for (auto &arg : extraArgs)
                    t.args.push_back(arg);
                ph.tasks.push_back(std::move(t));
            }
            graph.phases.push_back(std::move(ph));
        }
        return graph;
    }

    HostGraph g;
};

} // namespace bvl

#endif // BVL_WORKLOADS_LIGRA_COMMON_HH
