/**
 * @file
 * Traversal-flavoured graph apps: bfs (level-synchronous frontier
 * processing), bc (forward path counting + backward dependency
 * accumulation), tc (sorted-adjacency triangle counting) and radii
 * (multi-source bitmask sweeps).
 */

#include "workloads/ligra_common.hh"

namespace bvl
{

namespace
{

/**
 * Base of the apps that walk BFS levels from the root (bfs, bc). The
 * frontiers lie in memory one after another from regionD; a level's
 * phase splits its frontier into 8 tasks, each passed the frontier's
 * address in x8.
 */
class FrontierWorkloadBase : public GraphWorkloadBase
{
  protected:
    explicit FrontierWorkloadBase(Scale scale)
        : GraphWorkloadBase(scale), frontiers(g.bfsFrontiers(root))
    {
        // Fixed by the frontiers alone, so taskGraph() needs no init().
        Addr p = regionD;
        for (const auto &f : frontiers) {
            frontierAddrs.push_back(p);
            p += 4 * f.size();
        }
    }

    void
    writeFrontiers(BackingStore &mem) const
    {
        for (std::size_t l = 0; l < frontiers.size(); ++l)
            for (std::size_t i = 0; i < frontiers[l].size(); ++i)
                mem.writeT<std::uint32_t>(frontierAddrs[l] + 4 * i,
                                          frontiers[l][i]);
    }

    /** Append a phase running @p prog over level @p l, x7 = @p x7. */
    void
    addLevelPhase(TaskGraph &graph, const ProgramPtr &prog, std::size_t l,
                  std::uint64_t x7) const
    {
        Phase ph;
        std::uint64_t cnt = frontiers[l].size();
        std::uint64_t per = std::max<std::uint64_t>(1, (cnt + 7) / 8);
        for (std::uint64_t s = 0; s < cnt; s += per) {
            Task t;
            t.scalar = prog;
            t.args = {{xreg(10), s},
                      {xreg(11), std::min(cnt, s + per)},
                      {xreg(8), frontierAddrs[l]},
                      {xreg(7), x7}};
            ph.tasks.push_back(std::move(t));
        }
        graph.phases.push_back(std::move(ph));
    }

    static constexpr unsigned root = 0;
    const std::vector<std::vector<std::uint32_t>> frontiers;
    std::vector<Addr> frontierAddrs;
};

// ------------------------------------------------------------------
// bfs
// ------------------------------------------------------------------

class BfsWorkload : public FrontierWorkloadBase
{
  public:
    explicit BfsWorkload(Scale scale)
        : FrontierWorkloadBase(scale), refLevels(g.bfsLevels(root))
    {}

    std::string name() const override { return "bfs"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v)
            mem.writeT<std::int32_t>(regionB + 4ull * v, -1);
        mem.writeT<std::int32_t>(regionB + 4ull * root, 0);
        writeFrontiers(mem);
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr step = program(stepProg, "bfs.step",
                                  [this](Asm &a) { emitStep(a); });
        TaskGraph graph;
        for (std::size_t l = 0; l + 1 < frontiers.size(); ++l)
            addLevelPhase(graph, step, l, l + 1);
        return graph;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned v = 0; v < g.n; ++v)
            if (mem.readT<std::int32_t>(regionB + 4ull * v) !=
                refLevels[v]) {
                return false;
            }
        return true;
    }

  private:
    /** Process frontier slice [x10,x11): relax unvisited out-edges. */
    void
    emitStep(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(9), regionB);   // level array
        emitVertexLoop(a, "bf", [&] {
            // u = frontier[idx]
            a.slli(xreg(28), xreg(6), 2)
             .add(xreg(28), xreg(28), xreg(8))
             .lw(xreg(20), xreg(28));
            // walk out-edges of u: inline edge loop over x20
            a.slli(xreg(28), xreg(20), 2)
             .add(xreg(28), xreg(28), xreg(2))
             .lw(xreg(15), xreg(28), 0)
             .lw(xreg(16), xreg(28), 4)
             .bge(xreg(15), xreg(16), "bf.edone")
             .label("bf.eloop")
             .slli(xreg(28), xreg(15), 2)
             .add(xreg(28), xreg(28), xreg(3))
             .lw(xreg(22), xreg(28))
             // if (level[v] < 0) level[v] = x7
             .slli(xreg(28), xreg(22), 2)
             .add(xreg(28), xreg(28), xreg(9))
             .lw(xreg(24), xreg(28))
             .bge(xreg(24), xreg(0), "bf.visited")
             .sw(xreg(7), xreg(28))
             .label("bf.visited")
             .addi(xreg(15), xreg(15), 1)
             .blt(xreg(15), xreg(16), "bf.eloop")
             .label("bf.edone");
        });
    }

    const std::vector<std::int32_t> refLevels;
    ProgramPtr stepProg;
};

// ------------------------------------------------------------------
// bc: path counting + dependency accumulation over BFS levels
// ------------------------------------------------------------------

class BcWorkload : public FrontierWorkloadBase
{
  public:
    explicit BcWorkload(Scale scale)
        : FrontierWorkloadBase(scale), levels(g.bfsLevels(root))
    {
        computeReference();
    }

    std::string name() const override { return "bc"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<std::int32_t>(levelBase + 4ull * v, levels[v]);
            mem.writeT<float>(npBase + 4ull * v, 0.0f);
            mem.writeT<float>(depBase + 4ull * v, 0.0f);
        }
        mem.writeT<float>(npBase + 4ull * root, 1.0f);
        writeFrontiers(mem);
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr fwd = program(fwdProg, "bc.fwd",
                                 [this](Asm &a) { emitFwd(a); });
        ProgramPtr bwd = program(bwdProg, "bc.bwd",
                                 [this](Asm &a) { emitBwd(a); });
        TaskGraph graph;
        for (std::size_t l = 1; l < frontiers.size(); ++l)
            addLevelPhase(graph, fwd, l, l - 1);
        for (std::size_t l = frontiers.size() - 1; l-- > 0;)
            addLevelPhase(graph, bwd, l, l + 1);
        return graph;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned v = 0; v < g.n; ++v) {
            if (levels[v] < 0)
                continue;
            float got = mem.readT<float>(depBase + 4ull * v);
            if (!closeEnough(got, refDep[v], 2e-2f))
                return false;
        }
        return true;
    }

  private:
    void
    computeReference()
    {
        refNp.assign(g.n, 0.0f);
        refDep.assign(g.n, 0.0f);
        refNp[root] = 1.0f;
        for (std::size_t l = 1; l < frontiers.size(); ++l)
            for (auto v : frontiers[l]) {
                float acc = 0.0f;
                for (unsigned e = g.inOffs[v]; e < g.inOffs[v + 1]; ++e) {
                    auto u = g.inTgts[e];
                    if (levels[u] == static_cast<std::int32_t>(l - 1))
                        acc += refNp[u];
                }
                refNp[v] = acc;
            }
        for (std::size_t l = frontiers.size() - 1; l-- > 0;)
            for (auto v : frontiers[l]) {
                float acc = 0.0f;
                for (unsigned e = g.outOffs[v]; e < g.outOffs[v + 1];
                     ++e) {
                    auto w = g.outTgts[e];
                    if (levels[w] == static_cast<std::int32_t>(l + 1) &&
                        refNp[w] > 0.0f) {
                        acc += refNp[v] / refNp[w] *
                               (1.0f + refDep[w]);
                    }
                }
                refDep[v] = acc;
            }
    }

    /** np[v] = sum of np[u] over in-neighbours at level x7. */
    void
    emitFwd(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(9), levelBase)
         .li(xreg(17), npBase);
        emitVertexLoop(a, "bc", [&] {
            a.slli(xreg(28), xreg(6), 2)
             .add(xreg(28), xreg(28), xreg(8))
             .lw(xreg(20), xreg(28))            // v = frontier[idx]
             .li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29));       // acc
            // in-edges of v
            a.slli(xreg(28), xreg(20), 2)
             .add(xreg(28), xreg(28), xreg(4))
             .lw(xreg(15), xreg(28), 0)
             .lw(xreg(16), xreg(28), 4)
             .bge(xreg(15), xreg(16), "bc.edone")
             .label("bc.eloop")
             .slli(xreg(28), xreg(15), 2)
             .add(xreg(28), xreg(28), xreg(5))
             .lw(xreg(22), xreg(28))
             .slli(xreg(28), xreg(22), 2)
             .add(xreg(29), xreg(28), xreg(9))
             .lw(xreg(24), xreg(29))            // level[u]
             .bne(xreg(24), xreg(7), "bc.skip")
             .add(xreg(29), xreg(28), xreg(17))
             .flw(freg(2), xreg(29))
             .fadd(freg(1), freg(1), freg(2), 4)
             .label("bc.skip")
             .addi(xreg(15), xreg(15), 1)
             .blt(xreg(15), xreg(16), "bc.eloop")
             .label("bc.edone")
             .slli(xreg(28), xreg(20), 2)
             .add(xreg(28), xreg(28), xreg(17))
             .fsw(freg(1), xreg(28));
        });
    }

    /** dep[v] = sum over out-neighbours at level x7 of
     *  np[v]/np[w] * (1+dep[w]). */
    void
    emitBwd(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(9), levelBase)
         .li(xreg(17), npBase)
         .li(xreg(18), depBase);
        emitFloatConst(a, freg(5), xreg(28), 1.0f);
        emitVertexLoop(a, "bw", [&] {
            a.slli(xreg(28), xreg(6), 2)
             .add(xreg(28), xreg(28), xreg(8))
             .lw(xreg(20), xreg(28))            // v
             .li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))        // acc
             .slli(xreg(28), xreg(20), 2)
             .add(xreg(29), xreg(28), xreg(17))
             .flw(freg(4), xreg(29));           // np[v]
            a.slli(xreg(28), xreg(20), 2)
             .add(xreg(28), xreg(28), xreg(2))
             .lw(xreg(15), xreg(28), 0)
             .lw(xreg(16), xreg(28), 4)
             .bge(xreg(15), xreg(16), "bw.edone")
             .label("bw.eloop")
             .slli(xreg(28), xreg(15), 2)
             .add(xreg(28), xreg(28), xreg(3))
             .lw(xreg(22), xreg(28))            // w
             .slli(xreg(28), xreg(22), 2)
             .add(xreg(29), xreg(28), xreg(9))
             .lw(xreg(24), xreg(29))
             .bne(xreg(24), xreg(7), "bw.skip")
             .add(xreg(29), xreg(28), xreg(17))
             .flw(freg(2), xreg(29))            // np[w]
             .add(xreg(29), xreg(28), xreg(18))
             .flw(freg(3), xreg(29))            // dep[w]
             .fadd(freg(3), freg(3), freg(5), 4)
             .fdiv(freg(2), freg(4), freg(2), 4)
             .fmadd(freg(1), freg(2), freg(3), freg(1), 4)
             .label("bw.skip")
             .addi(xreg(15), xreg(15), 1)
             .blt(xreg(15), xreg(16), "bw.eloop")
             .label("bw.edone")
             .slli(xreg(28), xreg(20), 2)
             .add(xreg(28), xreg(28), xreg(18))
             .fsw(freg(1), xreg(28));
        });
    }

    static constexpr Addr levelBase = regionB;
    static constexpr Addr npBase = regionC;
    static constexpr Addr depBase = regionB + 0x100000;

    const std::vector<std::int32_t> levels;
    std::vector<float> refNp, refDep;
    ProgramPtr fwdProg, bwdProg;
};

// ------------------------------------------------------------------
// tc: triangle counting via sorted adjacency intersection
// ------------------------------------------------------------------

class TcWorkload : public GraphWorkloadBase
{
  public:
    explicit TcWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        auto counts = g.triangles();
        refTotal = 0;
        for (auto c : counts)
            refTotal += c;
    }

    std::string name() const override { return "tc"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr count = program(countProg, "tc.count",
                                   [this](Asm &a) { emitCount(a); });
        ProgramPtr reduce = program(reduceProg, "tc.reduce",
                                    [this](Asm &a) { emitReduce(a); });
        TaskGraph graph = vertexPhases({{count, {}}});
        Phase fin;
        Task t;
        t.scalar = reduce;
        t.args = {{xreg(10), 0}, {xreg(11), g.n}};
        fin.tasks.push_back(std::move(t));
        graph.phases.push_back(std::move(fin));
        return graph;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        return mem.readT<std::uint64_t>(regionE) == refTotal;
    }

  private:
    void
    emitCount(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(9), regionB);   // per-vertex counts
        emitVertexLoop(a, "tc", [&] {
            a.li(xreg(20), 0);    // count
            emitEdgeLoop(a, xreg(2), xreg(3), "tc.e", [&] {
                // two-pointer intersect adj(v) x adj(u=x22)
                a.slli(xreg(28), xreg(6), 2)
                 .add(xreg(28), xreg(28), xreg(2))
                 .lw(xreg(24), xreg(28), 0)     // a
                 .lw(xreg(25), xreg(28), 4)     // aEnd
                 .slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(2))
                 .lw(xreg(26), xreg(28), 0)     // b
                 .lw(xreg(27), xreg(28), 4)     // bEnd
                 .label("tc.merge")
                 .bge(xreg(24), xreg(25), "tc.mdone")
                 .bge(xreg(26), xreg(27), "tc.mdone")
                 .slli(xreg(28), xreg(24), 2)
                 .add(xreg(28), xreg(28), xreg(3))
                 .lw(xreg(30), xreg(28))
                 .slli(xreg(28), xreg(26), 2)
                 .add(xreg(28), xreg(28), xreg(3))
                 .lw(xreg(31), xreg(28))
                 .blt(xreg(30), xreg(31), "tc.adv_a")
                 .blt(xreg(31), xreg(30), "tc.adv_b")
                 .addi(xreg(20), xreg(20), 1)
                 .addi(xreg(24), xreg(24), 1)
                 .addi(xreg(26), xreg(26), 1)
                 .j("tc.merge")
                 .label("tc.adv_a")
                 .addi(xreg(24), xreg(24), 1)
                 .j("tc.merge")
                 .label("tc.adv_b")
                 .addi(xreg(26), xreg(26), 1)
                 .j("tc.merge")
                 .label("tc.mdone");
            });
            a.slli(xreg(28), xreg(6), 2)
             .add(xreg(28), xreg(28), xreg(9))
             .sw(xreg(20), xreg(28));
        });
    }

    void
    emitReduce(Asm &a)
    {
        a.li(xreg(2), regionB)
         .li(xreg(20), 0);
        emitScalarRangeLoop(a, xreg(5), "loop", [&] {
            a.slli(xreg(28), xreg(5), 2)
             .add(xreg(28), xreg(28), xreg(2))
             .lw(xreg(29), xreg(28))
             .add(xreg(20), xreg(20), xreg(29));
        });
        a.li(xreg(28), regionE)
         .sd(xreg(20), xreg(28));
    }

    std::uint64_t refTotal = 0;
    ProgramPtr countProg, reduceProg;
};

// ------------------------------------------------------------------
// radii: multi-source bitmask sweeps
// ------------------------------------------------------------------

class RadiiWorkload : public GraphWorkloadBase
{
  public:
    explicit RadiiWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        std::tie(refRadius, iters) = g.radii(numSources);
    }

    std::string name() const override { return "radii"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<std::uint32_t>(regionB + 4ull * v, 0);
            mem.writeT<std::uint32_t>(regionC + 4ull * v, 0);
            mem.writeT<std::int32_t>(regionD + 4ull * v, -1);
        }
        for (unsigned s = 0; s < numSources && s < g.n; ++s) {
            unsigned v = (s * 97) % g.n;
            auto bits = mem.readT<std::uint32_t>(regionB + 4ull * v);
            mem.writeT<std::uint32_t>(regionB + 4ull * v,
                                      bits | (1u << s));
            mem.writeT<std::uint32_t>(regionC + 4ull * v,
                                      bits | (1u << s));
            mem.writeT<std::int32_t>(regionD + 4ull * v, 0);
        }
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr sweep = program(sweepProg, "radii.sweep",
                                   [this](Asm &a) { emitSweep(a); });
        std::vector<std::pair<ProgramPtr, ProgArgs>> phases;
        for (unsigned t = 0; t < iters; ++t) {
            Addr cur = t % 2 ? regionC : regionB;
            Addr next = t % 2 ? regionB : regionC;
            phases.push_back({sweep, {{xreg(8), cur},
                                          {xreg(9), next},
                                          {xreg(7), t + 1}}});
        }
        return vertexPhases(phases);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned v = 0; v < g.n; ++v)
            if (mem.readT<std::int32_t>(regionD + 4ull * v) !=
                refRadius[v]) {
                return false;
            }
        return true;
    }

  private:
    void
    emitSweep(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(17), regionD);
        emitVertexLoop(a, "rd", [&] {
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(28), xreg(29), xreg(8))
             .lw(xreg(20), xreg(28));           // bits = cur[v]
            a.mv(xreg(21), xreg(20));           // original
            emitEdgeLoop(a, xreg(4), xreg(5), "rd.in", [&] {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(8))
                 .lw(xreg(24), xreg(28))
                 .or_(xreg(20), xreg(20), xreg(24));
            });
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(28), xreg(29), xreg(9))
             .sw(xreg(20), xreg(28))
             .beq(xreg(20), xreg(21), "rd.same")
             .add(xreg(28), xreg(29), xreg(17))
             .sw(xreg(7), xreg(28))
             .label("rd.same");
        });
    }

    static constexpr unsigned numSources = 8;
    std::vector<std::int32_t> refRadius;
    unsigned iters = 0;
    ProgramPtr sweepProg;
};

} // namespace

std::span<const WorkloadRow>
traversalGraphRows()
{
    static constexpr WorkloadRow rows[] = {
        {"bfs", Suite::taskParallel, makeRow<BfsWorkload>},
        {"bc", Suite::taskParallel, makeRow<BcWorkload>},
        {"tc", Suite::taskParallel, makeRow<TcWorkload>},
        {"radii", Suite::taskParallel, makeRow<RadiiWorkload>},
    };
    return rows;
}

} // namespace bvl
