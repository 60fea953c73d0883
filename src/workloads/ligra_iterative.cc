/**
 * @file
 * Iterative double-buffer graph apps: components (label propagation),
 * pagerank, mis (deterministic Luby rounds) and kcore (peeling).
 */

#include "workloads/ligra_common.hh"

namespace bvl
{

namespace
{

// ------------------------------------------------------------------
// components: label propagation over both edge directions
// ------------------------------------------------------------------

class ComponentsWorkload : public GraphWorkloadBase
{
  public:
    explicit ComponentsWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        std::tie(refLabels, iters) = g.components();
    }

    std::string name() const override { return "components"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<std::uint32_t>(regionB + 4ull * v, v);
            mem.writeT<std::uint32_t>(regionC + 4ull * v, v);
        }
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr sweep = program(sweepProg, "components.sweep",
                                   [this](Asm &a) { emitSweep(a); });
        std::vector<std::pair<ProgramPtr, ProgArgs>> phases;
        for (unsigned t = 0; t < iters; ++t) {
            Addr cur = t % 2 ? regionC : regionB;
            Addr next = t % 2 ? regionB : regionC;
            phases.push_back({sweep, {{xreg(8), cur}, {xreg(9), next}}});
        }
        return vertexPhases(phases);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Addr final = iters % 2 ? regionC : regionB;
        for (unsigned v = 0; v < g.n; ++v)
            if (mem.readT<std::uint32_t>(final + 4ull * v) !=
                refLabels[v]) {
                return false;
            }
        return true;
    }

  private:
    void
    emitSweep(Asm &a)
    {
        // next[v] = min(cur[v], min over in/out neighbours cur[u])
        emitGraphBases(a);
        emitVertexLoop(a, "cc", [&] {
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(29), xreg(29), xreg(8))
             .lw(xreg(20), xreg(29));                 // m = cur[v]
            emitEdgeLoop(a, xreg(4), xreg(5), "cc.in", [&] {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(8))
                 .lw(xreg(21), xreg(28))
                 .min_(xreg(20), xreg(20), xreg(21));
            });
            emitEdgeLoop(a, xreg(2), xreg(3), "cc.out", [&] {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(8))
                 .lw(xreg(21), xreg(28))
                 .min_(xreg(20), xreg(20), xreg(21));
            });
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(29), xreg(29), xreg(9))
             .sw(xreg(20), xreg(29));
        });
    }

    std::vector<std::uint32_t> refLabels;
    unsigned iters = 0;
    ProgramPtr sweepProg;
};

// ------------------------------------------------------------------
// pagerank: 5 pull iterations with precomputed degree reciprocals
// ------------------------------------------------------------------

class PagerankWorkload : public GraphWorkloadBase
{
  public:
    explicit PagerankWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        refRank = g.pagerank(iters);
    }

    std::string name() const override { return "pagerank"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<float>(regionB + 4ull * v, 1.0f / g.n);
            mem.writeT<float>(regionD + 4ull * v,
                              1.0f / std::max(1u, g.outDeg(v)));
        }
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr sweep = program(sweepProg, "pagerank.sweep",
                                   [this](Asm &a) { emitSweep(a); });
        std::vector<std::pair<ProgramPtr, ProgArgs>> phases;
        for (unsigned t = 0; t < iters; ++t) {
            Addr cur = t % 2 ? regionC : regionB;
            Addr next = t % 2 ? regionB : regionC;
            phases.push_back({sweep, {{xreg(8), cur}, {xreg(9), next}}});
        }
        return vertexPhases(phases);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Addr final = iters % 2 ? regionC : regionB;
        for (unsigned v = 0; v < g.n; ++v) {
            float got = mem.readT<float>(final + 4ull * v);
            if (!closeEnough(got, refRank[v], 2e-2f))
                return false;
        }
        return true;
    }

  private:
    void
    emitSweep(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(7), regionD);                       // 1/deg array
        emitFloatConst(a, freg(2), xreg(28), 0.85f);
        emitFloatConst(a, freg(3), xreg(28),
                       0.15f / static_cast<float>(g.n));
        emitVertexLoop(a, "pr", [&] {
            a.li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29));             // acc = 0
            emitEdgeLoop(a, xreg(4), xreg(5), "pr.in", [&] {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(29), xreg(28), xreg(8))
                 .flw(freg(4), xreg(29))              // cur[u]
                 .add(xreg(29), xreg(28), xreg(7))
                 .flw(freg(5), xreg(29))              // 1/deg[u]
                 .fmadd(freg(1), freg(4), freg(5), freg(1), 4);
            });
            a.fmadd(freg(1), freg(1), freg(2), freg(3), 4)
             .slli(xreg(29), xreg(6), 2)
             .add(xreg(29), xreg(29), xreg(9))
             .fsw(freg(1), xreg(29));
        });
    }

    static constexpr unsigned iters = 5;
    std::vector<float> refRank;
    ProgramPtr sweepProg;
};

// ------------------------------------------------------------------
// mis: deterministic Luby rounds (join subphase + apply/exclude)
// ------------------------------------------------------------------

class MisWorkload : public GraphWorkloadBase
{
  public:
    explicit MisWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        std::tie(refStatus, rounds) = g.mis();
        // Priorities are precomputed to memory: the hash is host-side.
    }

    std::string name() const override { return "mis"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<std::uint32_t>(regionB + 4ull * v, 0);  // status
            mem.writeT<std::uint32_t>(regionD + 4ull * v,
                                      HostGraph::misPriority(v));
            mem.writeT<std::uint32_t>(regionC + 4ull * v, 0);  // joined
        }
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr join = program(joinProg, "mis.join",
                                  [this](Asm &a) { emitJoin(a); });
        ProgramPtr apply = program(applyProg, "mis.apply",
                                   [this](Asm &a) { emitApply(a); });
        std::vector<std::pair<ProgramPtr, ProgArgs>> phases;
        for (unsigned r = 0; r < rounds; ++r) {
            phases.push_back({join, {}});
            phases.push_back({apply, {}});
        }
        return vertexPhases(phases);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned v = 0; v < g.n; ++v)
            if (mem.readT<std::uint32_t>(regionB + 4ull * v) !=
                refStatus[v]) {
                return false;
            }
        return true;
    }

  private:
    /** joined[v] = undecided(v) && priority minimal in neighbourhood. */
    void
    emitJoin(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(8), regionB)    // status
         .li(xreg(9), regionC)    // joined
         .li(xreg(7), regionD);   // priority
        emitVertexLoop(a, "mj", [&] {
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(30), xreg(29), xreg(9))
             .sw(xreg(0), xreg(30))               // joined[v] = 0
             .add(xreg(28), xreg(29), xreg(8))
             .lw(xreg(20), xreg(28))              // status[v]
             .bne(xreg(20), xreg(0), "mj.skip")
             .add(xreg(28), xreg(29), xreg(7))
             .lw(xreg(21), xreg(28))              // pv
             .li(xreg(23), 1);                    // minimal flag
            auto perEdge = [&](const char *tag) {
                // if (status[u]==0 && (pu < pv || (pu==pv && u < v)))
                //     minimal = 0
                std::string lower = std::string(tag) + ".lower";
                std::string notlower = std::string(tag) + ".notlower";
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(29), xreg(28), xreg(8))
                 .lw(xreg(24), xreg(29));
                a.add(xreg(29), xreg(28), xreg(7))
                 .lw(xreg(25), xreg(29))
                 // cond1 = (status==0)
                 .sltu(xreg(26), xreg(0), xreg(24))   // status != 0
                 // lower = pu<pv || (pu==pv && u<v)
                 .bltu(xreg(25), xreg(21), lower)
                 .bne(xreg(25), xreg(21), notlower)
                 .bltu(xreg(22), xreg(6), lower)
                 .j(notlower)
                 .label(lower)
                 .bne(xreg(26), xreg(0), notlower)    // u decided: skip
                 .li(xreg(23), 0)
                 .label(notlower);
            };
            // Walk in-edges then out-edges; labels must be unique, so
            // wrap per direction.
            emitEdgeLoopWithUnique(a, xreg(4), xreg(5), "mj.in", perEdge);
            emitEdgeLoopWithUnique(a, xreg(2), xreg(3), "mj.out",
                                   perEdge);
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(30), xreg(29), xreg(9))
             .sw(xreg(23), xreg(30))              // joined[v] = minimal
             .label("mj.skip");
        });
    }

    /** Apply join results; exclude neighbours of new members. */
    void
    emitApply(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(8), regionB)
         .li(xreg(9), regionC);
        emitVertexLoop(a, "ma", [&] {
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(28), xreg(29), xreg(8))
             .lw(xreg(20), xreg(28))
             .bne(xreg(20), xreg(0), "ma.skip")
             .add(xreg(30), xreg(29), xreg(9))
             .lw(xreg(21), xreg(30))
             .beq(xreg(21), xreg(0), "ma.notjoin")
             .li(xreg(23), 1)
             .sw(xreg(23), xreg(28))              // status = in MIS
             .j("ma.skip")
             .label("ma.notjoin")
             .li(xreg(23), 0);                    // any joined neighbour?
            auto perEdge = [&](const char *) {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(9))
                 .lw(xreg(24), xreg(28))
                 .or_(xreg(23), xreg(23), xreg(24));
            };
            emitEdgeLoopWithUnique(a, xreg(4), xreg(5), "ma.in", perEdge);
            emitEdgeLoopWithUnique(a, xreg(2), xreg(3), "ma.out",
                                   perEdge);
            a.beq(xreg(23), xreg(0), "ma.skip")
             .slli(xreg(29), xreg(6), 2)
             .add(xreg(28), xreg(29), xreg(8))
             .li(xreg(24), 2)
             .sw(xreg(24), xreg(28))              // excluded
             .label("ma.skip");
        });
    }

    /**
     * emitEdgeLoop with uniquified inner labels. Labels only need to
     * be unique within the program being assembled, so the suffix is
     * the emission position in @p a — deterministic and private to
     * the owning workload, unlike a process-wide counter.
     */
    static void
    emitEdgeLoopWithUnique(Asm &a, RegId offs, RegId tgts,
                           const std::string &tag,
                           const std::function<void(const char *)> &fn)
    {
        std::string u = tag + std::to_string(a.size());
        emitEdgeLoop(a, offs, tgts, u, [&] { fn(u.c_str()); });
    }

    std::vector<std::uint8_t> refStatusBytes() const;
    std::vector<std::uint8_t> refStatus;
    unsigned rounds = 0;
    ProgramPtr joinProg, applyProg;
};

// ------------------------------------------------------------------
// kcore: peeling rounds with double-buffered aliveness
// ------------------------------------------------------------------

class KcoreWorkload : public GraphWorkloadBase
{
  public:
    explicit KcoreWorkload(Scale scale) : GraphWorkloadBase(scale)
    {
        std::tie(refCore, totalRounds) = g.kcore(maxK);
        // Recompute the exact (k, round) schedule for phase building.
        buildSchedule();
    }

    std::string name() const override { return "kcore"; }

    void
    init(BackingStore &mem) override
    {
        writeGraph(mem);
        for (unsigned v = 0; v < g.n; ++v) {
            mem.writeT<std::uint32_t>(regionB + 4ull * v, 1);  // alive
            mem.writeT<std::uint32_t>(regionC + 4ull * v, 1);
            mem.writeT<std::uint32_t>(regionD + 4ull * v, maxK);
        }
    }

    TaskGraph
    taskGraph() override
    {
        ProgramPtr round = program(roundProg, "kcore.round",
                                   [this](Asm &a) { emitRound(a); });
        std::vector<std::pair<ProgramPtr, ProgArgs>> phases;
        for (unsigned r = 0; r < schedule.size(); ++r) {
            Addr cur = r % 2 ? regionC : regionB;
            Addr next = r % 2 ? regionB : regionC;
            phases.push_back({round,
                              {{xreg(8), cur},
                               {xreg(9), next},
                               {xreg(7), schedule[r]}}});
        }
        return vertexPhases(phases);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned v = 0; v < g.n; ++v)
            if (mem.readT<std::uint32_t>(regionD + 4ull * v) !=
                refCore[v]) {
                return false;
            }
        return true;
    }

  private:
    void
    buildSchedule()
    {
        // Replicate HostGraph::kcore round structure.
        std::vector<std::uint8_t> alive(g.n, 1);
        auto degOf = [&](unsigned v) {
            unsigned d = 0;
            for (unsigned e = g.inOffs[v]; e < g.inOffs[v + 1]; ++e)
                d += alive[g.inTgts[e]];
            for (unsigned e = g.outOffs[v]; e < g.outOffs[v + 1]; ++e)
                d += alive[g.outTgts[e]];
            return d;
        };
        for (unsigned k = 1; k <= maxK; ++k) {
            bool removed = true;
            while (removed) {
                removed = false;
                schedule.push_back(k);
                auto next = alive;
                for (unsigned v = 0; v < g.n; ++v)
                    if (alive[v] && degOf(v) < k) {
                        next[v] = 0;
                        removed = true;
                    }
                alive = next;
            }
        }
    }

    /** One peeling round at threshold k (x7): recompute live degree
     *  from cur (x8); write aliveness to next (x9); dying vertices
     *  record coreness k-1. */
    void
    emitRound(Asm &a)
    {
        emitGraphBases(a);
        a.li(xreg(17), regionD);          // coreness
        emitVertexLoop(a, "kc", [&] {
            a.slli(xreg(29), xreg(6), 2)
             .add(xreg(28), xreg(29), xreg(8))
             .lw(xreg(20), xreg(28))          // alive?
             .add(xreg(30), xreg(29), xreg(9))
             .sw(xreg(20), xreg(30))          // default: copy state
             .beq(xreg(20), xreg(0), "kc.skip")
             .li(xreg(21), 0);                // live degree
            auto perEdge = [&] {
                a.slli(xreg(28), xreg(22), 2)
                 .add(xreg(28), xreg(28), xreg(8))
                 .lw(xreg(24), xreg(28))
                 .add(xreg(21), xreg(21), xreg(24));
            };
            emitEdgeLoop(a, xreg(4), xreg(5), "kc.in", perEdge);
            emitEdgeLoop(a, xreg(2), xreg(3), "kc.out", perEdge);
            a.bge(xreg(21), xreg(7), "kc.skip")
             // dies this round: next[v] = 0; coreness[v] = k-1
             .slli(xreg(29), xreg(6), 2)
             .add(xreg(30), xreg(29), xreg(9))
             .sw(xreg(0), xreg(30))
             .addi(xreg(24), xreg(7), -1)
             .add(xreg(30), xreg(29), xreg(17))
             .sw(xreg(24), xreg(30))
             .label("kc.skip");
        });
    }

    static constexpr unsigned maxK = 8;
    std::vector<std::uint32_t> refCore;
    unsigned totalRounds = 0;
    std::vector<std::uint64_t> schedule;
    ProgramPtr roundProg;
};

} // namespace

std::span<const WorkloadRow>
iterativeGraphRows()
{
    static constexpr WorkloadRow rows[] = {
        {"components", Suite::taskParallel, makeRow<ComponentsWorkload>},
        {"pagerank", Suite::taskParallel, makeRow<PagerankWorkload>},
        {"mis", Suite::taskParallel, makeRow<MisWorkload>},
        {"kcore", Suite::taskParallel, makeRow<KcoreWorkload>},
    };
    return rows;
}

} // namespace bvl
