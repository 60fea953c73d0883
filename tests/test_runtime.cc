/**
 * @file
 * Unit tests of the work-stealing runtime model: every task executes
 * exactly once, barriers separate phases, heterogeneity picks the
 * vectorized task version on the big core, and multi-worker execution
 * beats a single worker on parallel phases.
 */

#include <gtest/gtest.h>

#include "runtime/ws_runtime.hh"

namespace bvl
{
namespace
{

/** Program: mem[x10] += 1 (each task bumps its own slot). */
ProgramPtr
bumpProgram()
{
    Asm a("bump");
    a.li(xreg(2), 0x100000)
     .slli(xreg(3), xreg(10), 2)
     .add(xreg(2), xreg(2), xreg(3))
     .lw(xreg(4), xreg(2))
     .addi(xreg(4), xreg(4), 1)
     .sw(xreg(4), xreg(2))
     .halt();
    auto p = a.finish();
    p->setTextBase(0x40000000);
    return p;
}

/** Program: mem[0x200000 + 4*x10] = 2 (marks "vector version ran"). */
ProgramPtr
markVectorProgram()
{
    Asm a("markv");
    a.li(xreg(2), 0x200000)
     .slli(xreg(3), xreg(10), 2)
     .add(xreg(2), xreg(2), xreg(3))
     .li(xreg(4), 2)
     .sw(xreg(4), xreg(2))
     .halt();
    auto p = a.finish();
    p->setTextBase(0x40010000);
    return p;
}

TaskGraph
bumpGraph(unsigned phases, unsigned tasksPerPhase, ProgramPtr scalar,
          ProgramPtr vector_ = nullptr)
{
    TaskGraph g;
    unsigned slot = 0;
    for (unsigned ph = 0; ph < phases; ++ph) {
        g.phases.emplace_back();
        for (unsigned t = 0; t < tasksPerPhase; ++t) {
            Task task;
            task.scalar = scalar;
            task.vector = vector_;
            task.args = {{xreg(10), slot++}};
            g.phases.back().tasks.push_back(std::move(task));
        }
    }
    return g;
}

double
runGraph(Soc &soc, TaskGraph g, bool useBig, unsigned littles,
         bool bigVector = false)
{
    WsRuntime rt(soc);
    bool done = false;
    double start = soc.elapsedNs();
    rt.run(std::move(g), useBig, littles, bigVector,
           [&] { done = true; });
    EXPECT_TRUE(soc.runUntil(done,
                             soc.eq.now() + 100'000'000ull));
    return soc.elapsedNs() - start;
}

TEST(RuntimeTest, EveryTaskRunsExactlyOnce)
{
    Soc soc(Design::d1b4L);
    auto prog = bumpProgram();
    runGraph(soc, bumpGraph(3, 20, prog), true, 4);
    for (unsigned slot = 0; slot < 60; ++slot)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000 + 4 * slot),
                  1) << "slot " << slot;
}

TEST(RuntimeTest, SingleWorkerAlsoCompletes)
{
    Soc soc(Design::d1L);
    auto prog = bumpProgram();
    runGraph(soc, bumpGraph(2, 8, prog), false, 1);
    for (unsigned slot = 0; slot < 16; ++slot)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000 + 4 * slot),
                  1);
}

TEST(RuntimeTest, MoreWorkersFinishFaster)
{
    auto prog = bumpProgram();
    Soc solo(Design::d1L);
    double tSolo = runGraph(solo, bumpGraph(1, 64, prog), false, 1);
    Soc multi(Design::d1b4L);
    double tMulti = runGraph(multi, bumpGraph(1, 64, prog), true, 4);
    EXPECT_LT(tMulti * 2, tSolo);
}

TEST(RuntimeTest, BigCorePrefersVectorVersion)
{
    Soc soc(Design::d1bIV4L);
    auto g = bumpGraph(1, 12, bumpProgram(), markVectorProgram());
    runGraph(soc, std::move(g), true, 0, true);   // big only
    // All tasks ran the "vector" marker program.
    for (unsigned slot = 0; slot < 12; ++slot) {
        EXPECT_EQ(soc.backing.readT<std::int32_t>(0x200000 + 4 * slot),
                  2);
        EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000 + 4 * slot),
                  0);
    }
}

TEST(RuntimeTest, LittleWorkersRunScalarVersion)
{
    Soc soc(Design::d1bIV4L);
    auto g = bumpGraph(1, 12, bumpProgram(), markVectorProgram());
    runGraph(soc, std::move(g), false, 4, true);   // littles only
    for (unsigned slot = 0; slot < 12; ++slot)
        EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000 + 4 * slot),
                  1);
}

TEST(RuntimeTest, StealsHappenUnderImbalance)
{
    Soc soc(Design::d1b4L);
    // One phase with many tasks: round-robin spreads them, but the
    // big core drains its share faster and must steal.
    runGraph(soc, bumpGraph(1, 40, bumpProgram()), true, 4);
    EXPECT_GT(soc.stats.value("runtime.pops"), 0u);
    EXPECT_GT(soc.stats.value("runtime.steals") +
                  soc.stats.value("runtime.pops"),
              39u);
}

TEST(RuntimeTest, EmptyPhasesAreSkipped)
{
    Soc soc(Design::d1b4L);
    TaskGraph g;
    g.phases.resize(3);   // all empty
    Task t;
    t.scalar = bumpProgram();
    t.args = {{xreg(10), 0}};
    g.phases.emplace_back();
    g.phases.back().tasks.push_back(std::move(t));
    runGraph(soc, std::move(g), true, 4);
    EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000), 1);
}

TEST(RuntimeTest, PhasesActAsBarriers)
{
    // Phase 2 reads what phase 1 wrote: a chain of increments to the
    // same slot must serialize correctly across phases.
    Soc soc(Design::d1b4L);
    TaskGraph g;
    for (int ph = 0; ph < 5; ++ph) {
        g.phases.emplace_back();
        Task t;
        t.scalar = bumpProgram();
        t.args = {{xreg(10), 7}};
        g.phases.back().tasks.push_back(std::move(t));
    }
    runGraph(soc, std::move(g), true, 4);
    EXPECT_EQ(soc.backing.readT<std::int32_t>(0x100000 + 4 * 7), 5);
}

} // namespace
} // namespace bvl
