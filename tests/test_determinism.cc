/**
 * @file
 * Determinism and re-entrancy regression tests.
 *
 * The library must hold two properties for the parallel sweep runner
 * to be sound (DESIGN.md §10):
 *
 *  1. Run-to-run determinism: building and running the same workload
 *     twice in one process yields bit-identical statistics. This is
 *     what the old process-global text-base allocator and assembler
 *     label counter broke — the second construction saw different
 *     counter values, so simulated addresses depended on sweep order.
 *
 *  2. Thread independence: two runWorkload() calls on different
 *     threads share nothing, so a parallel sweep produces exactly the
 *     serial results.
 */

#include <gtest/gtest.h>

#include <thread>

#include "sweep/sweep_runner.hh"

namespace bvl
{
namespace
{

/** Full bit-identity check between two runs of the same config. */
void
expectIdenticalRuns(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.ns, b.ns);
    // The full stat snapshots, key by key.
    EXPECT_EQ(a.stats, b.stats);
}

TEST(DeterminismTest, SameWorkloadTwiceIsBitIdentical)
{
    // One data-parallel and one task-parallel (graph) workload; the
    // graph apps exercise the per-program label uniquifier.
    for (const char *name : {"saxpy", "mis"}) {
        auto r1 = runWorkload(Design::d1b4VL, name, Scale::tiny);
        auto r2 = runWorkload(Design::d1b4VL, name, Scale::tiny);
        ASSERT_TRUE(r1.ok()) << name << ": " << r1.message;
        expectIdenticalRuns(r1, r2);
    }
}

TEST(DeterminismTest, RunOrderDoesNotChangeResults)
{
    // With the old process-global text-base counter, what ran *before*
    // a workload changed its program addresses and therefore its
    // cache/ifetch statistics. Run B alone, then run it after several
    // unrelated constructions, and demand identical results.
    auto alone = runWorkload(Design::d1b, "vvadd", Scale::tiny);
    ASSERT_TRUE(alone.ok()) << alone.message;

    (void)runWorkload(Design::d1b4VL, "saxpy", Scale::tiny);
    (void)runWorkload(Design::d1b, "mis", Scale::tiny);
    auto after = runWorkload(Design::d1b, "vvadd", Scale::tiny);
    expectIdenticalRuns(alone, after);

    // And either relative order of two workloads gives each the same
    // per-run stats.
    auto mmultFirst = runWorkload(Design::d1bIV, "mmult", Scale::tiny);
    auto bfsSecond = runWorkload(Design::d1b4L, "bfs", Scale::tiny);
    auto bfsFirst = runWorkload(Design::d1b4L, "bfs", Scale::tiny);
    auto mmultSecond = runWorkload(Design::d1bIV, "mmult", Scale::tiny);
    expectIdenticalRuns(mmultFirst, mmultSecond);
    expectIdenticalRuns(bfsFirst, bfsSecond);
}

TEST(SweepRunnerTest, ParallelSweepMatchesSerialSweep)
{
    std::vector<SweepJob> grid;
    for (const char *name : {"vvadd", "saxpy", "bfs", "pagerank"})
        for (Design d : {Design::d1L, Design::d1b4VL})
            grid.push_back({d, name, Scale::tiny, {}});

    auto serial = runSweep(grid, 1);
    auto parallel = runSweep(grid, 4);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(parallel.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(serial[i].ok()) << serial[i].workload << ": "
                                    << serial[i].message;
        expectIdenticalRuns(serial[i], parallel[i]);
    }
}

TEST(SweepRunnerTest, ResultsComeBackInSubmissionOrder)
{
    std::vector<SweepJob> grid;
    const char *names[] = {"vvadd", "mmult", "saxpy"};
    for (const char *name : names)
        grid.push_back({Design::d1b, name, Scale::tiny, {}});
    auto results = runSweep(grid, 4);
    ASSERT_EQ(results.size(), 3u);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(results[i].workload, names[i]);
}

TEST(SweepRunnerTest, JobsComeFromEnvironment)
{
    // Explicit argument wins over everything.
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
    // 0 resolves BVL_JOBS (unset here in-process: hw concurrency >= 1).
    EXPECT_GE(SweepRunner(0).jobs(), 1u);
}

TEST(SweepRunnerTest, CustomThunksAndFailuresAreBanked)
{
    SweepRunner pool(2);
    auto ok = pool.submit([] {
        return runWorkload(Design::d1L, "vvadd", Scale::tiny);
    });
    auto bad = pool.submit({Design::d1b, "no-such-workload",
                            Scale::tiny, {}});
    EXPECT_TRUE(ok.get().ok());
    auto r = bad.get();
    EXPECT_EQ(r.status, RunStatus::sim_error);
    // The diagnostic was captured into the result, not stderr.
    EXPECT_NE(r.message.find("unknown workload"), std::string::npos);
    EXPECT_NE(r.log.find("unknown workload"), std::string::npos);
}

TEST(ConcurrencyStressTest, ManyThreadsRunWorkloadsIndependently)
{
    // Reference results, computed serially.
    auto refSaxpy = runWorkload(Design::d1b4VL, "saxpy", Scale::tiny);
    auto refBfs = runWorkload(Design::d1b4L, "bfs", Scale::tiny);
    ASSERT_TRUE(refSaxpy.ok()) << refSaxpy.message;
    ASSERT_TRUE(refBfs.ok()) << refBfs.message;

    // Hammer runWorkload from several raw threads at once (below the
    // SweepRunner layer, so this exercises the library's re-entrancy
    // directly) and compare every result against the references.
    constexpr unsigned numThreads = 8;
    constexpr unsigned runsPerThread = 2;
    std::vector<RunResult> results(numThreads * runsPerThread);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < numThreads; ++t) {
        threads.emplace_back([t, &results] {
            for (unsigned i = 0; i < runsPerThread; ++i) {
                bool saxpy = (t + i) % 2 == 0;
                results[t * runsPerThread + i] = saxpy
                    ? runWorkload(Design::d1b4VL, "saxpy", Scale::tiny)
                    : runWorkload(Design::d1b4L, "bfs", Scale::tiny);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    for (unsigned t = 0; t < numThreads; ++t) {
        for (unsigned i = 0; i < runsPerThread; ++i) {
            const auto &r = results[t * runsPerThread + i];
            expectIdenticalRuns(
                (t + i) % 2 == 0 ? refSaxpy : refBfs, r);
        }
    }
}

TEST(LogCaptureTest, CapturesThisThreadAndNests)
{
    LogCapture outer;
    warn("outer %d", 1);
    {
        LogCapture inner;
        warn("inner");
        inform("status");   // honoured only if verbose
        EXPECT_NE(inner.text().find("warn: inner\n"),
                  std::string::npos);
        EXPECT_EQ(inner.text().find("outer"), std::string::npos);
    }
    warn("outer %d", 2);
    EXPECT_NE(outer.text().find("warn: outer 1\n"), std::string::npos);
    EXPECT_NE(outer.text().find("warn: outer 2\n"), std::string::npos);
    EXPECT_EQ(outer.text().find("inner"), std::string::npos);
}

TEST(LogCaptureTest, PanicMessageIsCapturedBeforeThrow)
{
    if (abortOnError())
        GTEST_SKIP() << "BVL_ABORT_ON_ERROR is set";
    LogCapture capture;
    EXPECT_THROW(panic("exploded with code %d", 42), SimPanicError);
    EXPECT_NE(capture.text().find("panic: exploded with code 42\n"),
              std::string::npos);
}

} // namespace
} // namespace bvl
