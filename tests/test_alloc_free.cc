/**
 * @file
 * Steady-state allocation gate (DESIGN.md §11).
 *
 * This binary replaces the global operator new with a counting one, so
 * it is built on its own: the counter must never reach libbvl or the
 * main test binary. Each cell builds a Soc, dispatches the workload the
 * way runWorkload does for its Soc::shape(), lets the first events run
 * (construction, first touches, every queue and table growing to its
 * working size), then counts heap allocations until the workload
 * finishes. A fetched instruction, a cache access, a miss and a
 * directory step must not allocate once the machine is warm: the
 * count after the warm-up must be zero.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "runtime/ws_runtime.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace bvl
{
namespace
{

/** Events run before counting starts: the warm-up a cell may spend
 *  allocating. */
constexpr std::uint64_t warmupEvents = 20000;

struct AllocCell
{
    const char *workload;
    Design design;
};

std::ostream &
operator<<(std::ostream &os, const AllocCell &c)
{
    return os << c.workload << "_" << designName(c.design);
}

class AllocFreeTest : public ::testing::TestWithParam<AllocCell>
{};

TEST_P(AllocFreeTest, SteadyStateRunDoesNotAllocate)
{
    const AllocCell &cell = GetParam();
    WorkloadPtr wl = makeWorkload(cell.workload, Scale::small);
    ASSERT_NE(wl, nullptr);

    Soc soc(cell.design);
    wl->init(soc.backing);
    RunShape shape = soc.shape(wl->isDataParallel());
    WsRuntime runtime(soc);
    bool done = false;
    if (shape.taskGraph) {
        runtime.run(wl->taskGraph(), shape.useBig, shape.littleWorkers,
                    shape.vector, [&] { done = true; });
    } else {
        ProgramPtr prog = shape.vector ? wl->vectorProgram()
                                       : wl->scalarProgram();
        ASSERT_NE(prog, nullptr);
        soc.streamCore()->runProgram(prog, wl->fullRangeArgs(),
                                     [&] { done = true; });
    }

    while (!done && soc.eq.executed() < warmupEvents && soc.eq.step()) {}
    ASSERT_FALSE(done) << "finished inside the warm-up; nothing measured";

    std::uint64_t events0 = soc.eq.executed();
    std::uint64_t allocs0 = allocations.load();
    ASSERT_TRUE(soc.runUntil(done));
    std::uint64_t allocs = allocations.load() - allocs0;
    std::uint64_t events = soc.eq.executed() - events0;
    ASSERT_TRUE(wl->verify(soc.backing));

    EXPECT_EQ(allocs, 0u)
        << cell << ": " << allocs << " allocations in " << events
        << " steady-state events";
}

const AllocCell allocCells[] = {
    {"vvadd", Design::d1L},     {"vvadd", Design::d1b},
    {"vvadd", Design::d1b4L},   {"vvadd", Design::d1b4VL},
    {"backprop", Design::d1L},  {"backprop", Design::d1b},
    {"backprop", Design::d1b4L}, {"backprop", Design::d1b4VL},
    {"conv2d", Design::d1L},    {"conv2d", Design::d1b},
    {"conv2d", Design::d1b4L},  {"conv2d", Design::d1b4VL},
};

std::string
cellName(const ::testing::TestParamInfo<AllocCell> &info)
{
    std::string name = std::string(info.param.workload) + "_" +
                       designName(info.param.design);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Small, AllocFreeTest,
                         ::testing::ValuesIn(allocCells), cellName);

} // namespace
} // namespace bvl
