/**
 * @file
 * Work-count tripwire: host work that does not depend on the host.
 *
 * Drives vvadd and bfs at tiny scale on 1L, 1b and 1b-4L through Soc
 * and WsRuntime, as runWorkload() does (without the watchdog's check
 * events), and pins the events the queue executed and the
 * instructions the cores retired. Retired instructions are simulated
 * behaviour and must match exactly. Events must not grow: a change
 * that puts work back on the event queue (a cache hit completed
 * through a closure, say) fails here even when every simulated number
 * stays the same. A change that saves events re-pins them downward.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "runtime/ws_runtime.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

struct WorkCell
{
    const char *workload;
    Design design;
    std::uint64_t events;
    std::uint64_t retired;
};

const WorkCell workCells[] = {
    {"vvadd", Design::d1L, 14391, 4108},
    {"vvadd", Design::d1b, 5605, 4108},
    {"vvadd", Design::d1b4L, 17714, 4864},
    {"bfs", Design::d1L, 28484, 12106},
    {"bfs", Design::d1b, 25350, 12106},
    {"bfs", Design::d1b4L, 29434, 12106},
};

void
PrintTo(const WorkCell &c, std::ostream *os)
{
    *os << c.events << " events";
}

class WorkCountTest : public ::testing::TestWithParam<WorkCell>
{};

TEST_P(WorkCountTest, EventsDoNotGrow)
{
    const WorkCell &cell = GetParam();
    WorkloadPtr w = makeWorkload(cell.workload, Scale::tiny);
    ASSERT_NE(w, nullptr);
    Soc soc(cell.design);
    w->init(soc.backing);
    WsRuntime runtime(soc);
    RunShape shape = soc.shape(w->isDataParallel());
    bool done = false;
    if (shape.taskGraph)
        runtime.run(w->taskGraph(), shape.useBig, shape.littleWorkers,
                    shape.vector, [&] { done = true; });
    else
        soc.streamCore()->runProgram(w->scalarProgram(),
                                     w->fullRangeArgs(),
                                     [&] { done = true; });
    ASSERT_TRUE(soc.runUntil(done));
    ASSERT_TRUE(w->verify(soc.backing));

    std::uint64_t retired = soc.big->retired();
    for (const auto &little : soc.littles)
        retired += little->retired();
    EXPECT_EQ(retired, cell.retired);
    EXPECT_LE(soc.eq.executed(), cell.events);
}

std::string
cellName(const ::testing::TestParamInfo<WorkCell> &info)
{
    std::string s = std::string(info.param.workload) + "_" +
                    designName(info.param.design);
    for (auto &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(Tiny, WorkCountTest, ::testing::ValuesIn(workCells),
                         cellName);

} // namespace
} // namespace bvl
