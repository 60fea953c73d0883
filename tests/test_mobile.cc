/**
 * @file
 * Mobile kernel tier tests (DESIGN.md §18).
 *
 * Three suites, landing in two ctest labels:
 *
 *  - MobileLockstepTest ("*Lockstep*" -> checker label): every mobile
 *    kernel at Scale::small under the lockstep checker, clean and with
 *    a recoverable fault plan injected. The mobile kernels are the
 *    only users of the widening/narrowing ops and of byte/halfword
 *    element widths, so this is where a timed-vs-functional divergence
 *    in those paths would surface.
 *
 *  - MobileVmuPatternTest (workloads label): each kernel's VMU
 *    access-pattern signature (unit / strided / indexed line counts)
 *    on the vLITTLE design, and the taxonomy's completeness: every
 *    line request is classified exactly once.
 *
 *  - WorkloadRegistryTest (workloads label): the workload table's
 *    unique names, that every row builds its named workload, the
 *    suite orders the figures print, and the mobile tier's
 *    registration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "soc/run_driver.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

const char *const mobileKernels[] = {
    "idct8", "ycbcr", "conv2d", "gemm8", "bytescan",
};

/** Recoverable fault plan, rotated per kernel so the whole tier
 *  collectively exercises memory delays, VCU stalls and VMU drops
 *  (same shapes as test_cosim.cc's plans). */
FaultSpec
mobileFaultPlan(int variant)
{
    FaultSpec f;
    f.enabled = true;
    f.seed = 901 + variant;
    switch (variant % 3) {
      case 0:
        f.memDelayProb = 0.05;
        f.cacheDelayProb = 0.1;
        break;
      case 1:
        f.vcuStallProb = 0.05;
        f.vcuStallCycles = 12;
        f.script.push_back({20000, FaultKind::vcuStall, 40});
        break;
      default:
        // Deeper retry budget than the cosim plan: small-scale mobile
        // kernels issue enough line requests that 4 consecutive drops
        // at p=0.1 (one lost request per ~10k) becomes likely.
        f.vmuDropProb = 0.1;
        f.vmuMaxRetries = 8;
        f.vmuRetryDelay = 16;
        f.script.push_back({0, FaultKind::vmuDrop, 0});
        break;
    }
    return f;
}

class MobileLockstepTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(MobileLockstepTest, CleanRunRetiresMatchTheModel)
{
    RunOptions opts;
    opts.check.lockstep = true;
    opts.check.invariants = true;

    RunResult r =
        runWorkload(Design::d1b4VL, GetParam(), Scale::small, opts);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message << "\n" << r.log;
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.stat("check.retires"), 0u);
    EXPECT_EQ(r.stat("check.divergences"), 0u);
    EXPECT_GT(r.stat("check.uops"), 0u);
}

TEST_P(MobileLockstepTest, FaultedRunRetiresMatchTheModel)
{
    // Variant keyed to the kernel's suite position so each plan shape
    // is exercised by at least one kernel, deterministically.
    const auto *begin = std::begin(mobileKernels);
    const auto *end = std::end(mobileKernels);
    int variant = static_cast<int>(
        std::find(begin, end, GetParam()) - begin);

    RunOptions opts;
    opts.faults = mobileFaultPlan(variant);
    opts.check.lockstep = true;
    opts.check.invariants = true;

    RunResult r =
        runWorkload(Design::d1b4VL, GetParam(), Scale::small, opts);
    ASSERT_EQ(r.status, RunStatus::ok) << r.message << "\n" << r.log;
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.stat("check.retires"), 0u);
    EXPECT_EQ(r.stat("check.divergences"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, MobileLockstepTest,
    ::testing::ValuesIn(std::vector<std::string>(
        std::begin(mobileKernels), std::end(mobileKernels))));

/** Expected access-pattern classes per kernel (DESIGN.md §18). */
struct PatternCase
{
    const char *name;
    bool unit, strided, indexed;
};

/**
 * Print a case as its expected classes, e.g. "unit+strided". Without
 * this gtest prints the raw bytes, including the address of `name`,
 * which makes the ctest display name change from build to build.
 */
void
PrintTo(const PatternCase &c, std::ostream *os)
{
    const char *sep = "";
    for (auto [on, cls] : {std::pair{c.unit, "unit"},
                           std::pair{c.strided, "strided"},
                           std::pair{c.indexed, "indexed"}}) {
        if (on) {
            *os << sep << cls;
            sep = "+";
        }
    }
}

class MobileVmuPatternTest : public ::testing::TestWithParam<PatternCase>
{};

TEST_P(MobileVmuPatternTest, AccessPatternSignature)
{
    const PatternCase &c = GetParam();
    RunResult r = runWorkload(Design::d1b4VL, c.name, Scale::tiny, {});
    ASSERT_EQ(r.status, RunStatus::ok) << r.message << "\n" << r.log;
    ASSERT_TRUE(r.verified);

    std::uint64_t unit = r.stat("vlittle.unitLines");
    std::uint64_t strided = r.stat("vlittle.stridedLines");
    std::uint64_t indexed = r.stat("vlittle.indexedLines");

    EXPECT_EQ(unit > 0, c.unit) << "unitLines=" << unit;
    EXPECT_EQ(strided > 0, c.strided) << "stridedLines=" << strided;
    EXPECT_EQ(indexed > 0, c.indexed) << "indexedLines=" << indexed;

    // The taxonomy partitions line requests: every VMU line request
    // is classified under exactly one pattern class.
    EXPECT_EQ(unit + strided + indexed,
              r.stat("vlittle.loadLineReqs") +
                  r.stat("vlittle.storeLineReqs"));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, MobileVmuPatternTest,
    ::testing::Values(
        // idct8: strided row/col passes + indexed dezigzag gather
        PatternCase{"idct8", true, true, true},
        // ycbcr: strided chroma deinterleave + indexed clamp LUT;
        // every access is strided (pixel interleave) or indexed, so
        // no unit-stride lines at all
        PatternCase{"ycbcr", false, true, true},
        // conv2d: unit-stride hpass + column-strided vpass
        PatternCase{"conv2d", true, true, false},
        // gemm8 and bytescan are pure unit-stride
        PatternCase{"gemm8", true, false, false},
        PatternCase{"bytescan", true, false, false}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(WorkloadRegistryTest, UniqueNamesPass)
{
    // Names key sweep journals, result caches and checkpoint farms, so
    // a repeated name would silently share their entries.
    std::set<std::string> seen;
    for (const auto &row : workloadTable())
        EXPECT_TRUE(seen.insert(row.name).second)
            << "duplicate workload name '" << row.name
            << "': rename one of its table rows";
}

TEST(WorkloadRegistryTest, EveryRowBuildsItsNamedWorkload)
{
    for (const auto &row : workloadTable()) {
        auto w = row.make(Scale::tiny);
        ASSERT_NE(w, nullptr) << row.name;
        EXPECT_EQ(w->name(), row.name);
        EXPECT_EQ(w->isDataParallel(), row.suite != Suite::taskParallel)
            << row.name;
    }
}

TEST(WorkloadRegistryTest, SuiteNamesKeepFigureOrder)
{
    using Names = std::vector<std::string>;
    EXPECT_EQ(workloadNames(Suite::dataParallel),
              (Names{"vvadd", "mmult", "saxpy", "backprop", "kmeans",
                     "blackscholes", "particlefilter", "jacobi-2d",
                     "pathfinder", "lavamd", "sw"}));
    EXPECT_EQ(workloadNames(Suite::taskParallel),
              (Names{"bfs", "bc", "tc", "radii", "components",
                     "pagerank", "mis", "kcore"}));
    EXPECT_EQ(workloadNames(Suite::mobile),
              (Names{"idct8", "ycbcr", "conv2d", "gemm8", "bytescan"}));
    EXPECT_EQ(allWorkloadNames().size(), 24u);
}

TEST(WorkloadRegistryTest, MobileTierIsRegistered)
{
    auto names = allWorkloadNames();
    for (const char *k : mobileKernels) {
        EXPECT_NE(std::find(names.begin(), names.end(), k), names.end())
            << k << " missing from the registry";
        auto w = makeWorkload(k, Scale::tiny);
        ASSERT_NE(w, nullptr) << k;
        EXPECT_TRUE(w->isDataParallel()) << k;
        EXPECT_NE(w->vectorProgram(), nullptr)
            << k << " has no vectorized program";
    }
}

} // namespace
} // namespace bvl
