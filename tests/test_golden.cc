/**
 * @file
 * Byte-identity tripwire for the timing model.
 *
 * Pins the simulated nanoseconds and a SHA-256 of the full stat map
 * for four workloads (streaming vector, dense compute, the mobile
 * tier's strided/indexed IDCT, and a graph traversal) at tiny scale on
 * all seven designs. A host-speed change to the event queue, the
 * cores or the engine must leave every cell untouched; a deliberate
 * timing-model change re-pins the table and says so.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "soc/run_driver.hh"
#include "sweep/service/digest.hh"

namespace bvl
{
namespace
{

struct GoldenCell
{
    const char *workload;
    Design design;
    double ns;
    const char *statsSha256;
};

const GoldenCell goldenCells[] = {
    {"vvadd", Design::d1L, 12798,
     "9db46311d39d15f5473a4ad128925f1a9f03a7585d83132f29dc7285975e74a3"},
    {"vvadd", Design::d1b, 3884,
     "93e682ecb65c32e9c6ed4eeb5047e0c8a47dafb8d6fe58dd8ec3a73e8fdf3c78"},
    {"vvadd", Design::d1bIV, 3833,
     "6179522856af6dd58b8d6f6509aaa7cb35701b012ead9d9f1802e0ef6cbda66e"},
    {"vvadd", Design::d1b4L, 3556,
     "1b850a245291f6f2c23f3ed686647434fbada453aecc4c1a924ec476af991cc4"},
    {"vvadd", Design::d1bIV4L, 3472,
     "9fd404f98fbf1fd4ec2c105005d2a70e5a7525f4e907766f4a1988220fc82183"},
    {"vvadd", Design::d1bDV, 526.5,
     "4484d584f073a1cd3760fe80fcb950cc7561848ca4c4fd1465e5de189f682799"},
    {"vvadd", Design::d1b4VL, 1210,
     "2c80029cf1c0a97f2a7465949b6ad54a1df3bc0567162f9425ad012fc2c51430"},
    {"backprop", Design::d1L, 47846,
     "cee029adbdd158783db330a78f2c1bc3ff62e50274aeaa6c75ce642357806c95"},
    {"backprop", Design::d1b, 9483,
     "cf5173597cfd69aa2f2237d56d25eb626a79ee0fc414450b37639de5cb9f64b2"},
    {"backprop", Design::d1bIV, 6051,
     "9f00e29dbe24e6086774171bc8a927a846911aa367911dd25bed4840f9b8f7bc"},
    {"backprop", Design::d1b4L, 9719,
     "df2824bebd173b8be6c31688258f7c9152e7e6b686c85584cf008be1cc18a99c"},
    {"backprop", Design::d1bIV4L, 9816,
     "e6d8c8a17bf5845dadee32bd1c4d8efb604d42e1ce0f7514a75ea7f704246605"},
    {"backprop", Design::d1bDV, 1137,
     "1055a3ef3cf6d3461358ef675c0cfa75fd07298ac872164fcbbfcc51cf34454e"},
    {"backprop", Design::d1b4VL, 2422,
     "1c9b930b0fc57f439c6e688e6df37d354082ba0681d0559873877d4ec87fb583"},
    {"idct8", Design::d1L, 367773,
     "2bba7b4df3c52ec486c520d9f29839b9fb83fbfb437d2ed1c3c6d5af844f1c52"},
    {"idct8", Design::d1b, 97304,
     "c8504b4e44983b32c014a4378ac6b4a99e88793d072a2bb83a0880a5c58776d1"},
    {"idct8", Design::d1bIV, 36793,
     "36bb78f7cc023d05985a2bca679ec0ac9dd4e8348929bffdb759e7582c68971f"},
    {"idct8", Design::d1b4L, 69126,
     "13be520b0990d5f4d54e832e70c3e8713bfffa2daec4524c95915117f81e8c29"},
    {"idct8", Design::d1bIV4L, 69054,
     "c5062aa0139ecf142dedf5e66f6b3e7311516ba71ba78afe28ea2255c53365f9"},
    {"idct8", Design::d1bDV, 21370,
     "fef12ff44cfde7c048f96884487ea0c0ae941256d96204b929f0cd9b67c86871"},
    {"idct8", Design::d1b4VL, 22066,
     "2f9be778c3824eb492fdc80ae0e1e24b98ec0ab3c2e305073c55f841f598d370"},
    {"bfs", Design::d1L, 28145,
     "4596571de92284f9ae31f93e2a3d68ebc5f9c97e504c8cbbce642e57fbc698a0"},
    {"bfs", Design::d1b, 25068,
     "3af1af80166c7f8c1d61f2215c2e9e0ddb4ae0b28342dc416449f1afe2985ceb"},
    {"bfs", Design::d1bIV, 25068,
     "d93d77b43acb73b46c55d27e6b272e7380a8955fba292d03688130f6dc596e1f"},
    {"bfs", Design::d1b4L, 9433,
     "359a84326f02863300329e181b0a3c1982ccb902da2b2617f839f10fe020d3f7"},
    {"bfs", Design::d1bIV4L, 9433,
     "f56df878d0213d73c8b106aa221203fdd15c8f3c18b40f7e2286b9f3ce97c9b9"},
    {"bfs", Design::d1bDV, 25068,
     "6e3cacf3b70c02ec685dba7172acdfd942b5f3f9f46932f7eea08f2672fc647e"},
    {"bfs", Design::d1b4VL, 9433,
     "87ef15242e9b1e971b6cdef932bc3c3ba970f835be49096df337885f6aacdc0d"},
};

/** "name=value" lines in map order: the digest input. */
std::string
statText(const RunResult &r)
{
    std::string out;
    for (const auto &[name, value] : r.stats)
        out += name + "=" + std::to_string(value) + "\n";
    return out;
}

/** Print a cell as its pinned ns; gtest would otherwise print raw
 *  bytes, including string addresses that change between builds. */
void
PrintTo(const GoldenCell &c, std::ostream *os)
{
    *os << c.ns << " ns";
}

class GoldenTest : public ::testing::TestWithParam<GoldenCell>
{};

TEST_P(GoldenTest, NsAndStatsUnchanged)
{
    const GoldenCell &cell = GetParam();
    RunResult r = runWorkload(cell.design, cell.workload, Scale::tiny);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.ns, cell.ns);
    EXPECT_EQ(sha256Hex(statText(r)), cell.statsSha256);
}

std::string
cellName(const ::testing::TestParamInfo<GoldenCell> &info)
{
    std::string s = std::string(info.param.workload) + "_" +
                    designName(info.param.design);
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(Tiny, GoldenTest, ::testing::ValuesIn(goldenCells),
                         cellName);

} // namespace
} // namespace bvl
