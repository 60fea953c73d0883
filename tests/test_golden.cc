/**
 * @file
 * Byte-identity tripwire for the timing model.
 *
 * Pins the simulated nanoseconds and a SHA-256 of the full stat map
 * for four workloads (streaming vector, dense compute, the mobile
 * tier's strided/indexed IDCT, and a graph traversal) at tiny scale on
 * all seven designs at 1 GHz, and on the three big+little designs at
 * two off-nominal (big, little) clock pairs. At 1 GHz every cache edge
 * is also a core edge; off-nominal, a cache hit lands between core
 * edges. A host-speed change to the event queue, the cores or the
 * engine must leave every cell untouched; a deliberate timing-model
 * change re-pins the table and says so.
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

/** A (big, little) clock pair and its Table VII level name. */
struct Clocks
{
    const char *level;      ///< "" for the nominal 1 GHz pair
    double bigGhz;
    double littleGhz;
};

constexpr Clocks nominal{"", 1.0, 1.0};
constexpr Clocks b0l0{"b0l0", 0.8, 0.6};
constexpr Clocks b3l3{"b3l3", 1.4, 1.2};

struct GoldenCell
{
    const char *workload;
    Design design;
    double ns;
    const char *statsSha256;
    Clocks clocks = nominal;
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

const GoldenCell offNominalCells[] = {
    {"vvadd", Design::d1b4L, 4725.607,
     "60e55f5ca5dbf895c41e5ce571291f68c0a653c184ff617a107abb354288c02a", b0l0},
    {"vvadd", Design::d1bIV4L, 4715.605,
     "aee7494ac726f573aaba8b4a9747ca078c125ff39062d2026da370ee9b66cb36", b0l0},
    {"vvadd", Design::d1b4VL, 1592.214,
     "851c88bdc47146c12babadaf591ca6034d6eba7f243fe43725af3d70fe5986e2", b0l0},
    {"backprop", Design::d1b4L, 12590.851,
     "97aae81805d8cf29be40a3d32edd24e5b564e4d5541f758e7ea8d67c60af0696", b0l0},
    {"backprop", Design::d1bIV4L, 12751.877,
     "9329a3f52e1b18e150d8ca8b155a3d6c9f91b703ffa6d0d36911dde8933660e7", b0l0},
    {"backprop", Design::d1b4VL, 3395.908,
     "c2934c1effba343144a59e018029fb2b223ffccef575c5192b05e99f8d6ba371", b0l0},
    {"idct8", Design::d1b4L, 114211.171,
     "62ea8b7d6cfdcfb518a93722fa0f3b7fa4af97dbe76adf96267d2d10c6a1f5e3", b0l0},
    {"idct8", Design::d1bIV4L, 114214.505,
     "5604175143a2e3da1fe1b1eb5e031c5cdc80c2ab63793ed6e8fe30a43c125b1f", b0l0},
    {"idct8", Design::d1b4VL, 35428.667,
     "f6c0047afb2b07e1d0f79bcf56e70b8116d25cb9356d057a2964178aecd76690", b0l0},
    {"bfs", Design::d1b4L, 11840.701,
     "aca0a4b8e6ad61064b3770737abd3e47e7757af3ee56ae0c68603fe44f236a01", b0l0},
    {"bfs", Design::d1bIV4L, 11840.701,
     "2c96ea68a19ef8a637ea8c8ad1b7f7849bd08d8695ac15c4ba7204b8cd785eda", b0l0},
    {"bfs", Design::d1b4VL, 11840.701,
     "fed7afe496625cb9e80b08439e9f2831fbadce9a91a5452e54cd088b3f843068", b0l0},
    {"vvadd", Design::d1b4L, 3331.346,
     "b1033396bb5a1adcaee9ee8e3ab0b8f2466e285818a3850d6a2f9e806d0c2156", b3l3},
    {"vvadd", Design::d1bIV4L, 3217.555,
     "cc0d6b00c9eba2c711d4ba0d97838284afdc5dff670cbebcdb7b815c790ba881", b3l3},
    {"vvadd", Design::d1b4VL, 1117.642,
     "d0ade4c0b02718339cfa66074db034d67162e6c0455d03c936450697dc4b4d12", b3l3},
    {"backprop", Design::d1b4L, 8350.825,
     "62f58e9a710ddc2e610bc8c18d9aeeb732a79227521682449991e55e80ff39ca", b3l3},
    {"backprop", Design::d1bIV4L, 8890.609,
     "78d1ea8116dbf914dc53ed37743dc68420547f4ec0f5c628dbad2e86e1c9667e", b3l3},
    {"backprop", Design::d1b4VL, 2293.838,
     "9c9a3575d58ae60dde04cafed6cffd6d4b4976fdbd746057b01e9173e385716a", b3l3},
    {"idct8", Design::d1b4L, 60534.943,
     "7f48dbc7a8e2453badac886dea2f40d73ec04b91425154cc202dc8b65460fde9", b3l3},
    {"idct8", Design::d1bIV4L, 60534.11,
     "6dfaea1bdc56903f13bc92e6fa6d4e6233149d20859ece49dc8dce5161ce1024", b3l3},
    {"idct8", Design::d1b4VL, 18934.305,
     "ffb969c93a297ca7d1084cec0b2255223a3b9ef6b07cfcaa1f581d6450ea41c1", b3l3},
    {"bfs", Design::d1b4L, 8418.298,
     "edc1ea5b4065cbe9445e99d273a40de8b7d6c2f53d62917ad942a3363c253ad7", b3l3},
    {"bfs", Design::d1bIV4L, 8418.298,
     "de2c3873ec2e82c95153c11af91413d26ebf6e8c764beea668118dee8b9e9d13", b3l3},
    {"bfs", Design::d1b4VL, 8418.298,
     "2eacd7af3da18b703960e79471d656282881c3c477b286b2ae879e6a4f962ca2", b3l3},
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
    if (*c.clocks.level)
        *os << " at " << c.clocks.level;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCell>
{};

TEST_P(GoldenTest, NsAndStatsUnchanged)
{
    const GoldenCell &cell = GetParam();
    RunOptions opts;
    opts.bigGhz = cell.clocks.bigGhz;
    opts.littleGhz = cell.clocks.littleGhz;
    RunResult r = runWorkload(cell.design, cell.workload, Scale::tiny, opts);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(r.ns, cell.ns);
    EXPECT_EQ(sha256Hex(statText(r)), cell.statsSha256);
}

std::string
cellName(const ::testing::TestParamInfo<GoldenCell> &info)
{
    std::string s = std::string(info.param.workload) + "_" +
                    designName(info.param.design);
    if (*info.param.clocks.level)
        s += std::string("_") + info.param.clocks.level;
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(Tiny, GoldenTest, ::testing::ValuesIn(goldenCells),
                         cellName);
INSTANTIATE_TEST_SUITE_P(OffNominal, GoldenTest,
                         ::testing::ValuesIn(offNominalCells), cellName);

} // namespace
} // namespace bvl
