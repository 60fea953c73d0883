/**
 * @file
 * Pins of the functional oracle (DESIGN.md §11) and of the checkpoint
 * prefixes fast-forward publishes (DESIGN.md §15). Every timing model
 * takes its values from stepOne() at fetch, so any bit the oracle
 * changes changes simulated results; these pins make such a change
 * fail here, named by workload, program and VLEN, before it surfaces
 * as a drifted figure.
 *
 *  - OraclePinTest.EveryProgramStepsAsPinned runs every workload's
 *    scalar and vector program at tiny, at VLEN 128, 512 and 2048,
 *    and digests every field of every ExecTrace (element addresses
 *    included), the final ArchState::dumpState() and the final
 *    memory image (BackingStore::sortedPages()). A scalar program
 *    executes no vector instruction, so its three runs must agree
 *    and share one pin. The Ligra apps run only as task graphs, whose
 *    interleaving the runtime decides; test_golden pins those.
 *  - OraclePinTest.CheckpointPayloadsAsPinned produces a checkpoint
 *    of each sampled app on 1bIV, 1bDV and 1b-4VL at tiny and digests
 *    its payload: memory image, arch state, branch predictor and the
 *    warm line-access stream.
 *
 * A change that means to alter functional results re-pins: each
 * failure prints the row that would replace the pinned one.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "isa/arch_state.hh"
#include "sim/check/json.hh"
#include "soc/run_driver.hh"
#include "sweep/service/digest.hh"
#include "vector/engine_presets.hh"
#include "workloads/workload.hh"

namespace bvl
{
namespace
{

struct StepPin
{
    const char *workload;
    char program;         ///< 's' scalar, 'v' vector
    unsigned vlen;        ///< 0 for a scalar program: every VLEN
    std::uint64_t insts;
    const char *sha;
};

const StepPin kStepPins[] = {
    {"vvadd", 's', 0, 4108,
     "152052deb63dd246fed6298f55af705e9d6c6cf28f43f436e4ab48c61f4415bb"},
    {"vvadd", 'v', 128, 1542,
     "0a43967b9a967700166ea0933140edbd55d5b25c92e820afcbf806f9291f7991"},
    {"vvadd", 'v', 512, 390,
     "de28cdd50d57ba19577e564e17bfb19389335f84d9f6a65a0f1e8844e3a5330c"},
    {"vvadd", 'v', 2048, 102,
     "d209f2c574e5132993d1b0ab15897b236f58ff236bdcc5fb5c9ca0e8eab2da43"},
    {"mmult", 's', 0, 55862,
     "dad45d67432da0f02f209e8aa7839da67c9dd1a18f850cd73c86d466396434eb"},
    {"mmult", 'v', 128, 13878,
     "496526d946a653ea66d7dcdb69ae35f0c8a376e2d51f7ab4e87bce8cff42b75e"},
    {"mmult", 'v', 512, 6198,
     "0517fcc0ba414cd11c29b13aaf42199cbc96e261d7c1073102dc007faffff2f6"},
    {"mmult", 'v', 2048, 6198,
     "0517fcc0ba414cd11c29b13aaf42199cbc96e261d7c1073102dc007faffff2f6"},
    {"saxpy", 's', 0, 3596,
     "37de6f34fd76e334633f848a795326282039b2478400b1dc7cbdd46809a3f500"},
    {"saxpy", 'v', 128, 1415,
     "fdbf052c885607665485c7270d06b2bfbb6b8fab91a89a2f0ac0c1c6350fdc24"},
    {"saxpy", 'v', 512, 359,
     "ab9caa8a501b8e0c56fbad7730c00348937616e8dcf39503cfe918cf3892fe2a"},
    {"saxpy", 'v', 2048, 95,
     "f04de2fc66763414a8ce595523e0281f8560d18c1272e58330407a10ab841afc"},
    {"idct8", 's', 0, 311400,
     "c79eb15f8e171a85d1e346b35231743f9dc9ba8fe7f1dcb021f79d6a284a7c78"},
    {"idct8", 'v', 128, 77998,
     "b39a871d8e44ed45fb7f8eda1c91796ee65ce980d39058fe7baac0569d52595e"},
    {"idct8", 'v', 512, 19594,
     "4e8e243ce7b9e2b83acf9713bef007e869c0b6e8d81a3a2e693015fa4ddf6622"},
    {"idct8", 'v', 2048, 19434,
     "f080b72244dc8b07468cdc6bb08f059a0ce971d68b0928e970e25f3dad98ccd2"},
    {"ycbcr", 's', 0, 36874,
     "03fa1ab37ebbc53bd32cdf4a909dfba979cdc22f07b58f3969b252b2edf0442b"},
    {"ycbcr", 'v', 128, 12555,
     "d22bfeb6c7b6061bebacbb8d08f9d00c49fee5cce163dd9aeda437eb6255e420"},
    {"ycbcr", 'v', 512, 3147,
     "6be4397fdb7832ebdc6e9ed49e3826eb12a0b11e7e8ce0662c9d7b3e6d0fd92a"},
    {"ycbcr", 'v', 2048, 795,
     "93895bc3694a0b8ae18ddd4f1c56a07dcc729af63e79fa4823c8e11ea94b22e7"},
    {"conv2d", 's', 0, 44331,
     "2cf99d2098d1267704a8d5cade209cef8d4d66e7b8a7d39a4d23904eba078afe"},
    {"conv2d", 'v', 128, 17107,
     "72054b5be9dbaa62a631df9a6cdd74e31ea38f1e6c83a2c29899ab6b2f1403a7"},
    {"conv2d", 'v', 512, 5683,
     "fadabb35b3df412b26e412340051d5703e59567ddf24a28c084aad777b979752"},
    {"conv2d", 'v', 2048, 2827,
     "d165336f58c52a16bb78f4bd87cec08f1cdf3aa88df2dfd55959b9e1150df0a6"},
    {"gemm8", 's', 0, 52280,
     "e6e564a6ab347781e578263910e97047d8e32058a9c463d30fdb6891eb5db7ad"},
    {"gemm8", 'v', 128, 15238,
     "13e129cc0148e0a50e4946ce2787d872f7c62d4b57cecec934f9713632d133e9"},
    {"gemm8", 'v', 512, 3862,
     "574f2d00c02376f0df8aca4c49d95a08f1b4cb949abb2f7949fe3a631e794500"},
    {"gemm8", 'v', 2048, 3862,
     "574f2d00c02376f0df8aca4c49d95a08f1b4cb949abb2f7949fe3a631e794500"},
    {"bytescan", 's', 0, 25983,
     "6bd3a9af6496e2ee596e08eb1cb1cc3a223281d9acef10a89b2a3e86c28a65e7"},
    {"bytescan", 'v', 128, 3883,
     "0bab53ac5ce249adc593d633a41d225beaa93215bd578eb14d6ddb7aef3dae61"},
    {"bytescan", 'v', 512, 1904,
     "673aed4ed51a26546fcc404201ba0d4f378e80bc27f3793cc19d6c94107d23af"},
    {"bytescan", 'v', 2048, 1904,
     "673aed4ed51a26546fcc404201ba0d4f378e80bc27f3793cc19d6c94107d23af"},
    {"backprop", 's', 0, 26247,
     "8efe491f2e7c0359be49488a968098016751bb1b85608bdd07dde7d52de71c59"},
    {"backprop", 'v', 128, 6856,
     "b2ae22000eb4637a4fc1feec1952ac75b03b80e47bd63017e7d8682ab9e4c595"},
    {"backprop", 'v', 512, 1720,
     "4e12e65e28012ce4fc38d760a3d3ef71b7ab7ae2610ca3ffd8db068db0a8a021"},
    {"backprop", 'v', 2048, 436,
     "8077e77b1ec615490cd0f422594ab2b2db6bd1e6b50073df2c9774ec02dd2917"},
    {"kmeans", 's', 0, 250063,
     "3dd10801139b3ca44b5829c4cc7f726eca88e3443413e2be7d57a843c96f9032"},
    {"kmeans", 'v', 128, 63240,
     "af08104b1438a0021ecd829f4cb59d8c87a88e47d010caee01abeb868e5b058e"},
    {"kmeans", 'v', 512, 15816,
     "7ec725c22326f7a9ea3ab9185e3a1771ceaf6ce104ba9af9701613de2eebd99a"},
    {"kmeans", 'v', 2048, 3960,
     "401e96d012d4150603098f78244dd050354b0c480c9f4d184ab974f33039e034"},
    {"blackscholes", 's', 0, 22022,
     "a6900c3851a679a4b4079af4ed9fa5ae199958315a5a8c09204452e838e78cbb"},
    {"blackscholes", 'v', 128, 6791,
     "b0e5c3771c08a516d5e4f88052a6d3e398f97240fd3754b29d8f5ad2ec59f0c0"},
    {"blackscholes", 'v', 512, 1703,
     "38ed82f974351b1420122efa502141c63e5823935244901e586534cf2f64c944"},
    {"blackscholes", 'v', 2048, 431,
     "434e799b819eb577b8808bccd3d1503f8fa432ed8760ed701eb1eb76f2a5e05d"},
    {"particlefilter", 's', 0, 10765,
     "55e690224a7e0e694473546b1f3e47a1c8ffc66852a80dd08929b7d9b923afea"},
    {"particlefilter", 'v', 128, 3539,
     "a62eeedb8b1b61c563eeb6503b905c75ea5e142662dc5604e72c8fb8372c6f05"},
    {"particlefilter", 'v', 512, 899,
     "6c050baf9be6f5c512d310be6fc0071d1de4f8c43571c3e2d0894fab36687af7"},
    {"particlefilter", 'v', 2048, 239,
     "307ac603e7cd33157eda28f026d9251524256b65085e31e28e4c064c2adebca7"},
    {"jacobi-2d", 's', 0, 66224,
     "fdff3fac9e5d1a2c88fc511faec3ef6872f801800c577831dc376f26a1545232"},
    {"jacobi-2d", 'v', 128, 18568,
     "0382a050ca28d75f83c7c49a23227e5c5690d650f67a0b7adca99737c68decac"},
    {"jacobi-2d", 'v', 512, 5128,
     "359bbc8f00f9e5333346b1786d0c32fd8e80f85d879142ab8d416ac2d03fe465"},
    {"jacobi-2d", 'v', 2048, 1768,
     "6c3b3bbc2a73a4a2ce137a8803e509f6eec279addfd6f93b6a7494c35b47c643"},
    {"pathfinder", 's', 0, 17439,
     "15e44203a2eb084b3efc06c0dadbaa0a96b25d4a52ae4e26c40a329453d74be9"},
    {"pathfinder", 'v', 128, 5411,
     "7c29647964c56b59123f073d884f1761ddb30919b37f6f034a70f01b697ca2e4"},
    {"pathfinder", 'v', 512, 1379,
     "604c09cbc7aa1e47b4b13ade84a14975c365f979d679e04ec5499a6fc7687933"},
    {"pathfinder", 'v', 2048, 371,
     "1a53e8dbbfa5efbb37db048c9c2bc1eee7b83eeb3d7e32c61d355e289a495fd4"},
    {"lavamd", 's', 0, 80520,
     "b5b0bbe623663309253f88bc4461bc8b4164697f86f67ea443ca5207540ca7df"},
    {"lavamd", 'v', 128, 22313,
     "0ca78781afb9f22a3032b3d8bcc3725406320114314f768bf55f1ee705ac2e20"},
    {"lavamd", 'v', 512, 5585,
     "bf809dfaacd1c79fad0824c02675130912767a553012f76f4e5d9dc92b365542"},
    {"lavamd", 'v', 2048, 1403,
     "d33bbfa68174f4360ce9ee1949d22ad6be974db0d1963ffaa71239f5900198b1"},
    {"sw", 's', 0, 35455,
     "390ed20f4ab994d1f53efdf14afaae8099e2503e020066d36613c8c091b1a4df"},
    {"sw", 'v', 128, 22492,
     "907f75660b60455b8a2a671aaaf08116c24b0f3c90250c8c321384c97093c812"},
    {"sw", 'v', 512, 15982,
     "a29e9c349000ef9df85ee257da26f75e58cce7857bb6c7bcf8e636b4b6884354"},
    {"sw", 'v', 2048, 14897,
     "40a7ede0e4e32e5916555a3e559585829bca510eafb2d7b832c875432b85fc80"},
};

struct PayloadPin
{
    const char *workload;
    Design design;
    std::uint64_t ffInsts;
    const char *sha;
};

const PayloadPin kPayloadPins[] = {
    {"vvadd", Design::d1bIV, 771,
     "262f2ebccb2a8c0d62016613f1e1c3c18ca49f896c02f5d65748ac9b916d2619"},
    {"vvadd", Design::d1bDV, 51,
     "366861328a33ce7ebfbe51a93d9fdeb2c0dcbd1e48274c98918b36ff72fe1ba2"},
    {"vvadd", Design::d1b4VL, 195,
     "a71fe43e2e1fe17ab80128007ad866d877cb2f3b23146842dcb5a7511ad3d970"},
    {"mmult", Design::d1bIV, 6939,
     "bdb9ddf1a3208ba927e5f625006560731d7cb5435dd37c4f06a257197b6bbcf5"},
    {"mmult", Design::d1bDV, 3099,
     "1e565c660b5680452fd9fbc96d613e2c3c6e0ff9362f26bd2352e5ddf62013ab"},
    {"mmult", Design::d1b4VL, 3099,
     "1e565c660b5680452fd9fbc96d613e2c3c6e0ff9362f26bd2352e5ddf62013ab"},
    {"saxpy", Design::d1bIV, 707,
     "774c7d986d534544838886f02ca3c5b387c754dcbf0c19eeffbee5dac1bfaaa2"},
    {"saxpy", Design::d1bDV, 47,
     "8676018c787d4c7804b75599209198e336a656a208c9bf15b6f83318358d0459"},
    {"saxpy", Design::d1b4VL, 179,
     "ad25847865b00cc7a970e05fbd34c18004bdf908d5612017efd7f4d5270ba95d"},
    {"backprop", Design::d1bIV, 3428,
     "f348eb922014008fc4637d447795fa5675d946700bfad9995c3be90b91efb1d0"},
    {"backprop", Design::d1bDV, 218,
     "2c77c8aee8f0e7ae7235416dfa032382980419c81b140c80b91f0b9df4f9f576"},
    {"backprop", Design::d1b4VL, 860,
     "469ec5c8044e087e248556c7a11b0cd5dc61c38ba1c0124108ee3c3a4d86fbba"},
    {"kmeans", Design::d1bIV, 31620,
     "05e3115c4689ffc7e4b1abb90047a44322e9b4d8aff100b3f48cbf3a7c05c3e5"},
    {"kmeans", Design::d1bDV, 1980,
     "0ffc90934164323705f070bfa8177a8957fcb4a58f1a434f61ca5812ccbd244f"},
    {"kmeans", Design::d1b4VL, 7908,
     "cd9acfef9970da08b01fa6dca4486ee08cf888a82fa3621efdcbe19f34d7028c"},
    {"blackscholes", Design::d1bIV, 3395,
     "53c5ba7f634a47f300c1609686d2bb396915337686e3fb1e2e73ad2c1fcc67af"},
    {"blackscholes", Design::d1bDV, 215,
     "f3dd3ffe7fe47a790df84c01ecfeb48f81beb8e68ec2d279e214a0d8accbc54c"},
    {"blackscholes", Design::d1b4VL, 851,
     "26013357052f7abd0575018f2a984b857f3a1de935945b60b1480e0dd46b5d6d"},
    {"particlefilter", Design::d1bIV, 1769,
     "3ccf48b33834d80ed324c8ceedb2dee17defc4c039c01ec0b58d201a32ae7e57"},
    {"particlefilter", Design::d1bDV, 119,
     "6b4368a5e09a63e531ea759559212288dc8309e92d9cf314c0c4e8b41c4a326e"},
    {"particlefilter", Design::d1b4VL, 449,
     "0c8dc81dfb37db687b8510f885c18f6e7ff6bffe0273699cb19fbbe455f8b1e4"},
    {"jacobi-2d", Design::d1bIV, 9284,
     "b74dc9172ffe7bfa9d8b69455a7844d80120f5a2879cc650beb08e5d703f84d7"},
    {"jacobi-2d", Design::d1bDV, 884,
     "81ddf8c6248a315efbdc2823b70c3026b2ea2984f181a62d06f456d2dbe9c3cf"},
    {"jacobi-2d", Design::d1b4VL, 2564,
     "caf5928dd41905104d5693a52c06a3960818be6641778eca1135cfbd9a43ffa4"},
    {"pathfinder", Design::d1bIV, 2705,
     "283fd2ef5ca95cc004dfea624ab208164daa0eff01d84b7b5231e9a1d782b9ac"},
    {"pathfinder", Design::d1bDV, 185,
     "7305af671f4e0f0a192bb2454d535cd5966b3869fa2489fb8b4f284276ca9b7c"},
    {"pathfinder", Design::d1b4VL, 689,
     "aa7540c7207c28b1fbb22b732652300c134c7e23841f27e32381dbab89af7dbd"},
    {"lavamd", Design::d1bIV, 11156,
     "c17043a4aabe24c06ca80daf90d4cb0e2e8dd41eb89d48f155f682fb87c8fc65"},
    {"lavamd", Design::d1bDV, 701,
     "0d13223157552e7ff215b0fa14a61cef36fafb5f9bd586fa544bca36338f0fd9"},
    {"lavamd", Design::d1b4VL, 2792,
     "983d93b7daa9e02fc1f93d76ca1a5b9c95032ae98d9b95c546acacf834a79e32"},
    {"sw", Design::d1bIV, 11246,
     "349ecaffb5638812de6909241b3ccd73cb1524a75ff1f195fe6aaf851c1d78ca"},
    {"sw", Design::d1bDV, 7448,
     "923835b807ca8ba4bc61e0ddbb02cf5826b937f1f177e6bc576794d6c2771294"},
    {"sw", Design::d1b4VL, 7991,
     "6cf093cb051f5d1f71cb657070ddb795427256dec057425b10e0f7d3f3738986"},
};

template <class T>
void
put(std::string &buf, T v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

struct StepDigest
{
    std::uint64_t insts = 0;
    std::string sha;
};

/** Step @p prog from @p wl's full-range arguments to its halt,
 *  digesting every trace, then the final registers and memory. */
StepDigest
digestRun(Workload &wl, const Program &prog, unsigned vlen)
{
    BackingStore mem;
    wl.init(mem);
    ArchState arch(vlen);
    arch.seed(wl.fullRangeArgs());
    ExecTrace tr;
    Sha256 h;
    std::string rec;
    StepDigest out;
    while (!arch.halted && arch.pc < prog.size()) {
        stepOne(arch, prog, mem, tr);
        ++out.insts;
        EXPECT_EQ(tr.inst, &prog.at(tr.pc));
        rec.clear();
        put(rec, tr.pc);
        put(rec, tr.nextPc);
        put(rec, tr.inst->op);
        put(rec, tr.isBranch);
        put(rec, tr.taken);
        put(rec, tr.isMem);
        put(rec, tr.isStore);
        put(rec, tr.addr);
        put(rec, tr.size);
        put(rec, tr.isVec);
        put(rec, tr.vl);
        put(rec, tr.sew);
        put(rec, tr.halted);
        put(rec, std::uint64_t(tr.elemAddrs.size()));
        for (Addr a : tr.elemAddrs)
            put(rec, a);
        h.update(rec.data(), rec.size());
    }
    std::string state;
    arch.dumpState(state);
    h.update(state.data(), state.size());
    for (const auto &[num, page] : mem.sortedPages()) {
        h.update(&num, sizeof(num));
        h.update(page->data(), page->size());
    }
    out.sha = h.hex();
    return out;
}

const StepPin *
findStepPin(const std::string &wl, char program, unsigned vlen)
{
    for (const StepPin &p : kStepPins)
        if (wl == p.workload && p.program == program && p.vlen == vlen)
            return &p;
    return nullptr;
}

/** The pin row @p d would be, for a re-pin. */
std::string
stepRow(const std::string &wl, char program, unsigned vlen,
        const StepDigest &d)
{
    return "    {\"" + wl + "\", '" + program + "', " +
           std::to_string(vlen) + ", " + std::to_string(d.insts) +
           ",\n     \"" + d.sha + "\"},";
}

TEST(OraclePinTest, EveryProgramStepsAsPinned)
{
    std::size_t checked = 0;
    for (const WorkloadRow &row : workloadTable()) {
        WorkloadPtr wl = row.make(Scale::tiny);
        ProgramPtr scalar = wl->scalarProgram();
        if (!scalar)
            continue;   // a task graph only: no single stream to pin
        StepDigest first = digestRun(*wl, *scalar, 128);
        for (unsigned vlen : {512u, 2048u}) {
            StepDigest d = digestRun(*wl, *scalar, vlen);
            EXPECT_EQ(d.insts, first.insts) << row.name << " @" << vlen;
            EXPECT_EQ(d.sha, first.sha) << row.name << " @" << vlen;
        }
        const StepPin *pin = findStepPin(row.name, 's', 0);
        EXPECT_TRUE(pin && pin->insts == first.insts &&
                    pin->sha == first.sha)
            << "re-pin:\n" << stepRow(row.name, 's', 0, first);
        ++checked;

        ProgramPtr vec = wl->vectorProgram();
        if (!vec)
            continue;
        for (unsigned vlen : {128u, 512u, 2048u}) {
            StepDigest d = digestRun(*wl, *vec, vlen);
            pin = findStepPin(row.name, 'v', vlen);
            EXPECT_TRUE(pin && pin->insts == d.insts && pin->sha == d.sha)
                << "re-pin:\n" << stepRow(row.name, 'v', vlen, d);
            ++checked;
        }
    }
    // Every pin names a program that still exists.
    EXPECT_EQ(checked, std::size(kStepPins));
}

std::string
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

/** Half the dynamic count of @p app's vector program at @p vlen: a
 *  prefix that ends well inside the program. */
std::uint64_t
halfwayPrefix(const std::string &app, unsigned vlen)
{
    WorkloadPtr wl = makeWorkload(app, Scale::tiny);
    BackingStore mem;
    wl->init(mem);
    ArchState arch(vlen);
    arch.seed(wl->fullRangeArgs());
    return runFunctional(arch, *wl->vectorProgram(), mem) / 2;
}

TEST(OraclePinTest, CheckpointPayloadsAsPinned)
{
    const char *const apps[] = {"vvadd", "mmult", "saxpy", "backprop",
                                "kmeans", "blackscholes",
                                "particlefilter", "jacobi-2d",
                                "pathfinder", "lavamd", "sw"};
    const struct
    {
        Design design;
        unsigned vlen;
    } designs[] = {{Design::d1bIV, integratedVuPreset().vlenBits()},
                   {Design::d1bDV, decoupledVePreset().vlenBits()},
                   {Design::d1b4VL, vlittlePreset().vlenBits()}};
    std::string dir = ::testing::TempDir() + "bvl_oracle_pins_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::size_t checked = 0;
    for (const char *app : apps) {
        for (const auto &[design, vlen] : designs) {
            std::string ck = dir + "/" + app + "." + designName(design) +
                             ".bvl";
            RunOptions o;
            o.checkpoint.path = ck;
            o.checkpoint.ffInsts = halfwayPrefix(app, vlen);
            RunResult r = runWorkload(design, app, Scale::tiny, o);
            ASSERT_TRUE(r.ok()) << app << " " << designName(design)
                                << ": " << r.message;
            EXPECT_TRUE(r.verified) << app << " " << designName(design);
            std::string bytes = readBytes(ck);
            std::string sha =
                sha256Hex(std::string_view(bytes).substr(
                    bytes.find('\n') + 1));
            const PayloadPin *pin = nullptr;
            for (const PayloadPin &p : kPayloadPins)
                if (std::string(app) == p.workload && p.design == design)
                    pin = &p;
            EXPECT_TRUE(pin && pin->ffInsts == o.checkpoint.ffInsts &&
                        pin->sha == sha)
                << "re-pin:\n    {\"" << app << "\", Design::"
                << (design == Design::d1bIV   ? "d1bIV"
                    : design == Design::d1bDV ? "d1bDV"
                                              : "d1b4VL")
                << ", " << o.checkpoint.ffInsts << ",\n     \"" << sha
                << "\"},";
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kPayloadPins));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace bvl
