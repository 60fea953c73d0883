/**
 * @file
 * Tables II/III/IV/V for reference: simulated core/memory parameters,
 * the seven evaluated systems, and the workload suite with sizes at
 * each scale.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "vector/engine_presets.hh"

using namespace bvlbench;

namespace
{

void
printEngine(const char *label, const VEngineParams &p)
{
    std::printf("  %-8s lanes=%u chimes=%u packed=%d VLEN=%ub "
                "cmdQ=%u uopQ=%u dataQ=%u vmiuQ=%u ldQ=%u stQ=%u "
                "cam=%u switch=%llucy mem=%s\n",
                label, p.numLanes, p.chimes, p.packed ? 1 : 0,
                p.vlenBits(), p.cmdQueueDepth, p.uopQueueDepth,
                p.dataQueueDepth, p.vmiuQueueDepth, p.loadQueueLines,
                p.storeQueueLines, p.storeCamEntries,
                (unsigned long long)p.switchPenalty,
                p.memPath == VEngineParams::MemPath::bankedL1
                    ? "banked-L1"
                    : p.memPath == VEngineParams::MemPath::bigL1D
                          ? "big-L1D" : "direct-L2");
}

} // namespace

int
main()
{
    std::printf("# Tables II/III: simulated systems\n");
    BigCoreParams bp;
    std::printf("big core: %u-wide fetch/commit, ROB %u, IQ dataflow, "
                "LSQ %u/%u, %u ALU + %u mul/div + %u FP + %u mem "
                "ports, gshare %u-bit\n",
                bp.fetchWidth, bp.robEntries, bp.lsqLoads, bp.lsqStores,
                bp.numIntAlu, bp.numMulDiv, bp.numFp, bp.numMemPorts,
                bp.bpredIndexBits);
    LittleCoreParams lp;
    std::printf("little core: single-issue in-order, LSQ %u, "
                "lat(alu/mul/div/fadd/fmul/fdiv)=%llu/%llu/%llu/%llu/"
                "%llu/%llu\n",
                lp.lsqEntries,
                (unsigned long long)lp.fu.intAlu,
                (unsigned long long)lp.fu.intMul,
                (unsigned long long)lp.fu.intDiv,
                (unsigned long long)lp.fu.fpAdd,
                (unsigned long long)lp.fu.fpMul,
                (unsigned long long)lp.fu.fpDiv);
    MemSystemParams mp;
    std::printf("memory: 32KB 2-way L1I/L1D per little, 64KB 4-way "
                "big L1s, %uKB %u-way shared L2, DRAM %.0fns / "
                "%.1fGB/s\n",
                mp.l2.sizeBytes / 1024, mp.l2.assoc, mp.dram.latencyNs,
                mp.dram.bandwidthGBps);

    std::printf("\nvector engines:\n");
    printEngine("1bIV", integratedVuPreset());
    printEngine("1bDV", decoupledVePreset());
    printEngine("1b-4VL", vlittlePreset());

    std::printf("\n# Tables IV/V: workload suite\n");
    std::printf("data-parallel:");
    for (const auto &n : workloadNames(Suite::dataParallel))
        std::printf(" %s", n.c_str());
    std::printf("\ntask-parallel:");
    for (const auto &n : workloadNames(Suite::taskParallel))
        std::printf(" %s", n.c_str());
    std::printf("\n");
    return 0;
}
