/**
 * @file
 * Tables II/III/IV/V for reference: the simulated core and memory
 * parameters, the three vector engines, and the workloads of each
 * suite (the Table IV/V apps and the mobile tier), all printed from
 * the parameter structs and the workload table.
 */

#include <cstdio>
#include <string>

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
                (unsigned long long)p.switchPenalty, enumName(p.memPath));
}

/** "<name> <size>KB <assoc>-way" for one cache. */
std::string
cacheText(const CacheParams &c)
{
    return c.name + " " + std::to_string(c.sizeBytes / 1024) + "KB " +
           std::to_string(c.assoc) + "-way";
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
    std::printf("memory: %s + %s per little core, %s + %s, shared %s, "
                "DRAM %.0fns / %.1fGB/s\n",
                cacheText(mp.littleL1I).c_str(),
                cacheText(mp.littleL1D).c_str(),
                cacheText(mp.bigL1I).c_str(), cacheText(mp.bigL1D).c_str(),
                cacheText(mp.l2).c_str(), mp.dram.latencyNs,
                mp.dram.bandwidthGBps);

    std::printf("\nvector engines:\n");
    printEngine("1bIV", integratedVuPreset());
    printEngine("1bDV", decoupledVePreset());
    printEngine("1b-4VL", vlittlePreset());

    std::printf("\n# Tables IV/V: workload suites\n");
    const std::pair<const char *, Suite> suites[] = {
        {"data-parallel", Suite::dataParallel},
        {"task-parallel", Suite::taskParallel},
        {"mobile", Suite::mobile},
    };
    for (const auto &[label, suite] : suites) {
        std::printf("%s:", label);
        for (const auto &n : workloadNames(suite))
            std::printf(" %s", n.c_str());
        std::printf("\n");
    }
    return 0;
}
