/**
 * @file
 * Parameter presets instantiating the three vector machines of the
 * paper's evaluation (Table III) from the one parameterized engine
 * model:
 *
 *  - vlittlePreset(): the big.VLITTLE engine of 1b-4VL — 4 lanes
 *    (reconfigured little cores), 2 chimes, packed 32-bit elements
 *    (512-bit VLEN, 8 simple-int / 4 complex-FP 32-bit ops per cycle),
 *    banked shared L1D, L1I-SRAM load/store data queues, 500-cycle
 *    mode switch;
 *  - integratedVuPreset(): the 1bIV unit — 128-bit VLEN, shares two
 *    big-core pipelines (2 lane-equivalents, 4x 32-bit ops/cycle) and
 *    the big core's L1D port, tiny buffers, no switch cost;
 *  - decoupledVePreset(): the 1bDV Tarantula-style engine — 2048-bit
 *    VLEN, 16x 32-bit lanes, 4 chimes, deep command/data buffers,
 *    high-bandwidth direct L2 path.
 */

#ifndef BVL_VECTOR_ENGINE_PRESETS_HH
#define BVL_VECTOR_ENGINE_PRESETS_HH

#include "core/vlittle_engine.hh"

namespace bvl
{

inline VEngineParams
vlittlePreset()
{
    VEngineParams p;
    p.numLanes = 4;
    p.chimes = 2;
    p.packed = true;
    p.cmdQueueDepth = 32;
    p.dataQueueDepth = 8;
    p.laneUopQueueDepth = 4;
    p.vmiuQueueDepth = 16;
    p.loadQueueLines = 16;
    p.storeQueueLines = 16;
    p.storeCamEntries = 8;
    p.switchPenalty = 500;
    p.memPath = VEngineParams::MemPath::bankedL1;
    return p;
}

inline VEngineParams
integratedVuPreset()
{
    VEngineParams p;
    p.numLanes = 2;     // two shared big-core pipelines, 128-bit VLEN
    p.chimes = 1;
    p.packed = true;
    p.cmdQueueDepth = 4;
    p.dataQueueDepth = 2;
    p.laneUopQueueDepth = 2;
    p.vmiuQueueDepth = 4;
    p.loadQueueLines = 4;
    p.storeQueueLines = 4;
    p.storeCamEntries = 4;
    p.switchPenalty = 0;
    p.memPath = VEngineParams::MemPath::bigL1D;  // in-pipeline dispatch
    return p;
}

inline VEngineParams
decoupledVePreset()
{
    VEngineParams p;
    p.numLanes = 8;     // 8x 64-bit lanes = 16x 32-bit ops/cycle
    p.chimes = 4;
    p.packed = true;    // 2048-bit VLEN
    p.cmdQueueDepth = 64;
    p.dataQueueDepth = 16;
    p.laneUopQueueDepth = 8;
    p.vmiuQueueDepth = 32;
    p.loadQueueLines = 64;
    p.storeQueueLines = 64;
    p.storeCamEntries = 16;
    p.switchPenalty = 0;
    p.memPath = VEngineParams::MemPath::directL2;
    return p;
}

} // namespace bvl

#endif // BVL_VECTOR_ENGINE_PRESETS_HH
