/**
 * @file
 * Functional-unit latency/pipelining parameters shared by the scalar
 * cores and the vector lanes (which re-use the little cores' execution
 * pipelines in vector mode, paper Section III-C).
 */

#ifndef BVL_CPU_FU_PARAMS_HH
#define BVL_CPU_FU_PARAMS_HH

#include <algorithm>
#include <utility>

#include "isa/opcode.hh"
#include "sim/types.hh"

namespace bvl
{

struct FuLatencies
{
    Cycles intAlu = 1;
    Cycles intMul = 3;
    Cycles intDiv = 12;
    Cycles fpAdd = 4;
    Cycles fpMul = 4;
    Cycles fpDiv = 12;
    Cycles mem = 1;      ///< address-generation slot (cache adds latency)
    Cycles branch = 1;

    Cycles
    latency(FuClass fu) const
    {
        switch (fu) {
          case FuClass::intAlu: return intAlu;
          case FuClass::intMul: return intMul;
          case FuClass::intDiv: return intDiv;
          case FuClass::fpAdd: return fpAdd;
          case FuClass::fpMul: return fpMul;
          case FuClass::fpDiv: return fpDiv;
          case FuClass::mem: return mem;
          case FuClass::branch: return branch;
          default: return 1;
        }
    }

    /** Shortest and longest latency over every timed unit. */
    std::pair<Cycles, Cycles>
    latencyRange() const
    {
        return std::minmax({intAlu, intMul, intDiv, fpAdd, fpMul, fpDiv,
                            mem, branch});
    }

    /** Unpipelined units block their FU for the full latency. */
    bool
    pipelined(FuClass fu) const
    {
        return fu != FuClass::intDiv && fu != FuClass::fpDiv;
    }

    /** Is this a long-latency unit for stall classification? */
    static bool
    longLatency(FuClass fu)
    {
        switch (fu) {
          case FuClass::intMul:
          case FuClass::intDiv:
          case FuClass::fpAdd:
          case FuClass::fpMul:
          case FuClass::fpDiv:
            return true;
          default:
            return false;
        }
    }
};

/** What kind of producer made a register pending (stall taxonomy). */
enum class ProducerKind : std::uint8_t
{
    none,
    shortOp,   ///< 1-cycle ALU
    longFu,    ///< mul/div/FP (raw_llfu)
    memory,    ///< load (raw_mem)
    crossElem, ///< VXU data (xelem)
};

/** Stall categories of Figure 7. */
enum class StallCause : std::uint8_t
{
    busy,     ///< issued work this cycle
    simd,     ///< lock-step uop issue blocked by a peer core
    rawMem,   ///< operand waiting on memory
    rawLlfu,  ///< operand waiting on a long-latency unit
    structural, ///< FU or queue structural hazard
    xelem,    ///< waiting on cross-element (VXU) data
    misc,     ///< no work available (fetch stall, empty uop queue, ...)
};

/** Number of StallCause values (size of per-cause stat-handle arrays). */
constexpr unsigned numStallCauses = 7;

inline const char *
stallName(StallCause c)
{
    switch (c) {
      case StallCause::busy: return "busy";
      case StallCause::simd: return "simd";
      case StallCause::rawMem: return "raw_mem";
      case StallCause::rawLlfu: return "raw_llfu";
      case StallCause::structural: return "struct";
      case StallCause::xelem: return "xelem";
      case StallCause::misc: return "misc";
    }
    return "?";
}

} // namespace bvl

#endif // BVL_CPU_FU_PARAMS_HH
