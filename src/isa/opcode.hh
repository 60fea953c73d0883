/**
 * @file
 * Operations of the bvl IR: an RV64-flavoured scalar set plus a
 * RISC-V Vector Extension (RVV 1.0) subset covering everything the
 * paper's workloads need: unit-stride / constant-stride / indexed
 * vector memory, integer and floating-point arithmetic including FMA
 * and division, mask-producing compares, merges, cross-element
 * permutation (vrgather, slides) and reductions, plus vsetvli and the
 * paper's vmfence.
 */

#ifndef BVL_ISA_OPCODE_HH
#define BVL_ISA_OPCODE_HH

#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"

namespace bvl
{

enum class Op : std::uint8_t
{
    // --- scalar control / misc ---
    nop,
    halt,        ///< terminate the program
    li,          ///< rd = imm (64-bit immediate)

    // --- scalar integer ---
    add, sub, and_, or_, xor_, sll, srl, sra, slt, sltu,
    addi, andi, ori, xori, slli, srli, srai, slti,
    mul, mulh, div_, rem,
    min_, max_,  ///< convenience (RV Zbb-style)

    // --- scalar floating point (element width from Instr::ew) ---
    fadd, fsub, fmul, fdiv, fsqrt, fmin, fmax, fmadd,
    fneg, fabs_,
    fcvt_f_x,    ///< rd(f) = (fp) rs1(x)
    fcvt_x_f,    ///< rd(x) = (int) rs1(f), truncating
    fmv_f_x,     ///< move raw bits x -> f
    fmv_x_f,     ///< move raw bits f -> x
    feq, flt, fle,   ///< rd(x) = compare(rs1(f), rs2(f))

    // --- scalar memory (width from Instr::ew, sign from Instr::flag) ---
    load,        ///< rd = mem[rs1 + imm]
    store,       ///< mem[rs1 + imm] = rs2

    // --- control flow (target index in Instr::target) ---
    beq, bne, blt, bge, bltu, bgeu,
    jump,

    // --- vector configuration ---
    vsetvli,     ///< rd(x) = vl = min(rs1(x), VLMAX(ew))

    // --- vector integer arithmetic ---
    vadd, vsub, vmul, vdiv, vrem, vmin, vmax,
    vand, vor, vxor, vsll, vsrl, vsra,

    // --- vector width conversion (source/dest width from Instr::ew) ---
    vzext2,      ///< vd[i] (2*ew) = zext(vs1[i] (ew))
    vsext2,      ///< vd[i] (2*ew) = sext(vs1[i] (ew))
    vnclip2,     ///< vd[i] (ew) = sat(sext(vs1[i] (2*ew)) >> imm)

    // --- vector floating point ---
    vfadd, vfsub, vfmul, vfdiv, vfsqrt, vfmin, vfmax,
    vfmacc,      ///< vd += vs1 * vs2 (fused multiply-add)
    vfnmsac,     ///< vd -= vs1 * vs2

    // --- vector compares (write mask layout into vd) ---
    vmseq, vmsne, vmslt, vmsle, vmsgt,
    vmflt, vmfle, vmfeq,

    // --- vector mask / move ---
    vmand, vmor, vmxor, vmnot,
    vmerge,      ///< vd[i] = mask[i] ? vs1[i] : vs2[i]
    vmv,         ///< vd = vs1 (or splat of scalar for .vx/.vf)
    vid,         ///< vd[i] = i
    vmv_s_x,     ///< vd[0] = rs1(x)
    vmv_x_s,     ///< rd(x) = vs2[0]
    vfmv_s_f,    ///< vd[0] = rs1(f)
    vfmv_f_s,    ///< rd(f) = vs2[0]

    // --- vector memory ---
    vle,         ///< unit-stride load, base rs1
    vse,         ///< unit-stride store, base rs1
    vlse,        ///< strided load, base rs1, byte stride in rs2(x)
    vsse,        ///< strided store
    vluxei,      ///< indexed load, base rs1, byte indices in vs2
    vsuxei,      ///< indexed store

    // --- cross-element ---
    vrgather,    ///< vd[i] = vs2[vs1[i]]
    vslideup,    ///< vd[i+imm] = vs2[i]
    vslidedown,  ///< vd[i] = vs2[i+imm]
    vredsum, vredmax, vredmin,
    vfredsum, vfredmax, vfredmin,
    vpopc,       ///< rd(x) = popcount(mask vs2)
    vfirst,      ///< rd(x) = index of first set mask bit, -1 if none

    // --- memory ordering ---
    vmfence,     ///< scalar/vector memory fence (paper Section III-B)

    numOps
};

/** Functional-unit class an operation executes on. */
enum class FuClass : std::uint8_t
{
    nop,      ///< zero-latency bookkeeping (li, halt, jumps resolve early)
    intAlu,   ///< 1-cycle integer
    intMul,   ///< pipelined multiplier
    intDiv,   ///< iterative divider (unpipelined)
    fpAdd,    ///< FP add/sub/convert/compare
    fpMul,    ///< FP multiply / FMA
    fpDiv,    ///< FP divide / sqrt (unpipelined)
    mem,      ///< load/store port
    branch,   ///< branch resolution
    vecCtrl,  ///< vsetvli / vmfence, handled by the VCU
};

/** Addressing/operand form of the second source of a vector op. */
enum class VSrc2 : std::uint8_t
{
    none,
    vv,   ///< vector-vector
    vx,   ///< vector-scalar(x)
    vf,   ///< vector-scalar(f)
    vi,   ///< vector-immediate
};

/** Static properties of an Op. */
struct OpTraits
{
    const char *mnemonic;
    FuClass fu;
    bool isVector;     ///< any v* instruction (dispatches to an engine)
    bool isVecMem;     ///< vector load/store
    bool isVecStore;   ///< vector store
    bool isCrossElem;  ///< needs the VXU (permutation / reduction)
    bool writesScalar; ///< vector op producing a scalar (x/f) result
    bool isFp;         ///< floating-point datapath
};

/** Static traits indexed by Op (table in opcode.cc). */
extern const OpTraits opTraitsTable[];

/** Look up static traits: an inline table read, since every fetched
 *  instruction asks several times (DESIGN.md §11). */
inline const OpTraits &
opTraits(Op op)
{
    auto idx = static_cast<std::size_t>(op);
    bvl_assert(idx < static_cast<std::size_t>(Op::numOps),
               "bad opcode %zu", idx);
    return opTraitsTable[idx];
}

inline const char *opName(Op op) { return opTraits(op).mnemonic; }

} // namespace bvl

#endif // BVL_ISA_OPCODE_HH
