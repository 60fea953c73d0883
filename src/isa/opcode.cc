#include "isa/opcode.hh"

namespace bvl
{

namespace
{

// Shorthand for table construction.
constexpr OpTraits
scalar(const char *name, FuClass fu, bool fp = false)
{
    return OpTraits{name, fu, false, false, false, false, false, fp};
}

constexpr OpTraits
vecArith(const char *name, FuClass fu, bool fp = false)
{
    return OpTraits{name, fu, true, false, false, false, false, fp};
}

constexpr OpTraits
vecMem(const char *name, bool isStore)
{
    return OpTraits{name, FuClass::mem, true, true, isStore, false, false,
                    false};
}

constexpr OpTraits
vecCross(const char *name, FuClass fu, bool writesScalar, bool fp = false)
{
    return OpTraits{name, fu, true, false, false, true, writesScalar, fp};
}

} // namespace

const OpTraits opTraitsTable[] = {
    // scalar control / misc
    scalar("nop", FuClass::nop),
    scalar("halt", FuClass::nop),
    scalar("li", FuClass::intAlu),
    // scalar integer
    scalar("add", FuClass::intAlu),
    scalar("sub", FuClass::intAlu),
    scalar("and", FuClass::intAlu),
    scalar("or", FuClass::intAlu),
    scalar("xor", FuClass::intAlu),
    scalar("sll", FuClass::intAlu),
    scalar("srl", FuClass::intAlu),
    scalar("sra", FuClass::intAlu),
    scalar("slt", FuClass::intAlu),
    scalar("sltu", FuClass::intAlu),
    scalar("addi", FuClass::intAlu),
    scalar("andi", FuClass::intAlu),
    scalar("ori", FuClass::intAlu),
    scalar("xori", FuClass::intAlu),
    scalar("slli", FuClass::intAlu),
    scalar("srli", FuClass::intAlu),
    scalar("srai", FuClass::intAlu),
    scalar("slti", FuClass::intAlu),
    scalar("mul", FuClass::intMul),
    scalar("mulh", FuClass::intMul),
    scalar("div", FuClass::intDiv),
    scalar("rem", FuClass::intDiv),
    scalar("min", FuClass::intAlu),
    scalar("max", FuClass::intAlu),
    // scalar floating point
    scalar("fadd", FuClass::fpAdd, true),
    scalar("fsub", FuClass::fpAdd, true),
    scalar("fmul", FuClass::fpMul, true),
    scalar("fdiv", FuClass::fpDiv, true),
    scalar("fsqrt", FuClass::fpDiv, true),
    scalar("fmin", FuClass::fpAdd, true),
    scalar("fmax", FuClass::fpAdd, true),
    scalar("fmadd", FuClass::fpMul, true),
    scalar("fneg", FuClass::fpAdd, true),
    scalar("fabs", FuClass::fpAdd, true),
    scalar("fcvt.f.x", FuClass::fpAdd, true),
    scalar("fcvt.x.f", FuClass::fpAdd, true),
    scalar("fmv.f.x", FuClass::intAlu, true),
    scalar("fmv.x.f", FuClass::intAlu, true),
    scalar("feq", FuClass::fpAdd, true),
    scalar("flt", FuClass::fpAdd, true),
    scalar("fle", FuClass::fpAdd, true),
    // scalar memory
    scalar("load", FuClass::mem),
    scalar("store", FuClass::mem),
    // control flow
    scalar("beq", FuClass::branch),
    scalar("bne", FuClass::branch),
    scalar("blt", FuClass::branch),
    scalar("bge", FuClass::branch),
    scalar("bltu", FuClass::branch),
    scalar("bgeu", FuClass::branch),
    scalar("jump", FuClass::branch),
    // vector configuration: writes a scalar (the new vl)
    OpTraits{"vsetvli", FuClass::vecCtrl, true, false, false, false, true,
             false},
    // vector integer arithmetic
    vecArith("vadd", FuClass::intAlu),
    vecArith("vsub", FuClass::intAlu),
    vecArith("vmul", FuClass::intMul),
    vecArith("vdiv", FuClass::intDiv),
    vecArith("vrem", FuClass::intDiv),
    vecArith("vmin", FuClass::intAlu),
    vecArith("vmax", FuClass::intAlu),
    vecArith("vand", FuClass::intAlu),
    vecArith("vor", FuClass::intAlu),
    vecArith("vxor", FuClass::intAlu),
    vecArith("vsll", FuClass::intAlu),
    vecArith("vsrl", FuClass::intAlu),
    vecArith("vsra", FuClass::intAlu),
    // vector width conversion
    vecArith("vzext2", FuClass::intAlu),
    vecArith("vsext2", FuClass::intAlu),
    vecArith("vnclip2", FuClass::intAlu),
    // vector floating point
    vecArith("vfadd", FuClass::fpAdd, true),
    vecArith("vfsub", FuClass::fpAdd, true),
    vecArith("vfmul", FuClass::fpMul, true),
    vecArith("vfdiv", FuClass::fpDiv, true),
    vecArith("vfsqrt", FuClass::fpDiv, true),
    vecArith("vfmin", FuClass::fpAdd, true),
    vecArith("vfmax", FuClass::fpAdd, true),
    vecArith("vfmacc", FuClass::fpMul, true),
    vecArith("vfnmsac", FuClass::fpMul, true),
    // vector compares
    vecArith("vmseq", FuClass::intAlu),
    vecArith("vmsne", FuClass::intAlu),
    vecArith("vmslt", FuClass::intAlu),
    vecArith("vmsle", FuClass::intAlu),
    vecArith("vmsgt", FuClass::intAlu),
    vecArith("vmflt", FuClass::fpAdd, true),
    vecArith("vmfle", FuClass::fpAdd, true),
    vecArith("vmfeq", FuClass::fpAdd, true),
    // vector mask / move
    vecArith("vmand", FuClass::intAlu),
    vecArith("vmor", FuClass::intAlu),
    vecArith("vmxor", FuClass::intAlu),
    vecArith("vmnot", FuClass::intAlu),
    vecArith("vmerge", FuClass::intAlu),
    vecArith("vmv", FuClass::intAlu),
    vecArith("vid", FuClass::intAlu),
    vecArith("vmv.s.x", FuClass::intAlu),
    OpTraits{"vmv.x.s", FuClass::intAlu, true, false, false, false, true,
             false},
    vecArith("vfmv.s.f", FuClass::intAlu, true),
    OpTraits{"vfmv.f.s", FuClass::intAlu, true, false, false, false, true,
             true},
    // vector memory
    vecMem("vle", false),
    vecMem("vse", true),
    vecMem("vlse", false),
    vecMem("vsse", true),
    vecMem("vluxei", false),
    vecMem("vsuxei", true),
    // cross-element
    vecCross("vrgather", FuClass::intAlu, false),
    vecCross("vslideup", FuClass::intAlu, false),
    vecCross("vslidedown", FuClass::intAlu, false),
    vecCross("vredsum", FuClass::intAlu, false),
    vecCross("vredmax", FuClass::intAlu, false),
    vecCross("vredmin", FuClass::intAlu, false),
    vecCross("vfredsum", FuClass::fpAdd, false, true),
    vecCross("vfredmax", FuClass::fpAdd, false, true),
    vecCross("vfredmin", FuClass::fpAdd, false, true),
    vecCross("vpopc", FuClass::intAlu, true),
    vecCross("vfirst", FuClass::intAlu, true),
    // memory ordering
    OpTraits{"vmfence", FuClass::vecCtrl, true, false, false, false, false,
             false},
};

static_assert(sizeof(opTraitsTable) / sizeof(opTraitsTable[0]) ==
              static_cast<std::size_t>(Op::numOps),
              "traits table out of sync with Op enum");

} // namespace bvl
