#include "isa/arch_state.hh"

#include <cmath>
#include <cstring>
#include <type_traits>

#include "sim/logging.hh"

namespace bvl
{

namespace
{

double
bitsToFp(std::uint64_t raw, unsigned ew)
{
    if (ew == 4) {
        float fv;
        std::uint32_t lo = static_cast<std::uint32_t>(raw);
        std::memcpy(&fv, &lo, 4);
        return fv;
    }
    double dv;
    std::memcpy(&dv, &raw, 8);
    return dv;
}

std::uint64_t
fpToBits(double value, unsigned ew)
{
    if (ew == 4) {
        float fv = static_cast<float>(value);
        std::uint32_t lo;
        std::memcpy(&lo, &fv, 4);
        return lo;
    }
    std::uint64_t raw;
    std::memcpy(&raw, &value, 8);
    return raw;
}

/** Binary FP op computed at the operand width. */
double
fpBinOp(Op op, double a, double b)
{
    switch (op) {
      case Op::fadd: case Op::vfadd: return a + b;
      case Op::fsub: case Op::vfsub: return a - b;
      case Op::fmul: case Op::vfmul: return a * b;
      case Op::fdiv: case Op::vfdiv: return a / b;
      case Op::fmin: case Op::vfmin: return std::fmin(a, b);
      case Op::fmax: case Op::vfmax: return std::fmax(a, b);
      default: panic("fpBinOp: bad op %s", opName(op));
    }
}

std::int64_t
intDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return -1;  // RISC-V semantics
    if (a == INT64_MIN && b == -1)
        return INT64_MIN;
    return a / b;
}

std::int64_t
intRem(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return a;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a % b;
}

/** Binary integer op at full 64-bit width (vector ops mask later). */
std::uint64_t
intBinOp(Op op, std::uint64_t a, std::uint64_t b)
{
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    switch (op) {
      case Op::add: case Op::vadd: return a + b;
      case Op::sub: case Op::vsub: return a - b;
      case Op::and_: case Op::vand: return a & b;
      case Op::or_: case Op::vor: return a | b;
      case Op::xor_: case Op::vxor: return a ^ b;
      case Op::sll: case Op::vsll: return a << (b & 63);
      case Op::srl: case Op::vsrl: return a >> (b & 63);
      case Op::sra: case Op::vsra: return std::uint64_t(sa >> (b & 63));
      case Op::slt: return sa < sb ? 1 : 0;
      case Op::sltu: return a < b ? 1 : 0;
      case Op::mul: case Op::vmul: return a * b;
      case Op::mulh:
        return std::uint64_t((__int128(sa) * __int128(sb)) >> 64);
      case Op::div_: case Op::vdiv: return std::uint64_t(intDiv(sa, sb));
      case Op::rem: case Op::vrem: return std::uint64_t(intRem(sa, sb));
      case Op::min_: case Op::vmin: return sa < sb ? a : b;
      case Op::max_: case Op::vmax: return sa > sb ? a : b;
      default: panic("intBinOp: bad op %s", opName(op));
    }
}

/** Truncate a 64-bit value to @p ew bytes. */
std::uint64_t
truncTo(std::uint64_t v, unsigned ew)
{
    if (ew >= 8)
        return v;
    return v & ((std::uint64_t(1) << (ew * 8)) - 1);
}

/** Sign-extend the low @p ew bytes of @p v. */
std::int64_t
sext(std::uint64_t v, unsigned ew)
{
    unsigned shift = 64 - ew * 8;
    return static_cast<std::int64_t>(v << shift) >> shift;
}

/**
 * Run @p body with the element width as a compile-time constant (the
 * legal widths are 1, 2, 4 and 8; the mobile kernel tier computes on
 * int8/int16 elements, the float kernels on 4/8). The per-element
 * loops below are the functional model's hot path — fast-forward
 * executes whole vector programs through them — and a constant width
 * turns every vecGet/vecSet memcpy into a single fixed-size load or
 * store.
 */
template <typename Body>
inline void
withEw(unsigned ew, Body &&body)
{
    switch (ew) {
      case 1: body(std::integral_constant<unsigned, 1>{}); break;
      case 2: body(std::integral_constant<unsigned, 2>{}); break;
      case 4: body(std::integral_constant<unsigned, 4>{}); break;
      default: body(std::integral_constant<unsigned, 8>{}); break;
    }
}

} // namespace

void
stepOne(ArchState &st, const Program &prog, BackingStore &mem,
        ExecTrace &tr)
{
    const Instr &in = prog.at(st.pc);
    // Rewrite every field: a flag left over from the previous
    // instruction would silently change timing. The address buffer is
    // parked across the reset so it keeps its capacity.
    std::vector<Addr> addrs = std::move(tr.elemAddrs);
    addrs.clear();
    tr = ExecTrace{};
    tr.elemAddrs = std::move(addrs);
    tr.inst = &in;
    tr.pc = st.pc;
    tr.nextPc = st.pc + 1;
    tr.isVec = in.isVector();
    tr.vl = st.vl;
    tr.sew = st.sew;

    auto branchTo = [&](bool taken) {
        tr.isBranch = true;
        tr.taken = taken;
        if (taken) {
            bvl_assert(in.target >= 0, "unresolved branch target in %s",
                       prog.name().c_str());
            tr.nextPc = static_cast<std::uint64_t>(in.target);
        }
    };

    /** Scalar source of a .vx/.vf/.vi vector operand form. */
    auto vecScalarSrc = [&]() -> std::uint64_t {
        switch (in.vsrc) {
          case VSrc2::vx: return st.getX(in.rs2);
          case VSrc2::vf: return st.getF(in.rs2);
          case VSrc2::vi: return static_cast<std::uint64_t>(in.imm);
          default: panic("vector op lacks scalar operand form");
        }
    };

    switch (in.op) {
      // ----- control / misc --------------------------------------------
      case Op::nop:
        break;
      case Op::halt:
        tr.halted = true;
        st.halted = true;
        break;
      case Op::li:
        st.setX(in.rd, static_cast<std::uint64_t>(in.imm));
        break;

      // ----- scalar integer --------------------------------------------
      case Op::add: case Op::sub: case Op::and_: case Op::or_:
      case Op::xor_: case Op::sll: case Op::srl: case Op::sra:
      case Op::slt: case Op::sltu: case Op::mul: case Op::mulh:
      case Op::div_: case Op::rem: case Op::min_: case Op::max_:
        st.setX(in.rd, intBinOp(in.op, st.getX(in.rs1), st.getX(in.rs2)));
        break;

      case Op::addi:
        st.setX(in.rd, st.getX(in.rs1) + std::uint64_t(in.imm));
        break;
      case Op::andi:
        st.setX(in.rd, st.getX(in.rs1) & std::uint64_t(in.imm));
        break;
      case Op::ori:
        st.setX(in.rd, st.getX(in.rs1) | std::uint64_t(in.imm));
        break;
      case Op::xori:
        st.setX(in.rd, st.getX(in.rs1) ^ std::uint64_t(in.imm));
        break;
      case Op::slli:
        st.setX(in.rd, st.getX(in.rs1) << (in.imm & 63));
        break;
      case Op::srli:
        st.setX(in.rd, st.getX(in.rs1) >> (in.imm & 63));
        break;
      case Op::srai:
        st.setX(in.rd, std::uint64_t(
            static_cast<std::int64_t>(st.getX(in.rs1)) >> (in.imm & 63)));
        break;
      case Op::slti:
        st.setX(in.rd, static_cast<std::int64_t>(st.getX(in.rs1)) < in.imm
                ? 1 : 0);
        break;

      // ----- scalar FP ---------------------------------------------------
      case Op::fadd: case Op::fsub: case Op::fmul: case Op::fdiv:
      case Op::fmin: case Op::fmax: {
        double a = bitsToFp(st.getF(in.rs1), in.ew);
        double b = bitsToFp(st.getF(in.rs2), in.ew);
        double r = fpBinOp(in.op == Op::fadd ? Op::fadd :
                           in.op == Op::fsub ? Op::fsub :
                           in.op == Op::fmul ? Op::fmul :
                           in.op == Op::fdiv ? Op::fdiv :
                           in.op == Op::fmin ? Op::fmin : Op::fmax, a, b);
        if (in.ew == 4)
            r = static_cast<float>(r);
        st.setF(in.rd, fpToBits(r, in.ew));
        break;
      }
      case Op::fsqrt: {
        double a = bitsToFp(st.getF(in.rs1), in.ew);
        st.setF(in.rd, fpToBits(std::sqrt(a), in.ew));
        break;
      }
      case Op::fneg: {
        double a = bitsToFp(st.getF(in.rs1), in.ew);
        st.setF(in.rd, fpToBits(-a, in.ew));
        break;
      }
      case Op::fabs_: {
        double a = bitsToFp(st.getF(in.rs1), in.ew);
        st.setF(in.rd, fpToBits(std::fabs(a), in.ew));
        break;
      }
      case Op::fmadd: {
        if (in.ew == 4) {
            float a = float(bitsToFp(st.getF(in.rs1), 4));
            float b = float(bitsToFp(st.getF(in.rs2), 4));
            float c = float(bitsToFp(st.getF(in.rs3), 4));
            st.setF(in.rd, fpToBits(std::fma(a, b, c), 4));
        } else {
            double a = bitsToFp(st.getF(in.rs1), 8);
            double b = bitsToFp(st.getF(in.rs2), 8);
            double c = bitsToFp(st.getF(in.rs3), 8);
            st.setF(in.rd, fpToBits(std::fma(a, b, c), 8));
        }
        break;
      }
      case Op::fcvt_f_x:
        st.setF(in.rd, fpToBits(
            double(static_cast<std::int64_t>(st.getX(in.rs1))), in.ew));
        break;
      case Op::fcvt_x_f:
        st.setX(in.rd, std::uint64_t(static_cast<std::int64_t>(
            bitsToFp(st.getF(in.rs1), in.ew))));
        break;
      case Op::fmv_f_x:
        st.setF(in.rd, st.getX(in.rs1));
        break;
      case Op::fmv_x_f:
        st.setX(in.rd, st.getF(in.rs1));
        break;
      case Op::feq:
        st.setX(in.rd, bitsToFp(st.getF(in.rs1), in.ew) ==
                       bitsToFp(st.getF(in.rs2), in.ew) ? 1 : 0);
        break;
      case Op::flt:
        st.setX(in.rd, bitsToFp(st.getF(in.rs1), in.ew) <
                       bitsToFp(st.getF(in.rs2), in.ew) ? 1 : 0);
        break;
      case Op::fle:
        st.setX(in.rd, bitsToFp(st.getF(in.rs1), in.ew) <=
                       bitsToFp(st.getF(in.rs2), in.ew) ? 1 : 0);
        break;

      // ----- scalar memory ---------------------------------------------
      case Op::load: {
        Addr addr = st.getX(in.rs1) + std::uint64_t(in.imm);
        std::uint64_t raw = mem.readInt(addr, in.ew);
        std::uint64_t value =
            in.sign && !isFReg(in.rd) ? std::uint64_t(sext(raw, in.ew))
                                      : raw;
        if (isFReg(in.rd))
            st.setF(in.rd, raw);
        else
            st.setX(in.rd, value);
        tr.isMem = true;
        tr.addr = addr;
        tr.size = in.ew;
        break;
      }
      case Op::store: {
        Addr addr = st.getX(in.rs1) + std::uint64_t(in.imm);
        std::uint64_t value = st.getScalar(in.rs2);
        mem.writeInt(addr, value, in.ew);
        tr.isMem = true;
        tr.isStore = true;
        tr.addr = addr;
        tr.size = in.ew;
        break;
      }

      // ----- branches ----------------------------------------------------
      case Op::beq:
        branchTo(st.getX(in.rs1) == st.getX(in.rs2));
        break;
      case Op::bne:
        branchTo(st.getX(in.rs1) != st.getX(in.rs2));
        break;
      case Op::blt:
        branchTo(static_cast<std::int64_t>(st.getX(in.rs1)) <
                 static_cast<std::int64_t>(st.getX(in.rs2)));
        break;
      case Op::bge:
        branchTo(static_cast<std::int64_t>(st.getX(in.rs1)) >=
                 static_cast<std::int64_t>(st.getX(in.rs2)));
        break;
      case Op::bltu:
        branchTo(st.getX(in.rs1) < st.getX(in.rs2));
        break;
      case Op::bgeu:
        branchTo(st.getX(in.rs1) >= st.getX(in.rs2));
        break;
      case Op::jump:
        branchTo(true);
        break;

      // ----- vector configuration ----------------------------------------
      case Op::vsetvli: {
        unsigned new_sew = in.ew;
        std::uint64_t avl = in.rs1 == regIdInvalid ? st.vlmax(new_sew)
                                                   : st.getX(in.rs1);
        std::uint32_t new_vl = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(avl, st.vlmax(new_sew)));
        st.sew = static_cast<std::uint8_t>(new_sew);
        st.vl = new_vl;
        st.setX(in.rd, new_vl);
        tr.vl = new_vl;
        tr.sew = st.sew;
        break;
      }

      // ----- vector integer arithmetic ------------------------------------
      case Op::vadd: case Op::vsub: case Op::vmul: case Op::vdiv:
      case Op::vrem: case Op::vmin: case Op::vmax: case Op::vand:
      case Op::vor: case Op::vxor: case Op::vsll: case Op::vsrl:
      case Op::vsra: {
        bool vv = in.vsrc == VSrc2::vv;
        std::uint64_t sb = vv ? 0 : vecScalarSrc();
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned ew = decltype(ewc)::value;
            for (unsigned i = 0; i < st.vl; ++i) {
                if (!st.active(in, i))
                    continue;
                auto a = std::uint64_t(st.vecGetS(in.rs1, i, ew));
                std::uint64_t b =
                    vv ? std::uint64_t(st.vecGetS(in.rs2, i, ew)) : sb;
                st.vecSet(in.rd, i, ew,
                          truncTo(intBinOp(in.op, a, b), ew));
            }
        });
        break;
      }

      // ----- vector width conversion ---------------------------------------
      case Op::vzext2: case Op::vsext2: {
        // vd[i] (2*ew) = extend(vs1[i] (ew)). Source elements are read
        // into a buffer first: vd may alias vs1, and a dest element
        // overlaps two narrower source elements. vl never exceeds
        // VLMAX at 1-byte elements, so maxVlenBytes bounds every
        // per-element scratch buffer here and below.
        unsigned sw = in.ew;
        unsigned dw = 2 * sw;
        bool sign = in.op == Op::vsext2;
        std::uint64_t src[maxVlenBytes];
        for (unsigned i = 0; i < st.vl; ++i)
            src[i] = sign ? std::uint64_t(st.vecGetS(in.rs1, i, sw))
                          : st.vecGet(in.rs1, i, sw);
        for (unsigned i = 0; i < st.vl; ++i)
            if (st.active(in, i))
                st.vecSet(in.rd, i, dw, truncTo(src[i], dw));
        break;
      }
      case Op::vnclip2: {
        // vd[i] (ew) = saturate(sext(vs1[i] (2*ew)) >> imm); Instr::sign
        // selects signed (vnclip) or unsigned (vnclipu) saturation.
        unsigned dw = in.ew;
        unsigned sw = 2 * dw;
        unsigned shamt = static_cast<unsigned>(in.imm) & 63;
        std::int64_t lo = in.sign ? -(std::int64_t(1) << (8 * dw - 1)) : 0;
        std::int64_t hi = in.sign ? (std::int64_t(1) << (8 * dw - 1)) - 1
                                  : (std::int64_t(1) << (8 * dw)) - 1;
        std::int64_t src[maxVlenBytes];
        for (unsigned i = 0; i < st.vl; ++i)
            src[i] = st.vecGetS(in.rs1, i, sw) >> shamt;
        for (unsigned i = 0; i < st.vl; ++i)
            if (st.active(in, i))
                st.vecSet(in.rd, i, dw, truncTo(
                    std::uint64_t(std::min(hi, std::max(lo, src[i]))), dw));
        break;
      }

      // ----- vector FP -----------------------------------------------------
      case Op::vfadd: case Op::vfsub: case Op::vfmul: case Op::vfdiv:
      case Op::vfmin: case Op::vfmax: {
        bool vv = in.vsrc == VSrc2::vv;
        double sb = vv ? 0.0 : bitsToFp(vecScalarSrc(), st.sew);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned ew = decltype(ewc)::value;
            for (unsigned i = 0; i < st.vl; ++i) {
                if (!st.active(in, i))
                    continue;
                double a = bitsToFp(st.vecGet(in.rs1, i, ew), ew);
                double b =
                    vv ? bitsToFp(st.vecGet(in.rs2, i, ew), ew) : sb;
                double r = fpBinOp(in.op, a, b);
                if (ew == 4)
                    r = static_cast<float>(r);
                st.vecSet(in.rd, i, ew, fpToBits(r, ew));
            }
        });
        break;
      }
      case Op::vfsqrt: {
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            double a = bitsToFp(st.vecGet(in.rs1, i, ew), ew);
            st.vecSet(in.rd, i, ew, fpToBits(std::sqrt(a), ew));
        }
        break;
      }
      case Op::vfmacc: case Op::vfnmsac: {
        bool vv = in.vsrc == VSrc2::vv;
        bool macc = in.op == Op::vfmacc;
        double sb = vv ? 0.0 : bitsToFp(vecScalarSrc(), st.sew);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned ew = decltype(ewc)::value;
            for (unsigned i = 0; i < st.vl; ++i) {
                if (!st.active(in, i))
                    continue;
                double a = bitsToFp(st.vecGet(in.rs1, i, ew), ew);
                double b =
                    vv ? bitsToFp(st.vecGet(in.rs2, i, ew), ew) : sb;
                double acc = bitsToFp(st.vecGet(in.rd, i, ew), ew);
                double r = macc ? acc + a * b : acc - a * b;
                if (ew == 4)
                    r = static_cast<float>(r);
                st.vecSet(in.rd, i, ew, fpToBits(r, ew));
            }
        });
        break;
      }

      // ----- vector compares (results into mask layout of vd) -------------
      case Op::vmseq: case Op::vmsne: case Op::vmslt: case Op::vmsle:
      case Op::vmsgt: {
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            std::int64_t a = st.vecGetS(in.rs1, i, ew);
            std::int64_t b = in.vsrc == VSrc2::vv
                ? st.vecGetS(in.rs2, i, ew)
                : sext(vecScalarSrc(), 8);
            bool r = in.op == Op::vmseq ? a == b :
                     in.op == Op::vmsne ? a != b :
                     in.op == Op::vmslt ? a < b :
                     in.op == Op::vmsle ? a <= b : a > b;
            st.setMaskBit(in.rd, i, r);
        }
        break;
      }
      case Op::vmflt: case Op::vmfle: case Op::vmfeq: {
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            double a = bitsToFp(st.vecGet(in.rs1, i, ew), ew);
            double b = in.vsrc == VSrc2::vv
                ? bitsToFp(st.vecGet(in.rs2, i, ew), ew)
                : bitsToFp(vecScalarSrc(), ew);
            bool r = in.op == Op::vmflt ? a < b :
                     in.op == Op::vmfle ? a <= b : a == b;
            st.setMaskBit(in.rd, i, r);
        }
        break;
      }

      // ----- mask logical ---------------------------------------------------
      case Op::vmand: case Op::vmor: case Op::vmxor: case Op::vmnot: {
        for (unsigned i = 0; i < st.vl; ++i) {
            bool a = st.maskBit(in.rs1, i);
            bool b = in.rs2 != regIdInvalid && st.maskBit(in.rs2, i);
            bool r = in.op == Op::vmand ? (a && b) :
                     in.op == Op::vmor ? (a || b) :
                     in.op == Op::vmxor ? (a != b) : !a;
            st.setMaskBit(in.rd, i, r);
        }
        break;
      }

      // ----- vector moves / merge / id --------------------------------------
      case Op::vmerge: {
        // vv: vd[i] = v0[i] ? vs1[i] : vs2[i]
        // vx/vf/vi: vd[i] = v0[i] ? scalar(rs1) : vs2[i]
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            std::uint64_t tval;
            switch (in.vsrc) {
              case VSrc2::vv: tval = st.vecGet(in.rs1, i, ew); break;
              case VSrc2::vx: tval = truncTo(st.getX(in.rs1), ew); break;
              case VSrc2::vf: tval = truncTo(st.getF(in.rs1), ew); break;
              default:
                tval = truncTo(std::uint64_t(in.imm), ew);
                break;
            }
            std::uint64_t fval = st.vecGet(in.rs2, i, ew);
            st.vecSet(in.rd, i, ew,
                      st.maskBit(vreg(0), i) ? tval : fval);
        }
        break;
      }
      case Op::vmv: {
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            std::uint64_t value = in.vsrc == VSrc2::vv
                ? st.vecGet(in.rs1, i, ew)
                : truncTo(vecScalarSrc(), ew);
            st.vecSet(in.rd, i, ew, value);
        }
        break;
      }
      case Op::vid: {
        unsigned ew = st.sew;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            st.vecSet(in.rd, i, ew, i);
        }
        break;
      }
      case Op::vmv_s_x:
        if (st.vl > 0)
            st.vecSet(in.rd, 0, st.sew, truncTo(st.getX(in.rs1), st.sew));
        break;
      case Op::vmv_x_s:
        st.setX(in.rd, std::uint64_t(st.vecGetS(in.rs1, 0, st.sew)));
        break;
      case Op::vfmv_s_f:
        if (st.vl > 0)
            st.vecSet(in.rd, 0, st.sew, truncTo(st.getF(in.rs1), st.sew));
        break;
      case Op::vfmv_f_s:
        st.setF(in.rd, st.vecGet(in.rs1, 0, st.sew));
        break;

      // ----- vector memory ----------------------------------------------------
      case Op::vle: case Op::vlse: case Op::vluxei: {
        unsigned ew = in.ew;
        Addr base = st.getX(in.rs1);
        tr.elemAddrs.reserve(st.vl);
        if (in.op == Op::vle && !in.masked) {
            // Unit-stride unmasked: the destination elements are
            // contiguous bytes, so one block read replaces vl
            // element-granular loads. The element addresses are still
            // recorded individually — the VMU timing model and the
            // cache-warming pass consume them per element.
            mem.read(base, st.vecData(in.rd), std::size_t(st.vl) * ew);
            for (unsigned i = 0; i < st.vl; ++i)
                tr.elemAddrs.push_back(base + Addr(ew) * i);
        } else {
            std::int64_t stride = in.op == Op::vlse
                ? static_cast<std::int64_t>(st.getX(in.rs2)) : ew;
            for (unsigned i = 0; i < st.vl; ++i) {
                if (!st.active(in, i))
                    continue;
                Addr addr = in.op == Op::vluxei
                    ? base + st.vecGet(in.rs2, i, ew)
                    : base + Addr(stride) * i;
                st.vecSet(in.rd, i, ew, mem.readInt(addr, ew));
                tr.elemAddrs.push_back(addr);
            }
        }
        tr.isMem = true;
        tr.size = static_cast<std::uint8_t>(ew);
        break;
      }
      case Op::vse: case Op::vsse: case Op::vsuxei: {
        unsigned ew = in.ew;
        Addr base = st.getX(in.rs1);
        RegId data = in.op == Op::vse ? in.rs2 : in.rs3;
        tr.elemAddrs.reserve(st.vl);
        if (in.op == Op::vse && !in.masked) {
            mem.write(base, st.vecData(data), std::size_t(st.vl) * ew);
            for (unsigned i = 0; i < st.vl; ++i)
                tr.elemAddrs.push_back(base + Addr(ew) * i);
        } else {
            std::int64_t stride = in.op == Op::vsse
                ? static_cast<std::int64_t>(st.getX(in.rs2)) : ew;
            for (unsigned i = 0; i < st.vl; ++i) {
                if (!st.active(in, i))
                    continue;
                Addr addr = in.op == Op::vsuxei
                    ? base + st.vecGet(in.rs2, i, ew)
                    : base + Addr(stride) * i;
                mem.writeInt(addr, st.vecGet(data, i, ew), ew);
                tr.elemAddrs.push_back(addr);
            }
        }
        tr.isMem = true;
        tr.isStore = true;
        tr.size = static_cast<std::uint8_t>(ew);
        break;
      }

      // ----- cross-element -----------------------------------------------------
      case Op::vrgather: {
        unsigned ew = st.sew;
        std::uint64_t result[maxVlenBytes];
        for (unsigned i = 0; i < st.vl; ++i) {
            std::uint64_t idx = st.vecGet(in.rs1, i, ew);
            result[i] = idx < st.vlmax(ew) ? st.vecGet(in.rs2, idx, ew) : 0;
        }
        for (unsigned i = 0; i < st.vl; ++i)
            if (st.active(in, i))
                st.vecSet(in.rd, i, ew, result[i]);
        break;
      }
      case Op::vslideup: {
        unsigned ew = st.sew;
        unsigned offset = static_cast<unsigned>(in.imm);
        std::uint64_t result[maxVlenBytes];
        for (unsigned i = offset; i < st.vl; ++i)
            result[i] = st.vecGet(in.rs1, i - offset, ew);
        for (unsigned i = offset; i < st.vl; ++i)
            if (st.active(in, i))
                st.vecSet(in.rd, i, ew, result[i]);
        break;
      }
      case Op::vslidedown: {
        unsigned ew = st.sew;
        unsigned offset = static_cast<unsigned>(in.imm);
        std::uint64_t result[maxVlenBytes];
        for (unsigned i = 0; i < st.vl; ++i) {
            unsigned src = i + offset;
            result[i] = src < st.vlmax(ew) ? st.vecGet(in.rs1, src, ew) : 0;
        }
        for (unsigned i = 0; i < st.vl; ++i)
            if (st.active(in, i))
                st.vecSet(in.rd, i, ew, result[i]);
        break;
      }
      case Op::vredsum: case Op::vredmax: case Op::vredmin: {
        unsigned ew = st.sew;
        std::int64_t acc = in.rs1 != regIdInvalid
            ? st.vecGetS(in.rs1, 0, ew)
            : (in.op == Op::vredsum ? 0 :
               in.op == Op::vredmax ? INT64_MIN : INT64_MAX);
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            std::int64_t e = st.vecGetS(in.rs2, i, ew);
            acc = in.op == Op::vredsum ? acc + e :
                  in.op == Op::vredmax ? std::max(acc, e)
                                       : std::min(acc, e);
        }
        st.vecSet(in.rd, 0, ew, truncTo(std::uint64_t(acc), ew));
        break;
      }
      case Op::vfredsum: case Op::vfredmax: case Op::vfredmin: {
        unsigned ew = st.sew;
        double acc = in.rs1 != regIdInvalid
            ? bitsToFp(st.vecGet(in.rs1, 0, ew), ew)
            : (in.op == Op::vfredsum ? 0.0 :
               in.op == Op::vfredmax ? -INFINITY : INFINITY);
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!st.active(in, i))
                continue;
            double e = bitsToFp(st.vecGet(in.rs2, i, ew), ew);
            acc = in.op == Op::vfredsum ? acc + e :
                  in.op == Op::vfredmax ? std::fmax(acc, e)
                                        : std::fmin(acc, e);
            if (ew == 4)
                acc = static_cast<float>(acc);
        }
        st.vecSet(in.rd, 0, ew, fpToBits(acc, ew));
        break;
      }
      case Op::vpopc: {
        std::uint64_t count = 0;
        for (unsigned i = 0; i < st.vl; ++i)
            if (st.maskBit(in.rs1, i) && st.active(in, i))
                ++count;
        st.setX(in.rd, count);
        break;
      }
      case Op::vfirst: {
        std::int64_t first = -1;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (st.maskBit(in.rs1, i) && st.active(in, i)) {
                first = i;
                break;
            }
        }
        st.setX(in.rd, std::uint64_t(first));
        break;
      }

      case Op::vmfence:
        break;

      case Op::numOps:
        panic("executed numOps sentinel");
    }

    st.pc = tr.nextPc;
}

std::uint64_t
runFunctional(ArchState &state, const Program &prog, BackingStore &mem,
              std::uint64_t maxSteps)
{
    std::uint64_t steps = 0;
    ExecTrace tr;
    while (!state.halted && state.pc < prog.size() && steps < maxSteps) {
        stepOne(state, prog, mem, tr);
        ++steps;
    }
    return steps;
}

} // namespace bvl
