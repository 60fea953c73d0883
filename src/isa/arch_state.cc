#include "isa/arch_state.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "sim/logging.hh"

namespace bvl
{

namespace
{

// --- element access --------------------------------------------------------

template <unsigned EW> struct Elem;
template <> struct Elem<1> { using U = std::uint8_t; using S = std::int8_t; };
template <> struct Elem<2> { using U = std::uint16_t; using S = std::int16_t; };
template <> struct Elem<4> { using U = std::uint32_t; using S = std::int32_t; };
template <> struct Elem<8> { using U = std::uint64_t; using S = std::int64_t; };

/** Zero-extended element @p i of the register bytes at @p reg. */
template <unsigned EW>
inline std::uint64_t
get(const std::uint8_t *reg, unsigned i)
{
    typename Elem<EW>::U v;
    std::memcpy(&v, reg + std::size_t(i) * EW, EW);
    return v;
}

/** Sign-extended element read. */
template <unsigned EW>
inline std::int64_t
getS(const std::uint8_t *reg, unsigned i)
{
    return static_cast<typename Elem<EW>::S>(get<EW>(reg, i));
}

/** Write the low EW bytes of @p value as element @p i. */
template <unsigned EW>
inline void
put(std::uint8_t *reg, unsigned i, std::uint64_t value)
{
    auto v = static_cast<typename Elem<EW>::U>(value);
    std::memcpy(reg + std::size_t(i) * EW, &v, EW);
}

/** Mask bit @p i of the register bytes at @p reg (RVV mask layout). */
inline bool
bit(const std::uint8_t *reg, unsigned i)
{
    return (reg[i / 8] >> (i % 8)) & 1;
}

inline void
setBit(std::uint8_t *reg, unsigned i, bool value)
{
    if (value)
        reg[i / 8] |= std::uint8_t(1u << (i % 8));
    else
        reg[i / 8] &= std::uint8_t(~(1u << (i % 8)));
}

/**
 * The FP value the oracle computes on: the low four bytes as a float
 * at width 4, the bits as a double at every other width. Every FP op
 * computes in double and rounds the result back through fpOut().
 */
template <unsigned EW>
inline double
fpIn(std::uint64_t raw)
{
    if constexpr (EW == 4) {
        float f;
        auto lo = static_cast<std::uint32_t>(raw);
        std::memcpy(&f, &lo, 4);
        return f;
    } else {
        double d;
        std::memcpy(&d, &raw, 8);
        return d;
    }
}

template <unsigned EW>
inline std::uint64_t
fpOut(double value)
{
    if constexpr (EW == 4) {
        float f = static_cast<float>(value);
        std::uint32_t lo;
        std::memcpy(&lo, &f, 4);
        return lo;
    } else {
        std::uint64_t raw;
        std::memcpy(&raw, &value, 8);
        return raw;
    }
}

/**
 * Run @p body with the element width as a compile-time constant (the
 * legal widths are 1, 2, 4 and 8; the mobile kernel tier computes on
 * int8/int16 elements, the float kernels on 4/8), so every element
 * access in the typed loops below is one fixed-size load or store.
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

// --- operations shared by the scalar and vector handlers ---------------

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

using U64 = std::uint64_t;
using S64 = std::int64_t;

/** Integer ops at full 64-bit width (vector handlers truncate). */
struct Add { static U64 op(U64 a, U64 b) { return a + b; } };
struct Sub { static U64 op(U64 a, U64 b) { return a - b; } };
struct And { static U64 op(U64 a, U64 b) { return a & b; } };
struct Or { static U64 op(U64 a, U64 b) { return a | b; } };
struct Xor { static U64 op(U64 a, U64 b) { return a ^ b; } };
struct Sll { static U64 op(U64 a, U64 b) { return a << (b & 63); } };
struct Srl { static U64 op(U64 a, U64 b) { return a >> (b & 63); } };
struct Sra
{ static U64 op(U64 a, U64 b) { return U64(S64(a) >> (b & 63)); } };
struct Slt { static U64 op(U64 a, U64 b) { return S64(a) < S64(b); } };
struct Sltu { static U64 op(U64 a, U64 b) { return a < b; } };
struct Mul { static U64 op(U64 a, U64 b) { return a * b; } };
struct Mulh
{
    static U64
    op(U64 a, U64 b)
    {
        return U64((__int128(S64(a)) * __int128(S64(b))) >> 64);
    }
};
struct Div { static U64 op(U64 a, U64 b) { return U64(intDiv(a, b)); } };
struct Rem { static U64 op(U64 a, U64 b) { return U64(intRem(a, b)); } };
struct Min
{ static U64 op(U64 a, U64 b) { return S64(a) < S64(b) ? a : b; } };
struct Max
{ static U64 op(U64 a, U64 b) { return S64(a) > S64(b) ? a : b; } };

/** FP ops in double. */
struct FAdd { static double op(double a, double b) { return a + b; } };
struct FSub { static double op(double a, double b) { return a - b; } };
struct FMul { static double op(double a, double b) { return a * b; } };
struct FDiv { static double op(double a, double b) { return a / b; } };
/**
 * libm's fmin/fmax with the operands in a fixed order. As builtins the
 * compiler may swap them, and with two NaNs that returns the other
 * payload; called out of line they return the same payload in every
 * build, so a two-NaN result does not depend on the optimizer.
 */
[[gnu::noinline]] double
fminOrdered(double a, double b)
{
    return std::fmin(a, b);
}

[[gnu::noinline]] double
fmaxOrdered(double a, double b)
{
    return std::fmax(a, b);
}

struct FMin
{ static double op(double a, double b) { return fminOrdered(a, b); } };
struct FMax
{ static double op(double a, double b) { return fmaxOrdered(a, b); } };
struct FSqrt { static double op(double a) { return std::sqrt(a); } };
struct FNeg { static double op(double a) { return -a; } };
struct FAbs { static double op(double a) { return std::fabs(a); } };

/** Branch and compare conditions. */
struct Eq { static bool test(S64 a, S64 b) { return a == b; } };
struct Ne { static bool test(S64 a, S64 b) { return a != b; } };
struct Lt { static bool test(S64 a, S64 b) { return a < b; } };
struct Le { static bool test(S64 a, S64 b) { return a <= b; } };
struct Gt { static bool test(S64 a, S64 b) { return a > b; } };
struct Ge { static bool test(S64 a, S64 b) { return a >= b; } };
struct Ltu { static bool test(S64 a, S64 b) { return U64(a) < U64(b); } };
struct Geu { static bool test(S64 a, S64 b) { return U64(a) >= U64(b); } };

struct FLt { static bool test(double a, double b) { return a < b; } };
struct FLe { static bool test(double a, double b) { return a <= b; } };
struct FEq { static bool test(double a, double b) { return a == b; } };

/**
 * Kernels of Exec::vEach. Integer ops compute at 64 bits on
 * sign-extended elements (a .vx scalar enters whole) and truncate; FP
 * ops compute in double and round at SEW; compares write mask bits.
 */
template <class F>
struct IntK
{
    template <unsigned EW> static U64 scalar(U64 raw) { return raw; }
    template <unsigned EW>
    static U64 load(const std::uint8_t *v, unsigned i)
    { return U64(getS<EW>(v, i)); }
    template <unsigned EW>
    static void apply(std::uint8_t *r, unsigned i, U64 a, U64 b)
    { put<EW>(r, i, F::op(a, b)); }
};

template <class F>
struct FpK
{
    template <unsigned EW> static double scalar(U64 raw)
    { return fpIn<EW>(raw); }
    template <unsigned EW>
    static double load(const std::uint8_t *v, unsigned i)
    { return fpIn<EW>(get<EW>(v, i)); }
    template <unsigned EW>
    static void apply(std::uint8_t *r, unsigned i, double a, double b)
    { put<EW>(r, i, fpOut<EW>(F::op(a, b))); }
};

/** vd[i] += a * b (@p Macc) or vd[i] -= a * b, in double. */
template <bool Macc>
struct FmaK : FpK<FAdd>
{
    template <unsigned EW>
    static void
    apply(std::uint8_t *r, unsigned i, double a, double b)
    {
        double acc = fpIn<EW>(get<EW>(r, i));
        put<EW>(r, i, fpOut<EW>(Macc ? acc + a * b : acc - a * b));
    }
};

template <class C>
struct CmpK
{
    template <unsigned EW> static S64 scalar(U64 raw) { return S64(raw); }
    template <unsigned EW>
    static S64 load(const std::uint8_t *v, unsigned i)
    { return getS<EW>(v, i); }
    template <unsigned EW>
    static void apply(std::uint8_t *r, unsigned i, S64 a, S64 b)
    { setBit(r, i, C::test(a, b)); }
};

template <class C>
struct FCmpK : FpK<FAdd>
{
    template <unsigned EW>
    static void apply(std::uint8_t *r, unsigned i, double a, double b)
    { setBit(r, i, C::test(a, b)); }
};

/** How a vector memory access walks its elements. */
enum class Walk { unit, strided, indexed };

} // namespace

/**
 * The instruction handlers. decodeProgram() picks one instantiation
 * per Instr; each writes the whole ExecTrace (begin() the fields every
 * instruction has, then its own) and advances the pc.
 */
struct Exec
{
    static constexpr unsigned xSink = numXRegs;

    static std::uint8_t *vreg(ArchState &st, unsigned r)
    { return st.v[r].data(); }

    /** Fill the fields every instruction writes, advance the pc. With
     *  @p VecMem the handler sizes elemAddrs itself. */
    template <bool VecMem = false>
    static void
    begin(ArchState &st, const DecodedInstr &d, ExecTrace &tr)
    {
        std::uint64_t pc = st.pc;
        tr.inst = d.inst;
        tr.pc = pc;
        tr.nextPc = pc + 1;
        tr.addr = 0;
        if constexpr (!VecMem)
            tr.elemAddrs.clear();
        tr.vl = st.vl;
        tr.sew = st.sew;
        tr.size = 0;
        tr.isBranch = false;
        tr.taken = false;
        tr.isMem = false;
        tr.isStore = false;
        tr.isVec = d.isVec;
        tr.halted = false;
        st.pc = pc + 1;
    }

    /** vl, after the one range check of vl elements of @p ew bytes. */
    static unsigned
    span(const ArchState &st, unsigned ew)
    {
        bvl_assert(std::size_t(st.vl) * ew <= maxVlenBytes,
                   "vl %u of %u-byte elements exceeds a vector register",
                   st.vl, ew);
        return st.vl;
    }

    /** Scalar source of a .vx/.vf/.vi vector operand form. */
    static U64
    scalarSrc(const ArchState &st, const DecodedInstr &d)
    {
        switch (d.vsrc) {
          case VSrc2::vx: return st.x[d.rs2];
          case VSrc2::vf: return st.f[d.rs2];
          case VSrc2::vi: return U64(d.imm);
          default: panic("vector op lacks scalar operand form");
        }
    }

    // ----- control / misc ------------------------------------------------

    static void
    nop(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
    }

    static void
    halt(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        tr.halted = true;
        st.halted = true;
    }

    static void
    li(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = U64(d.imm);
    }

    // ----- scalar integer ------------------------------------------------

    template <class F>
    static void
    rrr(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = F::op(st.x[d.rs1], st.x[d.rs2]);
    }

    template <class F>
    static void
    rri(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = F::op(st.x[d.rs1], U64(d.imm));
    }

    // ----- scalar FP (W: 4 computes on floats, 8 on doubles) -------------

    template <class F, unsigned W>
    static void
    fBin(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.f[d.rd] = fpOut<W>(
            F::op(fpIn<W>(st.f[d.rs1]), fpIn<W>(st.f[d.rs2])));
    }

    template <class F, unsigned W>
    static void
    fUnary(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        st.f[d.rd] = fpOut<W>(F::op(fpIn<W>(st.f[d.rs1])));
    }

    template <unsigned W>
    static void
    fmadd(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        if constexpr (W == 4) {
            auto a = float(fpIn<4>(st.f[d.rs1]));
            auto b = float(fpIn<4>(st.f[d.rs2]));
            auto c = float(fpIn<4>(st.f[d.rs3]));
            st.f[d.rd] = fpOut<4>(std::fma(a, b, c));
        } else {
            st.f[d.rd] = fpOut<8>(std::fma(fpIn<8>(st.f[d.rs1]),
                                           fpIn<8>(st.f[d.rs2]),
                                           fpIn<8>(st.f[d.rs3])));
        }
    }

    template <unsigned W>
    static void
    fcvtFX(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        st.f[d.rd] = fpOut<W>(double(S64(st.x[d.rs1])));
    }

    template <unsigned W>
    static void
    fcvtXF(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = U64(static_cast<S64>(fpIn<W>(st.f[d.rs1])));
    }

    static void
    fmvFX(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.f[d.rd] = st.x[d.rs1];
    }

    static void
    fmvXF(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = st.f[d.rs1];
    }

    template <class C, unsigned W>
    static void
    fCmp(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        st.x[d.rd] = C::test(fpIn<W>(st.f[d.rs1]), fpIn<W>(st.f[d.rs2]));
    }

    // ----- scalar memory -------------------------------------------------

    /** @p ToF loads the raw bits into an f register. */
    template <unsigned W, bool Sign, bool ToF>
    static void
    load(ArchState &st, const DecodedInstr &d, BackingStore &mem,
         ExecTrace &tr)
    {
        begin(st, d, tr);
        Addr addr = st.x[d.rs1] + U64(d.imm);
        U64 raw = mem.readT<typename Elem<W>::U>(addr);
        if constexpr (ToF)
            st.f[d.rd] = raw;
        else if constexpr (Sign)
            st.x[d.rd] = U64(S64(static_cast<typename Elem<W>::S>(raw)));
        else
            st.x[d.rd] = raw;
        tr.isMem = true;
        tr.addr = addr;
        tr.size = W;
    }

    template <unsigned W, bool FromF>
    static void
    store(ArchState &st, const DecodedInstr &d, BackingStore &mem,
          ExecTrace &tr)
    {
        begin(st, d, tr);
        Addr addr = st.x[d.rs1] + U64(d.imm);
        U64 value = FromF ? st.f[d.rs2] : st.x[d.rs2];
        mem.writeT<typename Elem<W>::U>(
            addr, static_cast<typename Elem<W>::U>(value));
        tr.isMem = true;
        tr.isStore = true;
        tr.addr = addr;
        tr.size = W;
    }

    // ----- branches ------------------------------------------------------

    static void
    takeBranch(ArchState &st, const DecodedInstr &d, ExecTrace &tr)
    {
        bvl_assert(d.target >= 0, "unresolved branch target at @%llu",
                   static_cast<unsigned long long>(tr.pc));
        tr.nextPc = st.pc = static_cast<std::uint64_t>(d.target);
    }

    template <class C>
    static void
    branch(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        bool taken = C::test(S64(st.x[d.rs1]), S64(st.x[d.rs2]));
        tr.isBranch = true;
        tr.taken = taken;
        if (taken)
            takeBranch(st, d, tr);
    }

    static void
    jump(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        tr.isBranch = true;
        tr.taken = true;
        takeBranch(st, d, tr);
    }

    // ----- vector configuration -------------------------------------------

    /** @p Avl reads the requested length from rs1, else asks VLMAX. */
    template <unsigned Sew, bool Avl>
    static void
    vsetvli(ArchState &st, const DecodedInstr &d, BackingStore &,
            ExecTrace &tr)
    {
        begin(st, d, tr);
        U64 vlmax = st.vlmax(Sew);
        U64 avl = Avl ? st.x[d.rs1] : vlmax;
        auto vl = static_cast<std::uint32_t>(std::min(avl, vlmax));
        st.sew = Sew;
        st.vl = vl;
        st.x[d.rd] = vl;
        tr.vl = vl;
        tr.sew = Sew;
    }

    // ----- vector arithmetic (typed whole-register loops) ----------------

    /**
     * The element-wise ops: for each active i < vl, kernel K combines
     * vs1[i] with vs2[i] (.vv) or with the scalar operand, converted
     * once, into element (or mask bit) i of vd.
     */
    template <class K, bool VV, bool Masked>
    static void
    vEach(ArchState &st, const DecodedInstr &d, BackingStore &,
          ExecTrace &tr)
    {
        begin(st, d, tr);
        U64 raw = VV ? 0 : scalarSrc(st, d);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const auto sb = K::template scalar<EW>(raw);
            const std::uint8_t *a = vreg(st, d.rs1), *b = vreg(st, d.rs2);
            const std::uint8_t *mask = vreg(st, 0);
            std::uint8_t *r = vreg(st, d.rd);
            for (unsigned i = 0; i < vl; ++i) {
                if (Masked && !bit(mask, i))
                    continue;
                auto x = K::template load<EW>(a, i);
                auto y = VV ? K::template load<EW>(b, i) : sb;
                K::template apply<EW>(r, i, x, y);
            }
        });
    }

    template <bool Masked>
    static void
    vfsqrt(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *a = vreg(st, d.rs1);
            const std::uint8_t *mask = vreg(st, 0);
            std::uint8_t *r = vreg(st, d.rd);
            for (unsigned i = 0; i < vl; ++i)
                if (!Masked || bit(mask, i))
                    put<EW>(r, i,
                            fpOut<EW>(std::sqrt(fpIn<EW>(get<EW>(a, i)))));
        });
    }

    /** vd[i] (2*SW) = extend(vs1[i] (SW)); the source is read whole
     *  first, since vd may alias vs1. */
    template <unsigned SW, bool Sign, bool Masked>
    static void
    vWiden(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        const unsigned vl = span(st, 2 * SW);
        const std::uint8_t *a = vreg(st, d.rs1);
        const std::uint8_t *mask = vreg(st, 0);
        std::uint8_t *r = vreg(st, d.rd);
        U64 src[maxVlenBytes];
        for (unsigned i = 0; i < vl; ++i)
            src[i] = Sign ? U64(getS<SW>(a, i)) : get<SW>(a, i);
        for (unsigned i = 0; i < vl; ++i)
            if (!Masked || bit(mask, i))
                put<2 * SW>(r, i, src[i]);
    }

    /** vd[i] (DW) = saturate(sext(vs1[i] (2*DW)) >> imm), signed or
     *  unsigned bounds. */
    template <unsigned DW, bool Sign, bool Masked>
    static void
    vNarrow(ArchState &st, const DecodedInstr &d, BackingStore &,
            ExecTrace &tr)
    {
        begin(st, d, tr);
        const unsigned vl = span(st, 2 * DW);
        const unsigned shamt = static_cast<unsigned>(d.imm) & 63;
        constexpr S64 lo = Sign ? -(S64(1) << (8 * DW - 1)) : 0;
        constexpr S64 hi = Sign ? (S64(1) << (8 * DW - 1)) - 1
                                : (S64(1) << (8 * DW)) - 1;
        const std::uint8_t *a = vreg(st, d.rs1);
        const std::uint8_t *mask = vreg(st, 0);
        std::uint8_t *r = vreg(st, d.rd);
        S64 src[maxVlenBytes];
        for (unsigned i = 0; i < vl; ++i)
            src[i] = getS<2 * DW>(a, i) >> shamt;
        for (unsigned i = 0; i < vl; ++i)
            if (!Masked || bit(mask, i))
                put<DW>(r, i, U64(std::min(hi, std::max(lo, src[i]))));
    }

    /** vd = vs1 op vs2 over the first vl mask bits, a byte at a time;
     *  bits at and past vl keep their value. @p HasB: vs2 is named
     *  (else it reads as all zeros). */
    template <class F, bool Not, bool HasB>
    static void
    vMaskLogic(ArchState &st, const DecodedInstr &d, BackingStore &,
               ExecTrace &tr)
    {
        begin(st, d, tr);
        const unsigned vl = st.vl;
        const std::uint8_t *a = vreg(st, d.rs1), *b = vreg(st, d.rs2);
        std::uint8_t *r = vreg(st, d.rd);
        for (unsigned byte = 0; byte * 8 < vl; ++byte) {
            unsigned n = std::min(8u, vl - byte * 8);
            auto keep = std::uint8_t(n == 8 ? 0 : 0xff << n);
            U64 x = a[byte], y = HasB ? b[byte] : 0;
            auto v = std::uint8_t(Not ? ~x : F::op(x, y));
            r[byte] = std::uint8_t((r[byte] & keep) | (v & ~keep));
        }
    }

    // ----- vector moves / merge / id -------------------------------------

    /** vd[i] = v0[i] ? (vs1[i] or the scalar in rs1) : vs2[i]. */
    template <bool VV>
    static void
    vmerge(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        U64 t = 0;
        switch (d.vsrc) {
          case VSrc2::vx: t = st.x[d.rs1]; break;
          case VSrc2::vf: t = st.f[d.rs1]; break;
          default: t = U64(d.imm); break;
        }
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *a = vreg(st, d.rs1), *b = vreg(st, d.rs2);
            const std::uint8_t *mask = vreg(st, 0);
            std::uint8_t *r = vreg(st, d.rd);
            for (unsigned i = 0; i < vl; ++i) {
                U64 tv = VV ? get<EW>(a, i) : t;
                U64 fv = get<EW>(b, i);
                put<EW>(r, i, bit(mask, i) ? tv : fv);
            }
        });
    }

    template <bool VV, bool Masked>
    static void
    vmv(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        U64 s = VV ? 0 : scalarSrc(st, d);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *a = vreg(st, d.rs1);
            const std::uint8_t *mask = vreg(st, 0);
            std::uint8_t *r = vreg(st, d.rd);
            for (unsigned i = 0; i < vl; ++i)
                if (!Masked || bit(mask, i))
                    put<EW>(r, i, VV ? get<EW>(a, i) : s);
        });
    }

    template <bool Masked>
    static void
    vid(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *mask = vreg(st, 0);
            std::uint8_t *r = vreg(st, d.rd);
            for (unsigned i = 0; i < vl; ++i)
                if (!Masked || bit(mask, i))
                    put<EW>(r, i, i);
        });
    }

    /** vd[0] = the x (or, with @p FromF, f) register rs1. */
    template <bool FromF>
    static void
    vmvSX(ArchState &st, const DecodedInstr &d, BackingStore &,
          ExecTrace &tr)
    {
        begin(st, d, tr);
        if (st.vl == 0)
            return;
        U64 value = FromF ? st.f[d.rs1] : st.x[d.rs1];
        withEw(st.sew, [&](auto ewc) {
            put<decltype(ewc)::value>(vreg(st, d.rd), 0, value);
        });
    }

    static void
    vmvXS(ArchState &st, const DecodedInstr &d, BackingStore &,
          ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            st.x[d.rd] = U64(getS<decltype(ewc)::value>(vreg(st, d.rs1), 0));
        });
    }

    static void
    vfmvFS(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            st.f[d.rd] = get<decltype(ewc)::value>(vreg(st, d.rs1), 0);
        });
    }

    // ----- vector memory -----------------------------------------------

    /**
     * A vector load or store of EW-byte elements. The element addresses
     * go straight into the trace's buffer, sized once to vl and trimmed
     * to the active count. A unit-stride unmasked access moves the
     * whole [0, vl*EW) span at once.
     */
    template <unsigned EW, Walk W, bool Store, bool Masked>
    static void
    vMem(ArchState &st, const DecodedInstr &d, BackingStore &mem,
         ExecTrace &tr)
    {
        using U = typename Elem<EW>::U;
        begin<true>(st, d, tr);
        tr.isMem = true;
        tr.isStore = Store;
        tr.size = EW;
        const unsigned vl = span(st, EW);
        const Addr base = st.x[d.rs1];
        std::vector<Addr> &addrs = tr.elemAddrs;
        addrs.resize(vl);
        Addr *out = addrs.data();
        std::uint8_t *data = vreg(st, Store ? d.rs3 : d.rd);
        if constexpr (W == Walk::unit && !Masked) {
            if constexpr (Store)
                mem.write(base, data, std::size_t(vl) * EW);
            else
                mem.read(base, data, std::size_t(vl) * EW);
            for (unsigned i = 0; i < vl; ++i)
                out[i] = base + Addr(EW) * i;
            return;
        }
        const Addr stride = W == Walk::strided ? Addr(st.x[d.rs2]) : EW;
        const std::uint8_t *index = vreg(st, d.rs2);
        const std::uint8_t *mask = vreg(st, 0);
        unsigned n = 0;
        for (unsigned i = 0; i < vl; ++i) {
            if (Masked && !bit(mask, i))
                continue;
            Addr addr = W == Walk::indexed ? base + get<EW>(index, i)
                                           : base + stride * i;
            if constexpr (Store)
                mem.writeT<U>(addr, static_cast<U>(get<EW>(data, i)));
            else
                put<EW>(data, i, mem.readT<U>(addr));
            out[n++] = addr;
        }
        addrs.resize(n);
    }

    // ----- cross-element -----------------------------------------------

    /** Write @p result's first vl elements into vd, active ones only. */
    template <unsigned EW, bool Masked>
    static void
    putResult(ArchState &st, const DecodedInstr &d, const U64 *result,
              unsigned from, unsigned vl)
    {
        const std::uint8_t *mask = vreg(st, 0);
        std::uint8_t *r = vreg(st, d.rd);
        for (unsigned i = from; i < vl; ++i)
            if (!Masked || bit(mask, i))
                put<EW>(r, i, result[i]);
    }

    template <bool Masked>
    static void
    vrgather(ArchState &st, const DecodedInstr &d, BackingStore &,
             ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const U64 vlmax = st.vlmax(EW);
            const std::uint8_t *idx = vreg(st, d.rs1), *src = vreg(st, d.rs2);
            U64 result[maxVlenBytes];
            for (unsigned i = 0; i < vl; ++i) {
                U64 j = get<EW>(idx, i);
                result[i] = j < vlmax ? get<EW>(src, unsigned(j)) : 0;
            }
            putResult<EW, Masked>(st, d, result, 0, vl);
        });
    }

    template <bool Up, bool Masked>
    static void
    vslide(ArchState &st, const DecodedInstr &d, BackingStore &,
           ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const unsigned offset = static_cast<unsigned>(d.imm);
            const unsigned vlmax = st.vlmax(EW);
            const std::uint8_t *src = vreg(st, d.rs1);
            U64 result[maxVlenBytes];
            if constexpr (Up) {
                for (unsigned i = offset; i < vl; ++i)
                    result[i] = get<EW>(src, i - offset);
                putResult<EW, Masked>(st, d, result, offset, vl);
            } else {
                for (unsigned i = 0; i < vl; ++i) {
                    unsigned j = i + offset;
                    result[i] = j < vlmax ? get<EW>(src, j) : 0;
                }
                putResult<EW, Masked>(st, d, result, 0, vl);
            }
        });
    }

    /** vd[0] = fold of the active vs2 elements into vs1[0] (or the
     *  op's identity when rs1 names no register). */
    template <class F, bool HasInit, bool Masked>
    static void
    vred(ArchState &st, const DecodedInstr &d, BackingStore &, ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *src = vreg(st, d.rs2);
            const std::uint8_t *mask = vreg(st, 0);
            S64 acc = HasInit ? getS<EW>(vreg(st, d.rs1), 0) : F::identity;
            for (unsigned i = 0; i < vl; ++i)
                if (!Masked || bit(mask, i))
                    acc = F::fold(acc, getS<EW>(src, i));
            put<EW>(vreg(st, d.rd), 0, U64(acc));
        });
    }

    template <class F, bool HasInit, bool Masked>
    static void
    vfred(ArchState &st, const DecodedInstr &d, BackingStore &,
          ExecTrace &tr)
    {
        begin(st, d, tr);
        withEw(st.sew, [&](auto ewc) {
            constexpr unsigned EW = ewc;
            const unsigned vl = span(st, EW);
            const std::uint8_t *src = vreg(st, d.rs2);
            const std::uint8_t *mask = vreg(st, 0);
            double acc = HasInit ? fpIn<EW>(get<EW>(vreg(st, d.rs1), 0))
                                 : F::identity;
            for (unsigned i = 0; i < vl; ++i) {
                if (Masked && !bit(mask, i))
                    continue;
                acc = F::fold(acc, fpIn<EW>(get<EW>(src, i)));
                if (EW == 4)
                    acc = static_cast<float>(acc);
            }
            put<EW>(vreg(st, d.rd), 0, fpOut<EW>(acc));
        });
    }

    /** vpopc (@p First false) or vfirst over mask register rs1. */
    template <bool First, bool Masked>
    static void
    vmaskScan(ArchState &st, const DecodedInstr &d, BackingStore &,
              ExecTrace &tr)
    {
        begin(st, d, tr);
        const std::uint8_t *a = vreg(st, d.rs1);
        const std::uint8_t *mask = vreg(st, 0);
        U64 count = 0;
        S64 first = -1;
        for (unsigned i = 0; i < st.vl; ++i) {
            if (!bit(a, i) || (Masked && !bit(mask, i)))
                continue;
            if (First) {
                first = i;
                break;
            }
            ++count;
        }
        st.x[d.rd] = First ? U64(first) : count;
    }

    // ----- decode ----------------------------------------------------------

    static DecodedInstr decode(const Instr &in);
};

namespace
{

struct RedSum
{
    static constexpr S64 identity = 0;
    static S64 fold(S64 a, S64 b) { return a + b; }
};
struct RedMax
{
    static constexpr S64 identity = INT64_MIN;
    static S64 fold(S64 a, S64 b) { return std::max(a, b); }
};
struct RedMin
{
    static constexpr S64 identity = INT64_MAX;
    static S64 fold(S64 a, S64 b) { return std::min(a, b); }
};
struct FRedSum
{
    static constexpr double identity = 0.0;
    static double fold(double a, double b) { return a + b; }
};
struct FRedMax
{
    static constexpr double identity = -INFINITY;
    // Element first, accumulator second: with two NaNs the order
    // picks which payload the reduction returns.
    static double fold(double a, double b) { return fmaxOrdered(b, a); }
};
struct FRedMin
{
    static constexpr double identity = INFINITY;
    static double fold(double a, double b) { return fminOrdered(b, a); }
};

} // namespace

DecodedInstr
Exec::decode(const Instr &in)
{
    DecodedInstr d;
    d.inst = &in;
    d.imm = in.imm;
    d.target = in.target;
    d.vsrc = in.vsrc;
    d.isVec = in.isVector();

    // Register-file indices. An integer read of no register reads x0;
    // an integer write to x0 goes to the sink. Every other operand
    // indexes its file by the low five bits, as ArchState's accessors
    // do.
    auto xr = [](RegId r) -> std::uint8_t {
        return r == regIdInvalid ? 0 : regIndex(r);
    };
    auto xw = [](RegId r) -> std::uint8_t {
        return regIndex(r) == 0 ? xSink : regIndex(r);
    };
    auto idx = [](RegId r) -> std::uint8_t { return regIndex(r); };

    const bool vv = in.vsrc == VSrc2::vv;
    const bool m = in.masked;
    const unsigned w = in.ew;
    auto widthIs = [&](std::initializer_list<unsigned> ok) {
        bvl_assert(std::find(ok.begin(), ok.end(), w) != ok.end(),
                   "unsupported element width %u in %s", w,
                   in.toString().c_str());
    };
    // A vector operand reads vs2 in the .vv form, else the scalar in
    // rs2 (x or f by the form).
    auto vsrc2 = [&](RegId r) -> std::uint8_t {
        return in.vsrc == VSrc2::vx ? xr(r) : idx(r);
    };

// One handler per (op form, masking) for the vector arithmetic.
#define BVL_VEACH(K)                                                        \
    (vv ? (m ? &vEach<K, true, true> : &vEach<K, true, false>)              \
        : (m ? &vEach<K, false, true> : &vEach<K, false, false>))
#define BVL_MASKED(kernel) (m ? &kernel<true> : &kernel<false>)
#define BVL_FW(kernel) (w == 4 ? &kernel<4> : &kernel<8>)
#define BVL_FW2(kernel, F) (w == 4 ? &kernel<F, 4> : &kernel<F, 8>)

    switch (in.op) {
      // ----- control / misc ---------------------------------------------
      case Op::nop: case Op::vmfence:
        d.exec = &nop;
        break;
      case Op::halt:
        d.exec = &halt;
        break;
      case Op::li:
        d.rd = xw(in.rd);
        d.exec = &li;
        break;

      // ----- scalar integer ---------------------------------------------
      case Op::add: case Op::sub: case Op::and_: case Op::or_:
      case Op::xor_: case Op::sll: case Op::srl: case Op::sra:
      case Op::slt: case Op::sltu: case Op::mul: case Op::mulh:
      case Op::div_: case Op::rem: case Op::min_: case Op::max_:
        d.rd = xw(in.rd);
        d.rs1 = xr(in.rs1);
        d.rs2 = xr(in.rs2);
        switch (in.op) {
          case Op::add: d.exec = &rrr<Add>; break;
          case Op::sub: d.exec = &rrr<Sub>; break;
          case Op::and_: d.exec = &rrr<And>; break;
          case Op::or_: d.exec = &rrr<Or>; break;
          case Op::xor_: d.exec = &rrr<Xor>; break;
          case Op::sll: d.exec = &rrr<Sll>; break;
          case Op::srl: d.exec = &rrr<Srl>; break;
          case Op::sra: d.exec = &rrr<Sra>; break;
          case Op::slt: d.exec = &rrr<Slt>; break;
          case Op::sltu: d.exec = &rrr<Sltu>; break;
          case Op::mul: d.exec = &rrr<Mul>; break;
          case Op::mulh: d.exec = &rrr<Mulh>; break;
          case Op::div_: d.exec = &rrr<Div>; break;
          case Op::rem: d.exec = &rrr<Rem>; break;
          case Op::min_: d.exec = &rrr<Min>; break;
          default: d.exec = &rrr<Max>; break;
        }
        break;

      case Op::addi: case Op::andi: case Op::ori: case Op::xori:
      case Op::slli: case Op::srli: case Op::srai: case Op::slti:
        d.rd = xw(in.rd);
        d.rs1 = xr(in.rs1);
        switch (in.op) {
          case Op::addi: d.exec = &rri<Add>; break;
          case Op::andi: d.exec = &rri<And>; break;
          case Op::ori: d.exec = &rri<Or>; break;
          case Op::xori: d.exec = &rri<Xor>; break;
          case Op::slli: d.exec = &rri<Sll>; break;
          case Op::srli: d.exec = &rri<Srl>; break;
          case Op::srai: d.exec = &rri<Sra>; break;
          default: d.exec = &rri<Slt>; break;
        }
        break;

      // ----- scalar FP -----------------------------------------------------
      case Op::fadd: case Op::fsub: case Op::fmul: case Op::fdiv:
      case Op::fmin: case Op::fmax: case Op::fsqrt: case Op::fneg:
      case Op::fabs_: case Op::fmadd:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = idx(in.rs2);
        d.rs3 = idx(in.rs3);
        switch (in.op) {
          case Op::fadd: d.exec = BVL_FW2(fBin, FAdd); break;
          case Op::fsub: d.exec = BVL_FW2(fBin, FSub); break;
          case Op::fmul: d.exec = BVL_FW2(fBin, FMul); break;
          case Op::fdiv: d.exec = BVL_FW2(fBin, FDiv); break;
          case Op::fmin: d.exec = BVL_FW2(fBin, FMin); break;
          case Op::fmax: d.exec = BVL_FW2(fBin, FMax); break;
          case Op::fsqrt: d.exec = BVL_FW2(fUnary, FSqrt); break;
          case Op::fneg: d.exec = BVL_FW2(fUnary, FNeg); break;
          case Op::fabs_: d.exec = BVL_FW2(fUnary, FAbs); break;
          default: d.exec = BVL_FW(fmadd); break;
        }
        break;
      case Op::fcvt_f_x:
        d.rd = idx(in.rd);
        d.rs1 = xr(in.rs1);
        d.exec = BVL_FW(fcvtFX);
        break;
      case Op::fcvt_x_f:
        d.rd = xw(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = BVL_FW(fcvtXF);
        break;
      case Op::fmv_f_x:
        d.rd = idx(in.rd);
        d.rs1 = xr(in.rs1);
        d.exec = &fmvFX;
        break;
      case Op::fmv_x_f:
        d.rd = xw(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = &fmvXF;
        break;
      case Op::feq: case Op::flt: case Op::fle:
        d.rd = xw(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = idx(in.rs2);
        d.exec = in.op == Op::feq   ? BVL_FW2(fCmp, FEq)
                 : in.op == Op::flt ? BVL_FW2(fCmp, FLt)
                                    : BVL_FW2(fCmp, FLe);
        break;

      // ----- scalar memory ---------------------------------------------
      case Op::load: {
        widthIs({1, 2, 4, 8});
        d.rs1 = xr(in.rs1);
        bool toF = isFReg(in.rd);
        d.rd = toF ? idx(in.rd) : xw(in.rd);
        auto pickLoad = [&](auto wc) -> ExecFn {
            constexpr unsigned W = wc;
            return toF ? &load<W, false, true>
                   : in.sign ? &load<W, true, false>
                             : &load<W, false, false>;
        };
        withEw(w, [&](auto wc) { d.exec = pickLoad(wc); });
        break;
      }
      case Op::store: {
        widthIs({1, 2, 4, 8});
        d.rs1 = xr(in.rs1);
        bool fromF = isFReg(in.rs2);
        d.rs2 = fromF ? idx(in.rs2) : xr(in.rs2);
        withEw(w, [&](auto wc) {
            constexpr unsigned W = wc;
            d.exec = fromF ? &store<W, true> : &store<W, false>;
        });
        break;
      }

      // ----- branches ------------------------------------------------------
      case Op::beq: case Op::bne: case Op::blt: case Op::bge:
      case Op::bltu: case Op::bgeu: case Op::jump:
        d.rs1 = xr(in.rs1);
        d.rs2 = xr(in.rs2);
        switch (in.op) {
          case Op::beq: d.exec = &branch<Eq>; break;
          case Op::bne: d.exec = &branch<Ne>; break;
          case Op::blt: d.exec = &branch<Lt>; break;
          case Op::bge: d.exec = &branch<Ge>; break;
          case Op::bltu: d.exec = &branch<Ltu>; break;
          case Op::bgeu: d.exec = &branch<Geu>; break;
          default: d.exec = &jump; break;
        }
        break;

      // ----- vector configuration ----------------------------------------
      case Op::vsetvli: {
        widthIs({1, 2, 4, 8});
        d.rd = xw(in.rd);
        d.rs1 = xr(in.rs1);
        bool avl = in.rs1 != regIdInvalid;
        withEw(w, [&](auto wc) {
            constexpr unsigned W = wc;
            d.exec = avl ? &vsetvli<W, true> : &vsetvli<W, false>;
        });
        break;
      }

      // ----- vector arithmetic --------------------------------------------
      case Op::vadd: case Op::vsub: case Op::vmul: case Op::vdiv:
      case Op::vrem: case Op::vmin: case Op::vmax: case Op::vand:
      case Op::vor: case Op::vxor: case Op::vsll: case Op::vsrl:
      case Op::vsra:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = vsrc2(in.rs2);
        switch (in.op) {
          case Op::vadd: d.exec = BVL_VEACH(IntK<Add>); break;
          case Op::vsub: d.exec = BVL_VEACH(IntK<Sub>); break;
          case Op::vmul: d.exec = BVL_VEACH(IntK<Mul>); break;
          case Op::vdiv: d.exec = BVL_VEACH(IntK<Div>); break;
          case Op::vrem: d.exec = BVL_VEACH(IntK<Rem>); break;
          case Op::vmin: d.exec = BVL_VEACH(IntK<Min>); break;
          case Op::vmax: d.exec = BVL_VEACH(IntK<Max>); break;
          case Op::vand: d.exec = BVL_VEACH(IntK<And>); break;
          case Op::vor: d.exec = BVL_VEACH(IntK<Or>); break;
          case Op::vxor: d.exec = BVL_VEACH(IntK<Xor>); break;
          case Op::vsll: d.exec = BVL_VEACH(IntK<Sll>); break;
          case Op::vsrl: d.exec = BVL_VEACH(IntK<Srl>); break;
          default: d.exec = BVL_VEACH(IntK<Sra>); break;
        }
        break;

      case Op::vzext2: case Op::vsext2: case Op::vnclip2: {
        widthIs({1, 2, 4});
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        bool sign = in.op == Op::vnclip2 ? in.sign : in.op == Op::vsext2;
        auto pickWidth = [&](auto wc) -> ExecFn {
            constexpr unsigned W = wc;
            if constexpr (W == 8) {
                return nullptr;   // excluded by widthIs above
            } else if (in.op == Op::vnclip2) {
                return sign ? (m ? &vNarrow<W, true, true>
                                 : &vNarrow<W, true, false>)
                            : (m ? &vNarrow<W, false, true>
                                 : &vNarrow<W, false, false>);
            } else {
                return sign ? (m ? &vWiden<W, true, true>
                                 : &vWiden<W, true, false>)
                            : (m ? &vWiden<W, false, true>
                                 : &vWiden<W, false, false>);
            }
        };
        withEw(w, [&](auto wc) { d.exec = pickWidth(wc); });
        break;
      }

      case Op::vfadd: case Op::vfsub: case Op::vfmul: case Op::vfdiv:
      case Op::vfmin: case Op::vfmax: case Op::vfmacc: case Op::vfnmsac:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = vsrc2(in.rs2);
        switch (in.op) {
          case Op::vfadd: d.exec = BVL_VEACH(FpK<FAdd>); break;
          case Op::vfsub: d.exec = BVL_VEACH(FpK<FSub>); break;
          case Op::vfmul: d.exec = BVL_VEACH(FpK<FMul>); break;
          case Op::vfdiv: d.exec = BVL_VEACH(FpK<FDiv>); break;
          case Op::vfmin: d.exec = BVL_VEACH(FpK<FMin>); break;
          case Op::vfmax: d.exec = BVL_VEACH(FpK<FMax>); break;
          case Op::vfmacc: d.exec = BVL_VEACH(FmaK<true>); break;
          default: d.exec = BVL_VEACH(FmaK<false>); break;
        }
        break;
      case Op::vfsqrt:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = BVL_MASKED(vfsqrt);
        break;

      // ----- vector compares -----------------------------------------------
      case Op::vmseq: case Op::vmsne: case Op::vmslt: case Op::vmsle:
      case Op::vmsgt: case Op::vmflt: case Op::vmfle: case Op::vmfeq:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = vsrc2(in.rs2);
        switch (in.op) {
          case Op::vmseq: d.exec = BVL_VEACH(CmpK<Eq>); break;
          case Op::vmsne: d.exec = BVL_VEACH(CmpK<Ne>); break;
          case Op::vmslt: d.exec = BVL_VEACH(CmpK<Lt>); break;
          case Op::vmsle: d.exec = BVL_VEACH(CmpK<Le>); break;
          case Op::vmsgt: d.exec = BVL_VEACH(CmpK<Gt>); break;
          case Op::vmflt: d.exec = BVL_VEACH(FCmpK<FLt>); break;
          case Op::vmfle: d.exec = BVL_VEACH(FCmpK<FLe>); break;
          default: d.exec = BVL_VEACH(FCmpK<FEq>); break;
        }
        break;

      // ----- mask logical ---------------------------------------------------
      case Op::vmand: case Op::vmor: case Op::vmxor: case Op::vmnot: {
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = idx(in.rs2);
        bool hasB = in.rs2 != regIdInvalid;
        switch (in.op) {
          case Op::vmand:
            d.exec = hasB ? &vMaskLogic<And, false, true>
                          : &vMaskLogic<And, false, false>;
            break;
          case Op::vmor:
            d.exec = hasB ? &vMaskLogic<Or, false, true>
                          : &vMaskLogic<Or, false, false>;
            break;
          case Op::vmxor:
            d.exec = hasB ? &vMaskLogic<Xor, false, true>
                          : &vMaskLogic<Xor, false, false>;
            break;
          default:
            d.exec = &vMaskLogic<Xor, true, false>;
            break;
        }
        break;
      }

      // ----- vector moves / merge / id --------------------------------------
      case Op::vmerge:
        d.rd = idx(in.rd);
        d.rs1 = in.vsrc == VSrc2::vx ? xr(in.rs1) : idx(in.rs1);
        d.rs2 = idx(in.rs2);
        d.exec = vv ? &vmerge<true> : &vmerge<false>;
        break;
      case Op::vmv:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = vsrc2(in.rs2);
        d.exec = vv ? (m ? &vmv<true, true> : &vmv<true, false>)
                    : (m ? &vmv<false, true> : &vmv<false, false>);
        break;
      case Op::vid:
        d.rd = idx(in.rd);
        d.exec = BVL_MASKED(vid);
        break;
      case Op::vmv_s_x:
        d.rd = idx(in.rd);
        d.rs1 = xr(in.rs1);
        d.exec = &vmvSX<false>;
        break;
      case Op::vfmv_s_f:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = &vmvSX<true>;
        break;
      case Op::vmv_x_s:
        d.rd = xw(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = &vmvXS;
        break;
      case Op::vfmv_f_s:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = &vfmvFS;
        break;

      // ----- vector memory ----------------------------------------------
      case Op::vle: case Op::vse: case Op::vlse: case Op::vsse:
      case Op::vluxei: case Op::vsuxei: {
        widthIs({1, 2, 4, 8});
        d.rd = idx(in.rd);
        d.rs1 = xr(in.rs1);
        // vse names its data in rs2, the other stores in rs3.
        d.rs3 = idx(in.op == Op::vse ? in.rs2 : in.rs3);
        d.rs2 = in.op == Op::vlse || in.op == Op::vsse ? xr(in.rs2)
                                                       : idx(in.rs2);
#define BVL_VMEM(walk, store)                                               \
    (m ? &vMem<W, walk, store, true> : &vMem<W, walk, store, false>)
        withEw(w, [&](auto wc) {
            constexpr unsigned W = wc;
            switch (in.op) {
              case Op::vle: d.exec = BVL_VMEM(Walk::unit, false); break;
              case Op::vse: d.exec = BVL_VMEM(Walk::unit, true); break;
              case Op::vlse: d.exec = BVL_VMEM(Walk::strided, false); break;
              case Op::vsse: d.exec = BVL_VMEM(Walk::strided, true); break;
              case Op::vluxei:
                d.exec = BVL_VMEM(Walk::indexed, false);
                break;
              default: d.exec = BVL_VMEM(Walk::indexed, true); break;
            }
        });
#undef BVL_VMEM
        break;
      }

      // ----- cross-element -----------------------------------------------
      case Op::vrgather:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = idx(in.rs2);
        d.exec = BVL_MASKED(vrgather);
        break;
      case Op::vslideup: case Op::vslidedown:
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = in.op == Op::vslideup
                     ? (m ? &vslide<true, true> : &vslide<true, false>)
                     : (m ? &vslide<false, true> : &vslide<false, false>);
        break;
      case Op::vredsum: case Op::vredmax: case Op::vredmin:
      case Op::vfredsum: case Op::vfredmax: case Op::vfredmin: {
        d.rd = idx(in.rd);
        d.rs1 = idx(in.rs1);
        d.rs2 = idx(in.rs2);
        bool init = in.rs1 != regIdInvalid;
#define BVL_VRED(kernel, F)                                                 \
    (init ? (m ? &kernel<F, true, true> : &kernel<F, true, false>)          \
          : (m ? &kernel<F, false, true> : &kernel<F, false, false>))
        switch (in.op) {
          case Op::vredsum: d.exec = BVL_VRED(vred, RedSum); break;
          case Op::vredmax: d.exec = BVL_VRED(vred, RedMax); break;
          case Op::vredmin: d.exec = BVL_VRED(vred, RedMin); break;
          case Op::vfredsum: d.exec = BVL_VRED(vfred, FRedSum); break;
          case Op::vfredmax: d.exec = BVL_VRED(vfred, FRedMax); break;
          default: d.exec = BVL_VRED(vfred, FRedMin); break;
        }
#undef BVL_VRED
        break;
      }
      case Op::vpopc: case Op::vfirst:
        d.rd = xw(in.rd);
        d.rs1 = idx(in.rs1);
        d.exec = in.op == Op::vfirst
                     ? (m ? &vmaskScan<true, true> : &vmaskScan<true, false>)
                     : (m ? &vmaskScan<false, true>
                          : &vmaskScan<false, false>);
        break;

      case Op::numOps:
        panic("decoded numOps sentinel");
    }
#undef BVL_VEACH
#undef BVL_MASKED
#undef BVL_FW
#undef BVL_FW2
    return d;
}

std::vector<DecodedInstr>
decodeProgram(const std::vector<Instr> &code)
{
    std::vector<DecodedInstr> out;
    out.reserve(code.size());
    for (const Instr &in : code)
        out.push_back(Exec::decode(in));
    return out;
}

std::uint64_t
runFunctional(ArchState &state, const Program &prog, BackingStore &mem,
              std::uint64_t maxSteps)
{
    const DecodedInstr *code = prog.decoded();
    const std::uint64_t size = prog.size();
    ExecTrace tr;
    std::uint64_t steps = 0;
    while (steps < maxSteps && !state.halted && state.pc < size) {
        const DecodedInstr &d = code[state.pc];
        d.exec(state, d, mem, tr);
        ++steps;
    }
    return steps;
}

} // namespace bvl
