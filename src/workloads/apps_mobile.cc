/**
 * @file
 * The Swan-style mobile kernel tier (DESIGN.md §18): JPEG-shaped
 * integer IDCT with zigzag coefficient gathering, YCbCr->RGB color
 * conversion over interleaved pixels, a separable 2D convolution, a
 * quantized int8 GEMM with widening accumulate, and memchr/memcmp
 * byte scanning. Unlike the Rodinia/Ligra tiers these kernels work on
 * int8/int16 elements with 2D access patterns, so together they
 * exercise every VMU address-generation path: unit-stride, constant
 * stride (row/column walks, pixel deinterleaving) and indexed
 * (table-driven gathers).
 *
 * All integer arithmetic is exact, so every kernel self-verifies
 * bit-for-bit against a host reference that replays the same
 * fixed-point steps (including the two-step vnclip2 saturation).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "workloads/common.hh"

namespace bvl
{

namespace
{

/** Saturate @p v to the signed range of @p bytes-wide elements. */
inline std::int64_t
satS(std::int64_t v, unsigned bytes)
{
    std::int64_t lo = -(std::int64_t(1) << (8 * bytes - 1));
    std::int64_t hi = (std::int64_t(1) << (8 * bytes - 1)) - 1;
    return std::min(hi, std::max(lo, v));
}

/** Saturate @p v to the unsigned range of @p bytes-wide elements. */
inline std::int64_t
satU(std::int64_t v, unsigned bytes)
{
    std::int64_t hi = (std::int64_t(1) << (8 * bytes)) - 1;
    return std::min(hi, std::max(std::int64_t(0), v));
}

// ------------------------------------------------------------------
// idct8: 8x8 integer IDCT over a stream of coefficient blocks.
//
// Three block-parallel passes, mirroring a JPEG decoder's inner loop:
//   1. dezigzag  — gather zigzag-ordered coefficients into natural
//                  order via an indexed load driven by an offset table
//   2. row IDCT  — 1D transform along rows, vectorized *across*
//                  blocks with stride-128 column accesses
//   3. col IDCT  — same along columns
// Fixed point: basis matrix scaled by 128, rounding add 64, shift 7,
// saturate to int16.
// ------------------------------------------------------------------

class Idct8Workload : public RangeWorkload
{
  public:
    explicit Idct8Workload(Scale scale)
        : RangeWorkload(0, byScale(scale, 16, 96, 256))
    {}

    std::string name() const override { return "idct8"; }

    /** Basis value M[x][u], fixed-point scale 128. */
    static std::int16_t
    mval(unsigned x, unsigned u)
    {
        double k = u == 0 ? 1.0 / std::sqrt(8.0) : 0.5;
        double c = std::cos((2 * x + 1) * u * M_PI / 16.0);
        return static_cast<std::int16_t>(std::lround(128.0 * k * c));
    }

    /** Natural position of the z-th coefficient in zigzag order. */
    static unsigned
    zigNat(unsigned z)
    {
        static const std::uint8_t t[64] = {
             0,  1,  8, 16,  9,  2,  3, 10,
            17, 24, 32, 25, 18, 11,  4,  5,
            12, 19, 26, 33, 40, 48, 41, 34,
            27, 20, 13,  6,  7, 14, 21, 28,
            35, 42, 49, 56, 57, 50, 43, 36,
            29, 22, 15, 23, 30, 37, 44, 51,
            58, 59, 52, 45, 38, 31, 39, 46,
            53, 60, 61, 54, 47, 55, 62, 63,
        };
        return t[z];
    }

    void
    init(BackingStore &mem) override
    {
        // Coefficients in zigzag order; most high-frequency entries
        // zero, like real quantized JPEG blocks.
        Rng rng(11);
        for (std::uint64_t b = 0; b < hi; ++b) {
            for (unsigned z = 0; z < 64; ++z) {
                std::int16_t c = 0;
                if (z < 16 || rng.below(4) == 0)
                    c = static_cast<std::int16_t>(
                        static_cast<std::int64_t>(rng.below(256)) - 128);
                mem.writeT<std::int16_t>(zigAt(b, z), c);
            }
        }
        // Byte-offset table: dezig[p] = 2 * (zigzag position holding
        // natural coefficient p); drives the vluxei gather directly.
        unsigned inv[64];
        for (unsigned z = 0; z < 64; ++z)
            inv[zigNat(z)] = z;
        for (unsigned p = 0; p < 64; ++p)
            mem.writeT<std::int16_t>(zzTab + 2 * p,
                                     static_cast<std::int16_t>(2 * inv[p]));
        for (unsigned x = 0; x < 8; ++x)
            for (unsigned u = 0; u < 8; ++u)
                mem.writeT<std::int16_t>(mTab + 2 * (x * 8 + u), mval(x, u));
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(8), regionD).li(xreg(9), zzTab).li(xreg(15), mTab)
         .mv(xreg(5), xreg(10))                 // b
         .label("bloop")
         .slli(xreg(16), xreg(5), 7);           // block byte offset
        // pass 1: nat[p] = zig[dezig[p]]
        a.li(xreg(6), 0)                        // p
         .label("zloop")
         .slli(xreg(28), xreg(6), 1)
         .add(xreg(28), xreg(28), xreg(9))
         .load(xreg(29), xreg(28), 0, 2, true)  // byte offset into block
         .add(xreg(29), xreg(29), xreg(16))
         .add(xreg(29), xreg(29), xreg(2))
         .load(xreg(30), xreg(29), 0, 2, true)
         .slli(xreg(28), xreg(6), 1)
         .add(xreg(28), xreg(28), xreg(16))
         .add(xreg(28), xreg(28), xreg(3))
         .store(xreg(30), xreg(28), 0, 2)
         .addi(xreg(6), xreg(6), 1)
         .slti(xreg(28), xreg(6), 64)
         .bne(xreg(28), xreg(0), "zloop");
        // pass 2 (rows, regionB -> regionC) and pass 3 (cols,
        // regionC -> regionD) share shape: out[o] = idct1d(in)
        emitPass(a, "row", xreg(3), xreg(4), true);
        emitPass(a, "col", xreg(4), xreg(8), false);
        a.addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "bloop");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(8), regionD).li(xreg(9), zzTab).li(xreg(15), mTab)
         .li(xreg(16), 128)                     // block stride (bytes)
         .li(xreg(17), 64);                     // rounding constant
        // pass 1: per block, indexed gather of the 64 coefficients
        a.mv(xreg(5), xreg(10))
         .label("bloop")
         .slli(xreg(28), xreg(5), 7)
         .add(xreg(30), xreg(28), xreg(2))      // &zig[block]
         .add(xreg(31), xreg(28), xreg(3))      // &nat[block]
         .li(xreg(12), 64)
         .li(xreg(14), 0)
         .label("zloop")
         .vsetvli(xreg(13), xreg(12), 2)
         .slli(xreg(28), xreg(14), 1)
         .add(xreg(29), xreg(9), xreg(28))
         .vle(vreg(2), xreg(29), 2)             // byte offsets
         .vluxei(vreg(3), xreg(30), vreg(2), 2) // gather zigzag coeffs
         .add(xreg(29), xreg(31), xreg(28))
         .vse(vreg(3), xreg(29), 2)
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "zloop")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "bloop");
        // passes 2/3: vectorized across blocks (stride-128 columns)
        emitVecPass(a, "row", xreg(3), xreg(4), true);
        emitVecPass(a, "col", xreg(4), xreg(8), false);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (std::uint64_t b = 0; b < hi; ++b) {
            std::int64_t nat[64], tmp[64];
            for (unsigned z = 0; z < 64; ++z)
                nat[zigNat(z)] = mem.readT<std::int16_t>(zigAt(b, z));
            for (unsigned r = 0; r < 8; ++r)
                for (unsigned x = 0; x < 8; ++x) {
                    std::int64_t acc = 0;
                    for (unsigned u = 0; u < 8; ++u)
                        acc += mval(x, u) * nat[r * 8 + u];
                    tmp[r * 8 + x] = satS((acc + 64) >> 7, 2);
                }
            for (unsigned y = 0; y < 8; ++y)
                for (unsigned x = 0; x < 8; ++x) {
                    std::int64_t acc = 0;
                    for (unsigned v = 0; v < 8; ++v)
                        acc += mval(y, v) * tmp[v * 8 + x];
                    auto want = static_cast<std::int16_t>(
                        satS((acc + 64) >> 7, 2));
                    if (mem.readT<std::int16_t>(
                            regionD + 128 * b + 2 * (y * 8 + x)) != want)
                        return false;
                }
        }
        return true;
    }

  private:
    static constexpr Addr zzTab = regionE;
    static constexpr Addr mTab = regionE + 0x1000;

    Addr zigAt(std::uint64_t b, unsigned z) const
    { return regionA + 128 * b + 2 * z; }

    /**
     * Scalar 1D IDCT pass over all 8 outputs of block b (in x5, block
     * byte offset in x16): @p rows selects in(o, u) = in[o*8+u] (row
     * pass) vs in[u*8+o2] (column pass).
     */
    void
    emitPass(Asm &a, const std::string &tag, RegId inBase, RegId outBase,
             bool rows)
    {
        a.li(xreg(6), 0)                        // outer index (r or y)
         .label(tag + "_o")
         .li(xreg(7), 0)                        // inner index (x)
         .label(tag + "_i")
         .li(xreg(18), 0)                       // acc
         .li(xreg(19), 0)                       // u
         .label(tag + "_u");
        // in element: rows ? (r*8+u) : (u*8+x)
        if (rows) {
            a.slli(xreg(28), xreg(6), 3)
             .add(xreg(28), xreg(28), xreg(19));
        } else {
            a.slli(xreg(28), xreg(19), 3)
             .add(xreg(28), xreg(28), xreg(7));
        }
        a.slli(xreg(28), xreg(28), 1)
         .add(xreg(28), xreg(28), xreg(16))
         .add(xreg(28), xreg(28), inBase)
         .load(xreg(29), xreg(28), 0, 2, true)
         // M[x][u] (row) / M[y][v] (col): outer is the basis row for
         // cols, inner for rows.
         .slli(xreg(30), rows ? xreg(7) : xreg(6), 3)
         .add(xreg(30), xreg(30), xreg(19))
         .slli(xreg(30), xreg(30), 1)
         .add(xreg(30), xreg(30), xreg(15))
         .load(xreg(31), xreg(30), 0, 2, true)
         .mul(xreg(29), xreg(29), xreg(31))
         .add(xreg(18), xreg(18), xreg(29))
         .addi(xreg(19), xreg(19), 1)
         .slti(xreg(28), xreg(19), 8)
         .bne(xreg(28), xreg(0), tag + "_u")
         // out[o*8+i] = satS16((acc + 64) >> 7)
         .addi(xreg(18), xreg(18), 64)
         .srai(xreg(18), xreg(18), 7)
         .li(xreg(28), 32767)
         .min_(xreg(18), xreg(18), xreg(28))
         .li(xreg(28), -32768)
         .max_(xreg(18), xreg(18), xreg(28))
         .slli(xreg(28), xreg(6), 3)
         .add(xreg(28), xreg(28), xreg(7))
         .slli(xreg(28), xreg(28), 1)
         .add(xreg(28), xreg(28), xreg(16))
         .add(xreg(28), xreg(28), outBase)
         .store(xreg(18), xreg(28), 0, 2)
         .addi(xreg(7), xreg(7), 1)
         .slti(xreg(28), xreg(7), 8)
         .bne(xreg(28), xreg(0), tag + "_i")
         .addi(xreg(6), xreg(6), 1)
         .slti(xreg(28), xreg(6), 8)
         .bne(xreg(28), xreg(0), tag + "_o");
    }

    /**
     * 1D IDCT pass vectorized across the block range [x10, x11):
     * element i of each vector is block b0+i, accessed with
     * stride-128 vlse/vsse at the same intra-block position.
     */
    void
    emitVecPass(Asm &a, const std::string &tag, RegId inBase,
                RegId outBase, bool rows)
    {
        a.sub(xreg(12), xreg(11), xreg(10))
         .mv(xreg(14), xreg(10))
         .label(tag + "_strip")
         .vsetvli(xreg(13), xreg(12), 4)
         .slli(xreg(20), xreg(14), 7)           // strip base byte offset
         .li(xreg(6), 0)                        // outer (r or y)
         .label(tag + "_o")
         .li(xreg(7), 0)                        // inner (x)
         .label(tag + "_i")
         .vmv_vx(vreg(1), xreg(0))              // acc = 0
         .li(xreg(19), 0)                       // u
         .label(tag + "_u");
        if (rows) {
            a.slli(xreg(28), xreg(6), 3)
             .add(xreg(28), xreg(28), xreg(19));
        } else {
            a.slli(xreg(28), xreg(19), 3)
             .add(xreg(28), xreg(28), xreg(7));
        }
        a.slli(xreg(28), xreg(28), 1)
         .add(xreg(28), xreg(28), xreg(20))
         .add(xreg(28), xreg(28), inBase)
         .vlse(vreg(2), xreg(28), xreg(16), 2)  // in(b0.., pos)
         .vsext2(vreg(3), vreg(2), 2)
         .slli(xreg(30), rows ? xreg(7) : xreg(6), 3)
         .add(xreg(30), xreg(30), xreg(19))
         .slli(xreg(30), xreg(30), 1)
         .add(xreg(30), xreg(30), xreg(15))
         .load(xreg(31), xreg(30), 0, 2, true)  // basis value
         .vx(Op::vmul, vreg(3), vreg(3), xreg(31))
         .vv(Op::vadd, vreg(1), vreg(1), vreg(3))
         .addi(xreg(19), xreg(19), 1)
         .slti(xreg(28), xreg(19), 8)
         .bne(xreg(28), xreg(0), tag + "_u")
         .vx(Op::vadd, vreg(1), vreg(1), xreg(17))   // + 64
         .vnclip2(vreg(2), vreg(1), 7, 2, true)      // >> 7, sat int16
         .slli(xreg(28), xreg(6), 3)
         .add(xreg(28), xreg(28), xreg(7))
         .slli(xreg(28), xreg(28), 1)
         .add(xreg(28), xreg(28), xreg(20))
         .add(xreg(28), xreg(28), outBase)
         .vsse(vreg(2), xreg(28), xreg(16), 2)
         .addi(xreg(7), xreg(7), 1)
         .slti(xreg(28), xreg(7), 8)
         .bne(xreg(28), xreg(0), tag + "_i")
         .addi(xreg(6), xreg(6), 1)
         .slti(xreg(28), xreg(6), 8)
         .bne(xreg(28), xreg(0), tag + "_o")
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), tag + "_strip");
    }

};

// ------------------------------------------------------------------
// ycbcr: interleaved YCbCr -> interleaved RGB, BT.601 fixed point.
//
// Deinterleaving the 3-byte pixels is the access-pattern workout:
// the Y plane is gathered with an indexed load over vid()*3 byte
// offsets, Cb/Cr with stride-3 loads, and the RGB planes written
// back with stride-3 stores. All math at sew=4 after zero-extending
// the bytes, then a two-step unsigned vnclip2 clamps to [0, 255].
// ------------------------------------------------------------------

class YcbcrWorkload : public RangeWorkload
{
  public:
    explicit YcbcrWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 1024, 16384, 65536))
    {}

    std::string name() const override { return "ycbcr"; }

    void
    init(BackingStore &mem) override
    {
        Rng rng(23);
        for (std::uint64_t i = 0; i < 3 * hi; ++i)
            mem.writeT<std::uint8_t>(
                regionA + i, static_cast<std::uint8_t>(rng.below(256)));
    }

    static std::uint8_t
    clamp8(std::int64_t v)
    {
        // Matches the emitted two-step narrow: (v >> 8) unsigned-
        // saturated to 16 then 8 bits.
        return static_cast<std::uint8_t>(satU(satU(v >> 8, 2), 1));
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(4), 298).li(xreg(5), 409).li(xreg(6), 100)
         .li(xreg(7), 208).li(xreg(8), 516)
         .li(xreg(15), 255)
         .mv(xreg(9), xreg(10))
         .label("loop")
         .slli(xreg(28), xreg(9), 1)
         .add(xreg(28), xreg(28), xreg(9))      // 3*i
         .add(xreg(29), xreg(28), xreg(2))
         .load(xreg(16), xreg(29), 0, 1, false) // Y
         .load(xreg(17), xreg(29), 1, 1, false) // Cb
         .load(xreg(18), xreg(29), 2, 1, false) // Cr
         .addi(xreg(16), xreg(16), -16)
         .addi(xreg(17), xreg(17), -128)
         .addi(xreg(18), xreg(18), -128)
         .mul(xreg(16), xreg(16), xreg(4))      // 298*y'
         .add(xreg(30), xreg(28), xreg(3));     // out pixel base
        // R
        a.mul(xreg(31), xreg(18), xreg(5))
         .add(xreg(31), xreg(31), xreg(16))
         .addi(xreg(31), xreg(31), 128)
         .srai(xreg(31), xreg(31), 8)
         .max_(xreg(31), xreg(31), xreg(0))
         .min_(xreg(31), xreg(31), xreg(15))
         .store(xreg(31), xreg(30), 0, 1);
        // G
        a.mul(xreg(31), xreg(17), xreg(6))
         .sub(xreg(19), xreg(16), xreg(31))
         .mul(xreg(31), xreg(18), xreg(7))
         .sub(xreg(19), xreg(19), xreg(31))
         .addi(xreg(19), xreg(19), 128)
         .srai(xreg(19), xreg(19), 8)
         .max_(xreg(19), xreg(19), xreg(0))
         .min_(xreg(19), xreg(19), xreg(15))
         .store(xreg(19), xreg(30), 1, 1);
        // B
        a.mul(xreg(31), xreg(17), xreg(8))
         .add(xreg(31), xreg(31), xreg(16))
         .addi(xreg(31), xreg(31), 128)
         .srai(xreg(31), xreg(31), 8)
         .max_(xreg(31), xreg(31), xreg(0))
         .min_(xreg(31), xreg(31), xreg(15))
         .store(xreg(31), xreg(30), 2, 1)
         .addi(xreg(9), xreg(9), 1)
         .blt(xreg(9), xreg(11), "loop");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(4), 298).li(xreg(5), 409).li(xreg(6), 100)
         .li(xreg(7), 208).li(xreg(15), 516)
         .li(xreg(8), 3);                       // pixel stride
        emitStripmineLoop(a, 4, "loop", [&] {
            a.slli(xreg(28), xreg(14), 1)
             .add(xreg(28), xreg(28), xreg(14)) // 3*i0
             .add(xreg(29), xreg(28), xreg(2))  // strip input base
             // Y gather: byte offsets 3*i, packed down to ew=1. The
             // offsets stay below 3*VLMAX(4) = 192 < 256, so they fit
             // an unsigned byte at every legal VLEN.
             .vid(vreg(7))
             .vx(Op::vmul, vreg(7), vreg(7), xreg(8))
             .vnclip2(vreg(7), vreg(7), 0, 2, false)
             .vnclip2(vreg(7), vreg(7), 0, 1, false)
             .vluxei(vreg(1), xreg(29), vreg(7), 1)
             .vzext2(vreg(1), vreg(1), 1)
             .vzext2(vreg(1), vreg(1), 2)
             .addi(xreg(30), xreg(29), 1)
             .vlse(vreg(2), xreg(30), xreg(8), 1)   // Cb, stride 3
             .vzext2(vreg(2), vreg(2), 1)
             .vzext2(vreg(2), vreg(2), 2)
             .addi(xreg(30), xreg(29), 2)
             .vlse(vreg(3), xreg(30), xreg(8), 1)   // Cr, stride 3
             .vzext2(vreg(3), vreg(3), 1)
             .vzext2(vreg(3), vreg(3), 2)
             .vi(Op::vadd, vreg(1), vreg(1), -16)
             .vi(Op::vadd, vreg(2), vreg(2), -128)
             .vi(Op::vadd, vreg(3), vreg(3), -128)
             .vx(Op::vmul, vreg(4), vreg(1), xreg(4))   // 298*y'
             .add(xreg(31), xreg(28), xreg(3));         // out strip base
            // R = clamp((298*y' + 409*cr' + 128) >> 8)
            a.vx(Op::vmul, vreg(5), vreg(3), xreg(5))
             .vv(Op::vadd, vreg(5), vreg(5), vreg(4))
             .vi(Op::vadd, vreg(5), vreg(5), 128)
             .vnclip2(vreg(5), vreg(5), 8, 2, false)
             .vnclip2(vreg(5), vreg(5), 0, 1, false)
             .vsse(vreg(5), xreg(31), xreg(8), 1);
            // G = clamp((298*y' - 100*cb' - 208*cr' + 128) >> 8)
            a.vx(Op::vmul, vreg(5), vreg(2), xreg(6))
             .vv(Op::vsub, vreg(6), vreg(4), vreg(5))
             .vx(Op::vmul, vreg(5), vreg(3), xreg(7))
             .vv(Op::vsub, vreg(6), vreg(6), vreg(5))
             .vi(Op::vadd, vreg(6), vreg(6), 128)
             .vnclip2(vreg(6), vreg(6), 8, 2, false)
             .vnclip2(vreg(6), vreg(6), 0, 1, false)
             .addi(xreg(30), xreg(31), 1)
             .vsse(vreg(6), xreg(30), xreg(8), 1);
            // B = clamp((298*y' + 516*cb' + 128) >> 8)
            a.vx(Op::vmul, vreg(5), vreg(2), xreg(15))
             .vv(Op::vadd, vreg(5), vreg(5), vreg(4))
             .vi(Op::vadd, vreg(5), vreg(5), 128)
             .vnclip2(vreg(5), vreg(5), 8, 2, false)
             .vnclip2(vreg(5), vreg(5), 0, 1, false)
             .addi(xreg(30), xreg(31), 2)
             .vsse(vreg(5), xreg(30), xreg(8), 1);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Rng rng(23);
        std::vector<std::uint8_t> in(3 * hi);
        for (auto &b : in)
            b = static_cast<std::uint8_t>(rng.below(256));
        for (std::uint64_t i = 0; i < hi; ++i) {
            std::int64_t y = in[3 * i] - 16;
            std::int64_t cb = in[3 * i + 1] - 128;
            std::int64_t cr = in[3 * i + 2] - 128;
            std::uint8_t r = clamp8(298 * y + 409 * cr + 128);
            std::uint8_t g = clamp8(298 * y - 100 * cb - 208 * cr + 128);
            std::uint8_t b = clamp8(298 * y + 516 * cb + 128);
            if (mem.readT<std::uint8_t>(regionB + 3 * i) != r ||
                mem.readT<std::uint8_t>(regionB + 3 * i + 1) != g ||
                mem.readT<std::uint8_t>(regionB + 3 * i + 2) != b)
                return false;
        }
        return true;
    }

  private:
};

// ------------------------------------------------------------------
// conv2d: separable [1 2 1]/4 blur on an int16 image.
//
// Horizontal pass parallelized over rows (unit-stride, three
// shifted row reads); vertical pass parallelized over *columns* and
// vectorized down each column with stride-2W loads/stores — the
// column-major walk the MVE paper's 2D workloads are built around.
// The two passes are separate task-graph phases (the vertical pass
// reads neighbours produced by other chunks).
// ------------------------------------------------------------------

class Conv2dWorkload : public RangeWorkload
{
  public:
    explicit Conv2dWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 24, 64, 128)),
          w(byScale(scale, 64, 160, 320))
    {}

    std::string name() const override { return "conv2d"; }

    void
    init(BackingStore &mem) override
    {
        Rng rng(5);
        for (std::uint64_t i = 0; i < w * hi; ++i)
            mem.writeT<std::int16_t>(
                regionA + 2 * i,
                static_cast<std::int16_t>(
                    static_cast<std::int64_t>(rng.below(2000)) - 1000));
    }

    static std::int64_t
    tap(std::int64_t a, std::int64_t b, std::int64_t c)
    {
        return satS((a + 2 * b + c + 2) >> 2, 2);
    }

    void
    emitScalar(Asm &a) override
    {
        emitScalarH(a);
        a.li(xreg(10), 0).li(xreg(11), w);
        emitScalarV(a);
    }

    void
    emitVector(Asm &a) override
    {
        emitVectorH(a);
        a.li(xreg(10), 0).li(xreg(11), w);
        emitVectorV(a);
    }

    TaskGraph
    taskGraph() override
    {
        // Phase 1 chunks rows (horizontal pass), phase 2 chunks
        // columns (vertical pass) — a barrier separates them.
        ProgramPtr hScalar = program(hScalarProg, "conv2d.hpass.scalar",
                                     [this](Asm &a) { emitScalarH(a); });
        ProgramPtr hVector = program(hVectorProg, "conv2d.hpass.vector",
                                     [this](Asm &a) { emitVectorH(a); });
        ProgramPtr vScalar = program(vScalarProg, "conv2d.vpass.scalar",
                                     [this](Asm &a) { emitScalarV(a); });
        ProgramPtr vVector = program(vVectorProg, "conv2d.vpass.vector",
                                     [this](Asm &a) { emitVectorV(a); });
        TaskGraph g;
        auto p1 = rangeChunks(hScalar, hVector, hi,
                              std::min<std::uint64_t>(defaultChunks, hi));
        auto p2 = rangeChunks(vScalar, vVector, w,
                              std::min<std::uint64_t>(defaultChunks, w));
        g.phases.push_back(std::move(p1.phases[0]));
        g.phases.push_back(std::move(p2.phases[0]));
        return g;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Rng rng(5);
        std::vector<std::int64_t> img(w * hi), tmp(w * hi);
        for (auto &v : img)
            v = static_cast<std::int64_t>(rng.below(2000)) - 1000;
        for (std::uint64_t y = 0; y < hi; ++y) {
            tmp[y * w] = img[y * w];
            tmp[y * w + w - 1] = img[y * w + w - 1];
            for (std::uint64_t x = 1; x + 1 < w; ++x)
                tmp[y * w + x] = tap(img[y * w + x - 1], img[y * w + x],
                                     img[y * w + x + 1]);
        }
        for (std::uint64_t x = 0; x < w; ++x) {
            if (mem.readT<std::int16_t>(regionC + 2 * x) != tmp[x])
                return false;
            std::uint64_t last = (hi - 1) * w + x;
            if (mem.readT<std::int16_t>(regionC + 2 * last) != tmp[last])
                return false;
            for (std::uint64_t y = 1; y + 1 < hi; ++y) {
                auto want = static_cast<std::int16_t>(
                    tap(tmp[(y - 1) * w + x], tmp[y * w + x],
                        tmp[(y + 1) * w + x]));
                if (mem.readT<std::int16_t>(
                        regionC + 2 * (y * w + x)) != want)
                    return false;
            }
        }
        return true;
    }

  private:
    /** Horizontal pass over rows [x10, x11): regionA -> regionB. */
    void
    emitScalarH(Asm &a)
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(9), 2 * w)
         .mv(xreg(5), xreg(10))
         .label("h_row")
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(6), xreg(28), xreg(2))       // &img(y, 0)
         .add(xreg(7), xreg(28), xreg(3))       // &tmp(y, 0)
         // borders copy
         .load(xreg(29), xreg(6), 0, 2, true)
         .store(xreg(29), xreg(7), 0, 2)
         .load(xreg(29), xreg(6), 2 * (w - 1), 2, true)
         .store(xreg(29), xreg(7), 2 * (w - 1), 2)
         .li(xreg(8), 1)                        // x
         .label("h_x")
         .slli(xreg(28), xreg(8), 1)
         .add(xreg(29), xreg(6), xreg(28))
         .load(xreg(16), xreg(29), -2, 2, true)
         .load(xreg(17), xreg(29), 0, 2, true)
         .load(xreg(18), xreg(29), 2, 2, true)
         .slli(xreg(17), xreg(17), 1)
         .add(xreg(16), xreg(16), xreg(17))
         .add(xreg(16), xreg(16), xreg(18))
         .addi(xreg(16), xreg(16), 2)
         .srai(xreg(16), xreg(16), 2)
         .add(xreg(29), xreg(7), xreg(28))
         .store(xreg(16), xreg(29), 0, 2)
         .addi(xreg(8), xreg(8), 1)
         .li(xreg(28), w - 1)
         .blt(xreg(8), xreg(28), "h_x")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "h_row");
    }

    /** Vertical pass over columns [x10, x11): regionB -> regionC. */
    void
    emitScalarV(Asm &a)
    {
        a.li(xreg(2), regionB).li(xreg(3), regionC)
         .li(xreg(9), 2 * w)
         .mv(xreg(5), xreg(10))
         .label("v_col")
         .slli(xreg(28), xreg(5), 1)
         .add(xreg(6), xreg(28), xreg(2))       // &tmp(0, x)
         .add(xreg(7), xreg(28), xreg(3))       // &out(0, x)
         .load(xreg(29), xreg(6), 0, 2, true)
         .store(xreg(29), xreg(7), 0, 2)
         .load(xreg(29), xreg(6), 2 * w * (hi - 1), 2, true)
         .store(xreg(29), xreg(7), 2 * w * (hi - 1), 2)
         .li(xreg(8), 1)                        // y
         .label("v_y")
         .mul(xreg(28), xreg(8), xreg(9))
         .add(xreg(29), xreg(6), xreg(28))
         .load(xreg(16), xreg(29), -2 * static_cast<std::int64_t>(w),
               2, true)
         .load(xreg(17), xreg(29), 0, 2, true)
         .load(xreg(18), xreg(29), 2 * w, 2, true)
         .slli(xreg(17), xreg(17), 1)
         .add(xreg(16), xreg(16), xreg(17))
         .add(xreg(16), xreg(16), xreg(18))
         .addi(xreg(16), xreg(16), 2)
         .srai(xreg(16), xreg(16), 2)
         .add(xreg(29), xreg(7), xreg(28))
         .store(xreg(16), xreg(29), 0, 2)
         .addi(xreg(8), xreg(8), 1)
         .li(xreg(28), hi - 1)
         .blt(xreg(8), xreg(28), "v_y")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "v_col");
    }

    /** Vectorized horizontal pass: unit-stride strips along the row. */
    void
    emitVectorH(Asm &a)
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(9), 2 * w)
         .mv(xreg(5), xreg(10))
         .label("h_row")
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(6), xreg(28), xreg(2))
         .add(xreg(7), xreg(28), xreg(3))
         .load(xreg(29), xreg(6), 0, 2, true)
         .store(xreg(29), xreg(7), 0, 2)
         .load(xreg(29), xreg(6), 2 * (w - 1), 2, true)
         .store(xreg(29), xreg(7), 2 * (w - 1), 2)
         .li(xreg(12), w - 2)                   // remaining
         .li(xreg(14), 1)                       // x
         .label("h_strip")
         .vsetvli(xreg(13), xreg(12), 4)
         .slli(xreg(28), xreg(14), 1)
         .add(xreg(29), xreg(6), xreg(28))
         .addi(xreg(30), xreg(29), -2)
         .vle(vreg(1), xreg(30), 2)             // img(y, x-1..)
         .vle(vreg(2), xreg(29), 2)             // img(y, x..)
         .addi(xreg(30), xreg(29), 2)
         .vle(vreg(3), xreg(30), 2)             // img(y, x+1..)
         .vsext2(vreg(1), vreg(1), 2)
         .vsext2(vreg(2), vreg(2), 2)
         .vsext2(vreg(3), vreg(3), 2)
         .vi(Op::vsll, vreg(2), vreg(2), 1)
         .vv(Op::vadd, vreg(1), vreg(1), vreg(2))
         .vv(Op::vadd, vreg(1), vreg(1), vreg(3))
         .vi(Op::vadd, vreg(1), vreg(1), 2)
         .vnclip2(vreg(4), vreg(1), 2, 2, true)
         .add(xreg(29), xreg(7), xreg(28))
         .vse(vreg(4), xreg(29), 2)
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "h_strip")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "h_row");
    }

    /** Vectorized vertical pass: stride-2W strips down the column. */
    void
    emitVectorV(Asm &a)
    {
        a.li(xreg(2), regionB).li(xreg(3), regionC)
         .li(xreg(9), 2 * w)
         .mv(xreg(5), xreg(10))
         .label("v_col")
         .slli(xreg(28), xreg(5), 1)
         .add(xreg(6), xreg(28), xreg(2))
         .add(xreg(7), xreg(28), xreg(3))
         .load(xreg(29), xreg(6), 0, 2, true)
         .store(xreg(29), xreg(7), 0, 2)
         .load(xreg(29), xreg(6), 2 * w * (hi - 1), 2, true)
         .store(xreg(29), xreg(7), 2 * w * (hi - 1), 2)
         .li(xreg(12), hi - 2)                   // remaining
         .li(xreg(14), 1)                       // y
         .label("v_strip")
         .vsetvli(xreg(13), xreg(12), 4)
         .mul(xreg(28), xreg(14), xreg(9))
         .add(xreg(29), xreg(6), xreg(28))
         .sub(xreg(30), xreg(29), xreg(9))
         .vlse(vreg(1), xreg(30), xreg(9), 2)   // tmp(y-1.., x)
         .vlse(vreg(2), xreg(29), xreg(9), 2)   // tmp(y.., x)
         .add(xreg(30), xreg(29), xreg(9))
         .vlse(vreg(3), xreg(30), xreg(9), 2)   // tmp(y+1.., x)
         .vsext2(vreg(1), vreg(1), 2)
         .vsext2(vreg(2), vreg(2), 2)
         .vsext2(vreg(3), vreg(3), 2)
         .vi(Op::vsll, vreg(2), vreg(2), 1)
         .vv(Op::vadd, vreg(1), vreg(1), vreg(2))
         .vv(Op::vadd, vreg(1), vreg(1), vreg(3))
         .vi(Op::vadd, vreg(1), vreg(1), 2)
         .vnclip2(vreg(4), vreg(1), 2, 2, true)
         .add(xreg(29), xreg(7), xreg(28))
         .vsse(vreg(4), xreg(29), xreg(9), 2)
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "v_strip")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "v_col");
    }

    const std::uint64_t w;
    ProgramPtr hScalarProg, hVectorProg, vScalarProg, vVectorProg;
};

// ------------------------------------------------------------------
// gemm8: quantized int8 GEMM with widening accumulate
// (XNNPACK-style): C = requant(A x B), int8 inputs, int32
// accumulators, requantize with rounding shift and int8 saturation.
// Rows of B stream through unit-stride byte loads, each sign-
// extended twice up to 32-bit lanes before the multiply-accumulate.
// ------------------------------------------------------------------

class Gemm8Workload : public RangeWorkload
{
  public:
    explicit Gemm8Workload(Scale scale)
        : RangeWorkload(0, byScale(scale, 16, 48, 96))
    {}

    std::string name() const override { return "gemm8"; }

    void
    init(BackingStore &mem) override
    {
        Rng rng(31);
        for (std::uint64_t i = 0; i < hi * hi; ++i) {
            mem.writeT<std::int8_t>(
                regionA + i, static_cast<std::int8_t>(
                    static_cast<std::int64_t>(rng.below(256)) - 128));
            mem.writeT<std::int8_t>(
                regionB + i, static_cast<std::int8_t>(
                    static_cast<std::int64_t>(rng.below(256)) - 128));
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(9), hi)
         .li(xreg(15), 127).li(xreg(16), -128)
         .mv(xreg(5), xreg(10))                 // i
         .label("iloop")
         .li(xreg(6), 0)                        // j
         .label("jloop")
         .li(xreg(7), 0)                        // k
         .li(xreg(18), 0)                       // acc
         .label("kloop")
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(28), xreg(28), xreg(7))
         .add(xreg(28), xreg(28), xreg(2))
         .load(xreg(29), xreg(28), 0, 1, true)  // A[i][k]
         .mul(xreg(28), xreg(7), xreg(9))
         .add(xreg(28), xreg(28), xreg(6))
         .add(xreg(28), xreg(28), xreg(3))
         .load(xreg(30), xreg(28), 0, 1, true)  // B[k][j]
         .mul(xreg(29), xreg(29), xreg(30))
         .add(xreg(18), xreg(18), xreg(29))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "kloop")
         .addi(xreg(18), xreg(18), 32)          // requant: (acc+32)>>6
         .srai(xreg(18), xreg(18), 6)
         .min_(xreg(18), xreg(18), xreg(15))
         .max_(xreg(18), xreg(18), xreg(16))
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(28), xreg(28), xreg(6))
         .add(xreg(28), xreg(28), xreg(4))
         .store(xreg(18), xreg(28), 0, 1)
         .addi(xreg(6), xreg(6), 1)
         .blt(xreg(6), xreg(9), "jloop")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "iloop");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(9), hi)
         .mv(xreg(5), xreg(10))                 // i
         .label("iloop")
         .li(xreg(12), hi)                     // remaining j
         .li(xreg(14), 0)                       // j0
         .label("jstrip")
         .vsetvli(xreg(13), xreg(12), 4)
         .vmv_vx(vreg(1), xreg(0))              // acc = 0
         .li(xreg(7), 0)                        // k
         .label("kloop")
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(28), xreg(28), xreg(7))
         .add(xreg(28), xreg(28), xreg(2))
         .load(xreg(29), xreg(28), 0, 1, true)  // A[i][k]
         .mul(xreg(28), xreg(7), xreg(9))
         .add(xreg(28), xreg(28), xreg(14))
         .add(xreg(28), xreg(28), xreg(3))
         .vle(vreg(2), xreg(28), 1)             // B[k][j0..], int8
         .vsext2(vreg(2), vreg(2), 1)           // widen to int16
         .vsext2(vreg(2), vreg(2), 2)           // widen to int32
         .vx(Op::vmul, vreg(2), vreg(2), xreg(29))
         .vv(Op::vadd, vreg(1), vreg(1), vreg(2))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "kloop")
         .vi(Op::vadd, vreg(1), vreg(1), 32)
         .vnclip2(vreg(1), vreg(1), 6, 2, true) // (acc+32)>>6, sat s16
         .vnclip2(vreg(1), vreg(1), 0, 1, true) // sat to int8
         .mul(xreg(28), xreg(5), xreg(9))
         .add(xreg(28), xreg(28), xreg(14))
         .add(xreg(28), xreg(28), xreg(4))
         .vse(vreg(1), xreg(28), 1)
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "jstrip")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "iloop");
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Rng rng(31);
        std::vector<std::int64_t> av(hi * hi), bv(hi * hi);
        for (std::uint64_t i = 0; i < hi * hi; ++i) {
            // Same draw order as init: A and B interleaved per element.
            av[i] = static_cast<std::int64_t>(rng.below(256)) - 128;
            bv[i] = static_cast<std::int64_t>(rng.below(256)) - 128;
        }
        for (std::uint64_t i = 0; i < hi; ++i)
            for (std::uint64_t j = 0; j < hi; ++j) {
                std::int64_t acc = 0;
                for (std::uint64_t k = 0; k < hi; ++k)
                    acc += av[i * hi + k] * bv[k * hi + j];
                auto want = static_cast<std::int8_t>(
                    satS(satS((acc + 32) >> 6, 2), 1));
                if (mem.readT<std::int8_t>(regionC + i * hi + j) != want)
                    return false;
            }
        return true;
    }

  private:
};

// ------------------------------------------------------------------
// bytescan: memchr + memcmp over fixed-length byte records.
//
// Per record: (1) index of the first 0x00 delimiter (or -1), via
// unit-stride byte loads + vmseq/vfirst at sew=1; (2) memcmp-style
// -1/0/1 against a second buffer via vmsne/vfirst and a scalar
// unsigned byte compare at the first mismatch. Both loops exit a
// strip early on a hit, so the vector length actually executed is
// data-dependent — the bursty shape the paper's on-demand argument
// is about.
// ------------------------------------------------------------------

class BytescanWorkload : public RangeWorkload
{
  public:
    explicit BytescanWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 48, 192, 384)),
          len(byScale(scale, 64, 192, 384))
    {}

    std::string name() const override { return "bytescan"; }

    void
    fill(std::vector<std::uint8_t> &a, std::vector<std::uint8_t> &b) const
    {
        Rng rng(47);
        a.resize(hi * len);
        for (auto &v : a)
            v = static_cast<std::uint8_t>(1 + rng.below(255));
        for (std::uint64_t r = 0; r < hi; ++r)
            if (rng.below(4) != 0)          // 3/4 records get a delimiter
                a[r * len + rng.below(len)] = 0;
        b = a;
        for (std::uint64_t r = 0; r < hi; ++r)
            if (rng.below(2) == 0) {        // half the records mismatch
                std::uint64_t p = rng.below(len);
                b[r * len + p] =
                    static_cast<std::uint8_t>(b[r * len + p] ^ 0x55);
            }
    }

    void
    init(BackingStore &mem) override
    {
        std::vector<std::uint8_t> a, b;
        fill(a, b);
        for (std::uint64_t i = 0; i < a.size(); ++i) {
            mem.writeT<std::uint8_t>(regionA + i, a[i]);
            mem.writeT<std::uint8_t>(regionB + i, b[i]);
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(4), regionC).li(xreg(8), regionD)
         .li(xreg(9), len)
         .mv(xreg(5), xreg(10))                 // r
         .label("rec")
         .mul(xreg(6), xreg(5), xreg(9))
         .add(xreg(6), xreg(6), xreg(2))        // &A[r][0]
         // memchr
         .li(xreg(15), -1)
         .li(xreg(7), 0)
         .label("mc")
         .add(xreg(28), xreg(6), xreg(7))
         .load(xreg(29), xreg(28), 0, 1, false)
         .bne(xreg(29), xreg(0), "mc_next")
         .mv(xreg(15), xreg(7))
         .j("mc_done")
         .label("mc_next")
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "mc")
         .label("mc_done")
         .slli(xreg(28), xreg(5), 2)
         .add(xreg(28), xreg(28), xreg(4))
         .store(xreg(15), xreg(28), 0, 4)
         // memcmp against B
         .mul(xreg(16), xreg(5), xreg(9))
         .add(xreg(16), xreg(16), xreg(3))      // &B[r][0]
         .li(xreg(15), 0)
         .li(xreg(7), 0)
         .label("cmp")
         .add(xreg(28), xreg(6), xreg(7))
         .load(xreg(29), xreg(28), 0, 1, false)
         .add(xreg(28), xreg(16), xreg(7))
         .load(xreg(30), xreg(28), 0, 1, false)
         .bne(xreg(29), xreg(30), "cmp_diff")
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "cmp")
         .j("cmp_done")
         .label("cmp_diff")
         .li(xreg(15), 1)
         .bgeu(xreg(29), xreg(30), "cmp_done")
         .li(xreg(15), -1)
         .label("cmp_done")
         .slli(xreg(28), xreg(5), 2)
         .add(xreg(28), xreg(28), xreg(8))
         .store(xreg(15), xreg(28), 0, 4)
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "rec");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(4), regionC).li(xreg(8), regionD)
         .li(xreg(9), len)
         .mv(xreg(5), xreg(10))                 // r
         .label("rec")
         .mul(xreg(6), xreg(5), xreg(9))
         .add(xreg(16), xreg(6), xreg(3))       // &B[r][0]
         .add(xreg(6), xreg(6), xreg(2))        // &A[r][0]
         // memchr: strips of bytes, vmseq against 0, vfirst
         .li(xreg(15), -1)
         .mv(xreg(12), xreg(9))
         .li(xreg(14), 0)
         .label("mc")
         .vsetvli(xreg(13), xreg(12), 1)
         .add(xreg(28), xreg(6), xreg(14))
         .vle(vreg(1), xreg(28), 1)
         .vi(Op::vmseq, vreg(2), vreg(1), 0)
         .vfirst(xreg(29), vreg(2))
         .blt(xreg(29), xreg(0), "mc_next")
         .add(xreg(15), xreg(14), xreg(29))     // hit: record index
         .j("mc_done")
         .label("mc_next")
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "mc")
         .label("mc_done")
         .slli(xreg(28), xreg(5), 2)
         .add(xreg(28), xreg(28), xreg(4))
         .store(xreg(15), xreg(28), 0, 4)
         // memcmp: vmsne across both buffers, scalar compare at the
         // first mismatching byte
         .li(xreg(15), 0)
         .mv(xreg(12), xreg(9))
         .li(xreg(14), 0)
         .label("cmp")
         .vsetvli(xreg(13), xreg(12), 1)
         .add(xreg(28), xreg(6), xreg(14))
         .vle(vreg(1), xreg(28), 1)
         .add(xreg(28), xreg(16), xreg(14))
         .vle(vreg(2), xreg(28), 1)
         .vv(Op::vmsne, vreg(3), vreg(1), vreg(2))
         .vfirst(xreg(29), vreg(3))
         .bge(xreg(29), xreg(0), "cmp_diff")
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "cmp")
         .j("cmp_done")
         .label("cmp_diff")
         .add(xreg(30), xreg(14), xreg(29))     // mismatch index
         .add(xreg(28), xreg(6), xreg(30))
         .load(xreg(29), xreg(28), 0, 1, false)
         .add(xreg(28), xreg(16), xreg(30))
         .load(xreg(30), xreg(28), 0, 1, false)
         .li(xreg(15), 1)
         .bgeu(xreg(29), xreg(30), "cmp_done")
         .li(xreg(15), -1)
         .label("cmp_done")
         .slli(xreg(28), xreg(5), 2)
         .add(xreg(28), xreg(28), xreg(8))
         .store(xreg(15), xreg(28), 0, 4)
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "rec");
    }

    bool
    verify(const BackingStore &mem) const override
    {
        std::vector<std::uint8_t> a, b;
        fill(a, b);
        for (std::uint64_t r = 0; r < hi; ++r) {
            std::int32_t chr = -1;
            for (std::uint64_t p = 0; p < len; ++p)
                if (a[r * len + p] == 0) {
                    chr = static_cast<std::int32_t>(p);
                    break;
                }
            std::int32_t cmp = 0;
            for (std::uint64_t p = 0; p < len; ++p) {
                std::uint8_t av = a[r * len + p], bv = b[r * len + p];
                if (av != bv) {
                    cmp = av < bv ? -1 : 1;
                    break;
                }
            }
            if (mem.readT<std::int32_t>(regionC + 4 * r) != chr ||
                mem.readT<std::int32_t>(regionD + 4 * r) != cmp)
                return false;
        }
        return true;
    }

  private:
    const std::uint64_t len;
};

} // namespace

std::span<const WorkloadRow>
mobileRows()
{
    static constexpr WorkloadRow rows[] = {
        {"idct8", Suite::mobile, makeRow<Idct8Workload>},
        {"ycbcr", Suite::mobile, makeRow<YcbcrWorkload>},
        {"conv2d", Suite::mobile, makeRow<Conv2dWorkload>},
        {"gemm8", Suite::mobile, makeRow<Gemm8Workload>},
        {"bytescan", Suite::mobile, makeRow<BytescanWorkload>},
    };
    return rows;
}

} // namespace bvl
