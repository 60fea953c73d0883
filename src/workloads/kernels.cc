/**
 * @file
 * The three kernels of Table IV: vvadd, saxpy and mmult. Each builds
 * a scalar and a stripmined vector program parameterized by an
 * element (or row) range in x10/x11, so the serial run and every
 * work-stealing chunk share the same code.
 */

#include "workloads/common.hh"

namespace bvl
{

namespace
{

// ------------------------------------------------------------------
// vvadd: c[i] = a[i] + b[i] (int32)
// ------------------------------------------------------------------

class VvaddWorkload : public RangeWorkload
{
  public:
    explicit VvaddWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 512, 16384, 65536))
    {}

    std::string name() const override { return "vvadd"; }

    void
    init(BackingStore &mem) override
    {
        Rng rng(1);
        for (std::uint64_t i = 0; i < hi; ++i) {
            auto av = static_cast<std::int32_t>(rng.below(1000));
            auto bv = static_cast<std::int32_t>(rng.below(1000));
            mem.writeT<std::int32_t>(regionA + 4 * i, av);
            mem.writeT<std::int32_t>(regionB + 4 * i, bv);
        }
    }

    void
    emitScalar(Asm &a) override
    {
        // Pointer-increment loop (what a compiler emits after
        // strength reduction): pa/pb/pc walk, end-pointer compare.
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .slli(xreg(6), xreg(10), 2)
         .add(xreg(2), xreg(2), xreg(6))
         .add(xreg(3), xreg(3), xreg(6))
         .add(xreg(4), xreg(4), xreg(6))
         .slli(xreg(7), xreg(11), 2)
         .li(xreg(5), regionA)
         .add(xreg(7), xreg(7), xreg(5))       // end = &a[x11]
         .bge(xreg(2), xreg(7), "done")
         .label("loop")
         .lw(xreg(8), xreg(2))
         .lw(xreg(9), xreg(3))
         .add(xreg(8), xreg(8), xreg(9))
         .sw(xreg(8), xreg(4))
         .addi(xreg(2), xreg(2), 4)
         .addi(xreg(3), xreg(3), 4)
         .addi(xreg(4), xreg(4), 4)
         .blt(xreg(2), xreg(7), "loop")
         .label("done");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC);
        emitStripmineLoop(a, 4, "loop", [&] {
            a.slli(xreg(28), xreg(14), 2)
             .add(xreg(29), xreg(2), xreg(28))
             .vle(vreg(1), xreg(29), 4)
             .add(xreg(29), xreg(3), xreg(28))
             .vle(vreg(2), xreg(29), 4)
             .vv(Op::vadd, vreg(3), vreg(1), vreg(2))
             .add(xreg(29), xreg(4), xreg(28))
             .vse(vreg(3), xreg(29), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        Rng rng(1);
        for (std::uint64_t i = 0; i < hi; ++i) {
            auto av = static_cast<std::int32_t>(rng.below(1000));
            auto bv = static_cast<std::int32_t>(rng.below(1000));
            if (mem.readT<std::int32_t>(regionC + 4 * i) != av + bv)
                return false;
        }
        return true;
    }
};

// ------------------------------------------------------------------
// saxpy: y[i] = a * x[i] + y[i] (float)
// ------------------------------------------------------------------

class SaxpyWorkload : public RangeWorkload
{
  public:
    explicit SaxpyWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 512, 16384, 65536))
    {}

    std::string name() const override { return "saxpy"; }

    void
    init(BackingStore &mem) override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            mem.writeT<float>(regionA + 4 * i, 0.5f * i);
            mem.writeT<float>(regionB + 4 * i, 100.0f - 0.25f * i);
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB);
        emitFloatConst(a, freg(1), xreg(28), alpha);
        a.slli(xreg(6), xreg(10), 2)
         .add(xreg(2), xreg(2), xreg(6))
         .add(xreg(3), xreg(3), xreg(6))
         .slli(xreg(7), xreg(11), 2)
         .li(xreg(5), regionA)
         .add(xreg(7), xreg(7), xreg(5))       // end = &x[x11]
         .bge(xreg(2), xreg(7), "done")
         .label("loop")
         .flw(freg(2), xreg(2))
         .flw(freg(3), xreg(3))
         .fmadd(freg(3), freg(1), freg(2), freg(3), 4)
         .fsw(freg(3), xreg(3))
         .addi(xreg(2), xreg(2), 4)
         .addi(xreg(3), xreg(3), 4)
         .blt(xreg(2), xreg(7), "loop")
         .label("done");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB);
        emitFloatConst(a, freg(1), xreg(28), alpha);
        emitStripmineLoop(a, 4, "loop", [&] {
            a.slli(xreg(28), xreg(14), 2)
             .add(xreg(29), xreg(2), xreg(28))
             .vle(vreg(1), xreg(29), 4)
             .add(xreg(30), xreg(3), xreg(28))
             .vle(vreg(2), xreg(30), 4)
             .vf(Op::vfmacc, vreg(2), vreg(1), freg(1))
             .vse(vreg(2), xreg(30), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            float x = 0.5f * i;
            float y = 100.0f - 0.25f * i;
            float want = alpha * x + y;
            if (!closeEnough(mem.readT<float>(regionB + 4 * i), want))
                return false;
        }
        return true;
    }

  private:
    static constexpr float alpha = 2.5f;
};

// ------------------------------------------------------------------
// mmult: C = A * B (float, square, row range parallelized)
// ------------------------------------------------------------------

class MmultWorkload : public RangeWorkload
{
  public:
    explicit MmultWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 16, 48, 96))
    {}

    std::string name() const override { return "mmult"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned i = 0; i < hi; ++i) {
            for (unsigned j = 0; j < hi; ++j) {
                mem.writeT<float>(addrOf(regionA, i, j),
                                  0.01f * ((i * 7 + j) % 32));
                mem.writeT<float>(addrOf(regionB, i, j),
                                  0.02f * ((i * 3 + j) % 16));
                mem.writeT<float>(addrOf(regionC, i, j), 0.0f);
            }
        }
    }

    void
    emitScalar(Asm &a) override
    {
        // for i in [x10, x11): for j: acc = 0; for k: acc += A[i][k]*B[k][j]
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(9), hi)
         .mv(xreg(5), xreg(10))              // i
         .label("iloop")
         .li(xreg(6), 0)                     // j
         .label("jloop")
         .li(xreg(7), 0)                     // k
         .li(xreg(28), 0)
         .fmv_f_x(freg(1), xreg(28))         // acc = 0
         .label("kloop")
         // A[i][k]
         .mul(xreg(29), xreg(5), xreg(9))
         .add(xreg(29), xreg(29), xreg(7))
         .slli(xreg(29), xreg(29), 2)
         .add(xreg(29), xreg(29), xreg(2))
         .flw(freg(2), xreg(29))
         // B[k][j]
         .mul(xreg(30), xreg(7), xreg(9))
         .add(xreg(30), xreg(30), xreg(6))
         .slli(xreg(30), xreg(30), 2)
         .add(xreg(30), xreg(30), xreg(3))
         .flw(freg(3), xreg(30))
         .fmadd(freg(1), freg(2), freg(3), freg(1), 4)
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "kloop")
         // C[i][j] = acc
         .mul(xreg(29), xreg(5), xreg(9))
         .add(xreg(29), xreg(29), xreg(6))
         .slli(xreg(29), xreg(29), 2)
         .add(xreg(29), xreg(29), xreg(4))
         .fsw(freg(1), xreg(29))
         .addi(xreg(6), xreg(6), 1)
         .blt(xreg(6), xreg(9), "jloop")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "iloop");
    }

    void
    emitVector(Asm &a) override
    {
        // for i in [x10, x11):
        //   for k:
        //     f1 = A[i][k]
        //     stripmine j: C[i][j..] += f1 * B[k][j..]
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(4), regionC)
         .li(xreg(9), hi)
         .mv(xreg(5), xreg(10))              // i
         .label("iloop")
         .li(xreg(7), 0)                     // k
         .label("kloop")
         // f1 = A[i][k]
         .mul(xreg(29), xreg(5), xreg(9))
         .add(xreg(29), xreg(29), xreg(7))
         .slli(xreg(29), xreg(29), 2)
         .add(xreg(29), xreg(29), xreg(2))
         .flw(freg(1), xreg(29))
         // row bases: x30 = &B[k][0], x31 = &C[i][0]
         .mul(xreg(30), xreg(7), xreg(9))
         .slli(xreg(30), xreg(30), 2)
         .add(xreg(30), xreg(30), xreg(3))
         .mul(xreg(31), xreg(5), xreg(9))
         .slli(xreg(31), xreg(31), 2)
         .add(xreg(31), xreg(31), xreg(4))
         .mv(xreg(12), xreg(9))              // remaining = hi
         .label("jloop")
         .vsetvli(xreg(13), xreg(12), 4)
         .vle(vreg(1), xreg(30), 4)          // B[k][j..]
         .vle(vreg(2), xreg(31), 4)          // C[i][j..]
         .vf(Op::vfmacc, vreg(2), vreg(1), freg(1))
         .vse(vreg(2), xreg(31), 4)
         .slli(xreg(28), xreg(13), 2)
         .add(xreg(30), xreg(30), xreg(28))
         .add(xreg(31), xreg(31), xreg(28))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "jloop")
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(9), "kloop")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), "iloop");
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned i = 0; i < hi; ++i) {
            for (unsigned j = 0; j < hi; ++j) {
                float acc = 0.0f;
                for (unsigned k = 0; k < hi; ++k) {
                    float av = 0.01f * ((i * 7 + k) % 32);
                    float bv = 0.02f * ((k * 3 + j) % 16);
                    acc = static_cast<float>(
                        static_cast<double>(acc) +
                        static_cast<double>(av) * bv);
                }
                float got = mem.readT<float>(addrOf(regionC, i, j));
                if (!closeEnough(got, acc, 1e-2f))
                    return false;
            }
        }
        return true;
    }

  private:
    Addr
    addrOf(Addr base, unsigned i, unsigned j) const
    {
        return base + 4ull * (i * hi + j);
    }

};

} // namespace

std::span<const WorkloadRow>
kernelRows()
{
    static constexpr WorkloadRow rows[] = {
        {"vvadd", Suite::dataParallel, makeRow<VvaddWorkload>},
        {"mmult", Suite::dataParallel, makeRow<MmultWorkload>},
        {"saxpy", Suite::dataParallel, makeRow<SaxpyWorkload>},
    };
    return rows;
}

} // namespace bvl
