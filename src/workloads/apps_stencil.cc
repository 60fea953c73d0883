/**
 * @file
 * Memory/stencil-flavoured data-parallel applications of Table V:
 * jacobi-2d (iterative 5-point stencil), pathfinder (row-wise DP with
 * min3), lavamd (neighbour-list n-body force kernel with indexed
 * gathers) and sw (Smith-Waterman local alignment, anti-diagonal
 * vectorization with scalar per-diagonal control).
 */

#include "workloads/common.hh"

namespace bvl
{

namespace
{

// ------------------------------------------------------------------
// jacobi-2d
// ------------------------------------------------------------------

class Jacobi2dWorkload : public RangeWorkload
{
  public:
    /** The programs cover the interior rows [1, rows - 1). */
    explicit Jacobi2dWorkload(Scale scale)
        : RangeWorkload(1, (scale == Scale::tiny ? 16 : 64) - 1),
          rows(hi + 1), cols(byScale(scale, 64, 512, 1024))
    {}

    std::string name() const override { return "jacobi-2d"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned i = 0; i < rows; ++i)
            for (unsigned j = 0; j < cols; ++j) {
                float v = cellInit(i, j);
                mem.writeT<float>(addr(regionA, i, j), v);
                mem.writeT<float>(addr(regionB, i, j), v);
            }
    }

    void
    emitScalar(Asm &a) override
    {
        // Full T iterations with buffer swap; row range in x10/x11.
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(9), cols)
         .li(xreg(8), iters)
         .li(xreg(7), 0);                 // t
        emitFloatConst(a, freg(9), xreg(28), 0.25f);
        a.label("tloop");
        emitRowLoopScalar(a, "i");
        a.mv(xreg(28), xreg(2))           // swap in/out
         .mv(xreg(2), xreg(3))
         .mv(xreg(3), xreg(28))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(8), "tloop");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB)
         .li(xreg(9), cols)
         .li(xreg(8), iters)
         .li(xreg(7), 0);
        emitFloatConst(a, freg(9), xreg(28), 0.25f);
        a.label("tloop");
        emitRowLoopVector(a, "i");
        a.mv(xreg(28), xreg(2))
         .mv(xreg(2), xreg(3))
         .mv(xreg(3), xreg(28))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(8), "tloop");
    }

    TaskGraph
    taskGraph() override
    {
        // Per-iteration phases; even iterations A->B, odd B->A.
        ProgramPtr evenS = singleSweep(false, false);
        ProgramPtr evenV = singleSweep(false, true);
        ProgramPtr oddS = singleSweep(true, false);
        ProgramPtr oddV = singleSweep(true, true);
        TaskGraph g;
        for (unsigned t = 0; t < iters; ++t) {
            auto ph = rangeChunks(t % 2 ? oddS : evenS,
                                  t % 2 ? oddV : evenV, rows - 1, 8);
            // rangeChunks splits [0, rows-1); shift to [1, rows-1).
            Phase phase;
            for (auto &task : ph.phases[0].tasks) {
                if (task.args[1].second <= 1)
                    continue;
                task.args[0].second = std::max<std::uint64_t>(
                    1, task.args[0].second);
                phase.tasks.push_back(task);
            }
            g.phases.push_back(std::move(phase));
        }
        return g;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        std::vector<float> cur(rows * cols), next(rows * cols);
        for (unsigned i = 0; i < rows; ++i)
            for (unsigned j = 0; j < cols; ++j)
                cur[i * cols + j] = next[i * cols + j] = cellInit(i, j);
        for (unsigned t = 0; t < iters; ++t) {
            for (unsigned i = 1; i + 1 < rows; ++i)
                for (unsigned j = 1; j + 1 < cols; ++j)
                    next[i * cols + j] = 0.25f *
                        (cur[(i - 1) * cols + j] + cur[(i + 1) * cols + j] +
                         cur[i * cols + j - 1] + cur[i * cols + j + 1]);
            std::swap(cur, next);
        }
        // iters is even: the final state lives in regionA.
        for (unsigned i = 1; i + 1 < rows; ++i)
            for (unsigned j = 1; j + 1 < cols; ++j) {
                float got = mem.readT<float>(addr(regionA, i, j));
                if (!closeEnough(got, cur[i * cols + j], 1e-2f))
                    return false;
            }
        return true;
    }

  private:
    /** One sweep over rows [x10, x11), src/dst chosen by parity. */
    ProgramPtr
    singleSweep(bool odd, bool vectorized)
    {
        return program(sweepProgs[odd][vectorized],
                       std::string("jacobi2d.sweep.") + (odd ? "o" : "e") +
                           (vectorized ? ".v" : ".s"),
                       [&](Asm &a) {
            a.li(xreg(2), odd ? regionB : regionA)
             .li(xreg(3), odd ? regionA : regionB)
             .li(xreg(9), cols);
            emitFloatConst(a, freg(9), xreg(28), 0.25f);
            if (vectorized)
                emitRowLoopVector(a, "i");
            else
                emitRowLoopScalar(a, "i");
        });
    }

    /** Scalar interior sweep of rows [x10, x11); in x2, out x3. */
    void
    emitRowLoopScalar(Asm &a, const std::string &tag)
    {
        a.mv(xreg(5), xreg(10))
         .label(tag + "loop")
         .li(xreg(6), 1)                   // j
         .addi(xreg(29), xreg(9), -1)
         .label(tag + "jloop")
         // base offsets
         .mul(xreg(30), xreg(5), xreg(9))
         .add(xreg(30), xreg(30), xreg(6))
         .slli(xreg(30), xreg(30), 2)
         // up = in[(i-1)*cols + j] -> offset - 4*cols
         .add(xreg(31), xreg(30), xreg(2));
        a.slli(xreg(28), xreg(9), 2)
         .sub(xreg(4), xreg(31), xreg(28))
         .flw(freg(1), xreg(4))            // up
         .add(xreg(4), xreg(31), xreg(28))
         .flw(freg(2), xreg(4))            // down
         .flw(freg(3), xreg(31), -4)       // left
         .flw(freg(4), xreg(31), 4)        // right
         .fadd(freg(1), freg(1), freg(2), 4)
         .fadd(freg(3), freg(3), freg(4), 4)
         .fadd(freg(1), freg(1), freg(3), 4)
         .fmul(freg(1), freg(1), freg(9), 4)
         .add(xreg(4), xreg(30), xreg(3))
         .fsw(freg(1), xreg(4))
         .addi(xreg(6), xreg(6), 1)
         .blt(xreg(6), xreg(29), tag + "jloop")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), tag + "loop");
    }

    /** Vector interior sweep of rows [x10, x11). */
    void
    emitRowLoopVector(Asm &a, const std::string &tag)
    {
        a.mv(xreg(5), xreg(10))
         .label(tag + "loop")
         // row bases
         .mul(xreg(30), xreg(5), xreg(9))
         .slli(xreg(30), xreg(30), 2)
         .add(xreg(31), xreg(30), xreg(2))   // &in[i][0]
         .add(xreg(4), xreg(30), xreg(3))    // &out[i][0]
         .slli(xreg(28), xreg(9), 2)
         .sub(xreg(6), xreg(31), xreg(28))   // &in[i-1][0]
         .add(xreg(28), xreg(31), xreg(28))  // &in[i+1][0]
         // strip over j in [1, cols-1)
         .addi(xreg(12), xreg(9), -2)        // remaining
         .li(xreg(15), 1)                    // j
         .label(tag + "jstrip")
         .vsetvli(xreg(13), xreg(12), 4)
         .slli(xreg(29), xreg(15), 2);
        a.add(xreg(16), xreg(6), xreg(29))
         .vle(vreg(1), xreg(16), 4)          // up
         .add(xreg(16), xreg(28), xreg(29))
         .vle(vreg(2), xreg(16), 4)          // down
         .add(xreg(16), xreg(31), xreg(29))
         .addi(xreg(16), xreg(16), -4)
         .vle(vreg(3), xreg(16), 4)          // left
         .addi(xreg(16), xreg(16), 8)
         .vle(vreg(4), xreg(16), 4)          // right
         .vv(Op::vfadd, vreg(1), vreg(1), vreg(2))
         .vv(Op::vfadd, vreg(3), vreg(3), vreg(4))
         .vv(Op::vfadd, vreg(1), vreg(1), vreg(3))
         .vf(Op::vfmul, vreg(1), vreg(1), freg(9))
         .add(xreg(16), xreg(4), xreg(29))
         .vse(vreg(1), xreg(16), 4)
         .add(xreg(15), xreg(15), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), tag + "jstrip")
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), tag + "loop");
    }

    Addr addr(Addr base, unsigned i, unsigned j) const
    { return base + 4ull * (i * cols + j); }
    float cellInit(unsigned i, unsigned j) const
    { return 0.01f * ((i * 31 + j * 7) % 97); }

    static constexpr unsigned iters = 4;
    const unsigned rows, cols;
    ProgramPtr sweepProgs[2][2];   ///< [odd][vectorized]
};

// ------------------------------------------------------------------
// pathfinder: DP over grid rows, next[j] = grid[r][j] + min3(prev)
// ------------------------------------------------------------------

class PathfinderWorkload : public RangeWorkload
{
  public:
    explicit PathfinderWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 256, 8192, 32768)),
          rows(scale == Scale::tiny ? 4 : 8)
    {}

    std::string name() const override { return "pathfinder"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned r = 0; r < rows; ++r)
            for (unsigned j = 0; j < hi; ++j)
                mem.writeT<std::int32_t>(gridAddr(r, j), gridVal(r, j));
        // DP buffers with one-cell pads on both ends (value huge).
        constexpr std::int32_t big = 1 << 28;
        for (Addr base : {Addr(regionB), Addr(regionC)}) {
            mem.writeT<std::int32_t>(base, big);
            mem.writeT<std::int32_t>(base + 4 * (hi + 1), big);
        }
        for (unsigned j = 0; j < hi; ++j)
            mem.writeT<std::int32_t>(regionB + 4 * (j + 1), 0);
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionB + 4)    // prev (cell 0)
         .li(xreg(3), regionC + 4)    // next
         .li(xreg(4), regionA)
         .li(xreg(9), hi)
         .li(xreg(8), rows)
         .li(xreg(7), 0);             // r
        a.label("rloop");
        emitRowScalar(a, "r");
        a.mv(xreg(28), xreg(2))
         .mv(xreg(2), xreg(3))
         .mv(xreg(3), xreg(28))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(8), "rloop");
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionB + 4)
         .li(xreg(3), regionC + 4)
         .li(xreg(4), regionA)
         .li(xreg(9), hi)
         .li(xreg(8), rows)
         .li(xreg(7), 0);
        a.label("rloop");
        emitRowVector(a, "r");
        a.mv(xreg(28), xreg(2))
         .mv(xreg(2), xreg(3))
         .mv(xreg(3), xreg(28))
         .addi(xreg(7), xreg(7), 1)
         .blt(xreg(7), xreg(8), "rloop");
    }

    TaskGraph
    taskGraph() override
    {
        // One phase per DP row; chunks over columns. The row index
        // and buffer direction are baked per phase via x7 args.
        ProgramPtr evenS = singleRow(false, false);
        ProgramPtr evenV = singleRow(false, true);
        ProgramPtr oddS = singleRow(true, false);
        ProgramPtr oddV = singleRow(true, true);
        TaskGraph g;
        for (unsigned r = 0; r < rows; ++r) {
            auto ph = rangeChunks(r % 2 ? oddS : evenS,
                                  r % 2 ? oddV : evenV, hi, 8);
            for (auto &task : ph.phases[0].tasks)
                task.args.push_back({xreg(7), r});
            g.phases.push_back(std::move(ph.phases[0]));
        }
        return g;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        std::vector<std::int64_t> prev(hi, 0), next(hi);
        for (unsigned r = 0; r < rows; ++r) {
            for (unsigned j = 0; j < hi; ++j) {
                std::int64_t m = prev[j];
                if (j > 0)
                    m = std::min(m, prev[j - 1]);
                if (j + 1 < hi)
                    m = std::min(m, prev[j + 1]);
                next[j] = gridVal(r, j) + m;
            }
            std::swap(prev, next);
        }
        Addr base = rows % 2 ? regionC + 4 : regionB + 4;
        for (unsigned j = 0; j < hi; ++j) {
            if (mem.readT<std::int32_t>(base + 4 * j) !=
                static_cast<std::int32_t>(prev[j])) {
                return false;
            }
        }
        return true;
    }

  private:
    /** One DP row over columns [x10, x11); row in x7, prev x2, next x3. */
    void
    emitRowScalar(Asm &a, const std::string &tag)
    {
        a.mv(xreg(5), xreg(10))
         .label(tag + "jloop")
         .slli(xreg(6), xreg(5), 2)
         .add(xreg(29), xreg(2), xreg(6))
         .lw(xreg(30), xreg(29), -4)
         .lw(xreg(31), xreg(29), 0)
         .min_(xreg(30), xreg(30), xreg(31))
         .lw(xreg(31), xreg(29), 4)
         .min_(xreg(30), xreg(30), xreg(31))
         // grid[r][j]
         .mul(xreg(29), xreg(7), xreg(9))
         .add(xreg(29), xreg(29), xreg(5))
         .slli(xreg(29), xreg(29), 2)
         .add(xreg(29), xreg(29), xreg(4))
         .lw(xreg(31), xreg(29))
         .add(xreg(30), xreg(30), xreg(31))
         .add(xreg(29), xreg(3), xreg(6))
         .sw(xreg(30), xreg(29))
         .addi(xreg(5), xreg(5), 1)
         .blt(xreg(5), xreg(11), tag + "jloop");
    }

    void
    emitRowVector(Asm &a, const std::string &tag)
    {
        a.sub(xreg(12), xreg(11), xreg(10))
         .mv(xreg(14), xreg(10))
         .label(tag + "jstrip")
         .vsetvli(xreg(13), xreg(12), 4)
         .slli(xreg(29), xreg(14), 2)
         .add(xreg(30), xreg(2), xreg(29))
         .addi(xreg(31), xreg(30), -4)
         .vle(vreg(1), xreg(31), 4)          // prev[j-1]
         .vle(vreg(2), xreg(30), 4)          // prev[j]
         .addi(xreg(31), xreg(30), 4)
         .vle(vreg(3), xreg(31), 4)          // prev[j+1]
         .vv(Op::vmin, vreg(1), vreg(1), vreg(2))
         .vv(Op::vmin, vreg(1), vreg(1), vreg(3))
         // grid row
         .mul(xreg(31), xreg(7), xreg(9))
         .slli(xreg(31), xreg(31), 2)
         .add(xreg(31), xreg(31), xreg(4))
         .add(xreg(31), xreg(31), xreg(29))
         .vle(vreg(2), xreg(31), 4)
         .vv(Op::vadd, vreg(1), vreg(1), vreg(2))
         .add(xreg(31), xreg(3), xreg(29))
         .vse(vreg(1), xreg(31), 4)
         .add(xreg(14), xreg(14), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), tag + "jstrip");
    }

    /** One DP row over columns [x10, x11), buffers by parity. */
    ProgramPtr
    singleRow(bool odd, bool vectorized)
    {
        return program(rowProgs[odd][vectorized],
                       std::string("pathfinder.row.") + (odd ? "o" : "e") +
                           (vectorized ? ".v" : ".s"),
                       [&](Asm &a) {
            a.li(xreg(2), (odd ? regionC : regionB) + 4)
             .li(xreg(3), (odd ? regionB : regionC) + 4)
             .li(xreg(4), regionA)
             .li(xreg(9), hi);
            if (vectorized)
                emitRowVector(a, "r");
            else
                emitRowScalar(a, "r");
        });
    }

    Addr gridAddr(unsigned r, unsigned j) const
    { return regionA + 4ull * (r * hi + j); }
    std::int32_t gridVal(unsigned r, unsigned j) const
    { return static_cast<std::int32_t>((r * 131 + j * 17) % 10); }

    const unsigned rows;
    ProgramPtr rowProgs[2][2];   ///< [odd][vectorized]
};

// ------------------------------------------------------------------
// lavamd: neighbour-list force kernel (indexed gathers + FP chain)
// ------------------------------------------------------------------

class LavamdWorkload : public RangeWorkload
{
  public:
    explicit LavamdWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 128, 1024, 4096))
    {}

    std::string name() const override { return "lavamd"; }

    void
    init(BackingStore &mem) override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            mem.writeT<float>(posAddr(0, i), coord(0, i));
            mem.writeT<float>(posAddr(1, i), coord(1, i));
            mem.writeT<float>(posAddr(2, i), coord(2, i));
            for (unsigned k = 0; k < nb; ++k)
                mem.writeT<std::uint32_t>(
                    idxAddr(k, i),
                    static_cast<std::uint32_t>(neighbor(k, i) * 4));
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), posAddr(0, 0))
         .li(xreg(3), posAddr(1, 0))
         .li(xreg(4), posAddr(2, 0))
         .li(xreg(7), regionD)        // idx
         .li(xreg(9), regionC)        // out fx/fy/fz
         .li(xreg(8), hi);
        emitScalarRangeLoop(a, xreg(5), "ploop", [&] {
            a.slli(xreg(6), xreg(5), 2)
             .add(xreg(29), xreg(2), xreg(6)).flw(freg(1), xreg(29))
             .add(xreg(29), xreg(3), xreg(6)).flw(freg(2), xreg(29))
             .add(xreg(29), xreg(4), xreg(6)).flw(freg(3), xreg(29))
             .li(xreg(30), 0)
             .fmv_f_x(freg(4), xreg(30))   // fx
             .fmv_f_x(freg(5), xreg(30))   // fy
             .fmv_f_x(freg(6), xreg(30))   // fz
             .li(xreg(31), 0)              // k
             .label("kloop")
             // offset = IDX[k][i]
             .mul(xreg(29), xreg(31), xreg(8))
             .add(xreg(29), xreg(29), xreg(5))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(7))
             .lw(xreg(30), xreg(29))
             .add(xreg(29), xreg(30), xreg(2)).flw(freg(7), xreg(29))
             .add(xreg(29), xreg(30), xreg(3)).flw(freg(8), xreg(29))
             .add(xreg(29), xreg(30), xreg(4)).flw(freg(9), xreg(29))
             .fsub(freg(7), freg(1), freg(7), 4)   // dx
             .fsub(freg(8), freg(2), freg(8), 4)
             .fsub(freg(9), freg(3), freg(9), 4)
             .fmul(freg(12), freg(7), freg(7), 4)
             .fmadd(freg(12), freg(8), freg(8), freg(12), 4)
             .fmadd(freg(12), freg(9), freg(9), freg(12), 4)
             .fneg(freg(12), freg(12), 4);
            emitScalarExp(a, freg(13), freg(12), freg(14));
            a.fmadd(freg(4), freg(13), freg(7), freg(4), 4)
             .fmadd(freg(5), freg(13), freg(8), freg(5), 4)
             .fmadd(freg(6), freg(13), freg(9), freg(6), 4)
             .addi(xreg(31), xreg(31), 1)
             .slti(xreg(29), xreg(31), nb)
             .bne(xreg(29), xreg(0), "kloop")
             // store forces
             .add(xreg(29), xreg(9), xreg(6)).fsw(freg(4), xreg(29));
            a.li(xreg(30), 4 * hi)
             .add(xreg(29), xreg(29), xreg(30)).fsw(freg(5), xreg(29))
             .add(xreg(29), xreg(29), xreg(30)).fsw(freg(6), xreg(29));
        });
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), posAddr(0, 0))
         .li(xreg(3), posAddr(1, 0))
         .li(xreg(4), posAddr(2, 0))
         .li(xreg(7), regionD)
         .li(xreg(9), regionC)
         .li(xreg(8), hi);
        emitStripmineLoop(a, 4, "pstrip", [&] {
            a.slli(xreg(29), xreg(14), 2)
             .add(xreg(28), xreg(2), xreg(29)).vle(vreg(1), xreg(28), 4)
             .add(xreg(28), xreg(3), xreg(29)).vle(vreg(2), xreg(28), 4)
             .add(xreg(28), xreg(4), xreg(29)).vle(vreg(3), xreg(28), 4)
             .li(xreg(30), 0)
             .fmv_f_x(freg(1), xreg(30))
             .vmv_vf(vreg(4), freg(1))
             .vmv_vf(vreg(5), freg(1))
             .vmv_vf(vreg(6), freg(1))
             .li(xreg(31), 0)              // k
             .label("kloop")
             // v7 = IDX[k][i..] (byte offsets)
             .mul(xreg(29), xreg(31), xreg(8))
             .add(xreg(29), xreg(29), xreg(14))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(7))
             .vle(vreg(7), xreg(29), 4)
             .vluxei(vreg(8), xreg(2), vreg(7), 4)     // xj
             .vluxei(vreg(9), xreg(3), vreg(7), 4)     // yj
             .vluxei(vreg(10), xreg(4), vreg(7), 4)    // zj
             .vv(Op::vfsub, vreg(8), vreg(1), vreg(8))
             .vv(Op::vfsub, vreg(9), vreg(2), vreg(9))
             .vv(Op::vfsub, vreg(10), vreg(3), vreg(10))
             .vv(Op::vfmul, vreg(11), vreg(8), vreg(8))
             .vv(Op::vfmacc, vreg(11), vreg(9), vreg(9))
             .vv(Op::vfmacc, vreg(11), vreg(10), vreg(10));
            emitFloatConst(a, freg(1), xreg(28), -1.0f);
            a.vf(Op::vfmul, vreg(11), vreg(11), freg(1));
            emitVecExp(a, vreg(12), vreg(11), vreg(13));
            a.vv(Op::vfmacc, vreg(4), vreg(12), vreg(8))
             .vv(Op::vfmacc, vreg(5), vreg(12), vreg(9))
             .vv(Op::vfmacc, vreg(6), vreg(12), vreg(10))
             .addi(xreg(31), xreg(31), 1)
             .slti(xreg(29), xreg(31), nb)
             .bne(xreg(29), xreg(0), "kloop")
             // store force components
             .slli(xreg(29), xreg(14), 2)
             .add(xreg(28), xreg(9), xreg(29))
             .vse(vreg(4), xreg(28), 4)
             .li(xreg(30), 4 * hi)
             .add(xreg(28), xreg(28), xreg(30))
             .vse(vreg(5), xreg(28), 4)
             .add(xreg(28), xreg(28), xreg(30))
             .vse(vreg(6), xreg(28), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            float fx = 0, fy = 0, fz = 0;
            for (unsigned k = 0; k < nb; ++k) {
                std::uint64_t j = neighbor(k, i);
                float dx = coord(0, i) - coord(0, j);
                float dy = coord(1, i) - coord(1, j);
                float dz = coord(2, i) - coord(2, j);
                float e = hostPolyExp(-(dx * dx + dy * dy + dz * dz));
                fx += e * dx;
                fy += e * dy;
                fz += e * dz;
            }
            if (!closeEnough(mem.readT<float>(regionC + 4 * i), fx,
                             2e-2f) ||
                !closeEnough(mem.readT<float>(regionC + 4 * (hi + i)),
                             fy, 2e-2f) ||
                !closeEnough(mem.readT<float>(regionC + 4 * (2 * hi + i)),
                             fz, 2e-2f)) {
                return false;
            }
        }
        return true;
    }

  private:
    float coord(unsigned axis, std::uint64_t i) const
    { return 0.001f * ((i * (axis + 3) * 131) % 997); }
    std::uint64_t neighbor(unsigned k, std::uint64_t i) const
    { return (i + 1 + k * 37) % hi; }
    Addr posAddr(unsigned axis, std::uint64_t i) const
    { return regionA + 4ull * (axis * hi + i); }
    Addr idxAddr(unsigned k, std::uint64_t i) const
    { return regionD + 4ull * (k * hi + i); }

    static constexpr unsigned nb = 16;
};

} // namespace

std::span<const WorkloadRow>
stencilRows()
{
    static constexpr WorkloadRow rows[] = {
        {"jacobi-2d", Suite::dataParallel, makeRow<Jacobi2dWorkload>},
        {"pathfinder", Suite::dataParallel, makeRow<PathfinderWorkload>},
        {"lavamd", Suite::dataParallel, makeRow<LavamdWorkload>},
    };
    return rows;
}

} // namespace bvl
