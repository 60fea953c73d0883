/**
 * @file
 * sw — Smith-Waterman local sequence alignment (the genomics
 * benchmark of Table V). Scoring: match +2, mismatch -1, linear gap
 * -1; the reported result is the maximum cell score.
 *
 * Three implementations share the scoring function:
 *  - scalar: classic row DP with two rolling rows;
 *  - vector: anti-diagonal vectorization — cells of one anti-diagonal
 *    are independent; per-diagonal bounds and buffer rotation are
 *    scalar control on the big core (this is why sw is only partially
 *    vectorized, VOp ~69% in the paper, and why boosting the big core
 *    helps sw in the DVFS study). The reversed reference slice uses a
 *    negative-stride vlse; match/mismatch selection uses vmseq+vmerge.
 *  - task graph: block-wavefront decomposition over the full DP
 *    matrix with per-block partial maxima and a final reduce task.
 */

#include "workloads/common.hh"

namespace bvl
{

namespace
{

class SwWorkload : public RangeWorkload
{
  public:
    /** The whole alignment is one range element: [0, 1). */
    explicit SwWorkload(Scale scale)
        : RangeWorkload(0, 1), qLen(byScale(scale, 32, 96, 192)),
          rLen(qLen)
    {}

    std::string name() const override { return "sw"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned j = 0; j < rLen; ++j)
            mem.writeT<std::int32_t>(regionA + 4 * j, refCh(j));
        for (unsigned i = 0; i < qLen; ++i)
            mem.writeT<std::int32_t>(regionB + 4 * i, qryCh(i));
    }

    void
    emitScalar(Asm &a) override
    {
        // prev row at regionC, cur row at regionC + 4*(R+1); both all
        // zeros initially (backing store default).
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)                    // prev
         .li(xreg(5), regionC + 4 * (rLen + 1))   // cur
         .li(xreg(7), qLen)
         .li(xreg(8), rLen)
         .li(xreg(20), 0)                         // maxv
         .li(xreg(9), 1)                          // i
         .label("iloop")
         // f28 = query[i-1]
         .addi(xreg(28), xreg(9), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(3))
         .lw(xreg(21), xreg(28))                  // q char
         .li(xreg(6), 1)                          // j
         .label("jloop")
         // s = (q == ref[j-1]) ? 2 : -1
         .addi(xreg(28), xreg(6), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(2))
         .lw(xreg(22), xreg(28))
         .li(xreg(23), -1)
         .bne(xreg(21), xreg(22), "mis")
         .li(xreg(23), 2)
         .label("mis")
         // h = max(0, prev[j-1]+s, prev[j]-1, cur[j-1]-1)
         .slli(xreg(28), xreg(6), 2)
         .add(xreg(29), xreg(28), xreg(4))        // &prev[j]
         .lw(xreg(24), xreg(29), -4)
         .add(xreg(24), xreg(24), xreg(23))       // diag + s
         .lw(xreg(25), xreg(29))
         .addi(xreg(25), xreg(25), -1)            // up - gap
         .add(xreg(30), xreg(28), xreg(5))        // &cur[j]
         .lw(xreg(26), xreg(30), -4)
         .addi(xreg(26), xreg(26), -1)            // left - gap
         .max_(xreg(24), xreg(24), xreg(25))
         .max_(xreg(24), xreg(24), xreg(26))
         .max_(xreg(24), xreg(24), xreg(0))
         .sw(xreg(24), xreg(30))
         .max_(xreg(20), xreg(20), xreg(24))
         .addi(xreg(6), xreg(6), 1)
         .slti(xreg(28), xreg(6), rLen + 1)
         .bne(xreg(28), xreg(0), "jloop")
         // swap prev/cur
         .mv(xreg(28), xreg(4))
         .mv(xreg(4), xreg(5))
         .mv(xreg(5), xreg(28))
         .addi(xreg(9), xreg(9), 1)
         .slti(xreg(28), xreg(9), qLen + 1)
         .bne(xreg(28), xreg(0), "iloop")
         .li(xreg(28), regionE)
         .sw(xreg(20), xreg(28));
        emitBandedRescan(a);
    }

    void
    emitVector(Asm &a) override
    {
        const unsigned bufStride = 4 * (qLen + 2);
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)                    // Hcur
         .li(xreg(5), regionC + bufStride)        // Hd1
         .li(xreg(6), regionC + 2 * bufStride)    // Hd2
         .li(xreg(7), qLen)
         .li(xreg(8), rLen)
         .li(xreg(17), 2)                         // match
         .li(xreg(18), -1)                        // mismatch
         .li(xreg(19), 1)                         // gap
         .li(xreg(22), qLen + rLen)               // last diagonal
         // vMax = 0 across the full hardware vector
         .li(xreg(28), 100000)
         .vsetvli(xreg(13), xreg(28), 4)
         .vx(Op::vmv, vreg(14), regIdInvalid, xreg(0))
         .li(xreg(9), 2)                          // d
         .label("dloop")
         // ilo = max(1, d - R), ihi = min(Q, d - 1)
         .sub(xreg(20), xreg(9), xreg(8))
         .li(xreg(28), 1)
         .max_(xreg(20), xreg(20), xreg(28))
         .addi(xreg(21), xreg(9), -1)
         .min_(xreg(21), xreg(21), xreg(7))
         // zero boundary cells Hcur[ilo-1], Hcur[ihi+1]
         .addi(xreg(28), xreg(20), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(4))
         .sw(xreg(0), xreg(28))
         .addi(xreg(28), xreg(21), 1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(4))
         .sw(xreg(0), xreg(28))
         // strip over i in [ilo, ihi]
         .sub(xreg(12), xreg(21), xreg(20))
         .addi(xreg(12), xreg(12), 1)
         .mv(xreg(15), xreg(20))
         .label("strip")
         .vsetvli(xreg(13), xreg(12), 4)
         // v1 = query[i-1 ..]
         .addi(xreg(28), xreg(15), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(3))
         .vle(vreg(1), xreg(28), 4)
         // v2 = ref[d-i-1], decreasing: base + 4*(d-i0-1), stride -4
         .sub(xreg(29), xreg(9), xreg(15))
         .addi(xreg(29), xreg(29), -1)
         .slli(xreg(29), xreg(29), 2)
         .add(xreg(29), xreg(29), xreg(2))
         .li(xreg(30), -4)
         .vlse(vreg(2), xreg(29), xreg(30), 4)
         // score v3 = (q == r) ? match : mismatch
         .vv(Op::vmseq, vreg(0), vreg(1), vreg(2))
         .vx(Op::vmv, vreg(3), regIdInvalid, xreg(18))
         .vmerge_vx(vreg(3), xreg(17), vreg(3))
         // diag = Hd2[i-1 ..] + score
         .addi(xreg(28), xreg(15), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(31), xreg(28), xreg(6))
         .vle(vreg(4), xreg(31), 4)
         .vv(Op::vadd, vreg(4), vreg(4), vreg(3))
         // up = Hd1[i-1 ..] - gap
         .add(xreg(31), xreg(28), xreg(5))
         .vle(vreg(5), xreg(31), 4)
         .vx(Op::vsub, vreg(5), vreg(5), xreg(19))
         // left = Hd1[i ..] - gap
         .slli(xreg(28), xreg(15), 2)
         .add(xreg(31), xreg(28), xreg(5))
         .vle(vreg(6), xreg(31), 4)
         .vx(Op::vsub, vreg(6), vreg(6), xreg(19))
         // h = max(diag, up, left, 0)
         .vv(Op::vmax, vreg(4), vreg(4), vreg(5))
         .vv(Op::vmax, vreg(4), vreg(4), vreg(6))
         .vx(Op::vmax, vreg(4), vreg(4), xreg(0))
         // store Hcur[i ..] and fold into vMax
         .add(xreg(31), xreg(28), xreg(4))
         .vse(vreg(4), xreg(31), 4)
         .vv(Op::vmax, vreg(14), vreg(14), vreg(4))
         .add(xreg(15), xreg(15), xreg(13))
         .sub(xreg(12), xreg(12), xreg(13))
         .bne(xreg(12), xreg(0), "strip")
         // rotate buffers: Hd2 <- Hd1 <- Hcur <- (old Hd2)
         .mv(xreg(28), xreg(6))
         .mv(xreg(6), xreg(5))
         .mv(xreg(5), xreg(4))
         .mv(xreg(4), xreg(28))
         .addi(xreg(9), xreg(9), 1)
         .bge(xreg(22), xreg(9), "dloop")
         // reduce vMax
         .li(xreg(28), 100000)
         .vsetvli(xreg(13), xreg(28), 4)
         .vv(Op::vredmax, vreg(15), regIdInvalid, vreg(14))
         .vmv_x_s(xreg(20), vreg(15))
         .li(xreg(28), regionE)
         .sw(xreg(20), xreg(28));
        emitBandedRescan(a);
    }

    TaskGraph
    taskGraph() override
    {
        // Block wavefront over the full H matrix at regionD.
        ProgramPtr block = program(blockProg, "sw.block",
                                   [this](Asm &a) { emitBlock(a); });
        ProgramPtr reduce = program(reduceProg, "sw.reduce",
                                    [this](Asm &a) { emitReduce(a); });
        TaskGraph g;
        const unsigned qb = qLen / blocksPerSide;
        const unsigned rb = rLen / blocksPerSide;
        for (unsigned wave = 0; wave <= 2 * (blocksPerSide - 1); ++wave) {
            Phase ph;
            for (unsigned bi = 0; bi < blocksPerSide; ++bi) {
                if (wave < bi || wave - bi >= blocksPerSide)
                    continue;
                unsigned bj = wave - bi;
                Task t;
                t.scalar = block;
                t.args = {{xreg(8), 1 + bi * qb},
                          {xreg(9), 1 + (bi + 1) * qb},
                          {xreg(10), 1 + bj * rb},
                          {xreg(11), 1 + (bj + 1) * rb},
                          {xreg(7), bi * blocksPerSide + bj}};
                ph.tasks.push_back(std::move(t));
            }
            g.phases.push_back(std::move(ph));
        }
        Phase fin;
        Task t;
        t.scalar = reduce;
        t.args = {{xreg(10), 0},
                  {xreg(11), blocksPerSide * blocksPerSide}};
        fin.tasks.push_back(std::move(t));
        g.phases.push_back(std::move(fin));
        Phase band;
        Task bt;
        bt.scalar = program(bandProg, "sw.band",
                            [this](Asm &a) { emitBandedRescan(a); });
        band.tasks.push_back(std::move(bt));
        g.phases.push_back(std::move(band));
        return g;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        std::vector<std::int32_t> prev(rLen + 1, 0), cur(rLen + 1, 0);
        std::int32_t best = 0;
        for (unsigned i = 1; i <= qLen; ++i) {
            cur[0] = 0;
            for (unsigned j = 1; j <= rLen; ++j) {
                std::int32_t s =
                    qryCh(i - 1) == refCh(j - 1) ? 2 : -1;
                std::int32_t h = std::max({0, prev[j - 1] + s,
                                           prev[j] - 1, cur[j - 1] - 1});
                cur[j] = h;
                best = std::max(best, h);
            }
            std::swap(prev, cur);
        }
        if (mem.readT<std::int32_t>(regionE) != best)
            return false;
        return mem.readT<std::int32_t>(regionE + 4) == hostBandedMax();
    }

  private:
    void
    emitBlock(Asm &a)
    {
        // DP over block [x8, x9) x [x10, x11) on the full H matrix;
        // partial max written to the block's slot (block id in x7).
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionD)
         .li(xreg(5), rLen + 1)       // H row stride (cells)
         .li(xreg(20), 0)             // block max
         .mv(xreg(6), xreg(8))        // i
         .label("iloop")
         .addi(xreg(28), xreg(6), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(3))
         .lw(xreg(21), xreg(28))      // query char
         .mv(xreg(15), xreg(10))      // j
         .label("jloop")
         .addi(xreg(28), xreg(15), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(2))
         .lw(xreg(22), xreg(28))
         .li(xreg(23), -1)
         .bne(xreg(21), xreg(22), "mis")
         .li(xreg(23), 2)
         .label("mis")
         // &H[i][j]
         .mul(xreg(28), xreg(6), xreg(5))
         .add(xreg(28), xreg(28), xreg(15))
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(4))
         // up row pointer: &H[i-1][j]
         .slli(xreg(29), xreg(5), 2)
         .sub(xreg(29), xreg(28), xreg(29))
         .lw(xreg(24), xreg(29), -4)   // diag
         .add(xreg(24), xreg(24), xreg(23))
         .lw(xreg(25), xreg(29))       // up
         .addi(xreg(25), xreg(25), -1)
         .lw(xreg(26), xreg(28), -4)   // left
         .addi(xreg(26), xreg(26), -1)
         .max_(xreg(24), xreg(24), xreg(25))
         .max_(xreg(24), xreg(24), xreg(26))
         .max_(xreg(24), xreg(24), xreg(0))
         .sw(xreg(24), xreg(28))
         .max_(xreg(20), xreg(20), xreg(24))
         .addi(xreg(15), xreg(15), 1)
         .blt(xreg(15), xreg(11), "jloop")
         .addi(xreg(6), xreg(6), 1)
         .blt(xreg(6), xreg(9), "iloop")
         // store partial max into the block slot
         .slli(xreg(28), xreg(7), 2)
         .li(xreg(29), regionE + 64)
         .add(xreg(29), xreg(29), xreg(28))
         .sw(xreg(20), xreg(29));
    }

    void
    emitReduce(Asm &a)
    {
        a.li(xreg(2), regionE + 64)
         .li(xreg(20), 0);
        emitScalarRangeLoop(a, xreg(5), "loop", [&] {
            a.slli(xreg(28), xreg(5), 2)
             .add(xreg(28), xreg(28), xreg(2))
             .lw(xreg(29), xreg(28))
             .max_(xreg(20), xreg(20), xreg(29));
        });
        a.li(xreg(28), regionE)
         .sw(xreg(20), xreg(28));
    }

    /**
     * Scalar banded re-alignment pass (the traceback-recovery step of
     * real vectorized SW implementations, e.g. SSW/ksw2): recompute a
     * width-2W band along the main diagonal with plain scalar DP and
     * record the band-restricted maximum at regionE+4. This is the
     * genuinely scalar ~30% of sw's work (paper Table V: VOp ~69%),
     * and the reason boosting the big core helps sw in Section VII.
     * Band rows live at regionC + 0x8000 (two rolling rows).
     */
    void
    emitBandedRescan(Asm &a)
    {
        const Addr rows = regionC + 0x8000;
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), rows)                        // prev row
         .li(xreg(5), rows + 4 * (rLen + 2))       // cur row
         .li(xreg(20), 0)                          // band max
         .li(xreg(9), 1)                           // i
         .label("bd.iloop")
         // q char
         .addi(xreg(28), xreg(9), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(3))
         .lw(xreg(21), xreg(28))
         // jlo = max(1, i-W), jhi = min(R, i+W)
         .addi(xreg(6), xreg(9), -(int)bandW)
         .li(xreg(28), 1)
         .max_(xreg(6), xreg(6), xreg(28))
         .addi(xreg(16), xreg(9), bandW)
         .li(xreg(28), rLen)
         .min_(xreg(16), xreg(16), xreg(28))
         // zero cur[jlo-1] (band boundary)
         .addi(xreg(28), xreg(6), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(5))
         .sw(xreg(0), xreg(28))
         .label("bd.jloop")
         // s = (q == ref[j-1]) ? 2 : -1
         .addi(xreg(28), xreg(6), -1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(2))
         .lw(xreg(22), xreg(28))
         .li(xreg(23), -1)
         .bne(xreg(21), xreg(22), "bd.mis")
         .li(xreg(23), 2)
         .label("bd.mis")
         .slli(xreg(28), xreg(6), 2)
         .add(xreg(29), xreg(28), xreg(4))
         .lw(xreg(24), xreg(29), -4)
         .add(xreg(24), xreg(24), xreg(23))
         .lw(xreg(25), xreg(29))
         .addi(xreg(25), xreg(25), -1)
         .add(xreg(30), xreg(28), xreg(5))
         .lw(xreg(26), xreg(30), -4)
         .addi(xreg(26), xreg(26), -1)
         .max_(xreg(24), xreg(24), xreg(25))
         .max_(xreg(24), xreg(24), xreg(26))
         .max_(xreg(24), xreg(24), xreg(0))
         .sw(xreg(24), xreg(30))
         .max_(xreg(20), xreg(20), xreg(24))
         .addi(xreg(6), xreg(6), 1)
         .bge(xreg(16), xreg(6), "bd.jloop")
         // zero prev[jhi+1] for the next row's band edge, then swap
         .addi(xreg(28), xreg(16), 1)
         .slli(xreg(28), xreg(28), 2)
         .add(xreg(28), xreg(28), xreg(5))
         .sw(xreg(0), xreg(28))
         .mv(xreg(28), xreg(4))
         .mv(xreg(4), xreg(5))
         .mv(xreg(5), xreg(28))
         .addi(xreg(9), xreg(9), 1)
         .slti(xreg(28), xreg(9), qLen + 1)
         .bne(xreg(28), xreg(0), "bd.iloop")
         .li(xreg(28), regionE + 4)
         .sw(xreg(20), xreg(28));
    }

    std::int32_t
    hostBandedMax() const
    {
        std::vector<std::int32_t> prev(rLen + 2, 0), cur(rLen + 2, 0);
        std::int32_t best = 0;
        for (unsigned i = 1; i <= qLen; ++i) {
            unsigned jlo = i > bandW ? i - bandW : 1;
            unsigned jhi = std::min<unsigned>(rLen, i + bandW);
            cur[jlo - 1] = 0;
            for (unsigned j = jlo; j <= jhi; ++j) {
                std::int32_t sc =
                    qryCh(i - 1) == refCh(j - 1) ? 2 : -1;
                cur[j] = std::max({0, prev[j - 1] + sc, prev[j] - 1,
                                   cur[j - 1] - 1});
                best = std::max(best, cur[j]);
            }
            prev[jhi + 1] = 0;
            std::swap(prev, cur);
        }
        return best;
    }

    static constexpr unsigned bandW = 8;
    std::int32_t refCh(unsigned j) const { return (j * 131 + 7) % 4; }
    std::int32_t qryCh(unsigned i) const { return (i * 37 + 3) % 4; }

    static constexpr unsigned blocksPerSide = 4;
    const unsigned qLen, rLen;
    ProgramPtr blockProg, reduceProg, bandProg;
};

} // namespace

std::span<const WorkloadRow>
genomicsRows()
{
    static constexpr WorkloadRow rows[] = {
        {"sw", Suite::dataParallel, makeRow<SwWorkload>},
    };
    return rows;
}

} // namespace bvl
