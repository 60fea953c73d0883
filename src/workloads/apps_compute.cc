/**
 * @file
 * Compute-centric data-parallel applications of Table V: backprop
 * (forward fully connected layer + sigmoid), kmeans (one assignment
 * iteration), blackscholes (at-the-money option pricing with
 * polynomial exp/CND, see DESIGN.md §5) and particlefilter (weight
 * update, normalization and resampling gather).
 *
 * All programs are range-parameterized (x10/x11) and exist in scalar
 * and stripmined-vector versions built from the same loop structure,
 * mirroring how the paper compiles each app twice (scalar task code
 * for little cores, RVV intrinsics for vector units).
 */

#include <algorithm>

#include "workloads/common.hh"

namespace bvl
{

namespace
{

// ------------------------------------------------------------------
// backprop: out[j] = sigmoid(sum_i in[i] * W[i][j])
// ------------------------------------------------------------------

class BackpropWorkload : public RangeWorkload
{
  public:
    explicit BackpropWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 128, 2048, 8192)),
          ni(scale == Scale::tiny ? 16 : 64)
    {}

    std::string name() const override { return "backprop"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned i = 0; i < ni; ++i)
            mem.writeT<float>(regionA + 4 * i, inVal(i));
        for (unsigned i = 0; i < ni; ++i)
            for (unsigned j = 0; j < hi; ++j)
                mem.writeT<float>(wAddr(i, j), wVal(i, j));
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA)      // in
         .li(xreg(3), regionB)      // W
         .li(xreg(4), regionC)      // out
         .li(xreg(9), hi)
         .li(xreg(8), ni);
        emitScalarRangeLoop(a, xreg(5), "jloop", [&] {
            a.li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))    // acc = 0
             .li(xreg(6), 0)                // i
             .label("iloop")
             .slli(xreg(29), xreg(6), 2)
             .add(xreg(29), xreg(29), xreg(2))
             .flw(freg(2), xreg(29))        // in[i]
             .mul(xreg(30), xreg(6), xreg(9))
             .add(xreg(30), xreg(30), xreg(5))
             .slli(xreg(30), xreg(30), 2)
             .add(xreg(30), xreg(30), xreg(3))
             .flw(freg(3), xreg(30))        // W[i][j]
             .fmadd(freg(1), freg(2), freg(3), freg(1), 4)
             .addi(xreg(6), xreg(6), 1)
             .blt(xreg(6), xreg(8), "iloop");
            emitScalarCnd(a, freg(4), freg(1), freg(5), freg(6));
            a.slli(xreg(29), xreg(5), 2)
             .add(xreg(29), xreg(29), xreg(4))
             .fsw(freg(4), xreg(29));
        });
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)
         .li(xreg(9), hi)
         .li(xreg(8), ni);
        emitStripmineLoop(a, 4, "strip", [&] {
            // v3 = 0 accumulator
            a.li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))
             .vmv_vf(vreg(3), freg(1))
             .li(xreg(6), 0)
             .label("iloop")
             // f2 = in[i]
             .slli(xreg(29), xreg(6), 2)
             .add(xreg(29), xreg(29), xreg(2))
             .flw(freg(2), xreg(29))
             // v1 = W[i][j..]
             .mul(xreg(30), xreg(6), xreg(9))
             .add(xreg(30), xreg(30), xreg(14))
             .slli(xreg(30), xreg(30), 2)
             .add(xreg(30), xreg(30), xreg(3))
             .vle(vreg(1), xreg(30), 4)
             .vf(Op::vfmacc, vreg(3), vreg(1), freg(2))
             .addi(xreg(6), xreg(6), 1)
             .blt(xreg(6), xreg(8), "iloop");
            // sigmoid
            emitVecCnd(a, vreg(4), vreg(3), vreg(5), vreg(6));
            a.slli(xreg(29), xreg(14), 2)
             .add(xreg(29), xreg(29), xreg(4))
             .vse(vreg(4), xreg(29), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (unsigned j = 0; j < hi; ++j) {
            float acc = 0.0f;
            for (unsigned i = 0; i < ni; ++i)
                acc = static_cast<float>(
                    static_cast<double>(acc) +
                    static_cast<double>(inVal(i)) * wVal(i, j));
            float want = hostPolyCnd(acc);
            if (!closeEnough(mem.readT<float>(regionC + 4 * j), want,
                             5e-3f)) {
                return false;
            }
        }
        return true;
    }

  private:
    float inVal(unsigned i) const { return 0.05f * ((i % 16) - 8); }
    float wVal(unsigned i, unsigned j) const
    { return 0.01f * (((i * 13 + j * 7) % 64) - 32); }
    Addr wAddr(unsigned i, unsigned j) const
    { return regionB + 4ull * (i * hi + j); }

    const unsigned ni;
};

// ------------------------------------------------------------------
// kmeans: one assignment step over feature-major points
// ------------------------------------------------------------------

class KmeansWorkload : public RangeWorkload
{
  public:
    explicit KmeansWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 256, 4096, 16384))
    {}

    std::string name() const override { return "kmeans"; }

    void
    init(BackingStore &mem) override
    {
        for (unsigned f = 0; f < d; ++f)
            for (std::uint64_t pnt = 0; pnt < hi; ++pnt)
                mem.writeT<float>(fAddr(f, pnt), feat(f, pnt));
        for (unsigned c = 0; c < k; ++c)
            for (unsigned f = 0; f < d; ++f)
                mem.writeT<float>(cAddr(c, f), cent(c, f));
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA)      // features
         .li(xreg(3), regionB)      // centroids
         .li(xreg(4), regionC)      // assignment out
         .li(xreg(8), hi)
         .li(xreg(9), d);
        emitScalarRangeLoop(a, xreg(5), "ploop", [&] {
            emitFloatConst(a, freg(4), xreg(28), 1e30f);  // bestDist
            a.li(xreg(7), 0);                             // best c
            a.li(xreg(6), 0)                              // c
             .label("cloop")
             .li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))                  // dist
             .li(xreg(30), 0)                             // f
             .label("floop")
             // F[f][p]
             .mul(xreg(29), xreg(30), xreg(8))
             .add(xreg(29), xreg(29), xreg(5))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(2))
             .flw(freg(2), xreg(29))
             // C[c][f]
             .mul(xreg(29), xreg(6), xreg(9))
             .add(xreg(29), xreg(29), xreg(30))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(3))
             .flw(freg(3), xreg(29))
             .fsub(freg(2), freg(2), freg(3), 4)
             .fmadd(freg(1), freg(2), freg(2), freg(1), 4)
             .addi(xreg(30), xreg(30), 1)
             .blt(xreg(30), xreg(9), "floop")
             // if (dist < best) { best = dist; bestc = c; }
             .flt(xreg(29), freg(1), freg(4), 4)
             .beq(xreg(29), xreg(0), "skip")
             .fmv_x_f(xreg(29), freg(1))
             .fmv_f_x(freg(4), xreg(29))            // bestDist = dist
             .mv(xreg(7), xreg(6))
             .label("skip")
             .addi(xreg(6), xreg(6), 1)
             .slti(xreg(29), xreg(6), k)
             .bne(xreg(29), xreg(0), "cloop")
             // out[p] = bestc
             .slli(xreg(29), xreg(5), 2)
             .add(xreg(29), xreg(29), xreg(4))
             .sw(xreg(7), xreg(29));
        });
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)
         .li(xreg(8), hi)
         .li(xreg(9), d);
        emitStripmineLoop(a, 4, "strip", [&] {
            emitFloatConst(a, freg(4), xreg(28), 1e30f);
            a.vmv_vf(vreg(5), freg(4))          // vBestDist
             .vi(Op::vmv, vreg(6), regIdInvalid, 0)  // vBest
             .li(xreg(6), 0)                    // c
             .label("cloop")
             .li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))
             .vmv_vf(vreg(4), freg(1))          // vDist = 0
             .li(xreg(30), 0)                   // f
             .label("floop")
             // v1 = F[f][p..]
             .mul(xreg(29), xreg(30), xreg(8))
             .add(xreg(29), xreg(29), xreg(14))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(2))
             .vle(vreg(1), xreg(29), 4)
             // f3 = C[c][f]
             .mul(xreg(29), xreg(6), xreg(9))
             .add(xreg(29), xreg(29), xreg(30))
             .slli(xreg(29), xreg(29), 2)
             .add(xreg(29), xreg(29), xreg(3))
             .flw(freg(3), xreg(29))
             // diff and accumulate
             .vf(Op::vfsub, vreg(2), vreg(1), freg(3))
             .vv(Op::vfmacc, vreg(4), vreg(2), vreg(2))
             .addi(xreg(30), xreg(30), 1)
             .blt(xreg(30), xreg(9), "floop")
             // merge argmin
             .vv(Op::vmflt, vreg(0), vreg(4), vreg(5))
             .vmerge_vx(vreg(6), xreg(6), vreg(6))
             .vv(Op::vmerge, vreg(5), vreg(4), vreg(5))
             .addi(xreg(6), xreg(6), 1)
             .slti(xreg(29), xreg(6), k)
             .bne(xreg(29), xreg(0), "cloop")
             // store assignments
             .slli(xreg(29), xreg(14), 2)
             .add(xreg(29), xreg(29), xreg(4))
             .vse(vreg(6), xreg(29), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        // The centroids once, then each point's features once and its
        // k distances from them.
        float centroids[k][d];
        for (unsigned c = 0; c < k; ++c)
            for (unsigned f = 0; f < d; ++f)
                centroids[c][f] = cent(c, f);
        for (std::uint64_t pnt = 0; pnt < hi; ++pnt) {
            auto got = mem.readT<std::int32_t>(regionC + 4 * pnt);
            if (got < 0 || got >= static_cast<std::int32_t>(k))
                return false;
            float point[d];
            for (unsigned f = 0; f < d; ++f)
                point[f] = feat(f, pnt);
            float dists[k];
            for (unsigned c = 0; c < k; ++c)
                dists[c] = dist(centroids[c], point);
            // Accept any cluster whose distance is within epsilon of
            // the true minimum (FP rounding may flip exact ties).
            float best = *std::min_element(dists, dists + k);
            if (dists[got] > best * (1.0f + 1e-4f) + 1e-5f)
                return false;
        }
        return true;
    }

  private:
    float feat(unsigned f, std::uint64_t pnt) const
    { return 0.1f * ((pnt * 31 + f * 17) % 100); }
    float cent(unsigned c, unsigned f) const
    { return 0.1f * ((c * 41 + f * 23) % 100); }
    static float
    dist(const float *centroid, const float *point)
    {
        float acc = 0.0f;
        for (unsigned f = 0; f < d; ++f) {
            float diff = point[f] - centroid[f];
            acc = static_cast<float>(static_cast<double>(acc) +
                                     static_cast<double>(diff) * diff);
        }
        return acc;
    }
    Addr fAddr(unsigned f, std::uint64_t pnt) const
    { return regionA + 4ull * (f * hi + pnt); }
    Addr cAddr(unsigned c, unsigned f) const
    { return regionB + 4ull * (c * d + f); }

    static constexpr unsigned d = 8;
    static constexpr unsigned k = 8;
};

// ------------------------------------------------------------------
// blackscholes: at-the-money call pricing (polynomial exp/CND)
// price = S * CND(d1) - S * exp(-rT) * CND(d2)
// d1 = (r + v^2/2) T / (v sqrt(T)); d2 = d1 - v sqrt(T)
// ------------------------------------------------------------------

class BlackscholesWorkload : public RangeWorkload
{
  public:
    explicit BlackscholesWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 256, 4096, 16384))
    {}

    std::string name() const override { return "blackscholes"; }

    void
    init(BackingStore &mem) override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            mem.writeT<float>(regionA + 4 * i, sVal(i));
            mem.writeT<float>(regionB + 4 * i, tVal(i));
            mem.writeT<float>(regionC + 4 * i, vVal(i));
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA)   // S
         .li(xreg(3), regionB)   // T
         .li(xreg(4), regionC)   // v
         .li(xreg(9), regionD);  // out
        emitScalarRangeLoop(a, xreg(5), "loop", [&] {
            a.slli(xreg(6), xreg(5), 2)
             .add(xreg(7), xreg(2), xreg(6)).flw(freg(1), xreg(7))  // S
             .add(xreg(7), xreg(3), xreg(6)).flw(freg(2), xreg(7))  // T
             .add(xreg(7), xreg(4), xreg(6)).flw(freg(3), xreg(7)); // v
            // f4 = v*sqrt(T); f5 = (r + v^2/2)*T / f4 = d1
            a.fsqrt(freg(4), freg(2), 4)
             .fmul(freg(4), freg(3), freg(4), 4);
            emitFloatConst(a, freg(6), xreg(28), 0.5f);
            a.fmul(freg(5), freg(3), freg(3), 4)
             .fmul(freg(5), freg(5), freg(6), 4);
            emitFloatConst(a, freg(6), xreg(28), rRate);
            a.fadd(freg(5), freg(5), freg(6), 4)
             .fmul(freg(5), freg(5), freg(2), 4)
             .fdiv(freg(5), freg(5), freg(4), 4)       // d1
             .fsub(freg(7), freg(5), freg(4), 4);      // d2
            // f8 = CND(d1), f9 = CND(d2)
            emitScalarCnd(a, freg(8), freg(5), freg(10), freg(11));
            emitScalarCnd(a, freg(9), freg(7), freg(10), freg(11));
            // f12 = exp(-r T)
            emitFloatConst(a, freg(6), xreg(28), -rRate);
            a.fmul(freg(12), freg(2), freg(6), 4);
            emitScalarExp(a, freg(13), freg(12), freg(10));
            // price = S*cnd1 - S*exp(-rT)*cnd2
            a.fmul(freg(8), freg(1), freg(8), 4)
             .fmul(freg(9), freg(1), freg(9), 4)
             .fmul(freg(9), freg(9), freg(13), 4)
             .fsub(freg(8), freg(8), freg(9), 4)
             .add(xreg(7), xreg(9), xreg(6))
             .fsw(freg(8), xreg(7));
        });
    }

    void
    emitVector(Asm &a) override
    {
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)
         .li(xreg(9), regionD);
        emitStripmineLoop(a, 4, "strip", [&] {
            a.slli(xreg(29), xreg(14), 2)
             .add(xreg(28), xreg(2), xreg(29)).vle(vreg(1), xreg(28), 4)
             .add(xreg(28), xreg(3), xreg(29)).vle(vreg(2), xreg(28), 4)
             .add(xreg(28), xreg(4), xreg(29)).vle(vreg(3), xreg(28), 4);
            // v4 = v*sqrt(T)
            a.vv(Op::vfsqrt, vreg(4), vreg(2))
             .vv(Op::vfmul, vreg(4), vreg(3), vreg(4));
            // v5 = (r + v^2/2)*T / v4 = d1
            a.vv(Op::vfmul, vreg(5), vreg(3), vreg(3));
            emitFloatConst(a, freg(6), xreg(28), 0.5f);
            a.vf(Op::vfmul, vreg(5), vreg(5), freg(6));
            emitFloatConst(a, freg(6), xreg(28), rRate);
            a.vf(Op::vfadd, vreg(5), vreg(5), freg(6))
             .vv(Op::vfmul, vreg(5), vreg(5), vreg(2))
             .vv(Op::vfdiv, vreg(5), vreg(5), vreg(4))
             .vv(Op::vfsub, vreg(7), vreg(5), vreg(4));   // d2
            // CNDs
            emitVecCnd(a, vreg(8), vreg(5), vreg(10), vreg(11));
            emitVecCnd(a, vreg(9), vreg(7), vreg(10), vreg(11));
            // v12 = exp(-r T)
            emitFloatConst(a, freg(6), xreg(28), -rRate);
            a.vf(Op::vfmul, vreg(12), vreg(2), freg(6));
            emitVecExp(a, vreg(13), vreg(12), vreg(10));
            // price
            a.vv(Op::vfmul, vreg(8), vreg(1), vreg(8))
             .vv(Op::vfmul, vreg(9), vreg(1), vreg(9))
             .vv(Op::vfmul, vreg(9), vreg(9), vreg(13))
             .vv(Op::vfsub, vreg(8), vreg(8), vreg(9))
             .slli(xreg(29), xreg(14), 2)
             .add(xreg(28), xreg(9), xreg(29))
             .vse(vreg(8), xreg(28), 4);
        });
    }

    bool
    verify(const BackingStore &mem) const override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            float S = sVal(i), T = tVal(i), v = vVal(i);
            float vsq = v * std::sqrt(T);
            float d1 = (rRate + 0.5f * v * v) * T / vsq;
            float d2 = d1 - vsq;
            float want = S * hostPolyCnd(d1) -
                         S * hostPolyExp(-rRate * T) * hostPolyCnd(d2);
            if (!closeEnough(mem.readT<float>(regionD + 4 * i), want,
                             2e-2f)) {
                return false;
            }
        }
        return true;
    }

  private:
    static constexpr float rRate = 0.02f;
    float sVal(std::uint64_t i) const { return 50.0f + (i % 50); }
    float tVal(std::uint64_t i) const { return 0.2f + 0.05f * (i % 16); }
    float vVal(std::uint64_t i) const { return 0.2f + 0.02f * (i % 10); }

};

// ------------------------------------------------------------------
// particlefilter: likelihood update, normalization, resample gather
// ------------------------------------------------------------------

class ParticlefilterWorkload : public RangeWorkload
{
  public:
    explicit ParticlefilterWorkload(Scale scale)
        : RangeWorkload(0, byScale(scale, 256, 4096, 16384))
    {}

    std::string name() const override { return "particlefilter"; }

    void
    init(BackingStore &mem) override
    {
        for (std::uint64_t i = 0; i < hi; ++i) {
            mem.writeT<float>(regionA + 4 * i, xVal(i));      // particle
            // Resampling gather indices as byte offsets (the
            // systematic-resampling selection itself is host
            // precomputed; the memory behaviour — an indexed gather
            // across the particle array — is what matters here).
            mem.writeT<std::uint32_t>(
                regionD + 4 * i,
                static_cast<std::uint32_t>(((i * 31 + 7) % hi) * 4));
        }
    }

    // Stage emitters shared by scalar/vector whole programs and tasks.
    void
    emitScalar(Asm &a) override
    {
        emitScalarStages(a, true, true, true);
    }

    void
    emitVector(Asm &a) override
    {
        emitVectorStages(a, true, true, true);
    }

    TaskGraph
    taskGraph() override
    {
        // Phase 1: chunked weight update. Phase 2: one task reduces
        // the weight sum. Phase 3: chunked normalize + resample. Each
        // stage's scalar program is built before its vector one.
        static const char *const stages[] = {"update", "sum", "norm"};
        TaskGraph g;
        for (int st = 0; st < 3; ++st) {
            std::string stem = std::string("particlefilter.") + stages[st];
            bool update = st == 0, sum = st == 1, norm = st == 2;
            ProgramPtr scalar = program(
                stageProgs[st][0], stem + ".s",
                [&](Asm &a) { emitScalarStages(a, update, sum, norm); });
            ProgramPtr vector_ = program(
                stageProgs[st][1], stem + ".v",
                [&](Asm &a) { emitVectorStages(a, update, sum, norm); });
            g.phases.push_back(std::move(
                rangeChunks(scalar, vector_, hi, sum ? 1 : defaultChunks)
                    .phases[0]));
        }
        return g;
    }

    bool
    verify(const BackingStore &mem) const override
    {
        // Recompute reference weights and sum.
        std::vector<float> w(hi);
        float sum = 0.0f;
        for (std::uint64_t i = 0; i < hi; ++i) {
            float x = xVal(i);
            w[i] = hostPolyExp(-x * x);
            sum += w[i];
        }
        if (!closeEnough(mem.readT<float>(regionE), sum, 1e-2f))
            return false;
        for (std::uint64_t i = 0; i < hi; ++i) {
            std::uint64_t src = (i * 31 + 7) % hi;
            float want = xVal(src) + w[i] / sum;
            if (!closeEnough(mem.readT<float>(regionC + 4 * i), want,
                             1e-2f)) {
                return false;
            }
        }
        return true;
    }

  private:
    /** w[i] = exp(-x^2); S = sum w; out[i] = x[idx[i]] + w[i]/S */
    void
    emitScalarStages(Asm &a, bool update, bool sum, bool norm)
    {
        a.li(xreg(2), regionA)    // x
         .li(xreg(3), regionB)    // w
         .li(xreg(4), regionC)    // out
         .li(xreg(7), regionD)    // idx (byte offsets)
         .li(xreg(9), regionE);   // scalar sum cell
        if (update) {
            emitScalarRangeLoop(a, xreg(5), "uloop", [&] {
                a.slli(xreg(6), xreg(5), 2)
                 .add(xreg(29), xreg(2), xreg(6))
                 .flw(freg(1), xreg(29))
                 .fmul(freg(2), freg(1), freg(1), 4)
                 .fneg(freg(2), freg(2), 4);
                emitScalarExp(a, freg(3), freg(2), freg(4));
                a.add(xreg(29), xreg(3), xreg(6))
                 .fsw(freg(3), xreg(29));
            });
        }
        if (sum) {
            a.li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29));
            emitScalarRangeLoop(a, xreg(5), "sloop", [&] {
                a.slli(xreg(6), xreg(5), 2)
                 .add(xreg(29), xreg(3), xreg(6))
                 .flw(freg(2), xreg(29))
                 .fadd(freg(1), freg(1), freg(2), 4);
            });
            a.fsw(freg(1), xreg(9));
        }
        if (norm) {
            a.flw(freg(4), xreg(9));   // S
            emitScalarRangeLoop(a, xreg(5), "nloop", [&] {
                a.slli(xreg(6), xreg(5), 2)
                 .add(xreg(29), xreg(3), xreg(6))
                 .flw(freg(2), xreg(29))
                 .fdiv(freg(2), freg(2), freg(4), 4)
                 // gather x[idx[i]]
                 .add(xreg(29), xreg(7), xreg(6))
                 .lw(xreg(30), xreg(29))
                 .add(xreg(30), xreg(30), xreg(2))
                 .flw(freg(3), xreg(30))
                 .fadd(freg(2), freg(3), freg(2), 4)
                 .add(xreg(29), xreg(4), xreg(6))
                 .fsw(freg(2), xreg(29));
            });
        }
    }

    void
    emitVectorStages(Asm &a, bool update, bool sum, bool norm)
    {
        a.li(xreg(2), regionA)
         .li(xreg(3), regionB)
         .li(xreg(4), regionC)
         .li(xreg(7), regionD)
         .li(xreg(9), regionE);
        if (update) {
            emitStripmineLoop(a, 4, "ustrip", [&] {
                a.slli(xreg(29), xreg(14), 2)
                 .add(xreg(28), xreg(2), xreg(29))
                 .vle(vreg(1), xreg(28), 4)
                 .vv(Op::vfmul, vreg(2), vreg(1), vreg(1));
                emitFloatConst(a, freg(1), xreg(28), -1.0f);
                a.vf(Op::vfmul, vreg(2), vreg(2), freg(1));
                emitVecExp(a, vreg(3), vreg(2), vreg(4));
                a.slli(xreg(29), xreg(14), 2)
                 .add(xreg(28), xreg(3), xreg(29))
                 .vse(vreg(3), xreg(28), 4);
            });
        }
        if (sum) {
            a.li(xreg(29), 0)
             .fmv_f_x(freg(1), xreg(29))
             .vsetvli(xreg(13), xreg(11), 4)
             .vfmv_s_f(vreg(5), freg(1));   // running sum in v5[0]
            emitStripmineLoop(a, 4, "sstrip", [&] {
                a.slli(xreg(29), xreg(14), 2)
                 .add(xreg(28), xreg(3), xreg(29))
                 .vle(vreg(1), xreg(28), 4)
                 .vv(Op::vfredsum, vreg(5), vreg(5), vreg(1));
            });
            a.vfmv_f_s(freg(1), vreg(5))
             .fsw(freg(1), xreg(9));
        }
        if (norm) {
            a.flw(freg(4), xreg(9));
            emitStripmineLoop(a, 4, "nstrip", [&] {
                a.slli(xreg(29), xreg(14), 2)
                 .add(xreg(28), xreg(3), xreg(29))
                 .vle(vreg(1), xreg(28), 4)
                 .vf(Op::vfdiv, vreg(1), vreg(1), freg(4))
                 // gather x[idx[i]]
                 .add(xreg(28), xreg(7), xreg(29))
                 .vle(vreg(2), xreg(28), 4)
                 .vluxei(vreg(3), xreg(2), vreg(2), 4)
                 .vv(Op::vfadd, vreg(1), vreg(3), vreg(1))
                 .add(xreg(28), xreg(4), xreg(29))
                 .vse(vreg(1), xreg(28), 4);
            });
        }
    }

    float xVal(std::uint64_t i) const
    { return 0.002f * ((i * 13) % 1000) - 1.0f; }

    ProgramPtr stageProgs[3][2];   ///< [stage][vectorized]
};

} // namespace

std::span<const WorkloadRow>
computeRows()
{
    static constexpr WorkloadRow rows[] = {
        {"backprop", Suite::dataParallel, makeRow<BackpropWorkload>},
        {"kmeans", Suite::dataParallel, makeRow<KmeansWorkload>},
        {"blackscholes", Suite::dataParallel, makeRow<BlackscholesWorkload>},
        {"particlefilter", Suite::dataParallel, makeRow<ParticlefilterWorkload>},
    };
    return rows;
}

} // namespace bvl
