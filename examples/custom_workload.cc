/**
 * @file
 * Writing your own workload: derive from RangeWorkload, which builds
 * each program once, on first request, from the loop you write over
 * [x10, x11); add data init and verification, and run it on any of the
 * seven systems through the standard driver. The example computes a
 * dot product with a vector reduction.
 *
 *   $ ./example_custom_workload
 */

#include <cstdio>

#include "soc/run_driver.hh"
#include "workloads/common.hh"

using namespace bvl;

namespace
{

/** dot = sum a[i] * b[i] over int32 vectors. */
class DotProductWorkload : public RangeWorkload
{
  public:
    explicit DotProductWorkload(unsigned n) : RangeWorkload(0, n) {}

    std::string name() const override { return "dot"; }

    void
    init(BackingStore &mem) override
    {
        want = 0;
        for (unsigned i = 0; i < hi; ++i) {
            std::int32_t a = (i * 7) % 100, b = (i * 13) % 50;
            mem.writeT<std::int32_t>(regionA + 4ull * i, a);
            mem.writeT<std::int32_t>(regionB + 4ull * i, b);
            want += std::int64_t(a) * b;
        }
    }

    void
    emitScalar(Asm &a) override
    {
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(20), 0);
        emitScalarRangeLoop(a, xreg(5), "loop", [&] {
            a.slli(xreg(6), xreg(5), 2)
             .add(xreg(7), xreg(2), xreg(6)).lw(xreg(8), xreg(7))
             .add(xreg(7), xreg(3), xreg(6)).lw(xreg(9), xreg(7))
             .mul(xreg(8), xreg(8), xreg(9))
             .add(xreg(20), xreg(20), xreg(8));
        });
        a.li(xreg(28), regionE).sd(xreg(20), xreg(28));
    }

    void
    emitVector(Asm &a) override
    {
        // Per strip: elementwise multiply, vector reduction, scalar
        // accumulate. Exercises vredsum -> vmv.x.s (a scalar-writing
        // vector instruction that holds the big core's ROB head until
        // the engine responds over the ring).
        a.li(xreg(2), regionA).li(xreg(3), regionB).li(xreg(20), 0);
        emitStripmineLoop(a, 4, "loop", [&] {
            a.slli(xreg(28), xreg(14), 2)
             .add(xreg(29), xreg(2), xreg(28)).vle(vreg(1), xreg(29), 4)
             .add(xreg(29), xreg(3), xreg(28)).vle(vreg(2), xreg(29), 4)
             .vv(Op::vmul, vreg(3), vreg(1), vreg(2))
             .vmv_s_x(vreg(4), xreg(0))
             .vv(Op::vredsum, vreg(5), vreg(4), vreg(3))
             .vmv_x_s(xreg(8), vreg(5))
             .add(xreg(20), xreg(20), xreg(8));
        });
        a.li(xreg(28), regionE).sd(xreg(20), xreg(28));
    }

    TaskGraph
    taskGraph() override
    {
        // Chunked partial sums would need an accumulation phase; for
        // the example, one task over the whole range keeps it simple.
        ProgramPtr scalar = scalarProgram();
        ProgramPtr vector_ = vectorProgram();
        return rangeChunks(scalar, vector_, hi, 1);
    }

    bool
    verify(const BackingStore &mem) const override
    {
        return mem.readT<std::int64_t>(regionE) ==
               static_cast<std::int64_t>(want);
    }

  private:
    std::int64_t want = 0;
};

} // namespace

int
main()
{
    setVerbose(false);
    DotProductWorkload w(4096);
    for (Design d : {Design::d1L, Design::d1b, Design::d1b4VL,
                     Design::d1bDV}) {
        auto r = runWorkload(d, w);
        std::printf("%-8s %10.0f ns  verified=%s\n", designName(d),
                    r.ns, r.verified ? "yes" : "NO");
    }
    return 0;
}
