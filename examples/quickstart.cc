/**
 * @file
 * Quickstart: build a vectorized program with the Asm DSL, run it on
 * a big.VLITTLE system (one big core + a VLITTLE engine of four
 * reconfigured little cores), and inspect the results.
 *
 *   $ ./example_quickstart
 */

#include <cstdio>

#include "soc/soc.hh"

using namespace bvl;

int
main()
{
    // 1. A system: Design::d1b4VL is the paper's big.VLITTLE instance
    //    (512-bit hardware vector length from 4 lanes x 2 chimes x
    //    2 packed 32-bit elements).
    Soc soc(Design::d1b4VL);
    std::printf("system %s, VLEN = %u bits\n", designName(soc.design()),
                soc.vlenBits());

    // 2. Some data in the shared backing store.
    const unsigned n = 1024;
    const Addr src = 0x100000, dst = 0x200000;
    for (unsigned i = 0; i < n; ++i)
        soc.backing.writeT<std::int32_t>(src + 4 * i, i);

    // 3. A stripmined vector program: dst[i] = 3 * src[i]. The big
    //    core runs the scalar loop control; every v* instruction is
    //    dispatched to the VLITTLE engine.
    Asm a("triple");
    a.li(xreg(2), src)
     .li(xreg(3), dst)
     .li(xreg(5), 3)
     .label("loop")
     .vsetvli(xreg(4), xreg(10), 4)       // vl = min(n_left, VLMAX)
     .vle(vreg(1), xreg(2), 4)            // load a strip
     .vx(Op::vmul, vreg(2), vreg(1), xreg(5))
     .vse(vreg(2), xreg(3), 4)            // store it
     .slli(xreg(6), xreg(4), 2)
     .add(xreg(2), xreg(2), xreg(6))
     .add(xreg(3), xreg(3), xreg(6))
     .sub(xreg(10), xreg(10), xreg(4))
     .bne(xreg(10), xreg(0), "loop")
     .halt();
    auto prog = a.finish();
    prog->setTextBase(0x40000000);

    // 4. Run it: x10 carries n.
    bool done = false;
    soc.big->runProgram(prog, {{xreg(10), n}}, [&] { done = true; });
    soc.runUntil(done);

    // 5. Check and report.
    bool ok = true;
    for (unsigned i = 0; i < n; ++i)
        ok &= soc.backing.readT<std::int32_t>(dst + 4 * i) ==
              static_cast<std::int32_t>(3 * i);
    std::printf("result %s, %.0f ns simulated\n", ok ? "OK" : "WRONG",
                soc.elapsedNs());
    std::printf("vector instructions dispatched: %llu\n",
                (unsigned long long)soc.stats.value("big.vecDispatched"));
    std::printf("engine mode switches: %llu (each costs 500 cycles)\n",
                (unsigned long long)
                    soc.stats.value("vlittle.modeSwitches"));
    return ok ? 0 : 1;
}
