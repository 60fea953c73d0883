#include "soc/soc.hh"

#include "sim/logging.hh"
#include "vector/engine_presets.hh"

namespace bvl
{

bool
designHasVector(Design d)
{
    return d == Design::d1bIV || d == Design::d1bIV4L ||
           d == Design::d1bDV || d == Design::d1b4VL;
}

RunShape
runShape(Design d, bool dataParallel, unsigned numLittle)
{
    RunShape s;
    s.useBig = d != Design::d1L;
    s.vector = dataParallel && designHasVector(d);
    switch (d) {
      case Design::d1L:
        s.littleWorkers = 1;
        break;
      case Design::d1b4L:
      case Design::d1bIV4L:
        s.littleWorkers = numLittle;
        break;
      case Design::d1b4VL:
        // Data-parallel code gangs the littles as engine lanes.
        s.littleWorkers = dataParallel ? 0 : numLittle;
        break;
      default:
        break;
    }
    // Task-parallel work always goes through the runtime; a
    // data-parallel program is one stream unless it has two cores.
    s.taskGraph = !dataParallel || (s.useBig && s.littleWorkers > 0);
    return s;
}

namespace
{

VEngineParams
defaultEngine(Design d)
{
    switch (d) {
      case Design::d1bIV:
      case Design::d1bIV4L:
        return integratedVuPreset();
      case Design::d1bDV:
        return decoupledVePreset();
      case Design::d1b4VL:
        return vlittlePreset();
      default:
        panic("design %s has no vector engine", designName(d));
    }
}

} // namespace

Soc::Soc(SocParams params)
    : bigClk(eq, "bigClk", params.bigFreqGhz),
      littleClk(eq, "littleClk", params.littleFreqGhz),
      uncoreClk(eq, "uncoreClk", params.uncoreFreqGhz),
      watchdog(eq),
      mem(uncoreClk, stats, params.memParams),
      p(std::move(params))
{
    if (p.faults.enabled) {
        injector = std::make_unique<FaultInjector>(p.faults, stats);
        mem.setFaultInjector(injector.get());
    }

    const bool vector = designHasVector(p.design);
    VEngineParams ep;
    if (vector)
        ep = p.engineOverride ? *p.engineOverride : defaultEngine(p.design);
    unsigned vlen = vector ? ep.vlenBits() : 64;
    big = std::make_unique<BigCore>(bigClk, stats, mem, backing, vlen,
                                    p.bigParams);
    if (vector) {
        // Engine lanes run on the little-core clock for the VLITTLE
        // engine, on the big-core clock for the integrated unit and
        // the decoupled engine (paper Section VII methodology). Every
        // engine re-uses the little cores' FU latencies.
        ClockDomain &engClk =
            p.design == Design::d1b4VL ? littleClk : bigClk;
        engine = std::make_unique<VlittleEngine>(
            engClk, stats, mem, *big, p.littleParams.fu, ep);
        if (injector)
            engine->setFaultInjector(injector.get());
        big->setVectorEngine(engine.get());
    }

    for (unsigned i = 0; i < p.numLittle; ++i)
        littles.push_back(std::make_unique<LittleCore>(
            littleClk, stats, mem, backing, i, vlen, p.littleParams));

    // Heartbeats for deadlock diagnosis; inert until watchdog.arm().
    big->registerProgress(watchdog);
    for (auto &l : littles)
        l->registerProgress(watchdog);
    if (engine)
        engine->registerProgress(watchdog);
    mem.registerProgress(watchdog);

    if (p.trace.enabled()) {
        tracerPtr = std::make_unique<Tracer>(p.trace, eq, stats);
        big->setTracer(tracerPtr.get());
        for (auto &l : littles)
            l->setTracer(tracerPtr.get());
        if (engine)
            engine->setTracer(tracerPtr.get());
        mem.setTracer(tracerPtr.get());
        tracerPtr->startSampling();
    }

    if (p.check.enabled()) {
        checkCtx = std::make_unique<CheckContext>(p.check, stats);
        // Structural invariants: a stored closure per check, swept
        // only by the context.
        InvariantRegistry &invariants = checkCtx->invariants();
        big->registerInvariants(invariants);
        for (auto &l : littles)
            l->registerInvariants(invariants);
        if (engine)
            engine->registerInvariants(invariants);
        mem.registerInvariants(invariants);
        big->setCheckContext(checkCtx.get());
        for (auto &l : littles)
            l->setCheckContext(checkCtx.get());
        if (engine)
            engine->setCheckContext(checkCtx.get());
        checkCtx->setContextProvider([this] {
            std::string out = "big: " + big->progressDetail();
            if (engine) {
                std::string rep = engine->inflightReport();
                if (!rep.empty())
                    out += "\nengine: " + rep;
            }
            return out;
        });
    }
}

bool
Soc::armLockstep(bool singleStream)
{
    if (!checkCtx || !p.check.lockstep)
        return false;
    if (!singleStream) {
        inform("lockstep checking requires a single program stream; "
               "degrading to structural invariants only");
        return false;
    }
    ProgramCore *core = streamCore();
    unsigned chimes = engine ? engine->params().chimes : 1;
    return checkCtx->armLockstep(core, core->name(), vlenBits(), chimes,
                                 backing, engine != nullptr);
}

ProgramCore *
Soc::streamCore()
{
    if (shape(true).useBig)
        return big.get();
    return littles[0].get();
}

Soc::Soc(Design design, double bigGhz, double littleGhz)
    : Soc([&] {
          SocParams sp;
          sp.design = design;
          sp.bigFreqGhz = bigGhz;
          sp.littleFreqGhz = littleGhz;
          return sp;
      }())
{}

bool
Soc::runUntil(const bool &stop, Tick limit)
{
    return eq.runUntil(stop, limit);
}

} // namespace bvl
