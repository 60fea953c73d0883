#include "mem/mem_system.hh"

namespace bvl
{

MemSystem::MemSystem(ClockDomain &uncore, StatGroup &sg,
                     MemSystemParams params)
    : p(std::move(params)),
      sIfetchReqs(sg.handle("sys.ifetchReqs")),
      sDataReqs(sg.handle("sys.dataReqs"))
{
    bankMap.numBanks = p.numLittle;

    dram = std::make_unique<Dram>(uncore, sg, p.dram);
    l2front = std::make_unique<L2Front>(uncore, sg, p.l2,
                                        p.invalPenalty, dram.get());

    for (unsigned i = 0; i < p.numLittle; ++i) {
        CacheParams dp = p.littleL1D;
        dp.name = "little" + std::to_string(i) + ".l1d";
        dp.numBanks = p.numLittle;
        littleL1Ds.push_back(std::make_unique<Cache>(
            uncore, sg, dp, l2front.get(), static_cast<int>(i)));
        l2front->addL1(littleL1Ds.back().get());

        CacheParams ip = p.littleL1I;
        ip.name = "little" + std::to_string(i) + ".l1i";
        littleL1Is.push_back(std::make_unique<Cache>(
            uncore, sg, ip, l2front.get(), -1));
    }

    CacheParams bdp = p.bigL1D;
    bdp.name = "big.l1d";
    bigL1Dc = std::make_unique<Cache>(uncore, sg, bdp, l2front.get(),
                                      static_cast<int>(p.numLittle));
    l2front->addL1(bigL1Dc.get());

    CacheParams bip = p.bigL1I;
    bip.name = "big.l1i";
    bigL1Ic = std::make_unique<Cache>(uncore, sg, bip, l2front.get(),
                                      -1);
}

void
MemSystem::setFaultInjector(FaultInjector *inj)
{
    dram->setFaultInjector(inj);
    l2front->l2cache().setFaultInjector(inj);
    for (auto &l1d : littleL1Ds)
        l1d->setFaultInjector(inj);
    for (auto &l1i : littleL1Is)
        l1i->setFaultInjector(inj);
    bigL1Dc->setFaultInjector(inj);
    bigL1Ic->setFaultInjector(inj);
}

void
MemSystem::setTracer(Tracer *t)
{
    bigL1Ic->setTracer(t);
    bigL1Dc->setTracer(t);
    for (auto &l1i : littleL1Is)
        l1i->setTracer(t);
    for (auto &l1d : littleL1Ds)
        l1d->setTracer(t);
    l2front->l2cache().setTracer(t);
    dram->setTracer(t);
}

void
MemSystem::registerProgress(Watchdog &wd)
{
    // One heartbeat per cache keeps the diagnostic table readable and
    // pinpoints which level stopped servicing requests.
    for (auto &l1d : littleL1Ds)
        l1d->registerProgress(wd);
    bigL1Dc->registerProgress(wd);
    l2front->l2cache().registerProgress(wd);
    dram->registerProgress(wd);
}

void
MemSystem::registerInvariants(InvariantRegistry &reg)
{
    for (auto &l1d : littleL1Ds)
        l1d->registerInvariants(reg);
    for (auto &l1i : littleL1Is)
        l1i->registerInvariants(reg);
    bigL1Dc->registerInvariants(reg);
    bigL1Ic->registerInvariants(reg);
    l2front->l2cache().registerInvariants(reg);
}

void
MemSystem::fetchInst(unsigned coreId, Addr addr, MemCallback done)
{
    sIfetchReqs++;
    l1i(coreId).access(addr, false, std::move(done));
}

void
MemSystem::accessData(unsigned coreId, Addr addr, bool isWrite,
                      MemCallback done)
{
    sDataReqs++;
    l1d(coreId).access(addr, isWrite, std::move(done));
}

void
MemSystem::accessBank(unsigned bank, Addr addr, bool isWrite,
                      MemCallback done)
{
    bvl_assert(bank < p.numLittle, "bad bank %u", bank);
    sDataReqs++;
    littleL1Ds[bank]->access(addr, isWrite, std::move(done));
}

void
MemSystem::accessL2(Addr addr, bool isWrite, MemCallback done)
{
    sDataReqs++;
    l2front->request(-1, lineAlign(addr), isWrite, std::move(done));
}

void
MemSystem::setVectorMode(bool on)
{
    auto mode = on ? IndexMode::vectorBanked : IndexMode::scalarPrivate;
    for (auto &l1d : littleL1Ds)
        l1d->setIndexMode(mode);
}

} // namespace bvl
