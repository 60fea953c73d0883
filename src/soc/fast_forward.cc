#include "soc/fast_forward.hh"

#include "sim/logging.hh"
#include "soc/checkpoint.hh"
#include "soc/checkpoint_farm.hh"

namespace bvl
{

namespace
{

/**
 * The fast-forward loop over @p prog's decoded instructions, with the
 * warming (@p Warm) and the warm-stream recording (@p Record) fixed at
 * compile time. The warm calls are those of the fetch buffer, the
 * scalar data port and the VMU, in program order.
 */
template <bool Warm, bool Record>
FastForwardResult
stepLoop(Soc &soc, ProgramCore &core, const Program &prog,
         std::uint64_t maxInsts, WarmTrace *traceOut)
{
    ArchState &arch = core.archState();
    const unsigned coreId = core.coreId();
    GsharePredictor *bpred = core.predictor();
    const DecodedInstr *code = prog.decoded();
    const std::uint64_t size = prog.size();
    BackingStore &mem = soc.backing;
    FastForwardResult res;
    ExecTrace tr;
    Addr lastFetchLine = ~Addr(0);
    while (res.executed < maxInsts && !arch.halted && arch.pc < size) {
        if constexpr (Warm) {
            // One I-side warm per fetched line, as the fetch buffer
            // would request it.
            Addr ia = prog.instAddr(arch.pc);
            if (lineOf(ia) != lastFetchLine) {
                lastFetchLine = lineOf(ia);
                soc.mem.warmFetch(coreId, ia);
                if constexpr (Record)
                    traceOut->add(WarmRecord::fetch, lineOf(ia), false);
            }
        }

        const DecodedInstr &d = code[arch.pc];
        d.exec(arch, d, mem, tr);
        ++res.executed;

        if (bpred && tr.isBranch && tr.inst->op != Op::jump)
            bpred->update(tr.pc, tr.taken);

        if constexpr (Warm) {
            if (!tr.elemAddrs.empty()) {
                // Vector element traffic reaches the shared L2 in
                // every engine configuration, one request per line as
                // the VMU makes them. The banked L1D image is
                // mode-dependent and is left to the detailed warmup
                // window instead (DESIGN.md §15).
                auto warmLine = [&](Addr ln) {
                    soc.mem.warmL2(ln << lineShift, tr.isStore);
                    if constexpr (Record)
                        traceOut->add(WarmRecord::l2, ln, tr.isStore);
                };
                const Instr &in = *tr.inst;
                if ((in.op == Op::vle || in.op == Op::vse) && !in.masked) {
                    // Unit stride: the elements cover their lines in
                    // ascending order, one call per line.
                    Addr last = lineOf(tr.elemAddrs.back());
                    for (Addr ln = lineOf(tr.elemAddrs.front());
                         ln <= last; ++ln)
                        warmLine(ln);
                } else {
                    Addr prevLine = ~Addr(0);
                    for (Addr a : tr.elemAddrs) {
                        if (lineOf(a) != prevLine) {
                            prevLine = lineOf(a);
                            warmLine(prevLine);
                        }
                    }
                }
            } else if (tr.isMem) {
                soc.mem.warmData(coreId, tr.addr, tr.isStore);
                if constexpr (Record)
                    traceOut->add(WarmRecord::data, lineOf(tr.addr),
                                  tr.isStore);
            }
        }

        if (tr.halted) {
            res.halted = true;
            break;
        }
    }
    return res;
}

} // namespace

FastForwardResult
fastForward(Soc &soc, ProgramCore &core, const Program &prog,
            std::uint64_t maxInsts, bool warm, WarmTrace *traceOut)
{
    if (!warm)
        return stepLoop<false, false>(soc, core, prog, maxInsts, nullptr);
    if (traceOut)
        return stepLoop<true, true>(soc, core, prog, maxInsts, traceOut);
    return stepLoop<true, false>(soc, core, prog, maxInsts, nullptr);
}

namespace
{

/**
 * Fast-forward the checkpoint prefix of @p ffInsts instructions,
 * warming as it goes and, with @p trace, recording the warm stream.
 * fatal()s if the program halts inside the prefix: a checkpoint there
 * would leave the detailed run nothing to measure.
 */
void
producePrefix(Soc &soc, ProgramCore &core, const Program &prog,
              std::uint64_t ffInsts, WarmTrace *trace)
{
    auto ff = fastForward(soc, core, prog, ffInsts, true, trace);
    if (ff.halted)
        fatal("workload halted after %llu instructions during "
              "fast-forward; reduce ffInsts",
              static_cast<unsigned long long>(ff.executed));
}

/**
 * Bring @p soc to the end of the prefix through its checkpoint entry:
 * the farm's content-addressed entry with ckpt.farm, else the file at
 * ckpt.path. An entry that verifies is restored. Otherwise the prefix
 * is produced and published to the entry, and a corrupt entry is
 * quarantined on the way; without ffInsts there is nothing to
 * produce, so an entry that does not restore fails the run and is
 * left alone. A mismatched entry is always fatal.
 */
void
restoreOrProduce(Soc &soc, Workload &workload, ProgramCore &core,
                 const Program &prog, const CheckpointOptions &ckpt)
{
    // Digest the initial inputs before the prefix (or the restore)
    // mutates memory.
    std::string inputSha = checkpointInputSha256(soc, workload);

    // A named file is no farm entry: a State of its own keeps it out
    // of the farm's counters.
    ContentStore::State unshared;
    ContentStore store = ckpt.farm
                             ? CheckpointFarm::open(ckpt.farmDir)
                             : ContentStore("", kCheckpointKind,
                                            unshared);
    std::string entry = ckpt.path;
    // Message parts: "checkpoint farm: restored prefix <hash> from
    // <entry>", or "checkpoint: restored prefix from <path>".
    const char *kind = ckpt.farm ? "checkpoint farm" : "checkpoint";
    std::string tag;
    if (ckpt.farm) {
        std::string hash = CheckpointFarm::prefixHashHex(
            workload.name(), ckpt.ffInsts, checkpointFlavor(soc),
            soc.vlenBits(), inputSha);
        entry = store.entryPath(hash);
        tag = " " + hash.substr(0, 12);
    }

    // A farm claimant, or the sole reader of a named file, may
    // quarantine: the claim orders the rename against the producer's
    // re-publish, so farm cells that read the same corrupt bytes
    // cannot count it twice or rename the fresh entry aside.
    auto tryRestore = [&](bool mayQuarantine) -> bool {
        std::string bytes, err;
        CheckpointStatus st =
            store.read(entry, &bytes, &err)
                ? applyCheckpoint(bytes, soc, workload.name(),
                                  inputSha, &err)
                : CheckpointStatus::missing;
        if (st == CheckpointStatus::ok) {
            if (ckpt.farm) {
                ContentStore::touch(entry);
                ++CheckpointFarm::state().hits;
            }
            notice("%s: restored prefix%s from %s", kind, tag.c_str(),
                   entry.c_str());
            return true;
        }
        if (st == CheckpointStatus::mismatch)
            // A farm key covers everything the file identifies itself
            // by, so there this means a hash collision or a
            // mis-filed entry; a named file was taken from another
            // run. A quiet re-production would mask either.
            fatal("checkpoint %s does not match this run: %s",
                  entry.c_str(), err.c_str());
        if (ckpt.ffInsts == 0)
            fatal("cannot restore checkpoint %s (%s): %s; without "
                  "ffInsts there is no prefix to produce in its place",
                  entry.c_str(), checkpointStatusName(st),
                  err.c_str());
        if (st == CheckpointStatus::corrupt && mayQuarantine)
            store.quarantine(entry, err);
        return false;
    };

    if (store.publishDisabled()) {
        // A previous farm publish failed: don't contend on claims or
        // retry the bad disk per cell, just fast-forward privately.
        producePrefix(soc, core, prog, ckpt.ffInsts, nullptr);
        return;
    }
    // Optimistic fast path: a published entry restores with no lock
    // traffic at all.
    if (tryRestore(!ckpt.farm))
        return;
    // Single-flight: the first farm claimant produces, everyone else
    // blocks here and restores what it published.
    std::optional<ContentStore::Claim> claim;
    if (ckpt.farm) {
        claim.emplace(entry);
        if (claim->held() && tryRestore(true))
            return;
    }

    WarmTrace trace;
    producePrefix(soc, core, prog, ckpt.ffInsts, &trace);
    std::string err;
    if (store.publish(entry,
                      encodeCheckpoint(soc, workload.name(),
                                       ckpt.ffInsts, trace, inputSha),
                      &err)) {
        notice("%s: produced prefix%s at %s (%llu warm records)", kind,
               tag.c_str(), entry.c_str(),
               static_cast<unsigned long long>(trace.records()));
        if (ckpt.farm)
            store.evictOverBudget(CheckpointFarm::budgetBytesFromEnv(),
                                  entry);
    } else if (!ckpt.farm) {
        // The user named this file, so not writing it fails the run.
        // A failed farm publish leaves the run unharmed: the prefix
        // state is already in this SoC, and the farm just stops
        // accelerating other cells.
        fatal("cannot write checkpoint %s: %s", entry.c_str(),
              err.c_str());
    }
}

} // namespace

FfRunOutcome
runFastForwarded(Soc &soc, Workload &workload, const RunOptions &opts)
{
    const SamplingOptions &sam = opts.sampling;
    const CheckpointOptions &ckpt = opts.checkpoint;
    FfRunOutcome out;

    if (sam.enabled() && ckpt.enabled())
        fatal("sampling and checkpointing cannot be combined in one "
              "run");
    if (opts.check.lockstep)
        fatal("lockstep checking cannot be combined with fast-forward: "
              "the checker must observe every fetch");
    if (ckpt.farm && !ckpt.path.empty())
        fatal("the checkpoint farm names its own entries; farm mode "
              "cannot be combined with a checkpoint path");
    if (ckpt.farm && ckpt.ffInsts == 0)
        fatal("farm mode needs ffInsts > 0: the prefix length is "
              "part of the farm entry's identity");
    RunShape shape = soc.shape(workload.isDataParallel());
    if (shape.taskGraph)
        fatal("fast-forward requires a single program stream: a "
              "data-parallel workload on a design other than "
              "1b-4L/1bIV-4L (got %s on %s)",
              workload.name().c_str(), designName(soc.design()));

    ProgramPtr prog = shape.vector ? workload.vectorProgram()
                                   : workload.scalarProgram();
    if (!prog)
        fatal("%s has no vector program", workload.name().c_str());

    ProgramCore &core = *soc.streamCore();
    core.seed(workload.fullRangeArgs());

    Tick limit = static_cast<Tick>(opts.limitNs * ticksPerNs);
    auto runWindowBlocking = [&](std::uint64_t maxFetch,
                                 std::uint64_t markFetch = 0) -> bool {
        bool done = false;
        core.runWindow(prog, maxFetch, [&] { done = true; }, markFetch);
        return soc.runUntil(done, limit);
    };

    // --- checkpoint entry, or plain fast-forward ---------------------

    if (ckpt.enabled()) {
        if (ckpt.farm || !ckpt.path.empty())
            restoreOrProduce(soc, workload, core, *prog, ckpt);
        else
            // Plain fast-forward: the cold per-cell baseline a farm
            // amortizes away. No file is read or written.
            producePrefix(soc, core, *prog, ckpt.ffInsts, nullptr);
        out.finished = runWindowBlocking(0);
        return out;
    }

    // --- SMARTS-style sampling --------------------------------------

    std::uint64_t totalInsts = 0;
    std::uint64_t measuredInsts = 0;
    Tick measuredTicks = 0;
    unsigned periodsMeasured = 0;
    bool halted = false;

    for (unsigned per = 0; per < sam.periods && !halted; ++per) {
        if (sam.ffInsts > 0) {
            auto ff = fastForward(soc, core, *prog, sam.ffInsts, true);
            totalInsts += ff.executed;
            if (ff.halted) {
                halted = true;
                break;
            }
        }
        // Warmup and measurement share ONE detailed window, with the
        // measurement marked at the warmup boundary. A window starts
        // from a drained pipeline, so its first instructions pay
        // fill, the mode switch, and fetch sprinting ahead of retire
        // until the ROB is full; by the markFetch'th fetch the
        // front end is retire-coupled, and the fetch-to-fetch span
        // [mark, last] measures steady-state throughput. The
        // end-of-window drain — simulated only to leave consistent
        // state for the next functional region — is excluded the
        // same way, unless the program really halted in-window (that
        // drain is the program's actual tail and is kept).
        Tick t0 = soc.eq.now();
        if (!runWindowBlocking(sam.warmupInsts + sam.detailInsts,
                               sam.warmupInsts))
            return out;
        std::uint64_t fetched = core.windowFetched();
        totalInsts += fetched;
        halted = core.archState().halted;
        Tick tMark = sam.warmupInsts == 0 ? t0 : core.windowMarkTick();
        if (fetched > sam.warmupInsts &&
            (sam.warmupInsts == 0 || tMark != 0)) {
            measuredInsts += fetched - sam.warmupInsts;
            Tick tEnd = halted ? soc.eq.now()
                               : core.windowLastFetchTick();
            measuredTicks += tEnd - tMark;
            ++periodsMeasured;
        }
    }

    if (!halted) {
        // Final functional region: completes the workload so result
        // verification still applies, but warms nothing (nothing runs
        // after it). Capped like runFunctional() as a runaway guard.
        auto ff = fastForward(soc, core, *prog, 1ull << 32, false);
        totalInsts += ff.executed;
        if (!ff.halted)
            fatal("sampled run exceeded %llu instructions without "
                  "halting",
                  static_cast<unsigned long long>(1ull << 32));
    }
    out.finished = true;

    if (measuredInsts > 0) {
        out.estimatedNs = (double(measuredTicks) / ticksPerNs) *
                          (double(totalInsts) / double(measuredInsts));
    } else {
        warn("sampled run measured no detailed window; reporting "
             "detailed-simulated time only");
    }
    out.extraStats["sample.periodsMeasured"] = periodsMeasured;
    out.extraStats["sample.totalInsts"] = totalInsts;
    out.extraStats["sample.measuredInsts"] = measuredInsts;
    out.extraStats["sample.measuredTicks"] = measuredTicks;
    return out;
}

} // namespace bvl
