#include "soc/run_driver.hh"

#include "sim/check/forensics.hh"
#include "sim/io/io_fault.hh"
#include "sim/logging.hh"
#include "sim/watchdog.hh"
#include "soc/fast_forward.hh"

namespace bvl
{

RunResult
runWorkload(Design design, Workload &workload, const RunOptions &opts)
{
    // Divert this thread's diagnostics into the result for the
    // duration of the run: sweep workers must not interleave on
    // stderr, and each result should own its own warnings.
    LogCapture capture;

    RunResult r;
    r.workload = workload.name();
    r.design = designName(design);

    std::unique_ptr<Soc> soc;
    std::unique_ptr<WsRuntime> runtime;
    bool done = false;
    bool finished = false;
    std::optional<double> estimatedNs;
    std::map<std::string, std::uint64_t> extraStats;

    try {
        SocParams sp;
        sp.design = design;
        sp.bigFreqGhz = opts.bigGhz;
        sp.littleFreqGhz = opts.littleGhz;
        if (opts.engineOverride)
            sp.engineOverride =
                std::make_unique<VEngineParams>(*opts.engineOverride);
        sp.faults = opts.faults;
        sp.check = opts.check;
        sp.trace = opts.trace;
        soc = std::make_unique<Soc>(std::move(sp));

        workload.init(soc->backing);

        // Sampled / checkpointed runs dispatch through the
        // fast-forward engine instead of the dispatch below.
        bool ffMode = opts.sampling.enabled() ||
                      opts.checkpoint.enabled();

        // Lockstep is exact only when exactly one component fetches a
        // single program stream; task graphs degrade to invariants
        // only. Arm before any program is dispatched: arming
        // snapshots the initialized backing store for the reference
        // model. The fast-forward engine rejects lockstep itself (the
        // checker must observe every fetch), so don't arm it here.
        RunShape shape = soc->shape(workload.isDataParallel());
        if (!ffMode)
            soc->armLockstep(!shape.taskGraph);

        auto onDone = [&] { done = true; };

        // Always built: its constructor interns the runtime.* stats
        // every run reports. Only a task graph gives it a heartbeat.
        runtime = std::make_unique<WsRuntime>(*soc);
        if (shape.taskGraph)
            runtime->registerProgress(soc->watchdog);

        if (ffMode) {
            // Dispatch happens inside runFastForwarded(), below, after
            // the watchdog is armed.
        } else if (shape.taskGraph) {
            runtime->run(workload.taskGraph(), shape.useBig,
                         shape.littleWorkers, shape.vector, onDone);
        } else {
            ProgramPtr prog = shape.vector ? workload.vectorProgram()
                                           : workload.scalarProgram();
            bvl_assert(prog != nullptr, "%s has no vector program",
                       workload.name().c_str());
            soc->streamCore()->runProgram(prog, workload.fullRangeArgs(),
                                          onDone);
        }

        // A wall-clock deadline rides on the watchdog's periodic check
        // events, so setting one arms the watchdog unconditionally.
        if (opts.watchdog || opts.wallDeadlineSec > 0.0) {
            soc->watchdog.setInterval(static_cast<Tick>(
                opts.watchdogIntervalNs * ticksPerNs));
            soc->watchdog.setWallDeadline(opts.wallDeadlineSec);
            soc->watchdog.arm();
        }

        if (ffMode) {
            FfRunOutcome ffo = runFastForwarded(*soc, workload, opts);
            finished = ffo.finished;
            estimatedNs = ffo.estimatedNs;
            extraStats = std::move(ffo.extraStats);
        } else {
            Tick limit = static_cast<Tick>(opts.limitNs * ticksPerNs);
            finished = soc->runUntil(done, limit);
        }

        if (finished) {
            r.status = RunStatus::ok;
            if (opts.verifyResult) {
                r.verified = workload.verify(soc->backing);
                if (!r.verified) {
                    r.status = RunStatus::verify_failed;
                    r.message = "result verification failed";
                }
            }
        } else if (soc->eq.empty()) {
            // The queue drained with the workload incomplete: a lost
            // wakeup. With the watchdog armed its check event keeps
            // the queue alive, so this branch is the watchdog-off path.
            r.status = RunStatus::deadlock;
            r.message = "event queue drained before completion\n" +
                        soc->watchdog.report();
        } else {
            r.status = RunStatus::time_limit;
            r.message = "simulated-time limit expired";
            warn("%s on %s: simulated-time limit (%g ns) expired",
                 r.workload.c_str(), r.design.c_str(), opts.limitNs);
        }
    } catch (const io::IoCrashError &) {
        // An injected crash point models process death: it must
        // unwind past the run-status machinery, not be absorbed as
        // one more sim_error.
        throw;
    } catch (const CheckError &e) {
        r.status = RunStatus::check_failed;
        r.message = e.what();
        if (e.hasDivergence())
            r.divergence = e.divergence();
    } catch (const WallDeadlineError &e) {
        r.status = RunStatus::deadline;
        r.message = e.what();
    } catch (const DeadlockError &e) {
        r.status = RunStatus::deadlock;
        r.message = e.what();
    } catch (const SimError &e) {
        r.status = RunStatus::sim_error;
        r.message = e.what();
    }

    if (soc) {
        soc->watchdog.disarm();
        // Flush the trace footer and the final (partial) stat sample
        // even when the run failed — a truncated-but-valid trace is
        // exactly what failure forensics wants.
        if (soc->tracer())
            soc->tracer()->finish();
        if (!r.ok()) {
            // Forensics capture: final heartbeat table and a last
            // invariant sweep, regardless of how the run failed.
            r.heartbeats = soc->watchdog.snapshot();
            if (soc->checker())
                r.invariantViolations = soc->checker()->invariantReport();
        }
        r.finished = finished;
        r.ns = soc->elapsedNs();
        // A sampled run reports the extrapolated runtime, not the
        // (much shorter) detailed-simulated time.
        if (estimatedNs)
            r.ns = *estimatedNs;
        for (const auto &kv : soc->stats.all())
            r.stats[kv.first] = kv.second.value();
        for (const auto &kv : extraStats)
            r.stats[kv.first] = kv.second;
    }
    r.log = capture.take();
    return r;
}

RunResult
runWorkload(Design design, const std::string &name, Scale scale,
            const RunOptions &opts)
{
    // Also capture diagnostics emitted while *building* the workload
    // (graph generation, program assembly) — they belong to this run.
    LogCapture capture;
    auto w = makeWorkload(name, scale);
    if (!w) {
        RunResult r;
        r.workload = name;
        r.design = designName(design);
        r.status = RunStatus::sim_error;
        r.message = "unknown workload '" + name + "'";
        warn("%s", r.message.c_str());
        r.log = capture.take();
        return r;
    }
    auto r = runWorkload(design, *w, opts);

    // Forensics: only this overload knows the (name, scale) pair a
    // replay recipe needs, so the failure report is written here.
    if (!r.ok() && !opts.check.forensicsPath.empty()) {
        SweepJob recipe{design, name, scale, opts};
        if (writeFailureReport(opts.check.forensicsPath, r, recipe))
            inform("failure report written to %s",
                   opts.check.forensicsPath.c_str());
    }

    // Construction happened before the run, so its text goes first.
    r.log = capture.take() + r.log;
    return r;
}

} // namespace bvl
