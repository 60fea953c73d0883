#include "sweep/service/job_hash.hh"

#include "soc/run_io.hh"
#include "sweep/service/digest.hh"

namespace bvl
{

std::string
jobHashHex(const SweepJob &job)
{
    // Strip fields that do not affect simulation output so a traced or
    // supervised run keys identically to a plain one.
    RunOptions canonical = job.opts;
    canonical.trace.path.clear();
    canonical.trace.samplePath.clear();
    canonical.check.forensicsPath.clear();
    canonical.wallDeadlineSec = 0.0;
    // Checkpoint paths are output/input locations, not semantics: a
    // restored run is byte-identical to an uninterrupted one, so only
    // the fast-forward depth (which changes what is simulated in
    // detail) keys the hash. Sampling options all stay: they change
    // the measured windows and therefore the result.
    canonical.checkpoint.savePath.clear();
    canonical.checkpoint.restorePath.clear();
    // Farm mode and strict-restore are likewise perf/robustness knobs
    // around the same byte-identical result: a farm-restored cell
    // matches a cold fast-forwarded one by construction.
    canonical.checkpoint.farm = false;
    canonical.checkpoint.farmDir.clear();
    canonical.checkpoint.strict = false;

    Sha256 d;
    auto feed = [&](const std::string &s) {
        d.update(s.data(), s.size());
        d.update("\0", 1);      // unambiguous field separator
    };
    feed(designName(job.design));
    feed(job.workload);
    feed(scaleName(job.scale));
    feed(runOptionsToJson(canonical).dump(0));
    feed(kLibraryRevision);
    return d.hex();
}

bool
jobCacheable(const SweepJob &job)
{
    // Checkpoint jobs are excluded too: saving must actually write
    // the file, and restoring must actually read it (exercising the
    // corrupt-checkpoint fallback), neither of which a replayed
    // result can reproduce.
    return job.opts.trace.path.empty() &&
           job.opts.trace.samplePath.empty() &&
           job.opts.checkpoint.savePath.empty() &&
           job.opts.checkpoint.restorePath.empty();
}

} // namespace bvl
