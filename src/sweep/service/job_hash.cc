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
    // Where the prefix is kept (a checkpoint file, the farm, or
    // nowhere) is not semantics: a restored run is byte-identical to
    // one that fast-forwards, so only the fast-forward depth (which
    // changes what is simulated in detail) keys the hash. Sampling
    // options all stay: they change the measured windows and
    // therefore the result.
    canonical.checkpoint.path.clear();
    canonical.checkpoint.farm = false;
    canonical.checkpoint.farmDir.clear();

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
    // Jobs with a checkpoint file are excluded too: the run must
    // actually restore or publish that file (and quarantine a corrupt
    // one), which a replayed result cannot do.
    return job.opts.trace.path.empty() &&
           job.opts.trace.samplePath.empty() &&
           job.opts.checkpoint.path.empty();
}

} // namespace bvl
