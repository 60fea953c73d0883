/**
 * @file
 * Canonical job identity for the sweep service.
 *
 * A job's hash is the SHA-256 of (design, workload, scale, canonical
 * serialized RunOptions, library revision). Two jobs with the same
 * hash are guaranteed to produce the same RunResult, so the hash keys
 * both the write-ahead journal and the content-addressed result cache
 * (DESIGN.md §14).
 *
 * Canonicalization strips the RunOptions fields that do not affect
 * simulation output: output paths (trace path, sample path, forensics
 * path) and host-time supervision (wallDeadlineSec). Everything else
 * — including the engine-parameter override of the Figure 7/8
 * ablations and the fault plan — feeds the hash.
 *
 * The library revision ties cached results to simulation semantics:
 * it is a SHA-256 over every file under src/, derived at build time
 * (src/library_revision.cmake), so any change to the simulator's
 * sources invalidates stale caches instead of serving wrong numbers.
 */

#ifndef BVL_SWEEP_SERVICE_JOB_HASH_HH
#define BVL_SWEEP_SERVICE_JOB_HASH_HH

#include <string>

#include "soc/run_driver.hh"

namespace bvl
{

/** SHA-256 hex of the src/ tree this library was built from. */
extern const char *const kLibraryRevision;

/** 64-char hex SHA-256 identifying @p job (see file comment). */
std::string jobHashHex(const SweepJob &job);

/**
 * Jobs with armed per-run output files (Perfetto trace, stat samples)
 * have side effects a cached result cannot reproduce, so the service
 * always re-simulates them and never journals or caches them.
 */
bool jobCacheable(const SweepJob &job);

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_JOB_HASH_HH
