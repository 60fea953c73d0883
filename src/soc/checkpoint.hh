/**
 * @file
 * Versioned, digest-protected checkpoints of one simulated SoC
 * (DESIGN.md §15/§16).
 *
 * The v2 format is two-tier, so one checkpoint serves every cache
 * geometry that shares the same functional prefix:
 *
 *  - tier A (stored): design-independent architectural state — the
 *    executing core's ArchState dump, the branch-predictor tables
 *    (big-core flavors), and the full backing-store memory image.
 *  - tier B (rederived): warm microarchitectural state. Instead of
 *    cache tag/LRU images, the file carries the compact line-access
 *    stream fast-forward recorded (soc/warm_trace.hh); loading
 *    replays it through the restoring SoC's own warm ports, which
 *    reproduces exactly what a live fast-forward would have left in
 *    *that* SoC's caches and L2 directory — for any set count,
 *    associativity or index mode.
 *
 * Not captured, by construction: MSHRs, pipeline and engine state
 * (checkpoints are only taken at fast-forward boundaries where all of
 * those are empty) and DRAM state (the DRAM model is fixed-latency
 * with no row tracking, so it has nothing warmable).
 *
 * On-disk format: one JSON header line
 *   {"schema":"bvl-checkpoint-v2","version":2,"flavor":...,"vlen":N,
 *    "workload":...,"ffInsts":N,"inputSha256":...,
 *    "payloadBytes":N,"payloadSha256":...}
 * followed by a raw binary payload in host (little-endian) byte
 * order. "flavor" names the functional trajectory (which program
 * stream, which core kind executes it), "vlen" the vector length it
 * was traced at, and "inputSha256" digests the initial memory image +
 * register arguments — together they identify the prefix without
 * naming a design, which is what lets different designs share the
 * file. The payload SHA-256 protects against truncation, bit rot and
 * manual edits: any mismatch makes applyCheckpoint() report corrupt,
 * the caller quarantines the file and re-simulates; a checkpoint is
 * never silently trusted. v1 files fail the schema check and take the
 * same quarantine path.
 */

#ifndef BVL_SOC_CHECKPOINT_HH
#define BVL_SOC_CHECKPOINT_HH

#include <string>
#include <string_view>

#include "sim/io/content_store.hh"
#include "soc/soc.hh"
#include "soc/warm_trace.hh"
#include "workloads/workload.hh"

namespace bvl
{

enum class CheckpointStatus
{
    ok,        ///< loaded and applied
    missing,   ///< no readable file at the path
    corrupt,   ///< bad digest / truncated or malformed payload
    mismatch,  ///< valid file for a different prefix/flavor/geometry
};

const char *checkpointStatusName(CheckpointStatus s);

/**
 * The functional-trajectory flavor of @p soc's single program stream,
 * read off its data-parallel RunShape (soc/soc.hh): "little-scalar"
 * (1L), "big-scalar" (1b) or "big-vector" (the vector designs).
 * Together with vlenBits() this determines which program runs, which
 * core's ArchState holds it, and whether a branch predictor is
 * trained — everything design-specific about a prefix.
 */
const char *checkpointFlavor(const Soc &soc);

/**
 * SHA-256 over the initial functional inputs of a run: the
 * backing-store memory image (pages sorted by number) and the
 * workload's full-range register arguments. Workload name + scale +
 * datasets all fold into this one digest, which the checkpoint header
 * records and applyCheckpoint() verifies — a checkpoint can never be
 * applied to inputs it was not traced from. Must be computed before
 * fast-forward mutates memory.
 */
std::string checkpointInputSha256(const Soc &soc, Workload &workload);

/**
 * Serialize @p soc into checkpoint bytes (header line + payload).
 * @p trace is the warm line-access stream recorded during the
 * fast-forward that produced this state; @p inputSha is
 * checkpointInputSha256() of the run's initial inputs.
 */
std::string encodeCheckpoint(Soc &soc, const std::string &workloadName,
                             std::uint64_t ffInsts,
                             const WarmTrace &trace,
                             const std::string &inputSha);

/**
 * Apply checkpoint @p data to @p soc, replaying the stored warm
 * stream through the SoC's own cache hierarchy. The bytes are fully
 * parsed and verified (digest, workload/flavor/vlen/input identity,
 * predictor geometry, stream decode) before anything is applied, so
 * on any non-ok status @p soc is untouched. Never returns missing.
 */
CheckpointStatus applyCheckpoint(std::string_view data, Soc &soc,
                                 const std::string &workloadName,
                                 const std::string &inputSha,
                                 std::string *error = nullptr);

/**
 * Checkpoint files in a ContentStore: ".bvl" entries at "checkpoint.*"
 * sites; a farm directory's first-use sweep is "ckpt_farm.sweep".
 */
extern const ContentStore::Kind kCheckpointKind;

} // namespace bvl

#endif // BVL_SOC_CHECKPOINT_HH
