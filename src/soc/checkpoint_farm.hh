/**
 * @file
 * Content-addressed checkpoint-prefix farm (DESIGN.md §16).
 *
 * A sweep re-runs one workload prefix under many design points. With
 * v2 two-tier checkpoints the fast-forwarded prefix is identical for
 * every cell that shares (workload, ffInsts, flavor, vlen, inputs) —
 * so the farm stores exactly one entry per such prefix, keyed by its
 * SHA-256, and every cell after the first restores instead of
 * re-simulating.
 *
 * The entries live in a ContentStore (sim/io/content_store.hh), which
 * owns publishing, quarantine, the sticky publish disable, the
 * stale-temp sweep, the single-flight Claim and LRU eviction. The farm
 * adds the prefix key, the directory and budget knobs, and the one
 * store State that every farm cell in the process shares.
 */

#ifndef BVL_SOC_CHECKPOINT_FARM_HH
#define BVL_SOC_CHECKPOINT_FARM_HH

#include <cstdint>
#include <string>

#include "sim/io/content_store.hh"

namespace bvl
{

class CheckpointFarm
{
  public:
    /** $BVL_CKPT_DIR, defaulting to ".bvl-ckpt". */
    static std::string defaultDir();

    /** BVL_CKPT_BUDGET_MB in bytes; 0 (the default) = unlimited. */
    static std::uint64_t budgetBytesFromEnv();

    /**
     * Content key of one fast-forward prefix. Everything that shapes
     * the functional trajectory and warm stream goes in: workload,
     * instruction count, flavor + vlen (which program text runs and
     * on what), the input digest (memory image + arguments, hence
     * scale and datasets), and the library revision.
     */
    static std::string prefixHashHex(const std::string &workloadName,
                                     std::uint64_t ffInsts,
                                     const std::string &flavor,
                                     std::uint64_t vlenBits,
                                     const std::string &inputSha);

    /** The farm store over @p dir ("" = defaultDir()). */
    static ContentStore open(const std::string &dir);

    /**
     * The store State every farm cell in this process shares, which
     * the sweep summary reports. Isolate-mode children lose theirs at
     * exit (each cell's log still tells the story).
     */
    static ContentStore::State &state();

    static std::uint64_t hits() { return state().hits; }
    static std::uint64_t produced() { return state().published; }
};

} // namespace bvl

#endif // BVL_SOC_CHECKPOINT_FARM_HH
