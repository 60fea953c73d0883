/**
 * @file
 * Checker front end shared by every timed component.
 *
 * A Soc owns at most one CheckContext, created only when RunOptions
 * asks for checking. Cores and engines hold a raw `CheckContext *`
 * that stays nullptr in normal runs, so the *entire* disarmed cost on
 * the retire/fetch hot paths is one null-pointer branch: no
 * allocation, no stat lookup, no virtual call (DESIGN.md §11/§12).
 *
 * The context multiplexes two independent facilities:
 *
 *  - Lockstep checking for one armed instruction stream. Hooks carry
 *    the calling component's `this` as an opaque stream tag; only the
 *    armed component reaches the LockstepChecker, other components'
 *    hooks fall through to the invariant sweep logic.
 *
 *  - Structural invariant sweeps over the registry the context owns,
 *    which components populate when the Soc constructs it. Sweeps run
 *    every invariantPeriod retires (across all streams), at drain
 *    points, and once more on the run driver's failure path.
 *
 * Any violation or divergence raises CheckError, which the run driver
 * maps to RunStatus::check_failed and feeds into forensics capture.
 */

#ifndef BVL_SIM_CHECK_CHECK_CONTEXT_HH
#define BVL_SIM_CHECK_CHECK_CONTEXT_HH

#include <memory>
#include <string>

#include "sim/check/invariants.hh"
#include "sim/check/lockstep.hh"
#include "sim/stats.hh"

namespace bvl
{

/** Checker knobs carried by RunOptions and SocParams. */
struct CheckOptions
{
    /** Run the functional reference model against every retire. */
    bool lockstep = false;
    /** Sweep registered structural invariants during the run. */
    bool invariants = false;
    /** Retires of pipeline history kept for divergence reports. */
    unsigned retireContext = 8;
    /** Sweep invariants every this many retires (across streams). */
    unsigned invariantPeriod = 64;
    /**
     * When non-empty, any non-ok run writes a JSON failure report
     * (with replay recipe) to this file. Works even with both
     * checkers off — forensics capture only needs the run driver.
     */
    std::string forensicsPath;

    /** True when the Soc needs to construct a CheckContext. */
    bool enabled() const { return lockstep || invariants; }
};

class CheckContext
{
  public:
    CheckContext(const CheckOptions &opts, StatGroup &stats);

    const CheckOptions &options() const { return opts; }
    InvariantRegistry &invariants() { return registry; }

    /**
     * Arm lockstep checking for the stream identified by @p tag (the
     * component's address). @p vectorStream routes the engine-side
     * hooks to the checker. Returns false if lockstep was not
     * requested.
     */
    bool armLockstep(const void *tag, std::string streamName,
                     unsigned vlenBits, unsigned chimes,
                     const BackingStore &snapshot, bool vectorStream);

    bool lockstepArmed() const { return checker != nullptr; }
    LockstepChecker *lockstep() { return checker.get(); }

    /** Pipeline-state provider used in divergence reports. */
    void setContextProvider(std::function<std::string()> fn);

    // --- core-side hooks (tag = calling component's this) -------------

    void
    onProgramStart(const void *tag, const Program *prog,
                   const ArchState &arch)
    {
        if (checker && tag == armedTag)
            checker->onProgramStart(prog, arch);
    }

    void
    onFetchExecuted(const void *tag, const ArchState &arch,
                    const ExecTrace &tr, const BackingStore &mem,
                    Tick now)
    {
        if (checker && tag == armedTag)
            checker->onFetchExecuted(arch, tr, mem, now);
    }

    void
    onVecQueued(const void *tag)
    {
        if (checker && tag == armedTag)
            checker->onVecQueued();
    }

    void onRetire(const void *tag, Tick now);
    void onDrain(const void *tag, Tick now);

    // --- engine-side hooks -------------------------------------------

    void
    onVecDispatch(SeqNum vseq)
    {
        if (checker && vecArmed)
            checker->onVecDispatch(vseq);
    }

    void onUopRetired(SeqNum vseq, unsigned chime, Tick now);

    void
    onVecComplete(SeqNum vseq)
    {
        if (checker && vecArmed)
            checker->onVecComplete(vseq);
    }

    // --- invariants ---------------------------------------------------

    /** Sweep now; throws CheckError naming every violated invariant. */
    void sweepInvariants(const char *where);

    /**
     * Non-throwing sweep for the run driver's failure report: returns
     * "" when everything holds, else the violation report.
     */
    std::string invariantReport();

  private:
    CheckOptions opts;
    InvariantRegistry registry;

    std::unique_ptr<LockstepChecker> checker;
    const void *armedTag = nullptr;
    bool vecArmed = false;
    /** Provider installed before arming; handed to the checker. */
    std::function<std::string()> pendingContextProvider;

    std::uint64_t retireCount = 0;

    StatHandle sRetires;
    StatHandle sUops;
    StatHandle sSweeps;
    StatHandle sDivergences;
};

} // namespace bvl

#endif // BVL_SIM_CHECK_CHECK_CONTEXT_HH
