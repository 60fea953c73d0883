/**
 * @file
 * What the big and the little core share: one program stream fetched
 * into a timing pipeline, started either from scratch (runProgram) or
 * as a detailed window over architectural state a caller has already
 * seeded (runWindow; the fast-forward engine, DESIGN.md §15).
 *
 * The base owns the stream (program, architectural state, completion
 * callback), the window bookkeeping the sampler reads back, the
 * argument seeding and the retire heartbeat. Each core resets its own
 * pipeline in beginWindow(). The per-fetch members are non-virtual and
 * inline: the fetch path makes no virtual call.
 */

#ifndef BVL_CPU_PROGRAM_CORE_HH
#define BVL_CPU_PROGRAM_CORE_HH

#include <functional>
#include <string>

#include "isa/arch_state.hh"
#include "isa/program.hh"
#include "sim/clock_domain.hh"

namespace bvl
{

class CheckContext;
class GsharePredictor;
class Watchdog;

class ProgramCore : public Clocked
{
  public:
    /**
     * Start executing @p prog from reset with argument registers
     * @p args; @p done fires when the program halts and all memory
     * has drained.
     */
    void runProgram(ProgramPtr prog, const ProgArgs &args,
                    std::function<void()> done);

    /**
     * Run a detailed-timing window over at most @p maxFetch dynamic
     * instructions without resetting architectural state — the
     * fast-forward engine seeds ArchState functionally and then
     * interleaves detailed windows with functional regions
     * (DESIGN.md §15). @p maxFetch == 0 means run to the halt.
     * @p markFetch != 0 records the tick of that fetch
     * (windowMarkTick()): the sampler measures steady-state throughput
     * as the fetch-to-fetch span [markFetch, maxFetch] inside one
     * window, where fetch is retire-coupled once the pipeline has
     * filled.
     */
    void runWindow(ProgramPtr prog, std::uint64_t maxFetch,
                   std::function<void()> done,
                   std::uint64_t markFetch = 0);

    /**
     * Reset architectural state, load the argument registers @p args
     * and reset the branch predictor (if any): the state runProgram()
     * starts from, and the state the fast-forward engine steps.
     */
    void seed(const ProgArgs &args);

    ArchState &archState() { return arch; }
    /** This core's port in the memory system (MemSystem core id). */
    unsigned coreId() const { return id; }
    /** Branch predictor (null for a core without one). */
    virtual GsharePredictor *predictor() { return nullptr; }

    /** Instructions fetched by the current/last window. */
    std::uint64_t windowFetched() const { return windowFetched_; }
    /**
     * Tick of the window's last fetch. Sampled measurement spans
     * window start to here, so the end-of-window drain — simulated
     * only to leave consistent state behind — is not attributed to
     * the measured instructions.
     */
    Tick windowLastFetchTick() const { return windowLastFetch_; }
    /** Tick of the runWindow() markFetch'th fetch (0 = never hit). */
    Tick windowMarkTick() const { return windowMark_; }

    /** Dynamic instructions retired by this core. */
    std::uint64_t retired() const { return numRetired; }

    /**
     * Attach the checker front end (nullptr = disarmed; the hot paths
     * then cost exactly one null-pointer branch, DESIGN.md §12).
     */
    void setCheckContext(CheckContext *cc) { check = cc; }

    /** Register the retire stage's heartbeat with a watchdog. */
    void registerProgress(Watchdog &wd);

    /** Pipeline occupancy snapshot for deadlock diagnostics. */
    virtual std::string progressDetail() const = 0;

  protected:
    ProgramCore(ClockDomain &cd, std::string name, unsigned coreId,
                unsigned vlenBits);

    /** Core-specific pipeline reset at the start of every window. */
    virtual void beginWindow() = 0;

    /** True once the window's fetch budget is spent. */
    bool fetchLimitHit() const
    { return fetchStopAt != 0 && windowFetched_ >= fetchStopAt; }

    /** Count one fetch at @p now against the window. */
    void
    countFetch(Tick now)
    {
        ++windowFetched_;
        windowLastFetch_ = now;
        if (windowFetched_ == markFetchAt)
            windowMark_ = now;
    }

    /**
     * The window has drained: go idle, tell the checker, and fire the
     * completion callback one cycle later (it may start another
     * program at once).
     */
    void finishWindow();

    const unsigned id;
    ProgramPtr prog;
    ArchState arch;
    CheckContext *check = nullptr;
    bool running = false;
    bool haltSeen = false;     ///< halt fetched; stop fetching
    std::uint64_t numRetired = 0;

  private:
    std::function<void()> onDone;
    /** Window fetch budget (0 = unlimited) and fetches so far. */
    std::uint64_t fetchStopAt = 0;
    std::uint64_t windowFetched_ = 0;
    std::uint64_t markFetchAt = 0;
    Tick windowLastFetch_ = 0;
    Tick windowMark_ = 0;
};

} // namespace bvl

#endif // BVL_CPU_PROGRAM_CORE_HH
