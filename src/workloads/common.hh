/**
 * @file
 * Shared helpers for workload implementations: the memoizing program
 * builder, the range base every data-parallel app derives from,
 * standard data-region addresses, range chunking into task graphs,
 * and float comparison for verification.
 */

#ifndef BVL_WORKLOADS_COMMON_HH
#define BVL_WORKLOADS_COMMON_HH

#include <algorithm>
#include <cmath>

#include "workloads/progutil.hh"
#include "workloads/workload.hh"

namespace bvl
{

/** Standard data-region bases (each Soc has a private address space). */
constexpr Addr regionA = 0x01000000;
constexpr Addr regionB = 0x02000000;
constexpr Addr regionC = 0x03000000;
constexpr Addr regionD = 0x04000000;
constexpr Addr regionE = 0x05000000;

class WorkloadBase : public Workload
{
  protected:
    /**
     * The program cached in @p slot. Its first request assembles it:
     * @p emit writes the body into an Asm named @p name, a halt ends
     * it, and it is placed at this workload's next text base. So a
     * workload's programs are placed in the order they are first
     * requested, and a program nobody asks for is never built.
     */
    template <class Emit>
    ProgramPtr
    program(ProgramPtr &slot, std::string name, Emit &&emit)
    {
        if (!slot) {
            Asm a(std::move(name));
            emit(a);
            a.halt();
            slot = a.finish();
            slot->setTextBase(firstTextBase + textStride * placed++);
        }
        return slot;
    }

    /** The size a workload uses at @p scale. */
    static constexpr std::uint64_t
    byScale(Scale scale, std::uint64_t tiny, std::uint64_t small,
            std::uint64_t medium)
    {
        return scale == Scale::tiny ? tiny :
               scale == Scale::small ? small : medium;
    }

    /**
     * Single-phase task graph: the range [0, n) split into
     * @p numChunks contiguous chunks over the given programs.
     */
    static TaskGraph
    rangeChunks(ProgramPtr scalar, ProgramPtr vector_, std::uint64_t n,
                std::uint64_t numChunks)
    {
        TaskGraph g;
        g.phases.emplace_back();
        std::uint64_t per = (n + numChunks - 1) / numChunks;
        for (std::uint64_t s = 0; s < n; s += per) {
            Task t;
            t.scalar = scalar;
            t.vector = vector_;
            t.args = {{xreg(10), s}, {xreg(11), std::min(n, s + per)}};
            g.phases.back().tasks.push_back(std::move(t));
        }
        return g;
    }

    static bool
    closeEnough(float got, float want, float relTol = 1e-3f)
    {
        float mag = std::max(std::fabs(want), 1.0f);
        return std::fabs(got - want) <= relTol * mag;
    }

    /**
     * Default chunk count: work-stealing runtimes over-decompose so
     * the fast (vector-capable) worker can absorb most of the work;
     * a slow worker's single chunk must not dominate the critical
     * path.
     */
    static constexpr unsigned defaultChunks = 64;

  private:
    /**
     * Text lives far above all data regions, 64 KiB per program, so
     * instruction lines of different programs never alias in
     * confusing ways.
     */
    static constexpr Addr firstTextBase = 0x40000000;
    static constexpr Addr textStride = 0x10000;

    /**
     * Programs this instance has placed. The count is per-instance, so
     * a workload's program addresses depend only on the order it builds
     * its own programs, never on what else the process (or another
     * thread) has constructed; each Soc has a private address space and
     * runs one workload, so instances never collide.
     */
    std::uint32_t placed = 0;
};

/**
 * Base of every data-parallel app (DESIGN.md §7). The paper compiles
 * each app twice over one element range: scalar task code for the
 * little cores and RVV code for the vector units. A subclass writes
 * the two loops over [x10, x11) (emitScalar, emitVector); this base
 * owns the whole-problem range [lo, hi) and builds the programs
 * <name>.scalar and <name>.vector on first request (dashes dropped
 * from the name: jacobi-2d builds jacobi2d.scalar). Its task graph
 * runs [0, hi) as min(defaultChunks, hi) work-stealing chunks; apps
 * with phases of their own (or lo > 0) override taskGraph().
 */
class RangeWorkload : public WorkloadBase
{
  public:
    bool isDataParallel() const final { return true; }

    ProgArgs
    fullRangeArgs() const final
    {
        return {{xreg(10), lo}, {xreg(11), hi}};
    }

    ProgramPtr
    scalarProgram() final
    {
        return program(scalarProg, programName(".scalar"),
                       [this](Asm &a) { emitScalar(a); });
    }

    ProgramPtr
    vectorProgram() final
    {
        return program(vectorProg, programName(".vector"),
                       [this](Asm &a) { emitVector(a); });
    }

    TaskGraph
    taskGraph() override
    {
        // Vector first, scalar second, as two statements: the order
        // fixes their text bases, which pick the L2 sets their fetches
        // use, so it can change simulated results and must not be left
        // to the unspecified order of function arguments.
        ProgramPtr vector_ = vectorProgram();
        ProgramPtr scalar = scalarProgram();
        return rangeChunks(scalar, vector_, hi,
                           std::min<std::uint64_t>(defaultChunks, hi));
    }

  protected:
    RangeWorkload(std::uint32_t lo, std::uint32_t hi) : lo(lo), hi(hi) {}

    /** The scalar loop over [x10, x11); the builder adds the halt. */
    virtual void emitScalar(Asm &a) = 0;
    /** The vector loop over [x10, x11); the builder adds the halt. */
    virtual void emitVector(Asm &a) = 0;

    /**
     * The whole-problem range. 32 bits keep a range workload to one
     * 56-byte allocation: constructing workloads is part of every
     * run's set-up time.
     */
    const std::uint32_t lo, hi;

  private:
    std::string
    programName(const char *suffix) const
    {
        std::string stem = name();
        std::erase(stem, '-');
        return stem + suffix;
    }

    ProgramPtr scalarProg, vectorProg;
};

} // namespace bvl

#endif // BVL_WORKLOADS_COMMON_HH
