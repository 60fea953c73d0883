/**
 * @file
 * Structural invariant registry.
 *
 * Components register named invariants over their own state — queue
 * and credit conservation in the VCU/VMU, cache MSHR occupancy, the
 * ROB-head-only vector dispatch rule — into the registry a
 * CheckContext owns, when the Soc is built for a checked run. The
 * registry is *pulled*: nothing is evaluated per event, so it adds
 * zero work to the simulation hot paths. The checker sweeps it at
 * retire and drain points, and the run driver's failure path takes
 * one last non-throwing sweep (CheckContext::invariantReport()), so a
 * failed run, a deadlock included, is reported together with any
 * structural violation that explains it.
 *
 * An invariant returns an empty string while it holds and a short
 * violation description otherwise. Check functions may only *read*
 * component state: a sweep must never perturb timing.
 */

#ifndef BVL_SIM_CHECK_INVARIANTS_HH
#define BVL_SIM_CHECK_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bvl
{

class InvariantRegistry
{
  public:
    /** Returns "" while the invariant holds, else a description. */
    using CheckFn = std::function<std::string()>;

    /** Register one invariant; call at construction, never per event. */
    void
    add(std::string name, CheckFn fn)
    {
        entries.push_back({std::move(name), std::move(fn)});
    }

    /**
     * Evaluate every invariant. Returns "" if all hold, else one
     * "name: description" line per violated invariant.
     */
    std::string
    sweep()
    {
        ++numSweeps;
        std::string out;
        for (const auto &e : entries) {
            std::string v = e.fn();
            if (v.empty())
                continue;
            ++numViolations;
            if (!out.empty())
                out += '\n';
            out += e.name + ": " + v;
        }
        return out;
    }

    std::size_t size() const { return entries.size(); }
    std::uint64_t sweeps() const { return numSweeps; }
    std::uint64_t violations() const { return numViolations; }

  private:
    struct Entry
    {
        std::string name;
        CheckFn fn;
    };

    std::vector<Entry> entries;
    std::uint64_t numSweeps = 0;
    std::uint64_t numViolations = 0;
};

} // namespace bvl

#endif // BVL_SIM_CHECK_INVARIANTS_HH
