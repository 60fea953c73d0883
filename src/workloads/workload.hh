/**
 * @file
 * Workload interface and registry.
 *
 * A Workload owns its dataset layout in the simulated address space,
 * builds the scalar and vectorized programs that compute it (Table IV
 * and V of the paper), decomposes itself into a TaskGraph for the
 * multi-core configurations, and self-verifies its output against a
 * host-side reference after a run.
 *
 * All programs are range-parameterized: x10 = start, x11 = end, so
 * the serial run and every task chunk share the same Program objects.
 */

#ifndef BVL_WORKLOADS_WORKLOAD_HH
#define BVL_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "mem/backing_store.hh"
#include "runtime/task_graph.hh"
#include "sim/enum_names.hh"
#include "sim/rng.hh"

namespace bvl
{

/** Problem-size scaling knob for the whole suite. */
enum class Scale
{
    tiny,     ///< smoke-test sizes (CI)
    small,    ///< benchmark sizes (default for figure regeneration)
    medium,   ///< closer-to-paper sizes
};

/** Scale's names; scaleName()/scaleFromName() are in soc/run_io.hh. */
template <>
struct EnumNames<Scale>
{
    static constexpr const char *names[] = {"tiny", "small", "medium"};
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Data-parallel (Rodinia/RiVec/genomics) vs task-parallel (Ligra). */
    virtual bool isDataParallel() const = 0;

    /** Populate input data; called once per simulation run. */
    virtual void init(BackingStore &mem) = 0;

    /** Scalar whole-problem program (runs on 1L / 1b). */
    virtual ProgramPtr scalarProgram() = 0;

    /** Arguments for the whole-problem programs. */
    virtual ProgArgs fullRangeArgs() const = 0;

    /** Vectorized whole-problem program (nullptr if not vectorizable). */
    virtual ProgramPtr vectorProgram() { return nullptr; }

    /** Task decomposition for the multi-core runs. */
    virtual TaskGraph taskGraph() = 0;

    /** Check the output in @p mem against the host reference. */
    virtual bool verify(const BackingStore &mem) const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/** Which figures sweep a workload. */
enum class Suite
{
    dataParallel,   ///< Table IV kernels + Table V apps
    taskParallel,   ///< the Ligra-style graph apps
    mobile,         ///< the Swan-style mobile tier (DESIGN.md §18)
};

/** One registered workload: its name, its suite and its factory. */
struct WorkloadRow
{
    const char *name;
    Suite suite;
    WorkloadPtr (*make)(Scale scale);
};

/** Factory for a row whose workload is constructed from a Scale. */
template <class W>
WorkloadPtr
makeRow(Scale scale)
{
    return std::make_unique<W>(scale);
}

/**
 * Every workload, one row each: the Table IV kernels, the mobile
 * tier, the Table V apps, then the Ligra apps. Row order is the order
 * the figures print (workloadNames() keeps it), and names key sweep
 * journals, result caches and checkpoint farms, so a name must never
 * repeat (tests/test_mobile.cc checks both). Built once and immutable
 * after, so concurrent sweep workers may read it.
 */
std::span<const WorkloadRow> workloadTable();

/** One workload by name (nullptr if unknown); builds only that one. */
WorkloadPtr makeWorkload(const std::string &name, Scale scale);

/** Names of everything in the table, in table order. */
std::vector<std::string> allWorkloadNames();

/** Names of one suite, in table order. */
std::vector<std::string> workloadNames(Suite suite);

} // namespace bvl

#endif // BVL_WORKLOADS_WORKLOAD_HH
