#include "workloads/workload.hh"

namespace bvl
{

// Rows exported by the per-category translation units.
std::span<const WorkloadRow> kernelRows();
std::span<const WorkloadRow> mobileRows();
std::span<const WorkloadRow> computeRows();
std::span<const WorkloadRow> stencilRows();
std::span<const WorkloadRow> genomicsRows();
std::span<const WorkloadRow> traversalGraphRows();
std::span<const WorkloadRow> iterativeGraphRows();

std::span<const WorkloadRow>
workloadTable()
{
    // A function-local static: initialized once, thread-safely.
    static const std::vector<WorkloadRow> table = [] {
        std::vector<WorkloadRow> t;
        for (auto rows : {kernelRows(), mobileRows(), computeRows(),
                          stencilRows(), genomicsRows(),
                          traversalGraphRows(), iterativeGraphRows()})
            t.insert(t.end(), rows.begin(), rows.end());
        return t;
    }();
    return table;
}

WorkloadPtr
makeWorkload(const std::string &name, Scale scale)
{
    for (const auto &row : workloadTable())
        if (name == row.name)
            return row.make(scale);
    return nullptr;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &row : workloadTable())
        names.push_back(row.name);
    return names;
}

std::vector<std::string>
workloadNames(Suite suite)
{
    std::vector<std::string> names;
    for (const auto &row : workloadTable())
        if (row.suite == suite)
            names.push_back(row.name);
    return names;
}

} // namespace bvl
