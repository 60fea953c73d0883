#include "sweep/minimize.hh"

#include <algorithm>
#include <future>

#include "sim/logging.hh"
#include "sweep/sweep_runner.hh"

namespace bvl
{

namespace
{

/** Recipe with only the given original-script positions kept. */
SweepJob
subsetRecipe(const SweepJob &base,
             const std::vector<std::size_t> &keep)
{
    SweepJob r = base;
    r.opts.check.forensicsPath.clear();
    r.opts.faults.script.clear();
    for (std::size_t i : keep)
        r.opts.faults.script.push_back(base.opts.faults.script[i]);
    return r;
}

/** Split @p v into @p n contiguous chunks (first chunks get the rest). */
std::vector<std::vector<std::size_t>>
partition(const std::vector<std::size_t> &v, std::size_t n)
{
    std::vector<std::vector<std::size_t>> chunks;
    std::size_t base = v.size() / n, rest = v.size() % n, pos = 0;
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t len = base + (c < rest ? 1 : 0);
        chunks.emplace_back(v.begin() + pos, v.begin() + pos + len);
        pos += len;
    }
    return chunks;
}

std::vector<std::size_t>
complementOf(const std::vector<std::size_t> &all,
             const std::vector<std::size_t> &chunk)
{
    std::vector<std::size_t> out;
    std::set_difference(all.begin(), all.end(), chunk.begin(),
                        chunk.end(), std::back_inserter(out));
    return out;
}

} // namespace

MinimizeOutcome
minimizeFaultPlan(const SweepJob &failing,
                  const MinimizeOptions &mopts)
{
    MinimizeOutcome out;
    SweepRunner runner(mopts.jobs);

    // Oracle: a candidate "fails" when it reproduces the baseline
    // status exactly. All candidate runs go through the runner so
    // rounds parallelize; consumption stays in submission order.
    auto runKeep = [&](std::vector<std::size_t> keep) {
        SweepJob r = subsetRecipe(failing, std::move(keep));
        return runner.submit([r] { return runReplay(r); });
    };

    out.oracleRuns = 1;
    RunResult baseline = runReplay(failing);
    if (baseline.ok())
        fatal("minimizeFaultPlan: the given plan does not fail");
    out.target = baseline.status;

    std::vector<std::size_t> current(failing.opts.faults.script.size());
    for (std::size_t i = 0; i < current.size(); ++i)
        current[i] = i;

    bool budgetLeft = true;
    auto budget = [&](std::size_t want) {
        if (out.oracleRuns + want <= mopts.maxOracleRuns)
            return true;
        warn("minimizeFaultPlan: oracle budget (%u runs) exhausted; "
             "result may not be minimal", mopts.maxOracleRuns);
        budgetLeft = false;
        return false;
    };

    // ddmin (Zeller & Hildebrandt): try subsets, then complements, at
    // doubling granularity, re-running until nothing shrinks.
    std::size_t n = 2;
    while (current.size() >= 2 && budgetLeft) {
        n = std::min(n, current.size());
        auto chunks = partition(current, n);

        // Candidates in deterministic submission order: every chunk,
        // then (for n > 2) every complement.
        std::vector<std::vector<std::size_t>> cands;
        for (auto &c : chunks)
            cands.push_back(c);
        if (n > 2)
            for (auto &c : chunks)
                cands.push_back(complementOf(current, c));

        if (!budget(cands.size()))
            break;
        std::vector<std::future<RunResult>> futs;
        for (const auto &cand : cands)
            futs.push_back(runKeep(cand));

        std::ptrdiff_t adopted = -1;
        for (std::size_t i = 0; i < futs.size(); ++i) {
            RunResult r = futs[i].get();
            out.oracleRuns++;
            // First still-failing candidate in submission order wins;
            // later futures are still drained for deterministic counts.
            if (adopted < 0 && r.status == out.target)
                adopted = static_cast<std::ptrdiff_t>(i);
        }

        if (adopted >= 0) {
            bool isChunk = static_cast<std::size_t>(adopted)
                           < chunks.size();
            current = cands[static_cast<std::size_t>(adopted)];
            n = isChunk ? 2 : std::max<std::size_t>(n - 1, 2);
        } else if (n < current.size()) {
            n = std::min(n * 2, current.size());
        } else {
            break;
        }
    }

    // Verify (and enforce) 1-minimality: drop any entry whose removal
    // still reproduces the failure, until every single removal passes.
    bool stable = false;
    while (!stable && !current.empty() && budgetLeft) {
        if (!budget(current.size()))
            break;
        std::vector<std::future<RunResult>> futs;
        for (std::size_t i = 0; i < current.size(); ++i) {
            std::vector<std::size_t> keep = current;
            keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(i));
            futs.push_back(runKeep(std::move(keep)));
        }
        stable = true;
        for (std::size_t i = 0; i < futs.size(); ++i) {
            RunResult r = futs[i].get();
            out.oracleRuns++;
            if (stable && r.status == out.target) {
                // Entry current[i] is redundant; drop it and re-verify.
                current.erase(current.begin() +
                              static_cast<std::ptrdiff_t>(i));
                stable = false;
            }
        }
    }
    out.oneMinimal = stable || current.empty();

    out.keptIndices = current;
    out.minimal = subsetRecipe(failing, current);
    return out;
}

} // namespace bvl
