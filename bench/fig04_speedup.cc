/**
 * @file
 * Figure 4: speedup over 1L of all seven systems, for the 8
 * task-parallel (Ligra) and 11 data-parallel (kernels + apps)
 * workloads. The paper's headline numbers are the geometric means:
 * 1b-4VL ~1.6x over 1bIV-4L on data-parallel work and 1bIV-4L/1b-4VL
 * ~1.7x over 1bDV on task-parallel work.
 *
 * Figures 5 and 6 follow from the same data-parallel runs: the
 * instruction-fetch and data requests to memory on 1bIV-4L, 1bDV and
 * 1b-4VL, normalized to 1bDV. Long hardware vectors amortize the
 * front end and fetch whole cache lines per request, so 1bDV and
 * 1b-4VL issue far fewer requests than 1bIV-4L's four independently
 * fetching little cores plus its short-vector big core.
 */

#include <cmath>
#include <map>

#include "bench/bench_util.hh"

using namespace bvlbench;

namespace
{

/** One workload's results, keyed by design (1L included). */
using Row = std::map<Design, RunResult>;

std::vector<Row>
runSuite(const char *label, const std::vector<std::string> &names,
         Scale scale, SweepService &pool)
{
    const Design designs[] = {Design::d1b, Design::d1bIV, Design::d1b4L,
                              Design::d1bIV4L, Design::d1bDV,
                              Design::d1b4VL};

    // Submit the whole (workload x design) grid up front; results come
    // back in submission order no matter when each job finishes.
    SweepResults runs(pool);
    for (const auto &name : names) {
        runs.push(Design::d1L, name, scale);
        for (Design d : designs)
            runs.push(d, name, scale);
    }

    std::printf("\n[%s]\n", label);
    std::printf("%-14s", "workload");
    std::printf(" %8s", "1L");
    for (Design d : designs)
        std::printf(" %8s", designName(d));
    std::printf("\n");

    std::vector<Row> rows;
    std::vector<double> logsum(6, 0.0);
    std::vector<unsigned> counted(6, 0);
    for (const auto &name : names) {
        Row &row = rows.emplace_back();
        const auto &base = row[Design::d1L] = runs.pop();
        std::printf("%-14s %8.2f", name.c_str(), 1.0);
        unsigned i = 0;
        for (Design d : designs) {
            const auto &r = row[d] = runs.pop();
            double speedup = speedupOf(base, r);
            if (speedup > 0.0) {
                logsum[i] += std::log(speedup);
                ++counted[i];
                std::printf(" %8.2f", speedup);
            } else {
                // Failed runs are excluded from the geomean.
                std::printf(" %8s", runStatusName(r.status));
            }
            ++i;
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-14s %8.2f", "geomean", 1.0);
    for (unsigned i = 0; i < 6; ++i)
        std::printf(" %8.2f",
                    counted[i] ? std::exp(logsum[i] / counted[i]) : 0.0);
    std::printf("\n");
    return rows;
}

/** Figures 5 and 6: one request count per workload, normalized to 1bDV. */
void
printRequests(const char *title, Scale scale,
              const std::vector<std::string> &names,
              const std::vector<Row> &rows, const char *stat)
{
    const Design designs[] = {Design::d1bIV4L, Design::d1bDV,
                              Design::d1b4VL};
    std::printf("\n");
    printHeader(title, scale);
    std::printf("%-14s %10s %10s %10s\n", "workload", "1bIV-4L", "1bDV",
                "1b-4VL");
    for (std::size_t w = 0; w < names.size(); ++w) {
        double vals[3];
        for (int i = 0; i < 3; ++i)
            vals[i] = static_cast<double>(
                rows[w].at(designs[i]).stat(stat));
        double base = vals[1] > 0 ? vals[1] : 1.0;
        std::printf("%-14s %10.2f %10.2f %10.2f\n", names[w].c_str(),
                    vals[0] / base, vals[1] / base, vals[2] / base);
        std::fflush(stdout);
    }
}

} // namespace

int
main()
{
    setVerbose(false);
    Scale scale = chosenScale(Scale::small);
    SweepService pool(sweepServiceOptionsFromEnv("fig04_speedup"));
    printHeader("Figure 4: speedup over 1L", scale);
    return finishSweep(pool, [&] {
        runSuite("task-parallel (Ligra)",
                 workloadNames(Suite::taskParallel), scale, pool);
        auto names = workloadNames(Suite::dataParallel);
        auto rows = runSuite("data-parallel (kernels + apps)", names,
                             scale, pool);
        printRequests("Figure 5: instruction fetch requests to memory "
                      "(normalized to 1bDV)",
                      scale, names, rows, "sys.ifetchReqs");
        printRequests("Figure 6: data requests to memory "
                      "(normalized to 1bDV)",
                      scale, names, rows, "sys.dataReqs");
    });
}
