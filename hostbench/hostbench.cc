/**
 * @file
 * Host-time benchmark binary. One invocation runs one pass of one
 * named grid, serially and in this process, through the simulator
 * library's public API. It prints one JSON object per line on stdout:
 * a record per simulated cell, a record per functional dry run, and a
 * closing pass summary. run.py builds this binary, starts a fresh
 * process for every pass so that each pass is cold, checks every cell
 * against pins.json and reduces the passes to the metrics of
 * BENCHMARK.json.
 *
 *   hostbench grid <grid> --order-seed N --work-dir DIR [--spans FILE]
 *   hostbench probes <grid> --work-dir DIR
 *   hostbench host
 *
 * Grids (run.py says why each exists):
 *   scalar_cores       full-detail 1L, 1b and 1b-4L cells at small
 *   vector_engines     full-detail 1bIV, 1bDV and 1b-4VL cells at small
 *   sampled_sweep      SMARTS-sampled 1b-4VL at medium, then the
 *                      checkpoint-farm geometry grid three times through
 *                      SweepService (cold, farm-warm, cache-warm)
 *   sampled_reference  full-detail 1b-4VL at medium; only run.py --repin
 *                      uses it, to pin the sampled error's reference
 *
 * --order-seed shuffles the cell order (the farm grid keeps its own);
 * inputs come from the library's own per-workload seeds. --spans arms
 * tracing: every library call the pass makes is recorded in memory as
 * a span (name, start, end, parent, cell) and the list is written to
 * FILE at exit. Unarmed, only the sums
 * the end-to-end metrics need are kept. A span's layer is the part of
 * its name before the first dot: the src/ module called, or "bench" for
 * the binary's own cell and pass spans.
 *
 * probes times the layer loops of the traced ledger that a grid cannot
 * time from outside (cache hit and miss, clock tick, Soc construction,
 * and on sampled_sweep the checkpoint farm, journal and result cache)
 * and prints one {"type":"probe"} object.
 *
 * Every mode refuses to run from a build that is not Release, keeps
 * asserts on, or is sanitized: its timings would not be comparable.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/arch_state.hh"
#include "mem/mem_system.hh"
#include "sim/check/json.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/checkpoint_farm.hh"
#include "soc/run_driver.hh"
#include "soc/soc.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/job_hash.hh"
#include "sweep/service/journal.hh"
#include "sweep/service/result_cache.hh"
#include "sweep/service/service.hh"
#include "vector/engine_presets.hh"
#include "workloads/workload.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_SANITIZED
#define HOSTBENCH_SANITIZED 0
#endif

namespace
{

using namespace bvl;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = HOSTBENCH_SANITIZED != 0;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

// --- spans ----------------------------------------------------------------

/**
 * In-memory span recorder. span() always times its body, because the
 * end-to-end metrics need set-up and wall time; it stores a record only
 * when armed, so an untraced pass pays two clock reads per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool armed) : armed(armed), origin(Clock::now()) {}

    /** Seconds since the pass began. */
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    }

    /** Run @p body inside a span named @p name; returns its seconds. */
    template <class F>
    double
    span(const std::string &name, F &&body)
    {
        int idx = -1;
        double t0 = now();
        if (armed) {
            idx = static_cast<int>(spans.size());
            spans.push_back(
                {name, t0, t0, open.empty() ? -1 : open.back(), cell});
            open.push_back(idx);
        }
        body();
        double t1 = now();
        if (armed) {
            spans[idx].end = t1;
            open.pop_back();
        }
        return t1 - t0;
    }

    /** Cell id stamped on spans opened from now on (-1 = none). */
    int cell = -1;

    void
    write(const std::string &path) const
    {
        Json arr = Json::array();
        for (const Span &s : spans) {
            Json o = Json::object();
            o.set("name", s.name);
            o.set("start", s.start);
            o.set("end", s.end);
            o.set("parent", s.parent);
            o.set("cell", s.cell);
            arr.push(std::move(o));
        }
        std::ofstream f(path, std::ios::trunc);
        f << arr.dump(0) << "\n";
        if (!f)
            fatal("hostbench: cannot write %s", path.c_str());
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
        int cell;
    };

    bool armed;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

// --- cells ----------------------------------------------------------------

const char *
scaleName(Scale s)
{
    switch (s) {
      case Scale::tiny: return "tiny";
      case Scale::small: return "small";
      case Scale::medium: return "medium";
    }
    return "?";
}

/** Stat prefix of the design's vector engine ("" = no engine). */
std::string
enginePrefix(Design d)
{
    switch (d) {
      case Design::d1bIV:
      case Design::d1bIV4L:
        return "ivu.";
      case Design::d1bDV:
        return "dve.";
      case Design::d1b4VL:
        return "vlittle.";
      default:
        return "";
    }
}

/** Layer that does a full-detail run's work, for its span name. */
const char *
runLayer(Design d)
{
    switch (d) {
      case Design::d1b4L:
      case Design::d1bIV4L:
        return "runtime";
      case Design::d1b4VL:
        return "core";
      default:
        return "cpu";
    }
}

std::uint64_t
sumSuffix(const RunResult &r, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : r.stats)
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += value;
    return total;
}

std::uint64_t
littleRetired(const RunResult &r)
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < SocParams{}.numLittle; ++i)
        total += r.stat("little" + std::to_string(i) + ".retired");
    return total;
}

/** Digest of the full stat map: any changed statistic changes it. */
std::string
statsDigest(const RunResult &r)
{
    Sha256 h;
    for (const auto &[name, value] : r.stats) {
        std::string line = name + "=" + std::to_string(value) + "\n";
        h.update(line.data(), line.size());
    }
    return h.hex().substr(0, 16);
}

/**
 * Dynamic instructions a cell stands for: the sampled run's
 * extrapolation base, or what the big and little cores retired.
 */
std::uint64_t
cellInsts(const RunResult &r)
{
    if (std::uint64_t s = r.stat("sample.totalInsts"))
        return s;
    return r.stat("big.retired") + littleRetired(r);
}

void
emit(const Json &rec)
{
    std::printf("%s\n", rec.dump(0).c_str());
    std::fflush(stdout);
}

/** Host seconds of one cell: its whole span, set-up, and the run. */
struct CellTimes
{
    double cell = 0.0;
    double setup = 0.0;
    double run = 0.0;
};

void
emitCell(int id, const char *kind, const std::string &key, Design d,
         const RunResult &r, const CellTimes &t)
{
    const std::string eng = enginePrefix(d);
    auto engStat = [&](const char *name) {
        return eng.empty() ? std::uint64_t(0) : r.stat(eng + name);
    };
    Json counts = Json::object();
    counts.set("big_retired", r.stat("big.retired"));
    counts.set("little_retired", littleRetired(r));
    counts.set("uops", engStat("uopsBroadcast"));
    counts.set("unit_lines", engStat("unitLines"));
    counts.set("strided_lines", engStat("stridedLines"));
    counts.set("indexed_lines", engStat("indexedLines"));
    counts.set("l1d_accesses", sumSuffix(r, ".l1d.accesses"));
    counts.set("l2_misses", r.stat("l2.misses"));
    counts.set("dram_reads", r.stat("dram.reads"));
    counts.set("raw_mem_stall_cycles", sumSuffix(r, ".stall.raw_mem"));
    counts.set("steals", r.stat("runtime.steals"));
    counts.set("pops", r.stat("runtime.pops"));

    Json rec = Json::object();
    rec.set("type", "cell");
    rec.set("id", id);
    rec.set("kind", kind);
    rec.set("key", key);
    rec.set("design", designName(d));
    rec.set("status", runStatusName(r.status));
    rec.set("verified", r.verified);
    rec.set("ns", r.ns);
    rec.set("insts", cellInsts(r));
    rec.set("digest", statsDigest(r));
    rec.set("cell_s", t.cell);
    rec.set("setup_s", t.setup);
    rec.set("run_s", t.run);
    rec.set("counts", std::move(counts));
    emit(rec);
}

struct Cell
{
    Design design;
    std::string app;
    Scale scale;
    /** Distinguishes cells of one (app, design, scale). */
    std::string tag;

    std::string
    key() const
    {
        std::string k = app + "/" + designName(design) + "/" +
                        scaleName(scale);
        return tag.empty() ? k : k + "/" + tag;
    }
};

/** Seeded Fisher-Yates shuffle (bvl::Rng is platform-independent). */
template <class T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/*
 * The full-detail grids are trimmed so that one pass takes six to seven
 * seconds on a 4-vCPU x86 host, leaving room for four passes in a
 * 30-second run. Dropped are the apps whose cells cost most: kcore, tc, radii,
 * mis and components (Ligra); kmeans, jacobi-2d, backprop, idct8,
 * pathfinder, mmult and lavamd on the scalar designs; kmeans,
 * jacobi-2d and pathfinder on the vector designs. gemm8 stays on the
 * scalar designs as the big core's most expensive kernel per retired
 * instruction.
 */
const char *const kScalarApps[] = {"bfs", "bc", "pagerank", "vvadd",
                                   "saxpy", "blackscholes",
                                   "particlefilter", "sw", "ycbcr",
                                   "conv2d", "gemm8", "bytescan"};
const char *const kVectorApps[] = {"vvadd", "mmult", "saxpy",
                                   "backprop", "blackscholes",
                                   "particlefilter", "lavamd", "sw",
                                   "idct8", "ycbcr", "conv2d", "gemm8",
                                   "bytescan"};
const char *const kSampledApps[] = {"vvadd", "mmult", "saxpy",
                                    "backprop", "kmeans", "blackscholes",
                                    "particlefilter", "jacobi-2d",
                                    "pathfinder", "lavamd", "sw"};

template <std::size_t N>
std::vector<Cell>
crossCells(const char *const (&apps)[N], std::initializer_list<Design> ds,
           Scale scale)
{
    std::vector<Cell> cells;
    for (const char *app : apps)
        for (Design d : ds)
            cells.push_back({d, app, scale, ""});
    return cells;
}

struct Pass
{
    SpanLog &log;
    Rng rng;
    fs::path workDir;
    int nextCell = 0;
    double setupS = 0.0;

    /** A set-up span: counts toward @p cellSetup and the pass total. */
    template <class F>
    void
    setup(const char *name, double &cellSetup, F &&body)
    {
        double s = log.span(name, body);
        cellSetup += s;
        setupS += s;
    }

    WorkloadPtr
    build(const std::string &app, Scale scale, double &cellSetup)
    {
        WorkloadPtr wl;
        setup("workloads.makeWorkload", cellSetup,
              [&] { wl = makeWorkload(app, scale); });
        if (!wl)
            fatal("hostbench: unknown workload '%s'", app.c_str());
        return wl;
    }

    void
    destroy(WorkloadPtr &wl)
    {
        log.span("workloads.destroy", [&] { wl.reset(); });
    }

    /**
     * Dynamic instruction count of @p wl's vector program at
     * @p vlenBits, by a functional dry run on a private backing store
     * (the oracle fast-forward steps through).
     */
    std::uint64_t
    dryRun(Workload &wl, unsigned vlenBits, double &cellSetup)
    {
        std::uint64_t insts = 0;
        double ffS = 0.0;
        setup("isa.dryRun", cellSetup, [&] {
            BackingStore mem;
            ArchState arch(vlenBits);
            log.span("workloads.init", [&] { wl.init(mem); });
            ProgramPtr prog;
            log.span("workloads.vectorProgram",
                     [&] { prog = wl.vectorProgram(); });
            if (!prog)
                fatal("hostbench: %s has no vector program",
                      wl.name().c_str());
            for (const auto &[reg, value] : wl.fullRangeArgs()) {
                if (isFReg(reg))
                    arch.setF(reg, value);
                else
                    arch.setX(reg, value);
            }
            ffS = log.span("isa.runFunctional", [&] {
                insts = runFunctional(arch, *prog, mem);
            });
        });

        Json rec = Json::object();
        rec.set("type", "dryrun");
        rec.set("app", wl.name());
        rec.set("vlen", vlenBits);
        rec.set("insts", insts);
        rec.set("s", ffS);
        emit(rec);
        return insts;
    }

    void
    detailed(std::vector<Cell> cells)
    {
        shuffle(cells, rng);
        for (const Cell &c : cells) {
            log.cell = nextCell;
            RunResult r;
            CellTimes t;
            t.cell = log.span("bench.cell", [&] {
                WorkloadPtr wl = build(c.app, c.scale, t.setup);
                t.run = log.span(std::string(runLayer(c.design)) +
                                     ".runWorkload",
                                 [&] { r = runWorkload(c.design, *wl); });
                destroy(wl);
            });
            emitCell(nextCell++, "detailed", c.key(), c.design, r, t);
        }
        log.cell = -1;
    }

    void
    sampled()
    {
        std::vector<Cell> cells;
        for (const char *app : kSampledApps)
            cells.push_back({Design::d1b4VL, app, Scale::medium,
                             "sampled"});
        shuffle(cells, rng);
        for (const Cell &c : cells) {
            log.cell = nextCell;
            RunResult r;
            CellTimes t;
            t.cell = log.span("bench.cell", [&] {
                WorkloadPtr wl = build(c.app, c.scale, t.setup);
                std::uint64_t insts =
                    dryRun(*wl, vlittlePreset().vlenBits(), t.setup);
                RunOptions opts;
                opts.sampling = samplingFor(c.app, insts);
                t.run = log.span("soc.runSampled", [&] {
                    r = runWorkload(c.design, *wl, opts);
                });
                destroy(wl);
            });
            emitCell(nextCell++, "sampled", c.key(), c.design, r, t);
        }
        log.cell = -1;
    }

    /**
     * fig04_sampled's window configurations at medium, with the
     * fast-forward per period sized from the dry run's count.
     */
    static SamplingOptions
    samplingFor(const std::string &app, std::uint64_t insts)
    {
        struct Cfg
        {
            const char *app;
            unsigned periods;
            std::uint64_t warmup, detail;
        };
        static const Cfg table[] = {
            {"vvadd", 4, 400, 512},
            {"mmult", 8, 400, 1800},
            {"saxpy", 4, 400, 500},
            {"backprop", 6, 400, 1250},
            {"kmeans", 8, 400, 3200},
            {"blackscholes", 5, 400, 800},
            {"particlefilter", 28, 300, 150},
            {"jacobi-2d", 6, 400, 1667},
            {"pathfinder", 8, 400, 900},
            {"lavamd", 4, 1500, 1200},
            {"sw", 6, 2000, 1000},
        };
        for (const Cfg &c : table) {
            if (app != c.app)
                continue;
            SamplingOptions s;
            s.periods = c.periods;
            s.warmupInsts = c.warmup;
            s.detailInsts = c.detail;
            std::uint64_t perPeriod = insts / c.periods;
            std::uint64_t window = c.warmup + c.detail;
            s.ffInsts = perPeriod > window ? perPeriod - window : 0;
            return s;
        }
        fatal("hostbench: no sampling configuration for %s", app.c_str());
    }

    /** Stop a prefix shortly before the halt so a detailed tail runs. */
    static std::uint64_t
    prefixInsts(std::uint64_t dynamic)
    {
        return dynamic > 128 ? dynamic - 64 : dynamic / 2;
    }

    /**
     * The checkpoint-farm geometry grid of bench/sweep_farm.cc: kmeans
     * on 1bIV, 1bDV and five 1b-4VL VMU queue depths, three distinct
     * fast-forward prefixes. It runs three times through SweepService,
     * each pass with a fresh journal: cold (farm produce, cache store,
     * journal append), farm-warm (farm restore into a fresh cache) and
     * cache-warm (every cell a lookup in the farm-warm pass's cache).
     * Cells keep sweep_farm's order, unshuffled: in the cold pass the
     * first 1b-4VL cell produces the shared prefix and the other four
     * restore it, so a shuffle would change which cell does which job
     * and make one cell's time incomparable between passes.
     * Returns the farm and cache counters the passes moved.
     */
    Json
    farmSweep()
    {
        const std::string app = "kmeans";
        const Scale scale = Scale::medium;
        std::uint64_t ffIv = 0, ffDv = 0, ffVl = 0;
        log.span("bench.sizePrefixes", [&] {
            double setupCell = 0.0;
            WorkloadPtr wl = build(app, scale, setupCell);
            ffIv = prefixInsts(dryRun(
                *wl, integratedVuPreset().vlenBits(), setupCell));
            ffDv = prefixInsts(dryRun(
                *wl, decoupledVePreset().vlenBits(), setupCell));
            ffVl = prefixInsts(
                dryRun(*wl, vlittlePreset().vlenBits(), setupCell));
            destroy(wl);
        });

        const std::string farmDir = (workDir / "farm").string();
        std::vector<std::pair<Cell, RunOptions>> jobs;
        auto add = [&](Design d, std::uint64_t ff, const std::string &tag,
                       std::optional<VEngineParams> ep) {
            RunOptions o;
            o.engineOverride = std::move(ep);
            o.checkpoint.ffInsts = ff;
            o.checkpoint.farm = true;
            o.checkpoint.farmDir = farmDir;
            jobs.push_back({{d, app, scale, tag}, o});
        };
        add(Design::d1bIV, ffIv, "", std::nullopt);
        add(Design::d1bDV, ffDv, "", std::nullopt);
        for (unsigned depth : {2u, 4u, 8u, 16u, 32u}) {
            VEngineParams ep = vlittlePreset();
            ep.loadQueueLines = depth;
            ep.storeQueueLines = depth;
            add(Design::d1b4VL, ffVl, "q" + std::to_string(depth), ep);
        }

        const struct
        {
            const char *name;
            const char *cacheDir;
        } passes[] = {{"cold", "cold"},
                      {"farm_warm", "farm_warm"},
                      {"cache_warm", "farm_warm"}};
        std::uint64_t cacheHits = 0;
        const std::uint64_t farmHits0 = CheckpointFarm::hits();
        const std::uint64_t farmProduced0 = CheckpointFarm::produced();
        for (const auto &p : passes) {
            log.span(std::string("bench.") + p.name, [&] {
                SweepServiceOptions o;
                o.jobs = 1;
                o.journalPath =
                    (workDir / p.name / "journal.jsonl").string();
                o.cacheDir = (workDir / p.cacheDir / "cache").string();
                std::unique_ptr<SweepService> svc;
                log.span("sweep.open", [&] {
                    svc = std::make_unique<SweepService>(o);
                });
                for (const auto &job : jobs) {
                    const Cell &cell = job.first;
                    log.cell = nextCell;
                    RunResult r;
                    CellTimes t;
                    t.cell = log.span("bench.cell", [&] {
                        t.run = log.span("sweep.submit", [&] {
                            r = svc->submit({cell.design, cell.app,
                                             cell.scale, job.second})
                                    .get();
                        });
                    });
                    log.cell = -1;
                    std::string tag = cell.tag.empty()
                                          ? std::string(p.name)
                                          : cell.tag + "/" + p.name;
                    Cell keyed{cell.design, cell.app, cell.scale, tag};
                    emitCell(nextCell++, "sweep", keyed.key(), cell.design,
                             r, t);
                }
                cacheHits += svc->summary().cacheHits;
                log.span("sweep.close", [&] { svc.reset(); });
            });
        }

        Json counters = Json::object();
        counters.set("farm_hits", CheckpointFarm::hits() - farmHits0);
        counters.set("farm_produced",
                     CheckpointFarm::produced() - farmProduced0);
        counters.set("cache_hits", cacheHits);
        return counters;
    }
};

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

int
runGrid(const std::string &grid, std::uint64_t seed,
        const fs::path &workDir, SpanLog &log)
{
    Pass pass{log, Rng(seed), workDir};
    Json counters = Json::object();
    const double t0 = log.now();
    if (grid == "scalar_cores") {
        pass.detailed(crossCells(
            kScalarApps, {Design::d1L, Design::d1b, Design::d1b4L},
            Scale::small));
    } else if (grid == "vector_engines") {
        pass.detailed(crossCells(
            kVectorApps, {Design::d1bIV, Design::d1bDV, Design::d1b4VL},
            Scale::small));
    } else if (grid == "sampled_sweep") {
        pass.sampled();
        counters = pass.farmSweep();
    } else if (grid == "sampled_reference") {
        pass.detailed(
            crossCells(kSampledApps, {Design::d1b4VL}, Scale::medium));
    } else {
        std::fprintf(stderr, "hostbench: unknown grid '%s'\n",
                     grid.c_str());
        return 2;
    }
    const double wall = log.now() - t0;

    Json rec = Json::object();
    rec.set("type", "pass");
    rec.set("grid", grid);
    rec.set("order_seed", seed);
    rec.set("cells", pass.nextCell);
    rec.set("wall_s", wall);
    rec.set("setup_s", pass.setupS);
    rec.set("peak_rss_mb", peakRssMiB());
    rec.set("counters", std::move(counters));
    emit(rec);
    return 0;
}

// --- probes ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr int kBatches = 5;

/**
 * Host ns per MemSystem::accessData call, run to completion on the
 * event queue: a hit in core 0's L1D (@p miss false), or a miss on a
 * line never touched before, which goes to DRAM (@p miss true).
 */
double
probeMem(SpanLog &log, bool miss)
{
    EventQueue eq;
    ClockDomain uncore(eq, "uncore", 1.0);
    StatGroup stats;
    MemSystem sys(uncore, stats);
    const Addr hitAddr = 0x1000;
    bool warm = false;
    sys.accessData(0, hitAddr, false, [&] { warm = true; });
    while (!warm && eq.step()) {}

    const int n = miss ? 20000 : 200000;
    Addr next = 0x10000000;
    std::vector<double> perAccess;
    for (int b = 0; b < kBatches; ++b) {
        double s = log.span(miss ? "mem.accessData.miss"
                                 : "mem.accessData.hit",
                            [&] {
            for (int i = 0; i < n; ++i) {
                bool done = false;
                Addr a = hitAddr;
                if (miss) {
                    a = next;
                    next += 64;
                }
                sys.accessData(0, a, false, [&] { done = true; });
                while (!done && eq.step()) {}
            }
        });
        perAccess.push_back(s * 1e9 / n);
    }
    return median(perAccess);
}

/** Clocked stub whose tick re-arms itself a fixed number of times. */
class Ticker : public Clocked
{
  public:
    using Clocked::Clocked;
    std::uint64_t remaining = 0;

  protected:
    bool tick() override { return --remaining != 0; }
};

/** Host ns per simulated cycle of one active Clocked component. */
double
probeTick(SpanLog &log)
{
    EventQueue eq;
    ClockDomain cd(eq, "clk", 1.0);
    Ticker t(cd, "ticker");
    const std::uint64_t n = 500000;
    std::vector<double> perTick;
    for (int b = 0; b < kBatches; ++b) {
        t.remaining = n;
        double s = log.span("sim.EventQueue.run", [&] {
            t.activate();
            eq.run();
        });
        perTick.push_back(s * 1e9 / double(n));
    }
    return median(perTick);
}

/** Mean over @p designs of the median ms of Soc(...) plus init. */
double
probeConstruct(SpanLog &log, const std::vector<Design> &designs,
               const std::string &app, Scale scale)
{
    WorkloadPtr wl = makeWorkload(app, scale);
    double total = 0.0;
    for (Design d : designs) {
        std::vector<double> ms;
        for (int b = 0; b < kBatches; ++b) {
            std::unique_ptr<Soc> soc;
            double s = log.span("soc.construct", [&] {
                soc = std::make_unique<Soc>(d);
                wl->init(soc->backing);
            });
            ms.push_back(s * 1e3);
        }
        total += median(ms);
    }
    return total / double(designs.size());
}

const RunResult &
mustBeOk(const RunResult &r, const char *what)
{
    if (!r.ok() || !r.verified)
        fatal("hostbench: %s: %s %s", what, runStatusName(r.status),
              r.message.c_str());
    return r;
}

/**
 * Checkpoint-farm produce and restore of kmeans medium's 1b-4VL
 * prefix, then journal append and result-cache store and lookup of
 * the RunResults they returned. Adds its metrics to @p out.
 */
void
probePersistence(SpanLog &log, const fs::path &workDir, Json &out)
{
    WorkloadPtr wl = makeWorkload("kmeans", Scale::medium);
    BackingStore mem;
    wl->init(mem);
    ArchState arch(vlittlePreset().vlenBits());
    for (const auto &[reg, value] : wl->fullRangeArgs()) {
        if (isFReg(reg))
            arch.setF(reg, value);
        else
            arch.setX(reg, value);
    }
    const std::uint64_t dynamic =
        runFunctional(arch, *wl->vectorProgram(), mem);

    RunOptions opts;
    opts.checkpoint.ffInsts = Pass::prefixInsts(dynamic);
    opts.checkpoint.farm = true;
    std::vector<double> produceMs, restoreMs;
    std::vector<RunResult> results;
    for (int b = 0; b < 3; ++b) {
        opts.checkpoint.farmDir =
            (workDir / ("farm" + std::to_string(b))).string();
        const std::uint64_t produced0 = CheckpointFarm::produced();
        const std::uint64_t hits0 = CheckpointFarm::hits();
        RunResult r;
        produceMs.push_back(1e3 * log.span("soc.farm.produce", [&] {
            r = runWorkload(Design::d1b4VL, *wl, opts);
        }));
        results.push_back(mustBeOk(r, "farm produce"));
        restoreMs.push_back(1e3 * log.span("soc.farm.restore", [&] {
            r = runWorkload(Design::d1b4VL, *wl, opts);
        }));
        results.push_back(mustBeOk(r, "farm restore"));
        if (CheckpointFarm::produced() - produced0 != 1 ||
            CheckpointFarm::hits() - hits0 != 1)
            fatal("hostbench: the farm probe did not produce once and "
                  "restore once");
    }
    out.set("soc.farm.produce_ms", median(produceMs));
    out.set("soc.farm.restore_ms", median(restoreMs));

    const SweepJob job{Design::d1b4VL, "kmeans", Scale::medium, opts};
    const std::string base = jobHashHex(job);
    auto hashOf = [&](int i) {
        char suffix[9];
        std::snprintf(suffix, sizeof(suffix), "%08x", unsigned(i));
        return base.substr(0, base.size() - 8) + suffix;
    };
    const int n = 40;
    std::vector<double> appendUs, storeUs, lookupUs;
    SweepJournal journal;
    if (!journal.open((workDir / "journal.jsonl").string()))
        fatal("hostbench: cannot open the probe journal");
    ResultCache cache;
    cache.setDir((workDir / "cache").string());
    for (int i = 0; i < n; ++i) {
        const RunResult &r = results[i % results.size()];
        appendUs.push_back(1e6 * log.span("sweep.journal.append", [&] {
            journal.append(hashOf(i), job, 1, "sim", r, 1.0);
        }));
        storeUs.push_back(1e6 * log.span("sweep.cache.store", [&] {
            cache.store(hashOf(i), r);
        }));
    }
    for (int i = 0; i < n; ++i) {
        RunResult back;
        bool hit = false;
        lookupUs.push_back(1e6 * log.span("sweep.cache.lookup", [&] {
            hit = cache.lookup(hashOf(i), &back);
        }));
        if (!hit || back.ns != results[i % results.size()].ns)
            fatal("hostbench: the cache probe lost entry %d", i);
    }
    if (journal.degraded() || cache.storeBroken())
        fatal("hostbench: journal or cache degraded during the probe");
    out.set("sweep.journal.append_us", median(appendUs));
    out.set("sweep.cache.store_us", median(storeUs));
    out.set("sweep.cache.lookup_us", median(lookupUs));
}

int
runProbes(const std::string &grid, const fs::path &workDir,
          SpanLog &log)
{
    std::vector<Design> designs;
    Scale scale = Scale::small;
    if (grid == "scalar_cores") {
        designs = {Design::d1L, Design::d1b, Design::d1b4L};
    } else if (grid == "vector_engines") {
        designs = {Design::d1bIV, Design::d1bDV, Design::d1b4VL};
    } else if (grid == "sampled_sweep") {
        designs = {Design::d1bIV, Design::d1bDV, Design::d1b4VL};
        scale = Scale::medium;
    } else {
        std::fprintf(stderr, "hostbench: no probes for grid '%s'\n",
                     grid.c_str());
        return 2;
    }
    Json metrics = Json::object();
    metrics.set("mem.hit_ns", probeMem(log, false));
    metrics.set("mem.miss_ns", probeMem(log, true));
    metrics.set("sim.tick_ns", probeTick(log));
    metrics.set("soc.construct_ms",
                probeConstruct(log, designs, "kmeans", scale));
    // The persistence layers serve only the sampled sweep; elsewhere
    // they read 0, like every ledger metric a workload does not run.
    if (grid == "sampled_sweep") {
        probePersistence(log, workDir, metrics);
    } else {
        for (const char *name :
             {"soc.farm.produce_ms", "soc.farm.restore_ms",
              "sweep.journal.append_us", "sweep.cache.store_us",
              "sweep.cache.lookup_us"})
            metrics.set(name, 0.0);
    }

    Json rec = Json::object();
    rec.set("type", "probe");
    rec.set("metrics", std::move(metrics));
    emit(rec);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench grid <grid> --order-seed N "
                 "--work-dir DIR [--spans FILE]\n"
                 "       hostbench probes <grid> --work-dir DIR\n"
                 "       hostbench host\n");
    return 2;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    if (mode == "host") {
        Json rec = Json::object();
        rec.set("type", "host");
        rec.set("compiler", __VERSION__);
        rec.set("build_type", HOSTBENCH_BUILD_TYPE);
        emit(rec);
        return 0;
    }
    if ((mode != "grid" && mode != "probes") || argc < 3 ||
        (argc - 3) % 2 != 0)
        return usage();

    const std::string grid = argv[2];
    std::uint64_t seed = 0;
    std::string workDir, spansPath;
    for (int i = 3; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--order-seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--work-dir")
            workDir = argv[i + 1];
        else if (flag == "--spans" && mode == "grid")
            spansPath = argv[i + 1];
        else
            return usage();
    }
    if (workDir.empty())
        return usage();
    fs::create_directories(workDir);

    setVerbose(false);
    SpanLog log(!spansPath.empty());
    int rc = mode == "grid" ? runGrid(grid, seed, workDir, log)
                            : runProbes(grid, workDir, log);
    if (rc == 0 && !spansPath.empty())
        log.write(spansPath);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool release = std::strcmp(HOSTBENCH_BUILD_TYPE, "Release") == 0;
    if (!release || kAssertsOn || kSanitized) {
        std::fprintf(stderr,
                     "hostbench: refusing to measure a %s build%s%s; "
                     "configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "sanitizer\n",
                     HOSTBENCH_BUILD_TYPE,
                     kAssertsOn ? " with asserts on" : "",
                     kSanitized ? " with a sanitizer" : "");
        return 3;
    }
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
