#include "soc/run_io.hh"

#include <type_traits>

#include "sim/logging.hh"

namespace bvl
{

namespace
{

/** Field flag: the key is left out while the member is empty. */
struct OmitEmpty {};
constexpr OmitEmpty omitEmpty{};
/** Field flag: a document without the key is malformed. */
struct Required {};
constexpr Required required{};

// --- field lists ---------------------------------------------------------
//
// One list per serialized struct, in document key order: the JSON
// writer and reader below both walk it, so a new member is one line
// here. A member that does not affect simulation also needs one line
// in jobHashHex's canonicalization (sweep/service/job_hash.cc).

template <class V>
void
fields(V &v, CheckOptions &c)
{
    v("lockstep", c.lockstep);
    v("invariants", c.invariants);
    v("retireContext", c.retireContext);
    v("invariantPeriod", c.invariantPeriod);
    v("forensicsPath", c.forensicsPath);
}

template <class V>
void
fields(V &v, TraceOptions &t)
{
    v("path", t.path);
    v("samplePath", t.samplePath);
    v("startNs", t.startNs);
    v("stopNs", t.stopNs);
    v("categories", t.categories);
    v("sampleIntervalNs", t.sampleIntervalNs);
}

template <class V>
void
fields(V &v, SamplingOptions &s)
{
    v("ffInsts", s.ffInsts);
    v("warmupInsts", s.warmupInsts);
    v("detailInsts", s.detailInsts);
    v("periods", s.periods);
}

template <class V>
void
fields(V &v, CheckpointOptions &c)
{
    v("path", c.path);
    v("ffInsts", c.ffInsts);
    v("farm", c.farm);
    v("farmDir", c.farmDir);
}

template <class V>
void
fields(V &v, VEngineParams &p)
{
    v("numLanes", p.numLanes);
    v("chimes", p.chimes);
    v("packed", p.packed);
    v("cmdQueueDepth", p.cmdQueueDepth);
    v("uopQueueDepth", p.uopQueueDepth);
    v("dataQueueDepth", p.dataQueueDepth);
    v("laneUopQueueDepth", p.laneUopQueueDepth);
    v("vmiuQueueDepth", p.vmiuQueueDepth);
    v("loadQueueLines", p.loadQueueLines);
    v("storeQueueLines", p.storeQueueLines);
    v("storeCamEntries", p.storeCamEntries);
    v("coalesceWindow", p.coalesceWindow);
    v("switchPenalty", p.switchPenalty);
    v("memPath", p.memPath);
}

template <class V>
void
fields(V &v, ScriptedFault &f)
{
    v("atTick", f.atTick);
    v("kind", f.kind, required);
    v("cycles", f.cycles);
}

template <class V>
void
fields(V &v, FaultSpec &s)
{
    v("enabled", s.enabled);
    v("seed", s.seed);
    v("memDelayProb", s.memDelayProb);
    v("memDelayCycles", s.memDelayCycles);
    v("cacheDelayProb", s.cacheDelayProb);
    v("cacheDelayCycles", s.cacheDelayCycles);
    v("vcuStallProb", s.vcuStallProb);
    v("vcuStallCycles", s.vcuStallCycles);
    v("vmuDropProb", s.vmuDropProb);
    v("vmuMaxRetries", s.vmuMaxRetries);
    v("vmuRetryDelay", s.vmuRetryDelay);
    v("script", s.script);
}

template <class V>
void
fields(V &v, RunOptions &o)
{
    v("bigGhz", o.bigGhz);
    v("littleGhz", o.littleGhz);
    v("limitNs", o.limitNs);
    v("verifyResult", o.verifyResult);
    v("watchdog", o.watchdog);
    v("watchdogIntervalNs", o.watchdogIntervalNs);
    v("wallDeadlineSec", o.wallDeadlineSec);
    v("engineOverride", o.engineOverride);
    v("faults", o.faults);
    v("check", o.check);
    v("trace", o.trace);
    v("sampling", o.sampling);
    v("checkpoint", o.checkpoint);
}

template <class V>
void
fields(V &v, Watchdog::Heartbeat &h)
{
    v("name", h.name);
    v("progress", h.progress);
    v("lastAdvance", h.lastAdvance);
    v("detail", h.detail);
}

template <class V>
void
fields(V &v, DivergenceRecord &d)
{
    v("stream", d.stream);
    v("seq", d.seq);
    v("tick", d.tick);
    v("instr", d.instr);
    v("field", d.field);
    v("timedValue", d.timedValue);
    v("refValue", d.refValue);
    v("chime", d.chime);
    v("queueContext", d.queueContext);
    v("lastRetires", d.lastRetires);
}

template <class V>
void
fields(V &v, RunResult &r)
{
    v("workload", r.workload);
    v("design", r.design);
    v("status", r.status, required);
    v("message", r.message);
    v("log", r.log);
    v("finished", r.finished);
    v("verified", r.verified);
    v("ns", r.ns);
    v("stats", r.stats);
    v("heartbeats", r.heartbeats, omitEmpty);
    v("divergence", r.divergence);
    v("invariantViolations", r.invariantViolations, omitEmpty);
}

template <class V>
void
fields(V &v, SweepJob &j)
{
    v("design", j.design, required);
    v("workload", j.workload, required);
    v("scale", j.scale, required);
    v("options", j.opts);
}

// --- the walkers ---------------------------------------------------------
//
// Scalars map to JSON scalars, enums to their EnumNames name, vectors
// to arrays, string-keyed maps to objects, and structs to objects via
// their field list. An empty std::optional writes no key.

template <class T, template <class...> class Of>
constexpr bool isA = false;
template <template <class...> class Of, class... A>
constexpr bool isA<Of<A...>, Of> = true;

template <class T>
Json toJson(const T &x);

template <class Flag, class... Flags>
constexpr bool hasFlag = (std::is_same_v<Flag, Flags> || ...);

struct Writer
{
    Json out = Json::object();

    template <class T, class... Flags>
    void
    operator()(const char *key, const T &m, Flags...)
    {
        if constexpr (isA<T, std::optional>) {
            if (m)
                out.set(key, toJson(*m));
        } else if constexpr (hasFlag<OmitEmpty, Flags...>) {
            if (!m.empty())
                out.set(key, toJson(m));
        } else {
            out.set(key, toJson(m));
        }
    }
};

template <class T>
Json
toJson(const T &x)
{
    if constexpr (std::is_enum_v<T>) {
        return Json(enumName(x));
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_same_v<T, std::string> ||
                         std::is_floating_point_v<T>) {
        return Json(x);
    } else if constexpr (std::is_integral_v<T>) {
        if constexpr (std::is_signed_v<T>)
            return Json(static_cast<std::int64_t>(x));
        else
            return Json(static_cast<std::uint64_t>(x));
    } else if constexpr (isA<T, std::vector>) {
        Json a = Json::array();
        for (const auto &e : x)
            a.push(toJson(e));
        return a;
    } else if constexpr (isA<T, std::map>) {
        Json o = Json::object();
        for (const auto &[k, e] : x)
            o.set(k, toJson(e));
        return o;
    } else {
        Writer w;
        // Field lists take a mutable struct so one list serves both
        // directions; the writer only reads through it.
        fields(w, const_cast<T &>(x));
        return std::move(w.out);
    }
}

template <class T>
void fromJson(const Json &j, T &x, const char *key);

struct Reader
{
    const Json &in;

    template <class T, class... Flags>
    void
    operator()(const char *key, T &m, Flags...)
    {
        const Json &v = in[key];
        if (!v.isNull())
            fromJson(v, m, key);
        else if (hasFlag<Required, Flags...>)
            fatal("run document: missing '%s'", key);
    }
};

/** Read @p j into @p x (already default); @p key names it in errors. */
template <class T>
void
fromJson(const Json &j, T &x, const char *key)
{
    if constexpr (std::is_enum_v<T>) {
        auto e = enumFromName<T>(j.asString());
        if (!e)
            fatal("run document: unknown %s '%s'", key,
                  j.asString().c_str());
        x = *e;
    } else if constexpr (std::is_same_v<T, bool>) {
        x = j.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        x = j.asString();
    } else if constexpr (std::is_floating_point_v<T>) {
        x = j.asDouble();
    } else if constexpr (std::is_integral_v<T>) {
        if constexpr (std::is_signed_v<T>)
            x = static_cast<T>(j.asI64());
        else
            x = static_cast<T>(j.asU64());
    } else if constexpr (isA<T, std::optional>) {
        fromJson(j, x.emplace(), key);
    } else if constexpr (isA<T, std::vector>) {
        for (const auto &e : j.items())
            fromJson(e, x.emplace_back(), key);
    } else if constexpr (isA<T, std::map>) {
        for (const auto &[k, e] : j.members())
            fromJson(e, x[k], key);
    } else {
        Reader r{j};
        fields(r, x);
    }
}

template <class T>
T
fromDocument(const Json &j)
{
    T x{};
    fromJson(j, x, "document");
    return x;
}

} // namespace

Json
runOptionsToJson(const RunOptions &o)
{
    return toJson(o);
}

RunOptions
runOptionsFromJson(const Json &j)
{
    return fromDocument<RunOptions>(j);
}

Json
runResultToJson(const RunResult &r)
{
    return toJson(r);
}

RunResult
runResultFromJson(const Json &j)
{
    return fromDocument<RunResult>(j);
}

Json
faultSpecToJson(const FaultSpec &spec)
{
    return toJson(spec);
}

FaultSpec
faultSpecFromJson(const Json &j)
{
    return fromDocument<FaultSpec>(j);
}

Json
sweepJobToJson(const SweepJob &job)
{
    return toJson(job);
}

SweepJob
sweepJobFromJson(const Json &j)
{
    return fromDocument<SweepJob>(j);
}

} // namespace bvl
