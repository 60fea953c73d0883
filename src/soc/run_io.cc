#include "soc/run_io.hh"

#include "sim/check/forensics.hh"
#include "sim/logging.hh"

namespace bvl
{

namespace
{

Json
checkOptionsToJson(const CheckOptions &c)
{
    Json j = Json::object();
    j.set("lockstep", c.lockstep);
    j.set("invariants", c.invariants);
    j.set("retireContext", c.retireContext);
    j.set("invariantPeriod", c.invariantPeriod);
    j.set("forensicsPath", c.forensicsPath);
    return j;
}

CheckOptions
checkOptionsFromJson(const Json &j)
{
    CheckOptions c;
    if (j.isNull())
        return c;
    if (j.has("lockstep"))
        c.lockstep = j["lockstep"].asBool();
    if (j.has("invariants"))
        c.invariants = j["invariants"].asBool();
    if (j.has("retireContext"))
        c.retireContext =
            static_cast<unsigned>(j["retireContext"].asU64());
    if (j.has("invariantPeriod"))
        c.invariantPeriod =
            static_cast<unsigned>(j["invariantPeriod"].asU64());
    if (j.has("forensicsPath"))
        c.forensicsPath = j["forensicsPath"].asString();
    return c;
}

Json
traceOptionsToJson(const TraceOptions &t)
{
    Json j = Json::object();
    j.set("path", t.path);
    j.set("samplePath", t.samplePath);
    j.set("startNs", t.startNs);
    j.set("stopNs", t.stopNs);
    j.set("categories", static_cast<std::uint64_t>(t.categories));
    j.set("sampleIntervalNs", t.sampleIntervalNs);
    return j;
}

TraceOptions
traceOptionsFromJson(const Json &j)
{
    TraceOptions t;
    if (j.isNull())
        return t;
    if (j.has("path"))
        t.path = j["path"].asString();
    if (j.has("samplePath"))
        t.samplePath = j["samplePath"].asString();
    if (j.has("startNs"))
        t.startNs = j["startNs"].asDouble();
    if (j.has("stopNs"))
        t.stopNs = j["stopNs"].asDouble();
    if (j.has("categories"))
        t.categories = static_cast<unsigned>(j["categories"].asU64());
    if (j.has("sampleIntervalNs"))
        t.sampleIntervalNs = j["sampleIntervalNs"].asDouble();
    return t;
}

Json
samplingOptionsToJson(const SamplingOptions &s)
{
    Json j = Json::object();
    j.set("ffInsts", s.ffInsts);
    j.set("warmupInsts", s.warmupInsts);
    j.set("detailInsts", s.detailInsts);
    j.set("periods", static_cast<std::uint64_t>(s.periods));
    return j;
}

SamplingOptions
samplingOptionsFromJson(const Json &j)
{
    SamplingOptions s;
    if (j.isNull())
        return s;
    if (j.has("ffInsts"))
        s.ffInsts = j["ffInsts"].asU64();
    if (j.has("warmupInsts"))
        s.warmupInsts = j["warmupInsts"].asU64();
    if (j.has("detailInsts"))
        s.detailInsts = j["detailInsts"].asU64();
    if (j.has("periods"))
        s.periods = static_cast<unsigned>(j["periods"].asU64());
    return s;
}

Json
checkpointOptionsToJson(const CheckpointOptions &c)
{
    Json j = Json::object();
    j.set("savePath", c.savePath);
    j.set("restorePath", c.restorePath);
    j.set("ffInsts", c.ffInsts);
    j.set("farm", c.farm);
    j.set("farmDir", c.farmDir);
    j.set("strict", c.strict);
    return j;
}

CheckpointOptions
checkpointOptionsFromJson(const Json &j)
{
    CheckpointOptions c;
    if (j.isNull())
        return c;
    if (j.has("savePath"))
        c.savePath = j["savePath"].asString();
    if (j.has("restorePath"))
        c.restorePath = j["restorePath"].asString();
    if (j.has("ffInsts"))
        c.ffInsts = j["ffInsts"].asU64();
    if (j.has("farm"))
        c.farm = j["farm"].asBool();
    if (j.has("farmDir"))
        c.farmDir = j["farmDir"].asString();
    if (j.has("strict"))
        c.strict = j["strict"].asBool();
    return c;
}

} // namespace

Json
vengineParamsToJson(const VEngineParams &p)
{
    Json j = Json::object();
    j.set("name", p.name);
    j.set("lanePrefix", p.lanePrefix);
    j.set("numLanes", p.numLanes);
    j.set("chimes", p.chimes);
    j.set("packed", p.packed);
    j.set("cmdQueueDepth", p.cmdQueueDepth);
    j.set("uopQueueDepth", p.uopQueueDepth);
    j.set("dataQueueDepth", p.dataQueueDepth);
    j.set("laneUopQueueDepth", p.laneUopQueueDepth);
    j.set("vmiuQueueDepth", p.vmiuQueueDepth);
    j.set("loadQueueLines", p.loadQueueLines);
    j.set("storeQueueLines", p.storeQueueLines);
    j.set("storeCamEntries", p.storeCamEntries);
    j.set("coalesceWindow", p.coalesceWindow);
    j.set("switchPenalty", p.switchPenalty);
    Json fu = Json::object();
    fu.set("intAlu", p.fu.intAlu);
    fu.set("intMul", p.fu.intMul);
    fu.set("intDiv", p.fu.intDiv);
    fu.set("fpAdd", p.fu.fpAdd);
    fu.set("fpMul", p.fu.fpMul);
    fu.set("fpDiv", p.fu.fpDiv);
    fu.set("mem", p.fu.mem);
    fu.set("branch", p.fu.branch);
    j.set("fu", std::move(fu));
    switch (p.memPath) {
      case VEngineParams::MemPath::bankedL1:
        j.set("memPath", "bankedL1");
        break;
      case VEngineParams::MemPath::bigL1D:
        j.set("memPath", "bigL1D");
        break;
      case VEngineParams::MemPath::directL2:
        j.set("memPath", "directL2");
        break;
    }
    return j;
}

VEngineParams
vengineParamsFromJson(const Json &j)
{
    VEngineParams p;
    auto u = [&](const char *key, auto &field) {
        if (j.has(key))
            field = static_cast<std::decay_t<decltype(field)>>(
                j[key].asU64());
    };
    if (j.has("name"))
        p.name = j["name"].asString();
    if (j.has("lanePrefix"))
        p.lanePrefix = j["lanePrefix"].asString();
    u("numLanes", p.numLanes);
    u("chimes", p.chimes);
    if (j.has("packed"))
        p.packed = j["packed"].asBool();
    u("cmdQueueDepth", p.cmdQueueDepth);
    u("uopQueueDepth", p.uopQueueDepth);
    u("dataQueueDepth", p.dataQueueDepth);
    u("laneUopQueueDepth", p.laneUopQueueDepth);
    u("vmiuQueueDepth", p.vmiuQueueDepth);
    u("loadQueueLines", p.loadQueueLines);
    u("storeQueueLines", p.storeQueueLines);
    u("storeCamEntries", p.storeCamEntries);
    u("coalesceWindow", p.coalesceWindow);
    u("switchPenalty", p.switchPenalty);
    const Json &fu = j["fu"];
    if (!fu.isNull()) {
        auto c = [&](const char *key, Cycles &field) {
            if (fu.has(key))
                field = fu[key].asU64();
        };
        c("intAlu", p.fu.intAlu);
        c("intMul", p.fu.intMul);
        c("intDiv", p.fu.intDiv);
        c("fpAdd", p.fu.fpAdd);
        c("fpMul", p.fu.fpMul);
        c("fpDiv", p.fu.fpDiv);
        c("mem", p.fu.mem);
        c("branch", p.fu.branch);
    }
    if (j.has("memPath")) {
        const std::string &m = j["memPath"].asString();
        if (m == "bankedL1")
            p.memPath = VEngineParams::MemPath::bankedL1;
        else if (m == "bigL1D")
            p.memPath = VEngineParams::MemPath::bigL1D;
        else if (m == "directL2")
            p.memPath = VEngineParams::MemPath::directL2;
        else
            fatal("run document: unknown memPath '%s'", m.c_str());
    }
    return p;
}

Json
runOptionsToJson(const RunOptions &o)
{
    Json j = Json::object();
    j.set("bigGhz", o.bigGhz);
    j.set("littleGhz", o.littleGhz);
    j.set("limitNs", o.limitNs);
    j.set("verifyResult", o.verifyResult);
    j.set("watchdog", o.watchdog);
    j.set("watchdogIntervalNs", o.watchdogIntervalNs);
    j.set("wallDeadlineSec", o.wallDeadlineSec);
    if (o.engineOverride)
        j.set("engineOverride", vengineParamsToJson(*o.engineOverride));
    j.set("faults", faultSpecToJson(o.faults));
    j.set("check", checkOptionsToJson(o.check));
    j.set("trace", traceOptionsToJson(o.trace));
    j.set("sampling", samplingOptionsToJson(o.sampling));
    j.set("checkpoint", checkpointOptionsToJson(o.checkpoint));
    return j;
}

RunOptions
runOptionsFromJson(const Json &j)
{
    RunOptions o;
    if (j.isNull())
        return o;
    if (j.has("bigGhz"))
        o.bigGhz = j["bigGhz"].asDouble();
    if (j.has("littleGhz"))
        o.littleGhz = j["littleGhz"].asDouble();
    if (j.has("limitNs"))
        o.limitNs = j["limitNs"].asDouble();
    if (j.has("verifyResult"))
        o.verifyResult = j["verifyResult"].asBool();
    if (j.has("watchdog"))
        o.watchdog = j["watchdog"].asBool();
    if (j.has("watchdogIntervalNs"))
        o.watchdogIntervalNs = j["watchdogIntervalNs"].asDouble();
    if (j.has("wallDeadlineSec"))
        o.wallDeadlineSec = j["wallDeadlineSec"].asDouble();
    if (j.has("engineOverride") && !j["engineOverride"].isNull())
        o.engineOverride = vengineParamsFromJson(j["engineOverride"]);
    o.faults = faultSpecFromJson(j["faults"]);
    o.check = checkOptionsFromJson(j["check"]);
    if (j.has("trace"))
        o.trace = traceOptionsFromJson(j["trace"]);
    if (j.has("sampling"))
        o.sampling = samplingOptionsFromJson(j["sampling"]);
    if (j.has("checkpoint"))
        o.checkpoint = checkpointOptionsFromJson(j["checkpoint"]);
    return o;
}

Json
heartbeatsToJson(const std::vector<Watchdog::Heartbeat> &beats)
{
    Json arr = Json::array();
    for (const auto &hb : beats) {
        Json b = Json::object();
        b.set("name", hb.name);
        b.set("progress", hb.progress);
        b.set("lastAdvance", hb.lastAdvance);
        b.set("detail", hb.detail);
        arr.push(std::move(b));
    }
    return arr;
}

std::vector<Watchdog::Heartbeat>
heartbeatsFromJson(const Json &j)
{
    std::vector<Watchdog::Heartbeat> beats;
    for (const auto &b : j.items()) {
        Watchdog::Heartbeat hb;
        hb.name = b["name"].asString();
        hb.progress = b["progress"].asU64();
        hb.lastAdvance = b["lastAdvance"].asU64();
        hb.detail = b["detail"].asString();
        beats.push_back(std::move(hb));
    }
    return beats;
}

Json
divergenceToJson(const DivergenceRecord &d)
{
    Json dv = Json::object();
    dv.set("stream", d.stream);
    dv.set("seq", d.seq);
    dv.set("tick", d.tick);
    dv.set("instr", d.instr);
    dv.set("field", d.field);
    dv.set("timedValue", d.timedValue);
    dv.set("refValue", d.refValue);
    dv.set("chime", d.chime);
    dv.set("queueContext", d.queueContext);
    Json hist = Json::array();
    for (const auto &line : d.lastRetires)
        hist.push(line);
    dv.set("lastRetires", std::move(hist));
    return dv;
}

DivergenceRecord
divergenceFromJson(const Json &j)
{
    DivergenceRecord d;
    d.stream = j["stream"].asString();
    d.seq = j["seq"].asU64();
    d.tick = j["tick"].asU64();
    d.instr = j["instr"].asString();
    d.field = j["field"].asString();
    d.timedValue = j["timedValue"].asU64();
    d.refValue = j["refValue"].asU64();
    d.chime = static_cast<int>(j["chime"].asI64());
    d.queueContext = j["queueContext"].asString();
    for (const auto &line : j["lastRetires"].items())
        d.lastRetires.push_back(line.asString());
    return d;
}

Json
runResultToJson(const RunResult &r)
{
    Json j = Json::object();
    j.set("workload", r.workload);
    j.set("design", r.design);
    j.set("status", runStatusName(r.status));
    j.set("message", r.message);
    j.set("log", r.log);
    j.set("finished", r.finished);
    j.set("verified", r.verified);
    j.set("ns", r.ns);
    Json stats = Json::object();
    for (const auto &kv : r.stats)
        stats.set(kv.first, kv.second);
    j.set("stats", std::move(stats));
    if (!r.heartbeats.empty())
        j.set("heartbeats", heartbeatsToJson(r.heartbeats));
    if (r.divergence)
        j.set("divergence", divergenceToJson(*r.divergence));
    if (!r.invariantViolations.empty())
        j.set("invariantViolations", r.invariantViolations);
    return j;
}

RunResult
runResultFromJson(const Json &j)
{
    RunResult r;
    r.workload = j["workload"].asString();
    r.design = j["design"].asString();
    r.status = runStatusFromName(j["status"].asString());
    r.message = j["message"].asString();
    r.log = j["log"].asString();
    r.finished = j["finished"].asBool();
    r.verified = j["verified"].asBool();
    r.ns = j["ns"].asDouble();
    for (const auto &kv : j["stats"].members())
        r.stats[kv.first] = kv.second.asU64();
    if (j.has("heartbeats"))
        r.heartbeats = heartbeatsFromJson(j["heartbeats"]);
    if (j.has("divergence") && !j["divergence"].isNull())
        r.divergence = divergenceFromJson(j["divergence"]);
    if (j.has("invariantViolations"))
        r.invariantViolations = j["invariantViolations"].asString();
    return r;
}

} // namespace bvl
