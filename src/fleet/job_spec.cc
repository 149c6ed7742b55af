#include "fleet/job_spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <utility>

#include "app/workload.hh"
#include "core/system_config.hh"
#include "fault/fault_plan.hh"
#include "obs/json.hh"
#include "sim/audit.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace vip
{
namespace fleet
{

namespace
{

/** Fault-plan spec strings embed '=' ',' '.'; job ids must survive
 *  shells and filesystems, so anything unusual becomes '_'. */
std::string
sanitizeForId(const std::string &s)
{
    std::string out;
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::vector<std::string>
stringAxis(const json::JsonValue &spec, const char *key, bool required)
{
    const json::JsonValue *v = spec.find(key);
    if (!v) {
        if (required)
            fatal("job spec: missing sweep axis '", key, "'");
        return {};
    }
    if (v->kind != json::JsonValue::Kind::Array)
        fatal("job spec: axis '", key, "' must be an array of strings");
    if (v->arr.empty())
        fatal("job spec: sweep axis '", key, "' is empty -- the cross "
              "product would contain no jobs");
    std::vector<std::string> out;
    for (const auto &e : v->arr) {
        if (e.kind != json::JsonValue::Kind::String)
            fatal("job spec: axis '", key, "' must contain only "
                  "strings");
        out.push_back(e.str);
    }
    return out;
}

double
numOr(const json::JsonValue &obj, const char *key, double fallback)
{
    const json::JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind != json::JsonValue::Kind::Number)
        fatal("job spec: field '", key, "' must be a number");
    return v->num;
}

bool
boolOr(const json::JsonValue &obj, const char *key, bool fallback)
{
    const json::JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind != json::JsonValue::Kind::Bool)
        fatal("job spec: field '", key, "' must be a boolean");
    return v->b;
}

/** SimFatal unless every key of @p obj is one of @p valid: a typo or a
 *  retired key would otherwise be ignored without a word. */
void
requireKnownKeys(const json::JsonValue &obj, const char *where,
                 std::initializer_list<const char *> valid)
{
    for (const auto &[key, value] : obj.obj) {
        if (std::find(valid.begin(), valid.end(), key) != valid.end())
            continue;
        std::string list;
        for (const char *v : valid)
            list += (list.empty() ? "" : ", ") + std::string(v);
        fatal("job spec: unknown key '", key, "' in ", where,
              " (valid keys: ", list, ")");
    }
}

/** A count/period that must land on a sane non-negative value. */
double
checkedNum(const json::JsonValue &obj, const char *key, double fallback,
           double lo, double hi)
{
    double v = numOr(obj, key, fallback);
    if (!std::isfinite(v) || v < lo || v > hi)
        fatal("job spec: field '", key, "' = ", v, " out of range [",
              lo, ", ", hi, "]");
    return v;
}

FleetPolicy
parsePolicy(const json::JsonValue &spec)
{
    FleetPolicy p;
    const json::JsonValue *f = spec.find("fleet");
    if (!f)
        return p;
    if (f->kind != json::JsonValue::Kind::Object)
        fatal("job spec: 'fleet' must be an object");
    requireKnownKeys(
        *f, "'fleet'",
        {"workers", "max_attempts", "backoff_base_ms", "backoff_cap_ms",
         "heartbeat_deadline_ms", "heartbeat_interval_ms",
         "checkpoint_every_ms", "backoff_jitter", "lease_ms",
         "heartbeat_grace_ms", "quarantine_after", "probe_interval_ms",
         "max_probes", "max_quarantines", "fetch_retries", "resume",
         "digests"});
    p.workers =
        static_cast<int>(checkedNum(*f, "workers", p.workers, 1, 4096));
    p.maxAttempts = static_cast<int>(
        checkedNum(*f, "max_attempts", p.maxAttempts, 1, 1000));
    p.backoffBaseMs =
        checkedNum(*f, "backoff_base_ms", p.backoffBaseMs, 0.0, 1e9);
    p.backoffCapMs =
        checkedNum(*f, "backoff_cap_ms", p.backoffCapMs, 0.0, 1e9);
    if (p.backoffCapMs < p.backoffBaseMs)
        fatal("job spec: backoff_cap_ms (", p.backoffCapMs,
              ") below backoff_base_ms (", p.backoffBaseMs, ")");
    p.heartbeatDeadlineMs = checkedNum(*f, "heartbeat_deadline_ms",
                                       p.heartbeatDeadlineMs, 0.0, 1e9);
    p.heartbeatIntervalMs = checkedNum(*f, "heartbeat_interval_ms",
                                       p.heartbeatIntervalMs, 0.0, 1e6);
    p.checkpointEveryMs = checkedNum(*f, "checkpoint_every_ms",
                                     p.checkpointEveryMs, 0.0, 1e6);
    // 0 turns either off; a positive period below one tick would fail
    // every worker the sweep starts, so it fails here instead.
    for (const auto &[key, ms] :
         {std::pair{"heartbeat_interval_ms", p.heartbeatIntervalMs},
          std::pair{"checkpoint_every_ms", p.checkpointEveryMs}}) {
        if (ms > 0.0 && !isTickPeriodMs(ms))
            fatal("job spec: field '", key, "' = ", ms,
                  " ms is below one tick (1e-9 ms); 0 turns it off");
    }
    p.backoffJitter = boolOr(*f, "backoff_jitter", p.backoffJitter);
    p.leaseMs = checkedNum(*f, "lease_ms", p.leaseMs, 0.0, 1e9);
    p.heartbeatGraceMs = checkedNum(*f, "heartbeat_grace_ms",
                                    p.heartbeatGraceMs, 0.0, 1e9);
    p.quarantineAfter = static_cast<int>(checkedNum(
        *f, "quarantine_after", p.quarantineAfter, 1, 1000));
    p.probeIntervalMs = checkedNum(*f, "probe_interval_ms",
                                   p.probeIntervalMs, 1.0, 1e9);
    p.maxProbes = static_cast<int>(
        checkedNum(*f, "max_probes", p.maxProbes, 1, 1000));
    p.maxQuarantines = static_cast<int>(
        checkedNum(*f, "max_quarantines", p.maxQuarantines, 1, 1000));
    p.fetchRetries = static_cast<int>(
        checkedNum(*f, "fetch_retries", p.fetchRetries, 1, 100));
    p.resume = boolOr(*f, "resume", p.resume);
    p.digests = boolOr(*f, "digests", p.digests);
    if (p.heartbeatDeadlineMs > 0.0 && p.heartbeatIntervalMs <= 0.0)
        fatal("job spec: heartbeat_deadline_ms needs a positive "
              "heartbeat_interval_ms (the deadline watches the "
              "metrics stream)");
    return p;
}

} // namespace

JobSpec
JobSpec::parse(const std::string &text)
{
    json::JsonValue doc;
    try {
        doc = json::parse(text);
    } catch (const SimFatal &e) {
        fatal("job spec: malformed JSON: ", e.what());
    }
    if (doc.kind != json::JsonValue::Kind::Object)
        fatal("job spec: top level must be an object");
    requireKnownKeys(doc, "the top level",
                     {"name", "seconds", "audit", "extra_args", "fleet",
                      "configs", "workloads", "fault_plans", "seeds"});

    JobSpec out;
    if (const auto *n = doc.find("name")) {
        if (n->kind != json::JsonValue::Kind::String)
            fatal("job spec: 'name' must be a string");
        out.name = n->str;
    }
    out.seconds = checkedNum(doc, "seconds", out.seconds, 1e-6, 3600.0);
    if (const auto *a = doc.find("audit")) {
        if (a->kind != json::JsonValue::Kind::String)
            fatal("job spec: 'audit' must be a string");
        out.audit = a->str;
        AuditConfig::parse(out.audit); // validate now, not per worker
    }
    if (const auto *x = doc.find("extra_args")) {
        if (x->kind != json::JsonValue::Kind::Array)
            fatal("job spec: 'extra_args' must be an array of strings");
        for (const auto &e : x->arr) {
            if (e.kind != json::JsonValue::Kind::String)
                fatal("job spec: 'extra_args' must contain only "
                      "strings");
            out.extraArgs.push_back(e.str);
        }
    }
    out.fleet = parsePolicy(doc);

    auto configs = stringAxis(doc, "configs", true);
    auto workloads = stringAxis(doc, "workloads", true);
    auto faults = stringAxis(doc, "fault_plans", false);
    if (faults.empty())
        faults.push_back("none");

    std::vector<std::uint64_t> seeds;
    if (const auto *s = doc.find("seeds")) {
        if (s->kind != json::JsonValue::Kind::Array)
            fatal("job spec: 'seeds' must be an array of non-negative "
                  "integers");
        if (s->arr.empty())
            fatal("job spec: sweep axis 'seeds' is empty -- the cross "
                  "product would contain no jobs");
        for (const auto &e : s->arr) {
            if (e.kind != json::JsonValue::Kind::Number ||
                e.num < 0.0 || e.num != std::floor(e.num))
                fatal("job spec: 'seeds' must contain only "
                      "non-negative integers");
            seeds.push_back(static_cast<std::uint64_t>(e.num));
        }
    } else {
        seeds.push_back(1);
    }

    // Validate every axis value once, up front: a bad cell must fail
    // at submit time, not attempts deep into a long sweep.
    for (const auto &c : configs)
        systemConfigByCliName(c);
    for (const auto &w : workloads)
        WorkloadCatalog::byName(w);
    for (const auto &f : faults) {
        if (f != "none" && !f.empty())
            FaultPlan::parse(f);
    }

    std::set<std::string> ids;
    for (const auto &c : configs) {
        for (const auto &w : workloads) {
            for (std::uint64_t s : seeds) {
                for (const auto &f : faults) {
                    FleetJob job;
                    job.config = c;
                    job.workload = w;
                    job.seed = s;
                    job.faultPlan = (f == "none") ? "" : f;
                    job.id = c + "-" + w + "-s" + std::to_string(s);
                    if (!job.faultPlan.empty())
                        job.id += '-' + sanitizeForId(job.faultPlan);
                    if (!ids.insert(job.id).second)
                        fatal("job spec: duplicate job id '", job.id,
                              "' -- a sweep axis repeats a value");
                    out.jobs.push_back(std::move(job));
                }
            }
        }
    }
    return out;
}

JobSpec
JobSpec::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read job spec '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

} // namespace fleet
} // namespace vip
