#include "obs/stats_io.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "obs/json.hh"
#include "sim/logging.hh"

namespace vip
{

namespace
{

using json::JsonValue;

/**
 * Near-zero timing values (an idle IP's busy_ms, an empty
 * histogram's p99) would fail any percentage band on denormal-scale
 * noise; differences below this floor are never violations.
 */
constexpr double kAbsoluteFloor = 1e-9;

std::map<std::string, std::string>
stringMap(const JsonValue *obj)
{
    std::map<std::string, std::string> out;
    if (!obj || obj->kind != JsonValue::Kind::Object)
        return out;
    for (const auto &[k, v] : obj->obj) {
        if (v.kind == JsonValue::Kind::String)
            out[k] = v.str;
        else if (v.kind == JsonValue::Kind::Number)
            out[k] = std::to_string(v.num);
    }
    return out;
}

/** Longest-match tolerance override for @p path, or "". */
std::string
overrideFor(const ToleranceOverrides &overrides,
            const std::string &path)
{
    std::string best;
    std::size_t bestLen = 0;
    for (const auto &[key, rule] : overrides) {
        bool match;
        std::size_t len;
        if (!key.empty() && key.back() == '*') {
            std::string prefix = key.substr(0, key.size() - 1);
            match = path.rfind(prefix, 0) == 0;
            len = prefix.size();
        } else {
            match = path == key;
            // An exact key always beats any prefix key.
            len = key.size() + 1;
        }
        if (match && (best.empty() || len > bestLen)) {
            best = rule;
            bestLen = len;
        }
    }
    return best;
}

} // namespace

const StatEntry *
StatsFile::find(const std::string &path) const
{
    for (const StatEntry &e : stats)
        if (e.path == path)
            return &e;
    return nullptr;
}

StatsFile
parseStatsJson(std::istream &is)
{
    JsonValue root = json::parse(is);
    if (root.kind != JsonValue::Kind::Object)
        fatal("stats root is not a JSON object");
    if (json::strField(root, "kind") != "vip-stats")
        fatal("not a vip-stats file (kind != \"vip-stats\")");

    StatsFile out;
    out.schemaVersion =
        static_cast<int>(json::numField(root, "schemaVersion"));
    out.provenance = stringMap(root.find("provenance"));
    out.run = stringMap(root.find("run"));

    const JsonValue *stats = root.find("stats");
    if (!stats || stats->kind != JsonValue::Kind::Array)
        fatal("stats file has no stats array");
    for (const JsonValue &e : stats->arr) {
        if (e.kind != JsonValue::Kind::Object)
            fatal("stats array entry is not an object");
        StatEntry s;
        s.path = json::strField(e, "path");
        s.value = json::numField(e, "value");
        s.unit = json::strField(e, "unit");
        s.tol = json::strField(e, "tol");
        s.desc = json::strField(e, "desc");
        if (s.path.empty())
            fatal("stats array entry has no path");
        out.stats.push_back(std::move(s));
    }
    return out;
}

bool
valuesWithinTolerance(const std::string &rule, double baseline,
                      double candidate)
{
    if (rule.rfind("pct:", 0) == 0) {
        double band = std::atof(rule.c_str() + 4);
        double diff = std::fabs(candidate - baseline);
        double scale =
            std::max(std::fabs(baseline), std::fabs(candidate));
        return diff <= std::max(band / 100.0 * scale, kAbsoluteFloor);
    }
    // "exact" and anything unrecognized: bit-for-bit.
    return baseline == candidate;
}

const char *
verdictName(StatVerdict::Kind kind)
{
    switch (kind) {
      case StatVerdict::Kind::Pass: return "pass";
      case StatVerdict::Kind::Fail: return "fail";
      case StatVerdict::Kind::Missing: return "missing";
      case StatVerdict::Kind::Extra: return "extra";
    }
    return "?";
}

std::vector<std::string>
StatsComparison::violations() const
{
    std::vector<std::string> out = context;
    for (const StatVerdict &r : rows) {
        switch (r.kind) {
          case StatVerdict::Kind::Pass:
            break;
          case StatVerdict::Kind::Fail: {
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "%s: baseline %.9g vs candidate %.9g "
                          "(rule %s)",
                          r.path.c_str(), *r.baseline, *r.candidate,
                          r.rule.c_str());
            out.push_back(buf);
            break;
          }
          case StatVerdict::Kind::Missing:
            out.push_back(r.path + ": missing from candidate");
            break;
          case StatVerdict::Kind::Extra:
            out.push_back(r.path + ": not present in baseline (new "
                                   "stat? regenerate bench/baseline/)");
            break;
        }
    }
    return out;
}

StatsComparison
compareStats(const StatsFile &baseline, const StatsFile &candidate,
             const ToleranceOverrides &overrides)
{
    StatsComparison res;
    if (baseline.schemaVersion != candidate.schemaVersion) {
        res.context.push_back(
            "schemaVersion mismatch: baseline "
            + std::to_string(baseline.schemaVersion) + " vs candidate "
            + std::to_string(candidate.schemaVersion));
    }
    // Comparing a W4/vip run against a W1/baseline run is a harness
    // bug, not a perf regression; refuse rather than mis-diagnose.
    for (const auto &[k, v] : baseline.run) {
        auto it = candidate.run.find(k);
        if (it == candidate.run.end() || it->second != v) {
            res.context.push_back(
                "run context mismatch on \"" + k + "\": baseline \""
                + v + "\" vs candidate \""
                + (it == candidate.run.end() ? std::string("<missing>")
                                             : it->second)
                + "\"");
        }
    }

    using Kind = StatVerdict::Kind;
    for (const StatEntry &b : baseline.stats) {
        std::string rule = overrideFor(overrides, b.path);
        if (rule.empty())
            rule = b.tol;
        const StatEntry *c = candidate.find(b.path);
        if (!c) {
            res.rows.push_back({b.path, Kind::Missing, rule, b.value, {}});
            continue;
        }
        ++res.compared;
        const bool within = valuesWithinTolerance(rule, b.value, c->value);
        res.rows.push_back({b.path, within ? Kind::Pass : Kind::Fail,
                            rule, b.value, c->value});
    }
    for (const StatEntry &c : candidate.stats) {
        if (!baseline.find(c.path))
            res.rows.push_back({c.path, Kind::Extra, "", {}, c.value});
    }
    res.ok = res.context.empty() &&
             std::ranges::all_of(res.rows, [](const StatVerdict &r) {
                 return r.kind == Kind::Pass;
             });
    return res;
}

} // namespace vip
