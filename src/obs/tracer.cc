#include "obs/tracer.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"
#include "obs/provenance.hh"
#include "sim/logging.hh"

namespace vip
{

namespace
{

constexpr int kTraceSchemaVersion = 1;

const struct { const char *name; TraceCat cat; } kCats[] = {
    {"ip", TraceCat::Ip},       {"frame", TraceCat::Frame},
    {"sa", TraceCat::Sa},       {"dram", TraceCat::Dram},
    {"cpu", TraceCat::Cpu},     {"sched", TraceCat::Sched},
    {"fault", TraceCat::Fault}, {"power", TraceCat::Power},
};

/** Format ticks (ps) as microseconds with fixed precision. */
std::string
usString(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  t / 1000000, t % 1000000);
    return buf;
}

std::string
doubleString(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    for (const auto &c : kCats)
        if (c.cat == cat)
            return c.name;
    return "?";
}

std::uint32_t
parseTraceCats(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return kAllTraceCats;
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        bool found = false;
        for (const auto &c : kCats) {
            if (tok == c.name) {
                mask |= static_cast<std::uint32_t>(c.cat);
                found = true;
                break;
            }
        }
        if (tok == "all") {
            mask = kAllTraceCats;
            found = true;
        }
        if (!found)
            fatal("unknown trace category '", tok,
                  "' (expected ip,frame,sa,dram,cpu,sched,fault,power"
                  " or all)");
        pos = comma + 1;
        if (comma == spec.size())
            break;
    }
    return mask;
}

std::string
traceCatsToString(std::uint32_t mask)
{
    if ((mask & kAllTraceCats) == kAllTraceCats)
        return "all";
    std::string out;
    for (const auto &c : kCats) {
        if (mask & static_cast<std::uint32_t>(c.cat)) {
            if (!out.empty())
                out += ',';
            out += c.name;
        }
    }
    return out;
}

Tracer::Tracer(std::uint32_t categories, std::size_t capacity)
    : _categories(categories),
      _nBlocks((std::max<std::size_t>(capacity, 1) + kBlockEvents - 1)
               / kBlockEvents)
{
}

std::uint32_t
Tracer::intern(const std::string &s)
{
    auto it = _index.find(s);
    if (it != _index.end())
        return it->second;
    // TraceEvent stores the id in 16 bits; the table holds a few
    // strings per component, so the bound is generous.
    if (_strings.size() >= 0xfffe)
        fatal("trace string table overflow (", _strings.size(),
              " interned strings)");
    _strings.push_back(s);
    std::uint32_t id = static_cast<std::uint32_t>(_strings.size());
    _index.emplace(s, id);
    return id;
}

void
Tracer::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    os << "{\n\"traceEvents\": [\n";

    // Metadata: one process, one named thread per track used.
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
          "\"process_name\", \"args\": {\"name\": \"vip-sim\"}}";
    std::vector<bool> used(_strings.size() + 1, false);
    forEach([&](const TraceEvent &ev) {
        if (ev.track && ev.track <= _strings.size())
            used[ev.track] = true;
    });
    for (std::uint32_t t = 1; t <= _strings.size(); ++t) {
        if (!used[t])
            continue;
        os << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << t
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
           << json::quoted(_strings[t - 1]) << "}}";
    }

    forEach([&](const TraceEvent &ev) {
        const char *name = ev.name && ev.name <= _strings.size()
                               ? _strings[ev.name - 1].c_str()
                               : "";
        os << ",\n{\"ph\": \"" << ev.ph << "\", \"pid\": 1, \"tid\": "
           << ev.track << ", \"ts\": " << usString(ev.ts);
        if (ev.ph != 'E')
            os << ", \"name\": " << json::quoted(name);
        os << ", \"cat\": \""
           << traceCatName(static_cast<TraceCat>(1u << ev.cat)) << "\"";
        if (ev.ph == 'X')
            os << ", \"dur\": " << usString(ev.dur);
        if (ev.ph == 'b' || ev.ph == 'n' || ev.ph == 'e') {
            char idbuf[32];
            std::snprintf(idbuf, sizeof(idbuf), "0x%" PRIx64,
                          frameAsyncId(
                              static_cast<std::uint32_t>(ev.flow),
                              static_cast<std::uint32_t>(ev.frame)));
            os << ", \"id\": \"" << idbuf << "\"";
        }
        if (ev.ph == 'i')
            os << ", \"s\": \"t\"";
        // Exact-tick args: the microsecond ts is lossy, ticks are not.
        os << ", \"args\": {\"tick\": " << ev.ts;
        if (ev.ph == 'X')
            os << ", \"durTicks\": " << ev.dur;
        if (ev.ph == 'e' && ev.dur)
            os << ", \"deadlineTick\": " << ev.dur;
        if (ev.flow >= 0)
            os << ", \"flow\": " << ev.flow;
        if (ev.frame >= 0)
            os << ", \"frame\": " << ev.frame;
        if (ev.lane >= 0)
            os << ", \"lane\": " << ev.lane;
        if (ev.ph == 'C')
            os << ", \"value\": " << doubleString(ev.value);
        else if (ev.value > 0)
            os << ", \"bytes\": " << doubleString(ev.value);
        os << "}}";
    });

    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\n";
    os << "  \"traceSchemaVersion\": " << kTraceSchemaVersion << ",\n";
    for (const auto &[k, v] : provenanceFields())
        os << "  " << json::quoted(k) << ": " << json::quoted(v)
           << ",\n";
    for (const auto &[k, v] : meta)
        os << "  " << json::quoted(k) << ": " << json::quoted(v)
           << ",\n";
    os << "  \"categories\": \"" << traceCatsToString(_categories)
       << "\",\n";
    os << "  \"droppedEvents\": " << _dropped << "\n}\n}\n";
}

} // namespace vip
