#include "fleet/journal.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/json.hh"
#include "sim/logging.hh"

namespace vip
{
namespace fleet
{

namespace
{

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

JobState
jobStateNamed(const std::string &name)
{
    for (JobState s : {JobState::Pending, JobState::Running,
                       JobState::Backoff, JobState::Done,
                       JobState::Failed})
        if (name == jobStateName(s))
            return s;
    fatal("journal: unknown job state '", name, "'");
}

} // namespace

void
FleetJournal::open(const std::string &path, bool echo)
{
    _out.open(path, std::ios::trunc);
    if (!_out)
        fatal("fleet: cannot open journal ", path);
    _echo = echo;
}

FleetJournal::Record::Record(FleetJournal *j, double wallMs,
                             const char *type)
    : _j(j)
{
    if (!_j)
        return;
    _echo = _j->_echo && std::strcmp(type, "heartbeat") != 0;
    _line = "{\"seq\": " + std::to_string(_j->_seq++) +
            ", \"wall_ms\": " + jsonNum(wallMs) + ", \"type\": \"" +
            type + "\"";
}

FleetJournal::Record::~Record()
{
    if (!_j)
        return;
    // Flushed per record: the journal must survive a SIGKILL
    // mid-sweep (that is its whole point).
    _j->_out << _line << "}\n" << std::flush;
    if (_echo)
        std::fprintf(stderr, "[fleet] %s}\n", _line.c_str());
}

FleetJournal::Record &
FleetJournal::Record::str(const char *key, const std::string &v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " + json::quoted(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::num(const char *key, double v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " + jsonNum(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::u64(const char *key, std::uint64_t v)
{
    if (_j)
        _line += ", \"" + std::string(key) + "\": " +
                 std::to_string(v);
    return *this;
}

FleetJournal::Record &
FleetJournal::Record::b(const char *key, bool v)
{
    if (_j)
        _line += ", \"" + std::string(key) +
                 (v ? "\": true" : "\": false");
    return *this;
}

FleetJournal::Record
FleetJournal::event(double wallMs, const char *type)
{
    return Record(enabled() ? this : nullptr, wallMs, type);
}

FoldedSweep
foldJournal(std::istream &in)
{
    FoldedSweep s;
    std::map<std::string, std::size_t> jobAt;
    std::string line;
    // getline() hits EOF only on a line with no newline: a record
    // the writer has not finished (or never will).  Skip it.
    while (std::getline(in, line) && !in.eof()) {
        const json::JsonValue r = json::parse(line);
        const std::string type = json::strField(r, "type");
        s.wallMs = json::numField(r, "wall_ms");

        if (type == "sweep_start") {
            s.name = json::strField(r, "name");
            s.seconds = json::numField(r, "seconds");
        } else if (type == "job") {
            FoldedJob j;
            j.job.id = json::strField(r, "job");
            j.job.config = json::strField(r, "config");
            j.job.workload = json::strField(r, "workload");
            j.job.seed =
                static_cast<std::uint64_t>(json::numField(r, "seed"));
            j.job.faultPlan = json::strField(r, "fault_plan");
            jobAt[j.job.id] = s.jobs.size();
            s.jobs.push_back(std::move(j));
            continue;
        } else if (type == "hang_kill") {
            ++s.hangKills;
        } else if (type == "interrupt") {
            s.interrupted = true;
        } else if (type == "sweep_end") {
            s.ended = true;
        }

        const json::JsonValue *id = r.find("job");
        if (!id)
            continue;
        const auto at = jobAt.find(id->str);
        if (at == jobAt.end())
            fatal("journal: undeclared job '", id->str, "'");
        FoldedJob &j = s.jobs[at->second];

        // The record names the job's attempt and its new state; the
        // fold copies both.
        if (const json::JsonValue *n = r.find("attempt"))
            j.attempts = static_cast<int>(n->num);
        if (const json::JsonValue *st = r.find("state"))
            j.state = jobStateNamed(st->str);
        j.wallMs += json::numField(r, "elapsed_ms");
        if (const json::JsonValue *why = r.find("why")) {
            j.lastError = why->str;
            j.history.push_back("attempt " +
                                std::to_string(j.attempts) + ": " +
                                why->str);
        }
        if (const json::JsonValue *t = r.find("steady_tick_ms"))
            j.steadyTickMs = t->num;

        if (type == "launch") {
            j.tickMs = j.tickWallMs = -1.0;
            j.rates.clear();
            const json::JsonValue *resume = r.find("resume");
            if (resume && resume->b) {
                j.resumed = true;
                ++s.resumes;
            }
        } else if (type == "heartbeat") {
            const double tick = json::numField(r, "tick_ms");
            if (tick < 0.0)
                continue;
            if (j.tickMs >= 0.0 && s.wallMs > j.tickWallMs) {
                j.rates.push_back((tick - j.tickMs) /
                                  ((s.wallMs - j.tickWallMs) / 1000.0));
                if (j.rates.size() > 16)
                    j.rates.erase(j.rates.begin());
            }
            j.tickMs = tick;
            j.tickWallMs = s.wallMs;
        }
    }

    for (const FoldedJob &j : s.jobs) {
        s.done += j.state == JobState::Done;
        s.failed += j.state == JobState::Failed;
        s.retries += static_cast<std::size_t>(std::max(0, j.attempts - 1));
    }
    return s;
}

} // namespace fleet
} // namespace vip
