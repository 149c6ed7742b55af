#include "fleet/transport/faulty_transport.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace vip
{
namespace fleet
{

namespace
{

/** splitmix64: a full-period mix of (seed, op) into one draw. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t seed, std::uint64_t op,
         std::uint64_t stream)
{
    const std::uint64_t h =
        mix64(mix64(seed ^ (stream * 0x100000001b3ull)) + op);
    return static_cast<double>(h >> 11) *
           (1.0 / 9007199254740992.0); // 2^-53
}

bool
parseNum(const std::string &s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end && *end == '\0' && end != s.c_str();
}

} // namespace

bool
FaultSpec::parse(const std::string &s, FaultSpec *out,
                 std::string *err)
{
    *out = FaultSpec{};
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string tok = s.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;

        auto bad = [&](const std::string &why) {
            if (err)
                *err = "fault spec token '" + tok + "': " + why;
            return false;
        };

        const std::size_t at = tok.find('@');
        const std::size_t eq = tok.find('=');
        if (at != std::string::npos &&
            (eq == std::string::npos || at < eq)) {
            const std::string key = tok.substr(0, at);
            const std::string val = tok.substr(at + 1);
            if (key == "die") {
                double n = 0;
                if (!parseNum(val, &n) || n < 0)
                    return bad("expected die@<op>");
                out->dieAtOp = static_cast<long>(n);
            } else if (key == "partition") {
                const std::size_t plus = val.find('+');
                double a = 0, l = 0;
                if (plus == std::string::npos ||
                    !parseNum(val.substr(0, plus), &a) ||
                    !parseNum(val.substr(plus + 1), &l) || a < 0 ||
                    l <= 0)
                    return bad("expected partition@<op>+<ops>");
                out->partitionAtOp = static_cast<long>(a);
                out->partitionOps = static_cast<long>(l);
            } else {
                return bad("unknown key");
            }
            continue;
        }
        if (eq == std::string::npos)
            return bad("expected key=value or key@value");
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        double n = 0;
        if (key == "seed") {
            if (!parseNum(val, &n) || n < 0)
                return bad("expected seed=<n>");
            out->seed = static_cast<std::uint64_t>(n);
        } else if (key == "drop" || key == "delay" ||
                   key == "dup" || key == "corrupt") {
            if (!parseNum(val, &n) || n < 0.0 || n > 1.0)
                return bad("expected a probability in [0,1]");
            if (key == "drop")
                out->drop = n;
            else if (key == "delay")
                out->delay = n;
            else if (key == "dup")
                out->dup = n;
            else
                out->corrupt = n;
        } else {
            return bad("unknown key");
        }
    }
    return true;
}

/** Wraps the inner handle and deregisters itself on destruction so
 *  the die fault only ever signals handles that are still alive. */
struct FaultyTransport::Handle : WorkerHandle
{
    std::unique_ptr<WorkerHandle> inner;
    FaultyTransport *owner = nullptr;

    ~Handle() override
    {
        if (owner) {
            auto &v = owner->_live;
            v.erase(std::remove(v.begin(), v.end(), this), v.end());
        }
    }
};

FaultyTransport::FaultyTransport(
    std::unique_ptr<WorkerTransport> inner, FaultSpec spec)
    : _inner(std::move(inner)), _spec(spec),
      _kind(std::string("faulty+") + _inner->kind())
{
}

FaultyTransport::~FaultyTransport()
{
    for (Handle *h : _live)
        h->owner = nullptr;
}

const char *
FaultyTransport::kind() const
{
    return _kind.c_str();
}

FaultyTransport::Verdict
FaultyTransport::nextOp(bool probabilistic, bool fetchOp)
{
    const long op = _counters.ops++;
    Verdict v;

    if (_spec.dieAtOp >= 0 && op >= _spec.dieAtOp) {
        v.dead = true;
        _counters.died = true;
        killAllOnce();
        return v;
    }
    if (_spec.partitionAtOp >= 0 && op >= _spec.partitionAtOp &&
        op < _spec.partitionAtOp + _spec.partitionOps) {
        v.partitioned = true;
        ++_counters.partitioned;
        return v;
    }
    if (!probabilistic)
        return v;

    const auto uop = static_cast<std::uint64_t>(op);
    double u = unitDraw(_spec.seed, uop, 1);
    if (u < _spec.drop) {
        v.drop = true;
        ++_counters.drops;
        return v; // drop preempts the milder faults
    }
    if (unitDraw(_spec.seed, uop, 2) < _spec.delay) {
        v.delay = true;
        ++_counters.delays;
    }
    if (unitDraw(_spec.seed, uop, 3) < _spec.dup) {
        v.dup = true;
        ++_counters.dups;
    }
    if (fetchOp && unitDraw(_spec.seed, uop, 4) < _spec.corrupt) {
        v.corrupt = true;
        ++_counters.corrupts;
    }
    return v;
}

void
FaultyTransport::killAllOnce()
{
    if (_killed)
        return;
    _killed = true;
    for (Handle *h : _live)
        if (h->inner)
            _inner->forceKill(*h->inner);
}

std::unique_ptr<WorkerHandle>
FaultyTransport::launch(const LaunchRequest &req, std::string *err)
{
    const Verdict v = nextOp(false, false);
    if (v.dead || v.partitioned) {
        if (err)
            *err = v.dead ? "injected fault: host dead"
                          : "injected fault: partitioned";
        return nullptr;
    }
    auto inner = _inner->launch(req, err);
    if (!inner)
        return nullptr;
    auto h = std::make_unique<Handle>();
    h->inner = std::move(inner);
    h->owner = this;
    _live.push_back(h.get());
    return h;
}

PollResult
FaultyTransport::poll(WorkerHandle &wh)
{
    auto &h = static_cast<Handle &>(wh);
    const Verdict v = nextOp(true, false);
    if (v.dead || v.partitioned || v.drop) {
        PollResult pr;
        pr.state = WorkerState::Unreachable;
        pr.error = v.dead ? "injected fault: host dead"
                 : v.partitioned ? "injected fault: partitioned"
                                 : "injected fault: dropped poll";
        return pr;
    }
    if (v.delay)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (v.dup)
        (void)_inner->poll(*h.inner);
    return _inner->poll(*h.inner);
}

bool
FaultyTransport::heartbeat(WorkerHandle &wh, HeartbeatInfo *info,
                           std::string *err)
{
    auto &h = static_cast<Handle &>(wh);
    const Verdict v = nextOp(true, false);
    if (v.dead || v.partitioned || v.drop) {
        if (err)
            *err = v.dead ? "injected fault: host dead"
                 : v.partitioned ? "injected fault: partitioned"
                                 : "injected fault: dropped heartbeat";
        return false;
    }
    if (v.delay)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (v.dup)
        (void)_inner->heartbeat(*h.inner, info, err);
    return _inner->heartbeat(*h.inner, info, err);
}

void
FaultyTransport::interrupt(WorkerHandle &wh)
{
    // Cleanup ops are never fault-injected (see header).
    auto &h = static_cast<Handle &>(wh);
    _inner->interrupt(*h.inner);
}

void
FaultyTransport::forceKill(WorkerHandle &wh)
{
    auto &h = static_cast<Handle &>(wh);
    _inner->forceKill(*h.inner);
}

bool
FaultyTransport::fetch(WorkerHandle &wh, ArtifactManifest *out,
                       std::string *err)
{
    auto &h = static_cast<Handle &>(wh);
    const Verdict v = nextOp(true, true);
    if (v.dead || v.partitioned || v.drop) {
        if (err)
            *err = v.dead ? "injected fault: host dead"
                 : v.partitioned ? "injected fault: partitioned"
                                 : "injected fault: dropped fetch";
        return false;
    }
    if (v.delay)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (v.dup) {
        ArtifactManifest scratch;
        std::string e;
        (void)_inner->fetch(*h.inner, &scratch, &e);
    }
    if (!_inner->fetch(*h.inner, out, err))
        return false;
    if (v.corrupt) {
        // Lie about one checksum: the supervisor's verified commit
        // must catch it and retry the fetch.
        for (auto &a : *out) {
            if (a.present) {
                a.fnv ^= 0xdeadbeefull;
                break;
            }
        }
    }
    return true;
}

bool
FaultyTransport::probe(std::string *err)
{
    const Verdict v = nextOp(true, false);
    if (v.dead || v.partitioned || v.drop) {
        if (err)
            *err = v.dead ? "injected fault: host dead"
                 : v.partitioned ? "injected fault: partitioned"
                                 : "injected fault: dropped probe";
        return false;
    }
    if (v.delay)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (v.dup)
        (void)_inner->probe(nullptr);
    return _inner->probe(err);
}

} // namespace fleet
} // namespace vip
