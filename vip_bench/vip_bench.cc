/**
 * @file
 * vip_bench: the simulator's layered, noise-aware benchmark.
 *
 *   vip_bench [--workload all|<name>] [--seed <n>] [--seconds <s>]
 *             [--trace 0|1] [--out <file.json>]
 *   vip_bench --smoke
 *   vip_bench --record-expected [--seeds <a>-<b>]
 *   vip_bench --compare <parent.json>[,...] <change.json>[,...] [--json]
 *
 * Every op (one run, or one paper_matrix pass of 75 cells) runs in a
 * fresh process -- this binary re-executed with "--child <kind>" --
 * while this process blocks on it: one simulation at a time, so the
 * numbers measure the simulator and not the host scheduler.  The plan
 * is one discarded warm-up op per workload, then timed rounds
 * round-robin across the workloads, alternating direction
 * each round so drift hits every workload alike, each timed op
 * followed by a few cold set-up ops; then the traced ops (profiler
 * armed, each right after an untraced op of its workload), the rest of
 * the set-up ops and the fixed-work layer legs.  With one workload and
 * --trace 1, every round is such a pair instead.
 *
 * Each metric reports one value per run (see Pick).  The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1,
 * and both, prefixed "<workload>.", for --workload all.  --out keeps
 * every sample plus host state and provenance; --compare judges two
 * sets of such files against the bounds in BENCHMARK.json.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/provenance.hh"
#include "ops.hh"
#include "sim/logging.hh"

namespace vipbench
{
namespace
{

using vip::json::JsonValue;

/**
 * How a metric's per-op samples become its reported value.  On a shared
 * host most ops run at a contended level, but co-tenants come and go:
 * some ops run up to 2.4x faster, others are lifted by bursts, and for
 * minutes at a time a burst can touch a third of a run's ops.  So a
 * host time reports its contended mode (see contendedMode()), which
 * ignores both the fast ops and the bursts.  Over ten sets of ten runs
 * per workload its run-to-run IQR had the lowest worst case of the
 * estimators tried (README.md).  Everything else, set-up time included,
 * reports the median.
 */
enum class Pick
{
    Median,
    Contended,
    /** A host time summed over an op's cells: each cell's contended mode
     *  over the run's ops, summed (Bench::cellModes).  A 75-cell
     *  paper_matrix op lasts ~2-3 s and straddles fast spells; its
     *  cells do not.  For a one-cell op it is the op's contended mode. */
    ContendedCells,
};

/** The median of the narrowest window (by max/min ratio) that holds half
 *  of @p v, rounded up: where the samples are densest.  0 when empty. */
double
shorth(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t k = (v.size() + 1) / 2;
    std::size_t best = 0;
    for (std::size_t i = 1; i + k <= v.size(); ++i) {
        if (v[i + k - 1] * v[best] < v[best + k - 1] * v[i])
            best = i;
    }
    return percentile({v.begin() + best, v.begin() + best + k}, 0.5);
}

/** Ops faster than this share of the slower half's mode are fast-state
 *  ops: they run 1.5-2.4x faster than the contended level. */
constexpr double kFastCut = 0.75;

/**
 * The contended level of a run's op times: the densest level of the
 * slower half anchors a cut that drops the fast ops, and the densest
 * level of what is left is the value.  It holds while at least about
 * half of the run is contended; bursts, being spread out, never form
 * the densest level.  0 when @p v is empty.
 */
double
contendedMode(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double cut =
        kFastCut * shorth({v.begin() + v.size() / 2, v.end()});
    return shorth({std::lower_bound(v.begin(), v.end(), cut), v.end()});
}

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
    Pick pick;
};

/** Every metric vip_bench emits; BENCHMARK.json lists the same names
 *  with their directions and bounds (bench_smoke checks they agree). */
const MetricDef kMetrics[] = {
    {"sim_ms_per_wall_s", "ms/s", true, Pick::ContendedCells},
    {"wall_s", "s", true, Pick::ContendedCells},
    {"setup_s", "s", true, Pick::Median},
    {"peak_rss_mb", "MB", true, Pick::Median},
    {"sim.schedule_service_ns", "ns", false, Pick::Median},
    {"sim.cancel_ns", "ns", false, Pick::Median},
    {"sim.ns_per_event", "ns", false, Pick::Contended},
    {"sim.events_per_sim_ms", "1/ms", false, Pick::Median},
    {"sim.loop_self_share", "fraction", false, Pick::Median},
    {"sim.books_share", "fraction", false, Pick::Median},
    {"sim.heap_peak", "events", false, Pick::Median},
    {"sim.compactions", "count", false, Pick::Median},
    {"mem.access_seq_ns", "ns", false, Pick::Median},
    {"mem.access_rand_ns", "ns", false, Pick::Median},
    {"mem.wall_share", "fraction", false, Pick::Median},
    {"mem.bursts_per_sim_ms", "1/ms", false, Pick::Median},
    {"mem.row_hit_rate", "fraction", false, Pick::Median},
    {"mem.bw_gbps", "GB/s", false, Pick::Median},
    {"sa.peer_transfer_ns", "ns", false, Pick::Median},
    {"sa.signal_ns", "ns", false, Pick::Median},
    {"sa.mem_access_ns", "ns", false, Pick::Median},
    {"sa.wall_share", "fraction", false, Pick::Median},
    {"sa.transfers_per_sim_ms", "1/ms", false, Pick::Median},
    {"sa.signals_per_sim_ms", "1/ms", false, Pick::Median},
    {"sa.utilization", "fraction", false, Pick::Median},
    {"ip.stream_ns_per_kb_64k", "ns/KB", false, Pick::Median},
    {"ip.stream_ns_per_kb_1m", "ns/KB", false, Pick::Median},
    {"ip.wall_share", "fraction", false, Pick::Median},
    {"ip.units_per_sim_ms", "1/ms", false, Pick::Median},
    {"ip.unit_ns", "ns", false, Pick::Contended},
    {"cpu.dispatch_ns", "ns", false, Pick::Median},
    {"cpu.interrupt_ns", "ns", false, Pick::Median},
    {"cpu.wall_share", "fraction", false, Pick::Median},
    {"cpu.interrupts_per_100ms", "1/100ms", false, Pick::Median},
    {"core.wall_share", "fraction", false, Pick::Median},
    {"core.energy_per_frame_mj", "mJ", false, Pick::Median},
    {"core.flow_time_ms", "ms", false, Pick::Median},
    {"core.drop_rate", "fraction", false, Pick::Median},
    {"core.frames_completed", "count", false, Pick::Median},
    {"obs.stats_json_ms", "ms", false, Pick::Contended},
    {"obs.prof_overhead_pct", "%", false, Pick::Median},
};

/** Layers whose profiler wall share is reported (sim.* kinds count as
 *  event-kernel self time, obs.* kinds are idle in these runs). */
const char *const kShareLayers[] = {"mem", "sa", "ip", "cpu", "core"};

/** An AddressSanitizer build times a different program, whatever its
 *  CMAKE_BUILD_TYPE provenance says. */
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

/** Fresh-process constructions behind setup_s of a single-run
 *  workload: one per op drifted 16% between sets of 11.  A few follow
 *  each timed op, so they sample the host's slow and fast spells in
 *  the same mix as the runs; 51 back to back (~0.1 s) hit one spell. */
constexpr int kSetupReps = 51;
constexpr int kSetupPerOp = 4;
constexpr int kLegBatches = 31;
constexpr int kFixedRounds = 11;
/** With --seconds, rounds continue until it is spent, at least this. */
constexpr int kMinRounds = 3;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(
        stderr,
        "vip_bench: %s\n"
        "usage: vip_bench [--workload all|dram_bound|ip_chain|"
        "faulty_chain|paper_matrix]\n"
        "                 [--seed <n>] [--seconds <s>] [--trace 0|1] "
        "[--out <file.json>]\n"
        "       vip_bench --smoke\n"
        "       vip_bench --record-expected [--seeds <a>-<b>]\n"
        "       vip_bench --compare <parent.json>[,...] <change.json>[,...] "
        "[--json]\n"
        "common: --benchmark <BENCHMARK.json> --expected "
        "<expected.json> --artifacts <dir>\n",
        why);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || *end != '\0' || errno == ERANGE)
        usage((std::string(flag) + " wants a whole number").c_str());
    return v;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
hex(std::uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

struct Summary
{
    double value = 0.0; ///< the reported value (see Pick)
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    std::size_t n = 0;
};

/** Median, quartiles (Python's statistics.quantiles(n=4), exclusive
 *  method) and the value @p pick reports; ContendedCells is left to the
 *  caller, which has the cells' samples. */
Summary
summarize(std::vector<double> v, Pick pick)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = percentile(v, 0.5);
    s.value = pick == Pick::Contended ? contendedMode(v) : s.median;
    if (n < 2) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    auto quartile = [&](long long i) {
        const long long m = static_cast<long long>(n) + 1;
        const long long j =
            std::clamp<long long>(i * m / 4, 1, static_cast<long long>(n) - 1);
        const double delta = double(i * m - j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

JsonValue
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        vip::fatal("cannot read ", path);
    return vip::json::parse(in);
}

/** --------------------------------------------------------------- */
/** Child processes                                                  */

struct OpResult
{
    std::string error; ///< empty when the op passed
    std::map<std::string, double> v;
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    struct Span
    {
        std::string name, cell;
        std::int64_t t0, t1;
    };
    std::vector<Span> spans;
    double maxRssKb = 0.0;

    bool ok() const { return error.empty(); }

    double
    get(const std::string &key) const
    {
        auto it = v.find(key);
        return it == v.end() ? 0.0 : it->second;
    }
};

/**
 * Run one op in a fresh process -- this binary re-executed as
 * "vip_bench --child <kind> @p args" -- and wait for it.  The child
 * reports on its stdout (a pipe, see Report); its peak RSS is the
 * wait4() ru_maxrss, so it counts only what one simulation needs.
 */
OpResult
runChild(const std::vector<std::string> &args)
{
    std::vector<std::string> full{"vip_bench", "--child"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : full)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0)
        vip::fatal("pipe: ", std::strerror(errno));
    const pid_t pid = fork();
    if (pid < 0)
        vip::fatal("fork: ", std::strerror(errno));
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            text.append(buf, std::size_t(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru
    {};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }

    OpResult r;
    r.maxRssKb = double(ru.ru_maxrss);
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "v") {
            std::string key, val;
            ls >> key >> val;
            r.v[key] = std::strtod(val.c_str(), nullptr);
        } else if (tag == "d") {
            std::string cell, val;
            ls >> cell >> val;
            r.digests.emplace_back(cell,
                                   std::strtoull(val.c_str(), nullptr, 16));
        } else if (tag == "s") {
            OpResult::Span s;
            ls >> s.name >> s.cell >> s.t0 >> s.t1;
            r.spans.push_back(s);
        } else if (tag == "e") {
            r.error = line.substr(2);
        }
    }
    if (WIFSIGNALED(status)) {
        r.error = std::string("child killed by signal ") +
                  strsignal(WTERMSIG(status));
    } else if (r.error.empty() &&
               (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
        r.error = "child exited with status " +
                  std::to_string(WEXITSTATUS(status));
    }
    return r;
}

/** --------------------------------------------------------------- */
/** Expected digests                                                 */

using ExpectedMap = std::map<std::uint64_t, CellDigests>;

/** Digests per seed; empty when @p path does not exist. */
ExpectedMap
loadExpected(const std::string &path)
{
    ExpectedMap out;
    if (!std::filesystem::exists(path))
        return out;
    const JsonValue doc = loadJson(path);
    const JsonValue *seeds = doc.find("seeds");
    if (!seeds || seeds->kind != JsonValue::Kind::Object)
        vip::fatal(path, ": no \"seeds\" object");
    for (const auto &[seed, cells] : seeds->obj) {
        CellDigests &d = out[parseUint(seed, "expected seed")];
        for (const auto &[cell, digest] : cells.obj)
            d[cell] = std::strtoull(digest.str.c_str(), nullptr, 16);
    }
    return out;
}

/** --------------------------------------------------------------- */
/** The measurement plan                                             */

struct Options
{
    std::vector<std::string> workloads = workloadNames();
    std::uint64_t seed = 1;
    double seconds = 0.0; ///< 0: kFixedRounds rounds
    bool trace = true;
    bool smoke = false;
    std::string out;
    std::string benchmark = VIP_BENCH_BENCHMARK_JSON;
    std::string expected = VIP_BENCH_EXPECTED_JSON;
    std::string artifacts = VIP_BENCH_ARTIFACTS;

    /** --workload all: metrics are named "<workload>.<metric>". */
    bool all() const { return workloads.size() > 1; }
};

/** Arguments of "vip_bench --child <kind>" for one op. */
std::vector<std::string>
childArgs(const Options &o, const char *kind, const std::string &w,
          std::uint64_t seed, bool traced)
{
    std::vector<std::string> a{kind, "--workload", w, "--seed",
                               std::to_string(seed), "--trace",
                               traced ? "1" : "0", "--expected",
                               o.expected, "--artifacts", o.artifacts};
    if (o.smoke)
        a.push_back("--smoke");
    return a;
}

struct HostState
{
    long nproc = 0;
    double loadStart[3] = {0, 0, 0};
    double loadEnd[3] = {0, 0, 0};
    std::string governor; ///< empty when unreadable
};

class Bench
{
  public:
    Bench(const Options &o, const ExpectedMap &expected)
        : _o(o), _expected(expected)
    {}

    void
    run()
    {
        for (const std::string &w : _o.workloads)
            runOp(w, false, false);
        const bool pairs = _o.trace && !_o.all();
        const std::int64_t start = nowNs();
        for (int r = 0;; ++r) {
            const double spent = double(nowNs() - start) / 1e9;
            if (_o.seconds > 0.0 ? r >= kMinRounds && spent >= _o.seconds
                                 : r >= (_o.smoke ? 1 : kFixedRounds))
                break;
            std::vector<std::string> order = _o.workloads;
            if (r % 2)
                std::reverse(order.begin(), order.end());
            for (const std::string &w : order) {
                if (pairs) {
                    runPair(w, r % 2);
                } else {
                    runOp(w, false, true);
                    setupOps(w, kSetupPerOp);
                }
            }
        }
        if (_o.trace && !pairs) {
            for (const std::string &w : _o.workloads)
                runPair(w, false);
        }
        for (const std::string &w : _o.workloads)
            setupOps(w, (_o.smoke ? 0 : kSetupReps) - _setupDone[w]);
        if (_o.trace)
            legsOp();
    }

    /** End-to-end metrics are measured unless one workload is traced. */
    bool endToEnd() const { return _o.all() || !_o.trace; }

    bool
    emits(const MetricDef &m) const
    {
        return m.endToEnd ? endToEnd() : _o.trace;
    }

    int attempted() const { return _attempted; }
    int failed() const { return _failed; }
    std::size_t digestComparisons() const { return _comparisons; }

    Summary
    metric(const std::string &w, const MetricDef &m) const
    {
        auto wi = _samples.find(w);
        if (wi == _samples.end())
            return {};
        auto mi = wi->second.find(m.name);
        if (mi == wi->second.end())
            return {};
        Summary s = summarize(mi->second, m.pick);
        if (m.pick == Pick::ContendedCells) {
            s.value = std::string(m.name) == "wall_s"
                          ? cellModes(w, &CellTimes::wallNs) / 1e9
                          : ratio(_simMs.at(w),
                                  cellModes(w, &CellTimes::runNs) / 1e9);
        }
        return s;
    }

    const std::vector<double> &
    samples(const std::string &w, const std::string &name) const
    {
        return _samples.at(w).at(name);
    }

    /** "match", "unchecked" or "mismatch" for a workload's cells. */
    std::string
    checkStatus(const std::string &w) const
    {
        auto it = _status.find(w);
        if (it == _status.end())
            return "not run";
        if (it->second.count("mismatch"))
            return "mismatch";
        return it->second.count("unchecked") ? "unchecked" : "match";
    }

    std::string
    firstDigest(const std::string &w) const
    {
        auto it = _firstDigest.find(w);
        return it == _firstDigest.end() ? "" : hex(it->second);
    }

    /** Chrome trace_event JSON of every op and child span. */
    void
    writeSpans(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\": [";
        bool first = true;
        for (const SpanRec &s : _spans) {
            os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << fmt(double(s.t0 - _epoch) / 1e3)
               << ", \"dur\": " << fmt(double(s.t1 - s.t0) / 1e3)
               << ", \"args\": {\"op\": " << s.op << ", \"what\": "
               << vip::json::quoted(s.what) << "}}";
            first = false;
        }
        os << "\n]}\n";
    }

  private:
    struct SpanRec
    {
        std::string name, what;
        int op;
        std::int64_t t0, t1;
    };

    /** One cell's host times over a workload's untraced timed ops. */
    struct CellTimes
    {
        std::vector<double> runNs;
        std::vector<double> wallNs; ///< setup + run + collect
    };

    /** Pick::ContendedCells: the sum of each cell's contended mode. */
    double
    cellModes(const std::string &w,
              std::vector<double> CellTimes::*times) const
    {
        double sum = 0.0;
        for (const auto &[cell, t] : _cells.at(w))
            sum += contendedMode(t.*times);
        return sum;
    }

    const CellDigests *
    expectedFor() const
    {
        if (_o.smoke)
            return nullptr;
        auto it = _expected.find(_o.seed);
        return it == _expected.end() ? nullptr : &it->second;
    }

    /** Spawn, wait, account; returns the result when the op passed. */
    const OpResult *
    op(const std::string &what, const std::vector<std::string> &args)
    {
        const int id = ++_attempted;
        const std::int64_t t0 = nowNs();
        _last = runChild(args);
        _spans.push_back({"op", what, id, t0, nowNs()});
        for (const OpResult::Span &s : _last.spans)
            _spans.push_back({s.name, s.cell, id, s.t0, s.t1});
        if (_last.ok())
            return &_last;
        ++_failed;
        std::fprintf(stderr, "vip_bench: op %d (%s) failed: %s\n", id,
                     what.c_str(), _last.error.c_str());
        return nullptr;
    }

    /** One op; returns its run-span ms, or a negative on failure. */
    double
    runOp(const std::string &w, bool traced, bool timed)
    {
        const OpResult *r = op(w + (traced ? " traced" : ""),
                               childArgs(_o, "run", w, _o.seed, traced));
        const CellDigests *exp = expectedFor();
        if (!r || !checkDigests(w, *r, exp))
            return -1.0;
        if (timed)
            addRunMetrics(w, *r, traced);
        return r->get("run_ns") / 1e6;
    }

    /** Adjacent untraced and traced ops: their run-time ratio is one
     *  sample of the profiler's overhead at the same host state. */
    void
    runPair(const std::string &w, bool tracedFirst)
    {
        const double first = runOp(w, tracedFirst, true);
        const double second = runOp(w, !tracedFirst, true);
        const double traced = tracedFirst ? first : second;
        const double untraced = tracedFirst ? second : first;
        if (traced > 0.0 && untraced > 0.0) {
            _samples[w]["obs.prof_overhead_pct"].push_back(
                (traced / untraced - 1.0) * 100.0);
        }
    }

    /** Same digest as every earlier op of the cell (determinism) and
     *  as expected.json when it has the seed. */
    bool
    checkDigests(const std::string &w, const OpResult &r,
                 const CellDigests *exp)
    {
        std::string bad;
        std::uint64_t combined = 1469598103934665603ull;
        for (const auto &[cell, d] : r.digests) {
            combined = (combined ^ d) * 1099511628211ull;
            auto [it, fresh] = _seen.emplace(cell, d);
            if (!fresh) {
                ++_comparisons;
                if (it->second != d)
                    bad = cell + " digest differs between ops of seed " +
                          std::to_string(_o.seed);
            }
            auto e = exp ? exp->find(cell) : CellDigests::const_iterator{};
            if (!exp || e == exp->end()) {
                _status[w].insert("unchecked");
            } else if (e->second == d) {
                _status[w].insert("match");
            } else {
                _status[w].insert("mismatch");
                bad = cell + " digest " + hex(d) + " != expected " +
                      hex(e->second) + " (stats.json kept in " +
                      _o.artifacts + "/mismatch)";
            }
        }
        _firstDigest.emplace(w, combined);
        if (r.digests.empty())
            bad = "no digests reported";
        if (bad.empty())
            return true;
        ++_failed;
        std::fprintf(stderr, "vip_bench: op %d (%s) failed: %s\n",
                     _attempted, w.c_str(), bad.c_str());
        return false;
    }

    void
    addRunMetrics(const std::string &w, const OpResult &r, bool traced)
    {
        auto add = [&](const std::string &m, double x) {
            _samples[w][m].push_back(x);
        };
        const double simMs = r.get("sim_ms");
        const double runNs = r.get("run_ns");
        if (!traced) {
            // A cell's setup, run and collect spans are contiguous.
            std::map<std::string, std::int64_t> start;
            for (const OpResult::Span &s : r.spans) {
                if (s.name == "setup")
                    start[s.cell] = s.t0;
                else if (s.name == "run")
                    _cells[w][s.cell].runNs.push_back(double(s.t1 - s.t0));
                else if (s.name == "collect")
                    _cells[w][s.cell].wallNs.push_back(
                        double(s.t1 - start.at(s.cell)));
            }
            _simMs[w] = simMs;
            add("sim_ms_per_wall_s", ratio(simMs, runNs / 1e9));
            add("wall_s",
                (r.get("setup_ns") + runNs + r.get("collect_ns")) / 1e9);
            add("peak_rss_mb", r.maxRssKb / 1024.0);
            if (w == "paper_matrix")
                add("setup_s", r.get("setup_ns") / 1e9);
            add("sim.ns_per_event", ratio(runNs, r.get("events")));
            add("sim.events_per_sim_ms", ratio(r.get("events"), simMs));
            add("sim.compactions", r.get("compactions"));
            add("mem.bursts_per_sim_ms", ratio(r.get("bursts"), simMs));
            add("mem.row_hit_rate",
                ratio(r.get("row_hits"),
                      r.get("row_hits") + r.get("row_misses")));
            add("mem.bw_gbps", ratio(r.get("mem_gb"), simMs / 1e3));
            add("sa.utilization", ratio(r.get("sa_busy_ms"), simMs));
            add("cpu.interrupts_per_100ms",
                ratio(r.get("interrupts"), simMs / 100.0));
            const double frames = r.get("frames");
            add("core.energy_per_frame_mj",
                ratio(r.get("energy_mj"), frames));
            add("core.flow_time_ms", ratio(r.get("flow_time_ms_sum"), frames));
            add("core.drop_rate", ratio(r.get("drops"), frames));
            add("core.frames_completed", frames);
            add("obs.stats_json_ms", r.get("collect_ns") / 1e6);
            return;
        }
        for (const char *layer : kShareLayers) {
            add(std::string(layer) + ".wall_share",
                ratio(r.get(std::string("est_ns.") + layer), runNs));
        }
        // Layer keys are "est_ns.<layer>"; per-kind keys have a second
        // dot.  Every non-sim callback is attributed to a layer; the
        // rest of the profiler's loop wall is the kernel's self time.
        double callbackNs = 0.0;
        for (const auto &[key, v] : r.v) {
            if (key.rfind("est_ns.", 0) == 0 &&
                key.find('.', 7) == std::string::npos &&
                key != "est_ns.sim")
                callbackNs += v;
        }
        const double loopSelf =
            1.0 - ratio(callbackNs, r.get("prof_wall_ns"));
        add("sim.loop_self_share", loopSelf);
        add("sim.books_share", ratio(callbackNs, runNs) + loopSelf);
        add("sim.heap_peak", r.get("heap_peak"));
        add("sa.transfers_per_sim_ms",
            ratio(r.get("count.sa.transfer"), simMs));
        add("sa.signals_per_sim_ms", ratio(r.get("count.sa.signal"), simMs));
        add("ip.units_per_sim_ms", ratio(r.get("count.ip.unit"), simMs));
        add("ip.unit_ns",
            ratio(r.get("est_ns.ip.unit"), r.get("count.ip.unit")));
    }

    /** @p n cold set-up ops of a single-run workload (paper_matrix sums
     *  its cells' set-up inside each op instead). */
    void
    setupOps(const std::string &w, int n)
    {
        if (!endToEnd() || w == "paper_matrix")
            return;
        for (int i = 0; i < n; ++i) {
            ++_setupDone[w];
            const OpResult *r =
                op(w + " setup", childArgs(_o, "setup", w, _o.seed, false));
            if (r)
                _samples[w]["setup_s"].push_back(r->get("setup_ns") / 1e9);
        }
    }

    void
    legsOp()
    {
        const OpResult *r =
            op("layer legs", childArgs(_o, "legs", "all", _o.seed, false));
        if (!r)
            return;
        for (const std::string &w : _o.workloads) {
            for (const auto &[key, v] : r->v)
                _samples[w][key].push_back(v);
        }
    }

    const Options &_o;
    const ExpectedMap &_expected;
    const std::int64_t _epoch = nowNs();
    int _attempted = 0;
    int _failed = 0;
    std::size_t _comparisons = 0;
    OpResult _last;
    std::map<std::string, std::map<std::string, std::vector<double>>>
        _samples;
    std::map<std::string, std::map<std::string, CellTimes>> _cells;
    std::map<std::string, double> _simMs;
    std::map<std::string, int> _setupDone;
    std::map<std::string, std::uint64_t> _seen;
    std::map<std::string, std::uint64_t> _firstDigest;
    std::map<std::string, std::set<std::string>> _status;
    std::vector<SpanRec> _spans;
};

HostState
hostStateNow()
{
    HostState h;
    h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    if (getloadavg(h.loadStart, 3) != 3)
        std::fill(h.loadStart, h.loadStart + 3, -1.0);
    std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/"
                      "scaling_governor");
    std::getline(gov, h.governor);
    return h;
}

std::string
metricKey(const Options &o, const std::string &w, const char *name)
{
    return o.all() ? w + "." + name : std::string(name);
}

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string
resultLine(const Options &o, const Bench &b)
{
    std::string s = "{\"correct\": ";
    s += b.failed() == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(b.attempted());
    s += ", \"failed\": " + std::to_string(b.failed());
    s += ", \"metrics\": {";
    bool first = true;
    for (const std::string &w : o.workloads) {
        for (const MetricDef &m : kMetrics) {
            if (!b.emits(m))
                continue;
            s += (first ? "" : ", ") +
                 vip::json::quoted(metricKey(o, w, m.name)) +
                 ": {\"value\": " + fmt(b.metric(w, m).value) +
                 ", \"unit\": \"" + m.unit + "\"}";
            first = false;
        }
    }
    return s + "}}";
}

void
printTable(const Options &o, const Bench &b, const HostState &h)
{
    std::printf("vip_bench: seed %llu, %s, build %s (%s, git %s)\n",
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "untraced", vip::buildType(),
                vip::buildCompiler(), vip::buildGitHash());
    std::printf("host: nproc %ld, load %.2f %.2f %.2f -> %.2f %.2f "
                "%.2f, governor %s\n",
                h.nproc, h.loadStart[0], h.loadStart[1], h.loadStart[2],
                h.loadEnd[0], h.loadEnd[1], h.loadEnd[2],
                h.governor.empty() ? "unreadable" : h.governor.c_str());
    for (const std::string &w : o.workloads) {
        std::printf("\n%s  (digest %s, expected: %s)\n", w.c_str(),
                    b.firstDigest(w).c_str(), b.checkStatus(w).c_str());
        std::printf("  %-26s %13s %13s %13s %13s %7s %4s  %s\n",
                    "metric", "value", "median", "q1", "q3", "iqr%", "n",
                    "unit");
        for (const MetricDef &m : kMetrics) {
            const Summary s = b.metric(w, m);
            if (!s.n)
                continue;
            std::printf("  %-26s %13.6g %13.6g %13.6g %13.6g %7.2f %4zu  "
                        "%s\n",
                        m.name, s.value, s.median, s.q1, s.q3,
                        100.0 * ratio(s.q3 - s.q1, std::fabs(s.median)),
                        s.n, m.unit);
        }
    }
    std::printf("\nops: %d attempted, %d failed\n", b.attempted(),
                b.failed());
}

void
writeOutFile(const Options &o, const Bench &b, const HostState &h)
{
    std::ofstream os(o.out);
    if (!os)
        vip::fatal("cannot write ", o.out);
    os << "{\n  \"kind\": \"vip-bench\",\n  \"schemaVersion\": 1,\n"
       << "  \"seed\": " << o.seed << ",\n  \"trace\": " << o.trace
       << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
       << ",\n  \"correct\": " << (b.failed() == 0 ? "true" : "false")
       << ",\n  \"attempted\": " << b.attempted()
       << ",\n  \"failed\": " << b.failed() << ",\n  \"provenance\": {";
    bool first = true;
    for (const auto &[k, v] : vip::provenanceFields()) {
        os << (first ? "" : ", ") << vip::json::quoted(k) << ": "
           << vip::json::quoted(v);
        first = false;
    }
    os << "},\n  \"host\": {\"nproc\": " << h.nproc
       << ", \"loadavg_start\": [" << fmt(h.loadStart[0]) << ", "
       << fmt(h.loadStart[1]) << ", " << fmt(h.loadStart[2])
       << "], \"loadavg_end\": [" << fmt(h.loadEnd[0]) << ", "
       << fmt(h.loadEnd[1]) << ", " << fmt(h.loadEnd[2])
       << "], \"governor\": "
       << (h.governor.empty() ? "null" : vip::json::quoted(h.governor))
       << "},\n  \"results\": {";
    for (std::size_t wi = 0; wi < o.workloads.size(); ++wi) {
        const std::string &w = o.workloads[wi];
        os << (wi ? ",\n" : "\n") << "    " << vip::json::quoted(w)
           << ": {\"digest\": \"" << b.firstDigest(w)
           << "\", \"expected\": \"" << b.checkStatus(w)
           << "\", \"metrics\": {";
        first = true;
        for (const MetricDef &m : kMetrics) {
            const Summary s = b.metric(w, m);
            if (!s.n)
                continue;
            os << (first ? "\n" : ",\n") << "      \"" << m.name
               << "\": {\"unit\": \"" << m.unit
               << "\", \"value\": " << fmt(s.value)
               << ", \"median\": " << fmt(s.median)
               << ", \"q1\": " << fmt(s.q1) << ", \"q3\": " << fmt(s.q3)
               << ", \"n\": " << s.n << ", \"samples\": [";
            const std::vector<double> &v = b.samples(w, m.name);
            for (std::size_t i = 0; i < v.size(); ++i)
                os << (i ? ", " : "") << fmt(v[i]);
            os << "]}";
            first = false;
        }
        os << "}}";
    }
    os << "\n  }\n}\n";
}

/** bench_smoke: every BENCHMARK.json metric emitted with its unit, the
 *  line parses, nothing failed, and ops of one seed digest alike. */
int
smokeCheck(const Options &o, const Bench &b, const std::string &line)
{
    int bad = 0;
    auto fail = [&bad](const std::string &why) {
        std::fprintf(stderr, "bench_smoke: %s\n", why.c_str());
        ++bad;
    };
    const JsonValue parsed = vip::json::parse(line);
    const JsonValue *metrics = parsed.find("metrics");
    const JsonValue spec = loadJson(o.benchmark);
    for (const char *group : {"end_to_end", "per_layer"}) {
        const JsonValue *list = spec.find(group);
        if (!list || list->arr.empty())
            fail(std::string("BENCHMARK.json has no ") + group);
        for (const JsonValue &m : list ? list->arr
                                       : std::vector<JsonValue>{}) {
            const std::string name = vip::json::strField(m, "name");
            for (const std::string &w : o.workloads) {
                const std::string key = metricKey(o, w, name.c_str());
                const JsonValue *got = metrics ? metrics->find(key)
                                               : nullptr;
                if (!got || !got->find("value"))
                    fail(key + " not emitted");
                else if (vip::json::strField(*got, "unit") !=
                         vip::json::strField(m, "unit"))
                    fail(key + " unit differs from BENCHMARK.json");
            }
        }
    }
    if (vip::json::numField(parsed, "failed") != 0.0)
        fail("failed ops");
    if (b.digestComparisons() == 0)
        fail("no two ops of one workload and seed were compared");
    std::printf("bench_smoke: %s\n", bad ? "FAILED" : "ok");
    return bad ? 1 : 0;
}

int
runBench(const Options &o)
{
    if (!o.smoke &&
        (std::string(vip::buildType()) != "Release" || kSanitized)) {
        std::fprintf(stderr,
                     "vip_bench: refusing to time a '%s'%s build; a "
                     "Debug or sanitizer build is a different program "
                     "(configure a plain -DCMAKE_BUILD_TYPE=Release)\n",
                     vip::buildType(), kSanitized ? " sanitizer" : "");
        return 2;
    }
    const ExpectedMap expected = loadExpected(o.expected);
    if (expected.empty() && !o.smoke) {
        std::fprintf(stderr, "vip_bench: no digests in %s; every digest "
                             "is unchecked\n", o.expected.c_str());
    }
    HostState host = hostStateNow();
    Bench b(o, expected);
    b.run();
    if (getloadavg(host.loadEnd, 3) != 3)
        std::fill(host.loadEnd, host.loadEnd + 3, -1.0);

    std::filesystem::create_directories(o.artifacts);
    b.writeSpans(o.artifacts + "/spans-" +
                 (o.all() ? std::string("all") : o.workloads[0]) + "-seed" +
                 std::to_string(o.seed) + ".json");
    if (!o.out.empty())
        writeOutFile(o, b, host);
    printTable(o, b, host);
    const std::string line = resultLine(o, b);
    const int smoke = o.smoke ? smokeCheck(o, b, line) : 0;
    std::printf("%s\n", line.c_str());
    return b.failed() || smoke ? 1 : 0;
}

/** --------------------------------------------------------------- */
/** --record-expected                                                */

int
recordExpected(const Options &o, std::uint64_t first, std::uint64_t last)
{
    std::ofstream os(o.expected + ".tmp");
    if (!os)
        vip::fatal("cannot write ", o.expected, ".tmp");
    os << "{\n  \"kind\": \"vip-bench-expected\",\n"
          "  \"schemaVersion\": 1,\n  \"seeds\": {";
    for (std::uint64_t seed = first; seed <= last; ++seed) {
        os << (seed == first ? "\n" : ",\n") << "    \"" << seed
           << "\": {";
        bool firstCell = true;
        for (const std::string &w : workloadNames()) {
            const OpResult r =
                runChild(childArgs(o, "run", w, seed, false));
            const std::size_t cells = cellsOf(w, seed, false).size();
            if (!r.ok() || r.digests.size() != cells) {
                std::fprintf(stderr, "vip_bench: %s seed %llu failed: %s\n",
                             w.c_str(),
                             static_cast<unsigned long long>(seed),
                             r.error.c_str());
                return 1;
            }
            for (const auto &[cell, d] : r.digests) {
                os << (firstCell ? "\n" : ",\n") << "      \"" << cell
                   << "\": \"" << hex(d) << "\"";
                firstCell = false;
            }
        }
        os << "\n    }";
        std::printf("recorded seed %llu\n",
                    static_cast<unsigned long long>(seed));
    }
    os << "\n  }\n}\n";
    os.close();
    std::filesystem::rename(o.expected + ".tmp", o.expected);
    std::printf("wrote %s\n", o.expected.c_str());
    return 0;
}

/** --------------------------------------------------------------- */
/** --compare                                                        */

struct Verdict
{
    std::string workload, metric, unit, verdict;
    double parent = 0.0, change = 0.0, bound = 0.0;
    double parentIqr = 0.0, changeIqr = 0.0;
    int wins = 0, pairs = 0;
};

/** The reported value of @p metric in each --out file that has it. */
std::vector<double>
runsOf(const std::vector<JsonValue> &docs, const std::string &w,
       const std::string &metric, std::string *unit)
{
    std::vector<double> v;
    for (const JsonValue &doc : docs) {
        const JsonValue *res = doc.find("results");
        const JsonValue *wl = res ? res->find(w) : nullptr;
        const JsonValue *ms = wl ? wl->find("metrics") : nullptr;
        const JsonValue *m = ms ? ms->find(metric) : nullptr;
        if (!m || !m->find("value"))
            continue;
        *unit = vip::json::strField(*m, "unit");
        v.push_back(vip::json::numField(*m, "value"));
    }
    return v;
}

/**
 * better/worse/same by more than the bound, comparing medians over
 * runs; unresolved when either side's IQR is wider than the bound,
 * unless every run of one side beats every run of the other.
 */
std::string
judge(const std::vector<double> &p, const std::vector<double> &c,
      bool lowerIsBetter, double bound, Verdict &v)
{
    const Summary ps = summarize(p, Pick::Median);
    const Summary cs = summarize(c, Pick::Median);
    v.parent = ps.median;
    v.change = cs.median;
    v.parentIqr = ratio(ps.q3 - ps.q1, std::fabs(ps.median));
    v.changeIqr = ratio(cs.q3 - cs.q1, std::fabs(cs.median));
    const double sign = lowerIsBetter ? -1.0 : 1.0;
    auto beats = [sign](double a, double b) { return sign * (a - b) > 0; };
    if (p.size() == c.size()) {
        v.pairs = int(p.size());
        for (std::size_t i = 0; i < p.size(); ++i)
            v.wins += beats(c[i], p[i]);
    }
    if (std::max(v.parentIqr, v.changeIqr) > bound) {
        auto dominates = [&](const std::vector<double> &a,
                             const std::vector<double> &b) {
            return std::all_of(a.begin(), a.end(), [&](double x) {
                return std::all_of(b.begin(), b.end(),
                                   [&](double y) { return beats(x, y); });
            });
        };
        return dominates(c, p)   ? "better"
               : dominates(p, c) ? "worse"
                                 : "unresolved";
    }
    const double gain =
        sign * ratio(cs.median - ps.median, std::fabs(ps.median));
    if (gain < -bound)
        return "worse";
    return gain > bound ? "better" : "same";
}

/** Comma-separated --out files of one side. */
std::vector<JsonValue>
loadRuns(const std::string &list)
{
    std::vector<JsonValue> docs;
    std::stringstream ss(list);
    std::string path;
    while (std::getline(ss, path, ','))
        docs.push_back(loadJson(path));
    return docs;
}

int
compare(const Options &o, const std::string &parentList,
        const std::string &changeList, bool asJson)
{
    const JsonValue spec = loadJson(o.benchmark);
    const std::vector<JsonValue> parent = loadRuns(parentList);
    const std::vector<JsonValue> change = loadRuns(changeList);
    const JsonValue *e2e = spec.find("end_to_end");
    if (!e2e)
        vip::fatal(o.benchmark, ": no end_to_end list");
    std::vector<Verdict> rows;
    for (const std::string &w : workloadNames()) {
        for (const JsonValue &m : e2e->arr) {
            Verdict v;
            v.workload = w;
            v.metric = vip::json::strField(m, "name");
            v.bound = vip::json::numField(m, "bound");
            const auto p = runsOf(parent, w, v.metric, &v.unit);
            const auto c = runsOf(change, w, v.metric, &v.unit);
            if (p.empty() || c.empty())
                continue;
            v.verdict =
                judge(p, c, vip::json::strField(m, "better") == "lower",
                      v.bound, v);
            rows.push_back(v);
        }
    }
    if (rows.empty())
        vip::fatal("no workload and metric appear on both sides");
    const bool worse = std::any_of(rows.begin(), rows.end(), [](auto &v) {
        return v.verdict == "worse";
    });
    if (asJson) {
        std::printf("{\n  \"kind\": \"vip-bench-compare\",\n"
                    "  \"schemaVersion\": 1,\n  \"ok\": %s,\n"
                    "  \"rows\": [",
                    worse ? "false" : "true");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Verdict &v = rows[i];
            std::printf("%s\n    {\"workload\": \"%s\", \"metric\": "
                        "\"%s\", \"verdict\": \"%s\", \"unit\": \"%s\", "
                        "\"parent\": %s, \"change\": %s, \"ratio\": %s, "
                        "\"bound\": %s, \"parent_iqr\": %s, "
                        "\"change_iqr\": %s, \"wins\": %d, "
                        "\"pairs\": %d}",
                        i ? "," : "", v.workload.c_str(),
                        v.metric.c_str(), v.verdict.c_str(),
                        v.unit.c_str(), fmt(v.parent).c_str(),
                        fmt(v.change).c_str(),
                        fmt(ratio(v.change, v.parent)).c_str(),
                        fmt(v.bound).c_str(), fmt(v.parentIqr).c_str(),
                        fmt(v.changeIqr).c_str(), v.wins, v.pairs);
        }
        std::printf("\n  ]\n}\n");
        return worse ? 1 : 0;
    }
    std::printf("%zu parent run(s), %zu change run(s); ratio = change / "
                "parent median\n",
                parent.size(), change.size());
    std::string current;
    for (const Verdict &v : rows) {
        if (v.workload != current) {
            std::printf("%s%-13s", current.empty() ? "" : "\n",
                        v.workload.c_str());
            current = v.workload;
        }
        std::printf("  %s %s %.3fx of %.6g %s", v.metric.c_str(),
                    v.verdict.c_str(), ratio(v.change, v.parent), v.parent,
                    v.unit.c_str());
        if (v.pairs)
            std::printf(" (wins %d/%d)", v.wins, v.pairs);
    }
    std::printf("\n%s\n",
                worse ? "verdict: worse" : "verdict: no regression");
    return worse ? 1 : 0;
}

/** The op a "--child <kind>" process runs; records go to stdout. */
int
childMain(const Options &o, const std::string &kind)
{
    Report rep(stdout);
    try {
        if (kind == "run") {
            // Keep only this seed's digests: the rest would count
            // towards the op's peak RSS.
            CellDigests exp;
            bool checked = false;
            if (!o.smoke) {
                const ExpectedMap all = loadExpected(o.expected);
                if (auto it = all.find(o.seed); it != all.end()) {
                    exp = it->second;
                    checked = true;
                }
            }
            runCells(cellsOf(o.workloads.at(0), o.seed, o.smoke), o.trace,
                     checked ? &exp : nullptr, o.artifacts + "/mismatch",
                     rep);
        } else if (kind == "setup") {
            setupOnce(cellsOf(o.workloads.at(0), o.seed, o.smoke).front(),
                      rep);
        } else if (kind == "legs") {
            runLegs(o.smoke ? 1 : kLegBatches, rep);
        } else {
            usage(("unknown --child kind " + kind).c_str());
        }
    } catch (const vip::SimFatal &e) {
        rep.error(std::string("SimFatal: ") + e.what());
        return 3;
    } catch (const vip::SimPanic &e) {
        rep.error(std::string("SimPanic: ") + e.what());
        return 3;
    } catch (const std::exception &e) {
        rep.error(std::string("exception: ") + e.what());
        return 3;
    }
    return 0;
}

int
mainImpl(int argc, char **argv)
{
    Options o;
    std::vector<std::string> compareFiles;
    bool compareJson = false;
    bool record = false;
    std::string child;
    std::uint64_t seedFirst = 1, seedLast = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string w = next();
            o.workloads = workloadNames();
            if (w != "all") {
                cellsOf(w, 1, true); // rejects unknown names
                o.workloads = {w};
            }
        } else if (arg == "--seed") {
            o.seed = parseUint(next(), "--seed");
        } else if (arg == "--seconds") {
            const std::string s = next();
            char *end = nullptr;
            o.seconds = std::strtod(s.c_str(), &end);
            if (s.empty() || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 3600.0)
                usage("--seconds wants a number in (0, 3600]");
        } else if (arg == "--trace") {
            const std::string t = next();
            if (t != "0" && t != "1")
                usage("--trace wants 0 or 1");
            o.trace = t == "1";
        } else if (arg == "--out") {
            o.out = next();
        } else if (arg == "--child") {
            child = next();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--record-expected") {
            record = true;
        } else if (arg == "--seeds") {
            const std::string s = next();
            const auto dash = s.find('-');
            if (dash == std::string::npos)
                usage("--seeds wants <a>-<b>");
            seedFirst = parseUint(s.substr(0, dash), "--seeds");
            seedLast = parseUint(s.substr(dash + 1), "--seeds");
            if (seedLast < seedFirst)
                usage("--seeds range is empty");
        } else if (arg == "--compare") {
            compareFiles.push_back(next());
            compareFiles.push_back(next());
        } else if (arg == "--json") {
            compareJson = true;
        } else if (arg == "--benchmark") {
            o.benchmark = next();
        } else if (arg == "--expected") {
            o.expected = next();
        } else if (arg == "--artifacts") {
            o.artifacts = next();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!child.empty())
        return childMain(o, child);
    if (!compareFiles.empty())
        return compare(o, compareFiles[0], compareFiles[1], compareJson);
    if (record)
        return recordExpected(o, seedFirst, seedLast);
    if (o.smoke) {
        o.workloads = workloadNames();
        o.trace = true;
        o.seconds = 0.0;
    }
    return runBench(o);
}

} // namespace
} // namespace vipbench

int
main(int argc, char **argv)
{
    try {
        return vipbench::mainImpl(argc, argv);
    } catch (const vip::SimFatal &) {
        return 2; // fatal() already printed the reason
    }
}
