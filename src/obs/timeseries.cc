#include "obs/timeseries.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>

#include "obs/provenance.hh"
#include "sim/logging.hh"
#include "sim/state_io.hh"

namespace vip
{

namespace
{

/** Single-pattern glob: '*' = any run, '?' = one character. */
bool
matchOne(const char *p, const char *s)
{
    for (; *p; ++p, ++s) {
        if (*p == '*') {
            while (*(p + 1) == '*')
                ++p;
            for (const char *t = s;; ++t) {
                if (matchOne(p + 1, t))
                    return true;
                if (!*t)
                    return false;
            }
        }
        if (!*s || (*p != '?' && *p != *s))
            return false;
    }
    return !*s;
}

/** Append @p v as printf's "%.9g" would (std::to_chars with a
 *  precision is specified to match it, at a fraction of the cost):
 *  deterministic number formatting for the metrics CSV, where nine
 *  significant digits keep large files readable and stable. */
void
appendNum(std::string &out, double v)
{
    char buf[40];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 9);
    out.append(buf, r.ptr);
}

/**
 * The leading bytes of the metrics CSV at @p path that a resumed run
 * keeps: every complete line before the first data row whose tick is
 * at or past @p cutMs.  The rows from there on, and a last line a
 * kill cut short, were written after the snapshot, and the resumed
 * run writes them again.  0 when no column row is left (the file is
 * missing, empty, or ends inside its header); SimFatal when the
 * column row is not @p columns.
 */
std::uintmax_t
keptCsvBytes(const std::string &path, const std::string &columns,
             double cutMs)
{
    std::ifstream in(path, std::ios::binary);
    std::uintmax_t kept = 0;
    bool header = false;
    std::string line;
    // getline sets eof only on a line with no newline after it.
    while (std::getline(in, line) && !in.eof()) {
        // '#' lines (tag, provenance, earlier resume stamps) are kept.
        const bool comment = !line.empty() && line[0] == '#';
        if (!comment && !header) {
            if (line != columns)
                fatal("metrics: ", path, " has other columns than this "
                      "run's selection; not appending to it");
            header = true;
        } else if (!comment) {
            double ms = 0.0;
            std::from_chars(line.data(), line.data() + line.size(), ms);
            if (ms >= cutMs)
                break;
        }
        kept += line.size() + 1;
    }
    return header ? kept : 0;
}

} // namespace

bool
TimeSeries::globMatch(const std::string &pat, const std::string &path)
{
    std::size_t start = 0;
    while (start <= pat.size()) {
        std::size_t comma = pat.find(',', start);
        std::string one = pat.substr(
            start, comma == std::string::npos ? comma : comma - start);
        if (!one.empty() && matchOne(one.c_str(), path.c_str()))
            return true;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return false;
}

TimeSeries::TimeSeries(const TsConfig &cfg, const StatRegistry &reg)
{
    if (!isTickPeriodMs(cfg.intervalMs))
        fatal("time series: sampling interval must be a finite period "
              "of at least one tick (1e-9 ms), got ", cfg.intervalMs,
              " ms");
    _interval = fromMs(cfg.intervalMs);
    _nextBoundary = _interval;

    for (const StatDef &d : reg.defs()) {
        if (globMatch(cfg.glob, d.path))
            _sel.push_back({d.path, d.tol, d.get});
    }
    if (_sel.empty())
        fatal("--ts glob '", cfg.glob,
              "' selects no registered stat");

    for (std::size_t i = 0; i < _sel.size(); ++i) {
        for (const char *g : kSteadyStats) {
            if (globMatch(g, _sel[i].path)) {
                _tracks.push_back({i, {}, {}});
                _trackedPaths.push_back(_sel[i].path);
                break;
            }
        }
    }
}

void
TimeSeries::streamCsv(const std::string &path, bool resumed, Tick now)
{
    std::string columns = "tick_ms";
    for (const Sel &s : _sel)
        columns += "," + s.path;
    // Rows sit on interval boundaries and print to the nanosecond, so
    // the cut halfway between the last kept boundary and the first
    // rewritten one classifies every row of a >= 2 ns interval.
    const std::uintmax_t kept =
        resumed ? keptCsvBytes(path, columns,
                               toMs(_nextBoundary) - toMs(_interval) / 2)
                : 0;
    if (kept > 0) {
        std::error_code ec;
        std::filesystem::resize_file(path, kept, ec);
        if (ec)
            fatal("metrics: cannot cut ", path, " back to its rows "
                  "before the snapshot: ", ec.message());
    }
    _csv.open(path, kept > 0 ? std::ios::app : std::ios::trunc);
    if (!_csv)
        fatal("metrics: cannot open ", path, " for writing");
    if (kept == 0) {
        _csv << kCsvTag << "\n";
        for (const auto &line : provenanceMetaLines())
            _csv << "# " << line << "\n";
        _csv << "# intervalMs=" << toMs(_interval) << "\n";
        _csv << columns << "\n";
    }
    if (resumed)
        _csv << "# resumed-at-tick=" << now << "\n";
    _csv.flush();
}

void
TimeSeries::writeCsvRow(Tick t)
{
    // One write and one flush per row: a killed run loses at most
    // the row being written, which readers recognise by its missing
    // newline.
    _csvLine.clear();
    char buf[40];
    const auto end = std::to_chars(buf, buf + sizeof(buf), toMs(t),
                                   std::chars_format::fixed, 6);
    _csvLine.append(buf, end.ptr);
    for (const Sel &s : _sel) {
        _csvLine += ',';
        appendNum(_csvLine, s.get());
    }
    _csvLine += '\n';
    _csv.write(_csvLine.data(),
               static_cast<std::streamsize>(_csvLine.size()));
    _csv.flush();
}

void
TimeSeries::catchUp(Tick next)
{
    while (_nextBoundary <= next) {
        sampleAt(_nextBoundary);
        _nextBoundary += _interval;
    }
}

void
TimeSeries::sampleAt(Tick t)
{
    ++_samples;
    if (!_tracks.empty() && !_steady &&
        t >= fromMs(kSteadyWarmupMs) && _samples % kSteadyEvery == 0)
        detectStep(t);
    if (_csv.is_open())
        writeCsvRow(t);
}

void
TimeSeries::detectStep(Tick t)
{
    const std::size_t W = kSteadyWindow;
    bool allSteady = true;
    for (Track &tr : _tracks) {
        const Sel &s = _sel[tr.sel];
        tr.vals.push_back(s.get());
        if (tr.vals.size() > W + 1)
            tr.vals.pop_front();

        bool pass = false;
        if (tr.vals.size() == W + 1) {
            // Counter: an exactly-compared stat that never decreased
            // over the window.  Judged on its cumulative mean rate
            // (value / elapsed time): a short windowed rate is
            // dominated by frame-count quantization for slow flows,
            // while the cumulative rate converges exactly when the
            // boot transient has been amortized — which is what
            // "steady" means here.  It must be positive: an idle
            // all-zero counter is "dead", not "steady".
            bool counter = s.tol == Tolerance::Exact;
            for (std::size_t i = 1; counter && i < tr.vals.size();
                 ++i)
                counter = tr.vals[i] >= tr.vals[i - 1];
            const double m =
                counter ? tr.vals.back() / toSec(t)
                        : tr.vals.back();
            tr.metric.push_back(m);
            if (tr.metric.size() > W)
                tr.metric.pop_front();
            if (tr.metric.size() == W) {
                double lo = tr.metric[0], hi = tr.metric[0],
                       sum = 0.0;
                for (double v : tr.metric) {
                    lo = std::min(lo, v);
                    hi = std::max(hi, v);
                    sum += v;
                }
                const double mean =
                    sum / static_cast<double>(tr.metric.size());
                const double denom = std::max(std::fabs(mean), 1e-9);
                pass = (hi - lo) <=
                       kSteadyThresholdPct / 100.0 * denom;
                if (counter && !(mean > 0.0))
                    pass = false;
            }
        }
        allSteady = allSteady && pass;
    }
    if (allSteady) {
        _steady = true;
        _steadyTick = t;
    }
}

void
TimeSeries::io(StateIO &io)
{
    Tick interval = _interval;
    io.tick(interval);
    if (interval != _interval)
        fatal("timeseries: snapshot samples every ", toMs(interval),
              " ms, this run every ", toMs(_interval),
              " ms (--metrics-interval-ms mismatch)");
    io.shape("timeseries", "selected stats (--ts glob)", _sel.size());
    for (const Sel &s : _sel)
        io.expect("timeseries", "stat (--ts glob)", s.path);
    io.tick(_nextBoundary);
    io.u64(_samples);
    io.b(_steady);
    io.tick(_steadyTick);
    io.shape("timeseries", "steady-state tracks", _tracks.size());
    for (Track &t : _tracks) {
        io.expect("timeseries", "steady-state track stat index",
                  static_cast<std::uint32_t>(t.sel));
        io.seq32(t.vals, "track samples", [&](double &v) { io.d(v); });
        io.seq32(t.metric, "track values", [&](double &v) { io.d(v); });
    }
}

} // namespace vip
