#include "obs/timeseries.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>

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
 *  precision is specified to match it, at a fraction of the cost).
 *  Deterministic number formatting shared by series.json and the
 *  metrics CSV: shortest round-trip form is overkill here, and nine
 *  significant digits keep large files readable and stable. */
void
appendNum(std::string &out, double v)
{
    char buf[40];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 9);
    out.append(buf, r.ptr);
}

std::string
num(double v)
{
    std::string s;
    appendNum(s, v);
    return s;
}

void
writeArray(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << num(v[i]);
    os << "]";
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
    : _cfg(cfg)
{
    if (!(_cfg.intervalMs > 0.0))
        fatal("time series: sampling interval must be positive, got ",
              _cfg.intervalMs, " ms");
    _interval = fromMs(_cfg.intervalMs);
    _nextBoundary = _interval;

    for (const StatDef &d : reg.defs()) {
        if (!globMatch(_cfg.glob, d.path))
            continue;
        _sel.push_back({d.path, d.unit, d.tol, d.get});
    }
    if (_sel.empty())
        fatal("--ts glob '", _cfg.glob,
              "' selects no registered stat");

    for (std::size_t i = 0; i < _sel.size(); ++i) {
        for (const std::string &g : _cfg.steadyStats) {
            if (globMatch(g, _sel[i].path)) {
                _tracks.push_back({i, {}, {}});
                _trackedPaths.push_back(_sel[i].path);
                break;
            }
        }
    }
    if (_cfg.steadyWindow < 2)
        fatal("time series: steadyWindow must be at least 2");
    if (_cfg.steadyEvery < 1)
        fatal("time series: steadyEvery must be at least 1");
}

void
TimeSeries::streamCsv(const std::string &path, bool resumed, Tick now)
{
    // ate puts the put position at the end of the file, so tellp()
    // reports its size: a resume writes the header only into an
    // empty file.
    _csv.open(path, resumed ? std::ios::app | std::ios::ate
                            : std::ios::trunc);
    if (!_csv)
        fatal("metrics: cannot open ", path, " for writing");
    if (!resumed || _csv.tellp() == 0) {
        _csv << kCsvTag << "\n";
        for (const auto &line : provenanceMetaLines())
            _csv << "# " << line << "\n";
        _csv << "# intervalMs=" << toMs(_interval) << "\n";
        _csv << "tick_ms";
        for (const Sel &s : _sel)
            _csv << "," << s.path;
        _csv << "\n";
    }
    if (resumed)
        _csv << "# resumed-at-tick=" << now << "\n";
    _csv.flush();
}

void
TimeSeries::writeCsvRow(const Row &r)
{
    // One write and one flush per row: a killed run loses at most
    // the row being written, which readers recognise by its missing
    // newline.
    _csvLine.clear();
    char buf[40];
    const auto end = std::to_chars(buf, buf + sizeof(buf),
                                   toMs(r.tick),
                                   std::chars_format::fixed, 6);
    _csvLine.append(buf, end.ptr);
    for (double v : r.vals) {
        _csvLine += ',';
        appendNum(_csvLine, v);
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

    // The detector sees every boundary sample regardless of what the
    // storage ring later keeps: its verdict must not depend on
    // decimation history.
    if (!_tracks.empty() && !_steady &&
        t >= fromMs(_cfg.steadyWarmupMs) &&
        _samples % _cfg.steadyEvery == 0)
        detectStep(t);

    // The CSV takes every sample; the ring only every _stride-th.
    const bool keep = _skip == 0;
    if (!keep)
        --_skip;
    if (!keep && !_csv.is_open())
        return;
    Row r;
    r.tick = t;
    r.vals.reserve(_sel.size());
    for (const Sel &s : _sel)
        r.vals.push_back(s.get());
    if (_csv.is_open())
        writeCsvRow(r);
    if (!keep)
        return;

    if (_rows.size() >= kRowCap) {
        // Stride-doubling decimation (the profiler's queue-timeline
        // trick): halve the stored history, double the keep stride.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < _rows.size(); i += 2) {
            if (kept != i) // self-move would empty row 0
                _rows[kept] = std::move(_rows[i]);
            ++kept;
        }
        _rows.resize(kept);
        _stride *= 2;
    }
    _rows.push_back(std::move(r));
    _skip = _stride - 1;
}

void
TimeSeries::detectStep(Tick t)
{
    const std::size_t W = _cfg.steadyWindow;
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
                       _cfg.steadyThresholdPct / 100.0 * denom;
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
TimeSeries::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    os << "{\n"
       << "  \"kind\": \"vip-series\",\n"
       << "  \"schemaVersion\": " << kSchemaVersion << ",\n";
    os << "  \"provenance\": {";
    bool first = true;
    for (const auto &[k, v] : provenanceFields()) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << v
           << '"';
        first = false;
    }
    os << "},\n";
    os << "  \"run\": {";
    first = true;
    for (const auto &[k, v] : meta) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << v
           << '"';
        first = false;
    }
    os << "},\n";
    os << "  \"interval_ms\": " << num(toMs(_interval)) << ",\n"
       << "  \"glob\": \"" << _cfg.glob << "\",\n"
       << "  \"samples\": " << _samples << ",\n"
       << "  \"stride\": " << _stride << ",\n"
       << "  \"rows\": " << _rows.size() << ",\n";

    os << "  \"steady\": {\"detected\": "
       << (_steady ? "true" : "false")
       << ", \"tick_ms\": " << num(steadyTickMs())
       << ", \"threshold_pct\": " << num(_cfg.steadyThresholdPct)
       << ", \"window\": " << _cfg.steadyWindow
       << ", \"every\": " << _cfg.steadyEvery
       << ", \"warmup_ms\": " << num(_cfg.steadyWarmupMs)
       << ", \"tracked\": [";
    for (std::size_t i = 0; i < _trackedPaths.size(); ++i)
        os << (i ? ", " : "") << '"' << _trackedPaths[i] << '"';
    os << "]},\n";

    std::vector<double> ticks;
    ticks.reserve(_rows.size());
    for (const Row &r : _rows)
        ticks.push_back(toMs(r.tick));
    os << "  \"ticks_ms\": ";
    writeArray(os, ticks);
    os << ",\n";

    // Derived series are computed here, from the stored (already
    // decimated) rows — the run itself never pays for them.
    constexpr std::size_t kWin = 8;    // windowed min/max span, rows
    constexpr double kEwmaAlpha = 0.2; // EWMA smoothing factor
    os << "  \"series\": [\n";
    for (std::size_t si = 0; si < _sel.size(); ++si) {
        const Sel &s = _sel[si];
        std::vector<double> vals;
        vals.reserve(_rows.size());
        for (const Row &r : _rows)
            vals.push_back(r.vals[si]);

        bool counter = s.tol == Tolerance::Exact && !vals.empty();
        for (std::size_t i = 1; counter && i < vals.size(); ++i)
            counter = vals[i] >= vals[i - 1];
        counter = counter && !vals.empty() &&
                  vals.back() > vals.front();

        os << "    {\"path\": \"" << s.path << "\", \"unit\": \""
           << s.unit << "\", \"kind\": \""
           << (counter ? "counter" : "gauge") << "\",\n"
           << "     \"values\": ";
        writeArray(os, vals);
        if (counter) {
            std::vector<double> rate(vals.size(), 0.0);
            for (std::size_t i = 1; i < vals.size(); ++i) {
                const double dtSec =
                    (ticks[i] - ticks[i - 1]) * 1e-3;
                rate[i] = dtSec > 0.0
                              ? (vals[i] - vals[i - 1]) / dtSec
                              : 0.0;
            }
            os << ",\n     \"rate_per_s\": ";
            writeArray(os, rate);
        }
        std::vector<double> ewma(vals.size(), 0.0);
        std::vector<double> wmin(vals.size(), 0.0);
        std::vector<double> wmax(vals.size(), 0.0);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            ewma[i] = i == 0 ? vals[0]
                             : kEwmaAlpha * vals[i] +
                                   (1.0 - kEwmaAlpha) * ewma[i - 1];
            const std::size_t lo = i + 1 >= kWin ? i + 1 - kWin : 0;
            double mn = vals[lo], mx = vals[lo];
            for (std::size_t j = lo; j <= i; ++j) {
                mn = std::min(mn, vals[j]);
                mx = std::max(mx, vals[j]);
            }
            wmin[i] = mn;
            wmax[i] = mx;
        }
        os << ",\n     \"ewma\": ";
        writeArray(os, ewma);
        os << ",\n     \"win_min\": ";
        writeArray(os, wmin);
        os << ",\n     \"win_max\": ";
        writeArray(os, wmax);
        os << "}" << (si + 1 < _sel.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
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
    io.u64(_stride);
    io.u64(_skip);
    io.seq64(_rows, "series rows", [&](Row &row) {
        io.tick(row.tick);
        if (io.loading())
            row.vals.resize(_sel.size());
        for (double &v : row.vals)
            io.d(v);
    });
    io.b(_steady);
    io.tick(_steadyTick);
    io.shape("timeseries", "steady-state tracks (steadyStats)",
             _tracks.size());
    for (Track &t : _tracks) {
        io.expect("timeseries", "steady-state track stat index",
                  static_cast<std::uint32_t>(t.sel));
        io.seq32(t.vals, "track samples", [&](double &v) { io.d(v); });
        io.seq32(t.metric, "track values", [&](double &v) { io.d(v); });
    }
}

} // namespace vip
