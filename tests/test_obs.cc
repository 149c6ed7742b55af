/**
 * @file
 * Tests for the execution-observability subsystem: tracer ring
 * semantics, trace JSON well-formedness and span nesting across all
 * configurations, same-seed trace determinism, histogram percentile
 * math, the streamed metrics CSV, frame lifecycles reconstructed
 * from spans alone, and the zero-perturbation guarantee (tracing or a
 * metrics CSV on vs off leaves the audit digest stream bit-identical).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/simulation.hh"
#include "obs/json.hh"
#include "obs/trace_check.hh"

namespace vip
{
namespace
{

/** Arms the tracer; only vip_sim writes the trace file itself. */
constexpr const char *kTraceUnwritten = "trace.json";

SocConfig
tracedConfig(SystemConfig system)
{
    SocConfig cfg;
    cfg.system = system;
    cfg.simSeconds = 0.02;
    cfg.trace.out = kTraceUnwritten;
    return cfg;
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::path(::testing::TempDir()) / name)
        .string();
}

/** A metrics CSV split into its header row and data rows ('#'
 *  comment lines dropped). */
struct Csv
{
    std::string firstLine;
    std::string header;
    std::vector<std::string> rows;
};

Csv
readCsv(const std::string &path)
{
    Csv csv;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (csv.firstLine.empty())
            csv.firstLine = line;
        if (line.empty() || line[0] == '#')
            continue;
        if (csv.header.empty())
            csv.header = line;
        else
            csv.rows.push_back(line);
    }
    return csv;
}

std::string
traceText(Simulation &sim)
{
    std::ostringstream os;
    sim.tracer()->writeJson(os, {{"workload", "test"}});
    return os.str();
}

TEST(LogHistogramTest, ExactBelowSubBucketRange)
{
    LogHistogram h;
    for (Tick v = 0; v < 16; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 16u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 15u);
    // Values below 2^kSubBits land in exact buckets.
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(100.0), 15u);
}

TEST(LogHistogramTest, PercentilesWithinRelativeErrorBound)
{
    LogHistogram h;
    for (Tick v = 1; v <= 10000; ++v)
        h.sample(v);
    // Log-linear buckets bound relative error by 2^-kSubBits.
    const double tol = 1.0 / (1u << LogHistogram::kSubBits);
    EXPECT_NEAR(static_cast<double>(h.percentile(50.0)), 5000.0,
                5000.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(95.0)), 9500.0,
                9500.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(99.0)), 9900.0,
                9900.0 * tol);
    EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(LogHistogramTest, SingleSampleAllPercentilesAgree)
{
    LogHistogram h;
    h.sample(fromMs(7));
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_NEAR(static_cast<double>(h.percentile(p)),
                    static_cast<double>(fromMs(7)),
                    static_cast<double>(fromMs(7))
                        / (1u << LogHistogram::kSubBits));
    }
}

TEST(TracerTest, RingDropsOldestBeyondCapacity)
{
    // Capacity is rounded up to whole blocks; fill past it.
    Tracer tr(kAllTraceCats, 1);
    const std::size_t cap = tr.capacity();
    auto trk = tr.intern("t");
    auto nm = tr.intern("n");
    for (std::size_t i = 0; i < cap + 100; ++i)
        tr.instant(TraceCat::Ip, trk, nm, i);
    EXPECT_EQ(tr.size(), cap);
    EXPECT_EQ(tr.dropped(), 100u);
    // Oldest-first iteration starts at the first surviving event.
    Tick expect = 100;
    tr.forEach([&](const TraceEvent &ev) { EXPECT_EQ(ev.ts, expect++); });
    EXPECT_EQ(expect, cap + 100);
}

TEST(TracerTest, CategoryFilteringAndInternStability)
{
    Tracer tr(static_cast<std::uint32_t>(TraceCat::Frame), 4096);
    EXPECT_TRUE(tr.enabled(TraceCat::Frame));
    EXPECT_FALSE(tr.enabled(TraceCat::Ip));
    EXPECT_EQ(tr.intern("alpha"), tr.intern("alpha"));
    EXPECT_NE(tr.intern("alpha"), tr.intern("beta"));
    EXPECT_NE(tr.intern("alpha"), 0u);
}

TEST(TraceCatTest, ParseRoundTrips)
{
    EXPECT_EQ(parseTraceCats("all"), kAllTraceCats);
    EXPECT_EQ(parseTraceCats(""), kAllTraceCats);
    std::uint32_t m = parseTraceCats("ip,frame,fault");
    EXPECT_EQ(m, static_cast<std::uint32_t>(TraceCat::Ip)
                     | static_cast<std::uint32_t>(TraceCat::Frame)
                     | static_cast<std::uint32_t>(TraceCat::Fault));
    EXPECT_EQ(parseTraceCats(traceCatsToString(m)), m);
    EXPECT_THROW(parseTraceCats("bogus"), SimFatal);
}

TEST(JsonQuoted, EscapesEveryControlByteAndRoundTrips)
{
    // A raw control byte inside a JSON string is invalid JSON.
    const std::string s = "a\x01" "b\n"; // split: \x01b is one byte
    EXPECT_EQ(json::quoted(s), "\"a\\u0001b\\n\"");
    EXPECT_EQ(json::parse(json::quoted(s)).str, s);
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    const std::string q = json::quoted(all);
    for (std::size_t i = 1; i + 1 < q.size(); ++i)
        EXPECT_FALSE(static_cast<unsigned char>(q[i]) < 0x20) << i;
    EXPECT_EQ(json::parse(q).str, all);
}

/** Trace JSON parses and every span/async pairing is well-formed. */
class TraceWellFormed : public ::testing::TestWithParam<SystemConfig>
{
};

TEST_P(TraceWellFormed, SpansNestAndPairAcrossChain)
{
    Simulation sim(tracedConfig(GetParam()),
                   WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.tracer(), nullptr);
    EXPECT_GT(sim.tracer()->size(), 0u);

    std::istringstream in(traceText(sim));
    TraceFile f = parseTraceJson(in);
    EXPECT_EQ(f.droppedEvents, 0u);
    EXPECT_EQ(f.otherData.at("workload"), "test");
    EXPECT_FALSE(f.otherData.at("git").empty());

    auto r = checkTrace(f);
    EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors.front());
    EXPECT_EQ(r.events, f.events.size());
    EXPECT_GT(r.spans, 0u);
    // An engine busy/stall span may be cut off by the end of the
    // run; that is in-flight state, not a nesting violation.
    EXPECT_LE(r.openAtEof, f.threadNames.size());
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TraceWellFormed,
                         ::testing::ValuesIn(kAllConfigs),
                         [](const auto &info) {
                             std::string n = systemConfigName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

TEST(TraceDeterminism, SameSeedSameTraceBytes)
{
    auto once = [] {
        Simulation sim(tracedConfig(SystemConfig::VIP),
                       WorkloadCatalog::byIndex(4));
        sim.run();
        return traceText(sim);
    };
    std::string a = once();
    std::string b = once();
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, b);
}

TEST(TraceFrameLifecycle, ReproducesRunStatsLatencyFromSpansAlone)
{
    SocConfig cfg = tracedConfig(SystemConfig::VIP);
    cfg.recordTrace = true;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    RunStats stats = sim.run();

    std::istringstream in(traceText(sim));
    TraceFile f = parseTraceJson(in);
    auto frames = frameLifecycles(f);
    ASSERT_FALSE(frames.empty());

    // Every completed frame in the authoritative FrameTrace must be
    // reconstructible from the trace events with the exact same
    // end-to-end tick count the QoS clock measured.
    std::size_t matched = 0;
    for (const FrameEvent &ev : stats.trace.events()) {
        if (ev.completed == 0)
            continue;
        const FrameLifecycle *lc = nullptr;
        for (const auto &x : frames) {
            if (x.flow == static_cast<std::int64_t>(ev.flowId)
                && x.frame == static_cast<std::int64_t>(ev.frameId))
                lc = &x;
        }
        ASSERT_NE(lc, nullptr)
            << "frame " << ev.flowId << ":" << ev.frameId
            << " missing from trace";
        if (!lc->complete)
            continue;
        Tick start = std::max(ev.generated, ev.started);
        Tick e2e = ev.completed >= start ? ev.completed - start : 0;
        EXPECT_EQ(lc->endToEndTicks(), e2e)
            << "frame " << ev.flowId << ":" << ev.frameId;
        ++matched;
    }
    EXPECT_GT(matched, 0u);

    // Lifecycles carry per-stage marks from at least two distinct
    // chain stages (announce/done pairs threaded through the chain).
    std::size_t multiStage = 0;
    for (const auto &lc : frames) {
        std::set<std::string> stages;
        for (const auto &[tick, nm] : lc.stageMarks) {
            auto sep = nm.rfind(':');
            if (sep != std::string::npos)
                stages.insert(nm.substr(0, sep));
        }
        if (stages.size() >= 2)
            ++multiStage;
    }
    EXPECT_GT(multiStage, 0u);
}

TEST(LatencySummaryTest, RunStatsCarriesPerStageBreakdowns)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    RunStats stats = Simulation::run(cfg, WorkloadCatalog::byIndex(4));

    EXPECT_GT(stats.latency.endToEnd.count, 0u);
    // Burst-scheduled frames can complete before their nominal
    // generation tick and clamp to zero, so only the upper end of the
    // distribution is guaranteed positive.
    EXPECT_GT(stats.latency.endToEnd.maxMs, 0.0);
    EXPECT_GE(stats.latency.endToEnd.p95Ms,
              stats.latency.endToEnd.p50Ms);
    EXPECT_GE(stats.latency.endToEnd.p99Ms,
              stats.latency.endToEnd.p95Ms);
    EXPECT_GE(stats.latency.endToEnd.maxMs,
              stats.latency.endToEnd.p99Ms);

    ASSERT_FALSE(stats.latency.stages.empty());
    for (const auto &st : stats.latency.stages) {
        EXPECT_FALSE(st.stage.empty());
        EXPECT_EQ(st.total.count, st.wait.count);
        EXPECT_EQ(st.total.count, st.compute.count);
        EXPECT_EQ(st.total.count, st.blocked.count);
        // wait + compute + blocked decompose total (mean identity
        // holds exactly; percentiles are per-histogram).
        EXPECT_NEAR(st.wait.meanMs + st.compute.meanMs
                        + st.blocked.meanMs,
                    st.total.meanMs, st.total.meanMs * 0.13 + 1e-9);
    }
}

TEST(MetricsSamplerTest, RowCountMatchesInterval)
{
    const std::string path = tempPath("vip-metrics-1ms.csv");
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    cfg.ts.metricsOut = path;
    cfg.ts.intervalMs = 1.0;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.timeseries(), nullptr);
    EXPECT_GT(sim.timeseries()->selected(), 0u);

    // 20 ms of simulated time at a 1 ms interval: the first row lands
    // one interval in, the last at t=20ms.
    const Csv csv = readCsv(path);
    EXPECT_EQ(csv.firstLine, TimeSeries::kCsvTag);
    EXPECT_EQ(csv.header.rfind("tick_ms,", 0), 0u);
    ASSERT_EQ(csv.rows.size(), 20u);
    EXPECT_EQ(csv.rows.front().rfind("1.000000,", 0), 0u);
    EXPECT_EQ(csv.rows.back().rfind("20.000000,", 0), 0u);
    // One column per selected stat after the time axis.
    for (const std::string &row : csv.rows) {
        EXPECT_EQ(std::count(row.begin(), row.end(), ','),
                  static_cast<long>(sim.timeseries()->selected()));
    }
    std::filesystem::remove(path);
}

TEST(MetricsSamplerTest, HalfMillisecondIntervalDoublesRows)
{
    const std::string path = tempPath("vip-metrics-halfms.csv");
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    cfg.ts.metricsOut = path;
    cfg.ts.intervalMs = 0.5;
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    sim.run();
    ASSERT_NE(sim.timeseries(), nullptr);
    EXPECT_EQ(readCsv(path).rows.size(), 40u);
    std::filesystem::remove(path);
}

TEST(MetricsCsv, UnwritablePathFailsBeforeTheFirstEvent)
{
    SocConfig cfg;
    cfg.system = SystemConfig::VIP;
    cfg.simSeconds = 0.02;
    cfg.ts.metricsOut = tempPath("no-such-dir/metrics.csv");
    Simulation sim(cfg, WorkloadCatalog::byIndex(4));
    EXPECT_THROW(sim.run(), SimFatal);
    EXPECT_EQ(sim.system().eventq().servicedEvents(), 0u);
}

/**
 * --metrics-out is digest-neutral: the CSV is a sink of the sampler,
 * which reads from the event loop's pre-service hook and schedules
 * nothing.  On every configuration, a run streaming the CSV has the
 * bare run's digest stream, the same value for every stat the bare
 * run exports, and adds only the sampler's own ts.* and
 * sim.steady.tick stats.
 */
TEST(MetricsCsv, DigestNeutralOnAllConfigs)
{
    const std::string path = tempPath("vip-metrics-neutral.csv");
    auto wl = WorkloadCatalog::byIndex(4);
    for (auto sc : kAllConfigs) {
        SCOPED_TRACE(systemConfigName(sc));
        SocConfig cfg;
        cfg.system = sc;
        cfg.simSeconds = 0.05;
        cfg.audit = AuditConfig::parse("periodic:1");
        Simulation bare(cfg, wl);
        bare.run();
        cfg.ts.metricsOut = path;
        Simulation csv(cfg, wl);
        csv.run();
        EXPECT_EQ(readCsv(path).rows.size(), 50u);

        std::ostringstream a, b;
        bare.auditor().writeDigestStream(a, {});
        csv.auditor().writeDigestStream(b, {});
        EXPECT_GT(bare.auditor().stream().records.size(), 0u);
        EXPECT_EQ(a.str(), b.str());

        const auto want = bare.statsRegistry().snapshot();
        const auto got = csv.statsRegistry().snapshot();
        std::size_t shared = 0;
        for (const auto &[stat, value] : got) {
            auto it = std::find_if(
                want.begin(), want.end(),
                [&](const auto &e) { return e.first == stat; });
            if (it == want.end()) {
                EXPECT_TRUE(stat.rfind("ts.", 0) == 0 ||
                            stat == "sim.steady.tick")
                    << "unexpected extra stat " << stat;
                continue;
            }
            ++shared;
            EXPECT_EQ(value, it->second) << stat;
        }
        EXPECT_EQ(shared, want.size());
    }
    std::filesystem::remove(path);
}

/**
 * The zero-perturbation guarantee: enabling the tracer must leave the
 * architectural state digests bit-identical, because it never
 * schedules events, consumes randomness, or contributes to any
 * component digest.
 */
TEST(TraceZeroPerturbation, DigestStreamIdenticalTracedVsUntraced)
{
    auto digests = [](bool traced) {
        SocConfig cfg;
        cfg.system = SystemConfig::VIP;
        cfg.simSeconds = 0.02;
        cfg.audit.mode = AuditMode::Periodic;
        cfg.audit.periodMs = 1.0;
        if (traced)
            cfg.trace.out = kTraceUnwritten;
        Simulation sim(cfg, WorkloadCatalog::byIndex(4));
        sim.run();
        EXPECT_GT(sim.auditor().stream().records.size(), 0u);
        return sim.auditor().streamDigest();
    };
    EXPECT_EQ(digests(false), digests(true));
}

} // namespace
} // namespace vip
