#include "ops.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/simulation.hh"
#include "fault/fault_plan.hh"

namespace vipbench
{

using namespace vip;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "dram_bound", "ip_chain", "faulty_chain", "paper_matrix"};
    return names;
}

namespace
{

Cell
makeCell(std::string name, SystemConfig config, Workload wl,
         double seconds, std::uint64_t seed)
{
    Cell c{std::move(name), SocConfig{}, std::move(wl)};
    c.cfg.system = config;
    c.cfg.simSeconds = seconds;
    c.cfg.seed = seed;
    return c;
}

/** CLI-style config names: shell-safe stats.json file names. */
const char *
shortName(SystemConfig c)
{
    switch (c) {
      case SystemConfig::Baseline: return "baseline";
      case SystemConfig::FrameBurst: return "frameburst";
      case SystemConfig::IpToIp: return "iptoip";
      case SystemConfig::IpToIpBurst: return "iptoip-fb";
      case SystemConfig::VIP: return "vip";
    }
    return "?";
}

/** The src/ module a profiler event kind belongs to. */
std::string
layerOf(const std::string &kind)
{
    const std::string prefix = kind.substr(0, kind.find('.'));
    if (prefix == "dram")
        return "mem";
    // Untagged events come from the chain manager and flow runtime.
    if (prefix == "flow" || prefix == "other")
        return "core";
    return prefix;
}

} // namespace

std::vector<Cell>
cellsOf(const std::string &workload, std::uint64_t seed, bool smoke)
{
    const double full = smoke ? 0.01 : 1.0;
    if (workload == "dram_bound") {
        // Half the simulated time of the others makes its op about as
        // long as theirs (~1 s), so a run holds as many ops to pick from.
        return {makeCell(workload, SystemConfig::Baseline,
                         WorkloadCatalog::byIndex(1), smoke ? 0.01 : 0.5,
                         seed)};
    }
    if (workload == "ip_chain") {
        return {makeCell(workload, SystemConfig::VIP,
                         WorkloadCatalog::byIndex(4), full, seed)};
    }
    if (workload == "faulty_chain") {
        Cell c = makeCell(workload, SystemConfig::VIP,
                          WorkloadCatalog::byIndex(4), full, seed);
        c.cfg.fault = FaultPlan::preset("moderate");
        c.cfg.fault.seed = seed;
        return {c};
    }
    if (workload == "paper_matrix") {
        std::vector<Workload> columns;
        for (int a = 1; a <= 7; ++a)
            columns.push_back(WorkloadCatalog::single(a));
        for (int w = 1; w <= 8; ++w)
            columns.push_back(WorkloadCatalog::byIndex(w));
        std::vector<Cell> cells;
        for (SystemConfig config : kAllConfigs) {
            for (const Workload &wl : columns) {
                cells.push_back(makeCell(
                    workload + "/" + shortName(config) + "-" + wl.name,
                    config, wl, smoke ? 0.01 : 0.02, seed));
            }
        }
        return cells;
    }
    fatal("unknown workload '", workload,
          "' (dram_bound, ip_chain, faulty_chain, paper_matrix)");
}

std::uint64_t
registryDigest(const StatRegistry &reg)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[path, value] : reg.snapshot()) {
        if (path.rfind("prof.", 0) == 0 || path == "sim.eventq.heap" ||
            path == "sim.eventq.tombstones" ||
            path == "sim.eventq.compactions")
            continue;
        mix(path.data(), path.size() + 1);
        mix(&value, sizeof(value));
    }
    return h;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * double(v.size() - 1);
    const std::size_t i = std::size_t(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (v[i + 1] - v[i]) * (pos - double(i));
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Report::value(const std::string &key, double v)
{
    std::fprintf(_f, "v %s %.17g\n", key.c_str(), v);
}

void
Report::digest(const std::string &cell, std::uint64_t d)
{
    std::fprintf(_f, "d %s %016llx\n", cell.c_str(),
                 static_cast<unsigned long long>(d));
}

void
Report::span(const char *name, const std::string &cell, std::int64_t t0,
             std::int64_t t1)
{
    std::fprintf(_f, "s %s %s %lld %lld\n", name, cell.c_str(),
                 static_cast<long long>(t0), static_cast<long long>(t1));
}

void
Report::error(const std::string &what)
{
    std::string line = what;
    std::replace(line.begin(), line.end(), '\n', ' ');
    std::fprintf(_f, "e %s\n", line.c_str());
}

void
runCells(const std::vector<Cell> &cells, bool traced,
         const CellDigests *expected, const std::string &keepDir,
         Report &out)
{
    std::map<std::string, double> sum;
    double heapPeak = 0.0;
    for (const Cell &cell : cells) {
        SocConfig cfg = cell.cfg;
        if (traced) {
            // Arms the profiler; nothing is written unless asked.
            cfg.prof.out = "(unwritten)";
        }
        const std::int64_t t0 = nowNs();
        Simulation sim(cfg, cell.wl);
        const std::int64_t t1 = nowNs();
        const RunStats rs = sim.run();
        const std::int64_t t2 = nowNs();
        std::ostringstream statsJson;
        sim.writeStatsJson(statsJson);
        const std::int64_t t3 = nowNs();

        const std::uint64_t dg = registryDigest(sim.statsRegistry());
        for (const FlowResult &f : rs.flows) {
            if (f.generated != f.completed + f.shed + f.inFlight) {
                fatal(cell.name, ": flow ", f.name, " generated ",
                      f.generated, " != completed ", f.completed,
                      " + shed ", f.shed, " + in flight ", f.inFlight);
            }
        }
        if (expected) {
            auto it = expected->find(cell.name);
            if (it != expected->end() && it->second != dg) {
                std::string file = cell.name;
                std::replace(file.begin(), file.end(), '/', '.');
                std::filesystem::create_directories(keepDir);
                std::ofstream(keepDir + "/" + file + ".stats.json")
                    << statsJson.str();
            }
        }
        const std::int64_t t4 = nowNs();

        out.span("setup", cell.name, t0, t1);
        out.span("run", cell.name, t1, t2);
        out.span("collect", cell.name, t2, t3);
        out.span("check", cell.name, t3, t4);
        out.digest(cell.name, dg);

        const double simMs = toMs(sim.system().curTick());
        MemoryController &mem = sim.memory();
        sum["setup_ns"] += double(t1 - t0);
        sum["run_ns"] += double(t2 - t1);
        sum["collect_ns"] += double(t3 - t2);
        sum["sim_ms"] += simMs;
        sum["events"] += double(sim.system().eventq().servicedEvents());
        sum["compactions"] += double(sim.system().eventq().compactions());
        sum["bursts"] += double(mem.burstsCompleted());
        sum["row_hits"] += double(mem.rowHits());
        sum["row_misses"] += double(mem.rowMisses());
        sum["mem_gb"] += rs.memBytesGB;
        sum["sa_busy_ms"] += rs.saUtilization * simMs;
        sum["interrupts"] += double(rs.interrupts);
        sum["energy_mj"] += rs.totalEnergyMj;
        sum["frames"] += double(rs.framesCompleted);
        sum["flow_time_ms_sum"] +=
            rs.meanFlowTimeMs * double(rs.framesCompleted);
        sum["drops"] += double(rs.drops);
        if (const Profiler *p = sim.profiler()) {
            sum["prof_wall_ns"] += p->runWallMs() * 1e6;
            heapPeak = std::max(heapPeak, double(p->maxHeap()));
            for (const ProfKindRow &r : p->rows()) {
                sum["est_ns." + layerOf(r.kind)] += r.estTotalNs();
                sum["count." + r.kind] += double(r.count);
                sum["est_ns." + r.kind] += r.estTotalNs();
            }
        }
    }
    for (const auto &[key, v] : sum)
        out.value(key, v);
    if (traced)
        out.value("heap_peak", heapPeak);
}

void
setupOnce(const Cell &cell, Report &out)
{
    const std::int64_t t0 = nowNs();
    Simulation sim(cell.cfg, cell.wl);
    out.value("setup_ns", double(nowNs() - t0));
}

} // namespace vipbench
