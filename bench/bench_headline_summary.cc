/**
 * @file
 * The paper's headline numbers, measured on this reproduction:
 *
 *  - "VIP ... ~22% energy saving and ~15% improvement in QoS (frame
 *    drop rate) compared to just enabling IP-to-IP communication"
 *    (abstract), and "10% improvement in frame processing time"
 *    (conclusion), evaluated over the two-app workloads W1..W8.
 *  - FrameBurst's ~25% CPU-energy / ~40% instruction reduction
 *    (Fig 16) and ~3x interrupt growth with 4 apps (Fig 2b).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vip;
    using namespace vip::bench;

    parseBenchArgs(argc, argv); // honors --audit=strict (CI gate)
    double seconds = simSeconds(0.4);
    banner("Headline summary: paper claims vs this reproduction",
           "abstract + Section 6.2 + conclusion");

    std::vector<Workload> wls;
    for (int w = 1; w <= 8; ++w)
        wls.push_back(WorkloadCatalog::byIndex(w));

    double eBase = 0, eIp = 0, eVip = 0;
    double tBase = 0, tIp = 0, tVip = 0;
    double vBase = 0, vIp = 0, vIpFb = 0, vVip = 0;
    double irqBase = 0, irqVip = 0;
    double cpuBase = 0, cpuBurst = 0, insBase = 0, insBurst = 0;

    for (const auto &wl : wls) {
        auto b = runCell(SystemConfig::Baseline, wl, seconds);
        auto i = runCell(SystemConfig::IpToIp, wl, seconds);
        auto f = runCell(SystemConfig::FrameBurst, wl, seconds);
        auto ifb = runCell(SystemConfig::IpToIpBurst, wl, seconds);
        auto v = runCell(SystemConfig::VIP, wl, seconds);
        eBase += b.energyPerFrameMj;
        eIp += i.energyPerFrameMj;
        eVip += v.energyPerFrameMj;
        tBase += b.meanTransitMs;
        tIp += i.meanTransitMs;
        tVip += v.meanTransitMs;
        vBase += double(b.violations);
        vIp += double(i.violations);
        vIpFb += double(ifb.violations);
        vVip += double(v.violations);
        irqBase += b.interruptsPer100ms;
        irqVip += v.interruptsPer100ms;
        cpuBase += b.cpuEnergyMj;
        cpuBurst += f.cpuEnergyMj;
        insBase += double(b.instructions);
        insBurst += double(f.instructions);
    }

    auto pct = [](double from, double to) {
        return 100.0 * (1.0 - to / std::max(from, 1e-9));
    };

    std::printf("%-52s %10s %12s\n", "claim (two-app workloads W1..W8"
                " unless noted)", "paper", "measured");
    std::printf("%-52s %9s%% %11.1f%%\n",
                "VIP energy saving vs IP-to-IP", "~22",
                pct(eIp, eVip));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "VIP energy saving vs Baseline", "~38",
                pct(eBase, eVip));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "VIP transit-time improvement vs IP-to-IP", "~10",
                pct(tIp, tVip));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "VIP transit-time improvement vs Baseline", "-",
                pct(tBase, tVip));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "VIP QoS-violation reduction vs Baseline", "~15",
                pct(std::max(vBase, 1.0), vVip));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "IP-to-IP QoS-violation reduction vs Baseline", "~5",
                pct(std::max(vBase, 1.0), vIp));
    std::printf("%-52s %9s %12.2f\n",
                "IP-to-IP+FB violations vs Baseline (x, HOL)", ">1x",
                vIpFb / std::max(vBase, 1.0));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "FrameBurst CPU-energy reduction (Fig 16a)", "~25",
                pct(cpuBase, cpuBurst));
    std::printf("%-52s %9s%% %11.1f%%\n",
                "FrameBurst instruction reduction (Fig 16a)", "~40",
                pct(insBase, insBurst));
    std::printf("%-52s %9s %12.2f\n",
                "VIP interrupt rate vs Baseline (x)", "<<1x",
                irqVip / std::max(irqBase, 1e-9));

    // Perf-regression gate: dump per-cell stats.json files for
    // vip_stats_diff to compare against bench/baseline/.
    writeStatsCells({std::begin(kAllConfigs), std::end(kAllConfigs)},
                    seconds);
    return 0;
}
