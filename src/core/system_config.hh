/**
 * @file
 * The five system configurations compared in the evaluation
 * (Section 6.2): Baseline, FrameBurst, IP-to-IP, IP-to-IP with
 * FrameBurst, and VIP.
 */

#ifndef VIP_CORE_SYSTEM_CONFIG_HH
#define VIP_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

namespace vip
{

/** Evaluated system configurations. */
enum class SystemConfig : std::uint8_t
{
    Baseline,     ///< today's per-frame, memory-staged system
    FrameBurst,   ///< bursts only, data still staged through DRAM
    IpToIp,       ///< chained IPs, per-frame CPU involvement
    IpToIpBurst,  ///< chained + bursts, no virtualization
    VIP,          ///< chained + bursts + virtualized lanes + EDF
};

/** Mechanism flags implied by a configuration. */
struct ConfigTraits
{
    bool ipToIp = false;       ///< IP-to-IP sub-frame forwarding
    bool frameBurst = false;   ///< CPU schedules bursts of frames
    bool virtualized = false;  ///< multi-lane buffers + HW scheduler
};

constexpr ConfigTraits
traitsOf(SystemConfig c)
{
    switch (c) {
      case SystemConfig::Baseline:
        return {false, false, false};
      case SystemConfig::FrameBurst:
        return {false, true, false};
      case SystemConfig::IpToIp:
        return {true, false, false};
      case SystemConfig::IpToIpBurst:
        return {true, true, false};
      case SystemConfig::VIP:
        return {true, true, true};
    }
    return {};
}

constexpr const char *
systemConfigName(SystemConfig c)
{
    switch (c) {
      case SystemConfig::Baseline: return "Baseline";
      case SystemConfig::FrameBurst: return "FrameBurst";
      case SystemConfig::IpToIp: return "IP-to-IP";
      case SystemConfig::IpToIpBurst: return "IP-to-IP+FB";
      case SystemConfig::VIP: return "VIP";
    }
    return "?";
}

/** The command-line spelling `vip_sim --config` and fleet job specs
 *  take: shell- and filename-safe, unlike the display names. */
constexpr const char *
systemConfigCliName(SystemConfig c)
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

/** All five configurations in the paper's plotting order. */
constexpr SystemConfig kAllConfigs[] = {
    SystemConfig::Baseline,
    SystemConfig::FrameBurst,
    SystemConfig::IpToIp,
    SystemConfig::IpToIpBurst,
    SystemConfig::VIP,
};

/** Inverse of systemConfigCliName(); SimFatal naming every valid
 *  spelling otherwise. */
SystemConfig systemConfigByCliName(const std::string &name);

/** The CLI spelling of the configuration whose systemConfigName() is
 *  @p display (as snapshots and crash bundles record it), or
 *  @p display unchanged when it names none. */
std::string systemConfigCliNameOf(const std::string &display);

} // namespace vip

#endif // VIP_CORE_SYSTEM_CONFIG_HH
