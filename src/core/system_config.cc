#include "core/system_config.hh"

#include "sim/logging.hh"

namespace vip
{

SystemConfig
systemConfigByCliName(const std::string &name)
{
    std::string valid;
    for (SystemConfig c : kAllConfigs) {
        if (name == systemConfigCliName(c))
            return c;
        valid += std::string(valid.empty() ? "" : " | ") +
                 systemConfigCliName(c);
    }
    fatal("unknown config '", name, "' (use ", valid, ")");
}

std::string
systemConfigCliNameOf(const std::string &display)
{
    for (SystemConfig c : kAllConfigs)
        if (display == systemConfigName(c))
            return systemConfigCliName(c);
    return display;
}

} // namespace vip
