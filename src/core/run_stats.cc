#include "core/run_stats.hh"

namespace vip
{

const IpResult *
RunStats::ip(const std::string &name) const
{
    for (const auto &r : ips) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

} // namespace vip
