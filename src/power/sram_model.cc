#include "power/sram_model.hh"

#include <cmath>

#include "sim/logging.hh"

namespace vip
{

namespace
{

// Coefficients fit to the CACTI curve plotted in Fig 14b.
constexpr double kReadE0Nj = 0.0035;   // fixed decode/sense overhead
constexpr double kReadE1Nj = 0.0077;   // * sqrt(KB)
constexpr double kWriteScale = 1.10;   // writes slightly costlier
constexpr double kAreaA0Mm2 = 0.0006;  // periphery floor
constexpr double kAreaA1Mm2 = 0.0055;  // * KB (cell array)
constexpr double kLeakW0 = 2.0e-5;     // periphery leakage floor
constexpr double kLeakW1 = 5.5e-5;     // * KB

} // namespace

SramModel::Estimate
SramModel::forCapacity(std::uint64_t bytes)
{
    vip_assert(bytes > 0, "SRAM capacity must be positive");
    double kb = static_cast<double>(bytes) / 1024.0;
    Estimate e;
    e.readEnergyNj = kReadE0Nj + kReadE1Nj * std::sqrt(kb);
    e.writeEnergyNj = e.readEnergyNj * kWriteScale;
    e.areaMm2 = kAreaA0Mm2 + kAreaA1Mm2 * kb;
    e.leakageWatts = kLeakW0 + kLeakW1 * kb;
    return e;
}

} // namespace vip
