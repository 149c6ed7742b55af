/**
 * @file
 * Analytical SRAM energy/area model standing in for CACTI.
 *
 * The paper sizes the per-lane flow buffers using CACTI's dynamic
 * read energy and area for 0.5 KB .. 64 KB SRAMs (Fig 14b).  CACTI is
 * not available offline, so this model reproduces the published curve:
 *
 *   read energy (nJ) ~= e0 + e1 * sqrt(KB)     (wordline/bitline term)
 *   area (mm^2)      ~= a0 + a1 * KB           (cell-array dominated)
 *
 * with coefficients fit to the Fig 14b endpoints (64 KB: ~0.065 nJ,
 * ~0.35 mm^2; 0.5 KB: ~0.005 nJ, ~0.003 mm^2).
 */

#ifndef VIP_POWER_SRAM_MODEL_HH
#define VIP_POWER_SRAM_MODEL_HH

#include <cstdint>

namespace vip
{

/** CACTI-like buffer energy/area estimator (32 nm-class process). */
class SramModel
{
  public:
    struct Estimate
    {
        double readEnergyNj;  ///< dynamic energy per 64 B read
        double writeEnergyNj; ///< dynamic energy per 64 B write
        double areaMm2;       ///< total macro area
        double leakageWatts;  ///< standby leakage

        /** Energy (nJ) to read @p bytes: one access per started
         *  64 B, at least one. */
        double
        readNj(std::uint64_t bytes) const
        {
            return readEnergyNj * accesses(bytes);
        }

        /** Energy (nJ) to write @p bytes. */
        double
        writeNj(std::uint64_t bytes) const
        {
            return writeEnergyNj * accesses(bytes);
        }
    };

    /** Estimate for a buffer of @p bytes capacity. */
    static Estimate forCapacity(std::uint64_t bytes);

  private:
    /** Width of one modelled buffer access. */
    static constexpr std::uint64_t kAccessBytes = 64;

    static double
    accesses(std::uint64_t bytes)
    {
        std::uint64_t n = (bytes + kAccessBytes - 1) / kAccessBytes;
        return static_cast<double>(n > 0 ? n : 1);
    }
};

} // namespace vip

#endif // VIP_POWER_SRAM_MODEL_HH
