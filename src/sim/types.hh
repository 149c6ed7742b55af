/**
 * @file
 * Fundamental simulation types and time constants.
 *
 * One Tick is one picosecond of simulated time, following the gem5
 * convention.  All timing parameters in the platform (Table 3 of the
 * paper) are expressed through the helpers below so that call sites
 * never contain raw magic numbers.
 */

#ifndef VIP_SIM_TYPES_HH
#define VIP_SIM_TYPES_HH

#include <cstdint>

namespace vip
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** An integral number of clock cycles in some clock domain. */
using Cycles = std::uint64_t;

/** Sentinel for "no event scheduled" / "never". */
constexpr Tick MaxTick = ~Tick(0);

/** @{ Time unit constants, in ticks. */
constexpr Tick onePs = 1;
constexpr Tick oneNs = 1000 * onePs;
constexpr Tick oneUs = 1000 * oneNs;
constexpr Tick oneMs = 1000 * oneUs;
constexpr Tick oneSec = 1000 * oneMs;
/** @} */

/** Convert nanoseconds (possibly fractional) to ticks. */
constexpr Tick
fromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(oneNs));
}

/** Convert microseconds to ticks. */
constexpr Tick
fromUs(double us)
{
    return static_cast<Tick>(us * static_cast<double>(oneUs));
}

/** Convert milliseconds to ticks. */
constexpr Tick
fromMs(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(oneMs));
}

/** Convert seconds to ticks. */
constexpr Tick
fromSec(double sec)
{
    return static_cast<Tick>(sec * static_cast<double>(oneSec));
}

/** Convert ticks to (fractional) seconds. */
constexpr double
toSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneSec);
}

/** Convert ticks to (fractional) milliseconds. */
constexpr double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneMs);
}

/**
 * True when fromMs(@p ms) is a usable period: at least one tick and
 * in range.  fromMs() truncates, so a tiny value becomes a zero-tick
 * period that never advances, and casting NaN, an infinity or an
 * out-of-range value to a Tick is undefined.
 */
constexpr bool
isTickPeriodMs(double ms)
{
    const double ticks = ms * static_cast<double>(oneMs);
    return ticks >= 1.0 && ticks < static_cast<double>(MaxTick);
}

/** Convert ticks to (fractional) microseconds. */
constexpr double
toUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneUs);
}

/** Convert ticks to (fractional) nanoseconds. */
constexpr double
toNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(oneNs);
}

/** Convert a frequency in Hz to a clock period in ticks. */
constexpr Tick
periodFromFreq(double hz)
{
    return static_cast<Tick>(static_cast<double>(oneSec) / hz);
}

/** Bytes helpers. */
constexpr std::uint64_t operator"" _KiB(unsigned long long v)
{
    return v * 1024ull;
}

constexpr std::uint64_t operator"" _MiB(unsigned long long v)
{
    return v * 1024ull * 1024ull;
}

constexpr std::uint64_t operator"" _GiB(unsigned long long v)
{
    return v * 1024ull * 1024ull * 1024ull;
}

} // namespace vip

#endif // VIP_SIM_TYPES_HH
