/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic()  -- internal simulator bug; should never happen regardless of
 *             user input.  Throws SimPanic (tests catch it; main()
 *             aborts).
 * fatal()  -- the user asked for something the simulator cannot do
 *             (bad configuration).  Throws SimFatal and prints
 *             nothing: the catch that handles it decides what reaches
 *             stderr (each tool's main prints the message once).
 * warn()   -- something may not be modelled exactly; keep running.
 * inform() -- status messages.
 */

#ifndef VIP_SIM_LOGGING_HH
#define VIP_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace vip
{

/** Thrown by panic(): an internal invariant was violated. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &what) : std::logic_error(what) {}
};

/** Thrown by fatal(): the user configuration is invalid. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &what) : std::runtime_error(what) {}
};

namespace logging
{

/** Global verbosity: 0 = silent, 1 = warn, 2 = inform. */
int verbosity();
void setVerbosity(int level);

void emit(const char *kind, const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace logging

/** Report an internal simulator bug and abort the simulation. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    auto msg = logging::format(std::forward<Args>(args)...);
    logging::emit("panic", msg);
    throw SimPanic(msg);
}

/** Abort the simulation over an invalid user configuration; the
 *  handler of the SimFatal reports it. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw SimFatal(logging::format(std::forward<Args>(args)...));
}

/** Warn about approximate or suspicious behaviour; keep running. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logging::verbosity() >= 1)
        logging::emit("warn", logging::format(std::forward<Args>(args)...));
}

/** Emit a status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logging::verbosity() >= 2)
        logging::emit("info", logging::format(std::forward<Args>(args)...));
}

/** panic() unless the condition holds. */
#define vip_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond))                                                       \
            ::vip::panic("assertion '", #cond, "' failed: ",               \
                         ##__VA_ARGS__);                                   \
    } while (0)

} // namespace vip

#endif // VIP_SIM_LOGGING_HH
