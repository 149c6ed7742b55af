/**
 * @file
 * Shared fixtures/helpers for the unit tests: a minimal platform
 * (System + EnergyLedger + MemoryController + SystemAgent) that IP and
 * driver tests can build on.
 */

#ifndef VIP_TESTS_TEST_UTIL_HH
#define VIP_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <memory>
#include <string>

#include "mem/memory_controller.hh"
#include "power/energy_account.hh"
#include "sa/system_agent.hh"
#include "sim/system.hh"

namespace vip
{
namespace test
{

/** A bare platform skeleton for component tests. */
class PlatformFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        buildPlatform(/*ideal_memory=*/false);
    }

    /**
     * The default DRAM configuration for unit tests: most tests
     * assert exact timings, so the LPDDR low-power state machine
     * (exit penalties, row-state loss on self-refresh) is off unless
     * a test passes its own DramConfig with it enabled.
     */
    static DramConfig
    testDram()
    {
        DramConfig d;
        d.enableLowPower = false;
        return d;
    }

    /** (Re)build the platform; call early in a test to customize. */
    void
    buildPlatform(bool ideal_memory,
                  DramConfig dram = testDram(),
                  SaConfig sa_cfg = SaConfig{})
    {
        sa.reset();
        mem.reset();
        sys = std::make_unique<System>(42);
        ledger = std::make_unique<EnergyLedger>();
        dram.ideal = ideal_memory;
        mem = std::make_unique<MemoryController>(*sys, "t.mem", dram,
                                                 *ledger);
        sa = std::make_unique<SystemAgent>(*sys, "t.sa", sa_cfg, *mem,
                                           *ledger);
    }

    /**
     * Run the event loop for @p duration simulated time from now.
     * Periodic monitors (the DRAM bandwidth sampler) re-arm
     * themselves forever, so "run until the queue drains" would never
     * return; one simulated second comfortably completes everything a
     * unit test issues.
     */
    Tick
    run(Tick duration = fromSec(1))
    {
        return sys->run(sys->curTick() + duration);
    }

    std::unique_ptr<System> sys;
    std::unique_ptr<EnergyLedger> ledger;
    std::unique_ptr<MemoryController> mem;
    std::unique_ptr<SystemAgent> sa;
};

/** One command-line run: its exit status (-1 unless it exited) and
 *  its stdout and stderr, interleaved. */
struct CliRun
{
    int exit = -1;
    std::string out;
};

/** Run the shell command @p cmd with stderr folded into stdout. */
inline CliRun
runCli(const std::string &cmd)
{
    // -k: a run that ignores SIGTERM is killed 5 s later and fails
    // its test instead of wedging the suite.
    const std::string full = "timeout -k 5 10 " + cmd + " 2>&1";
    CliRun r;
    FILE *p = ::popen(full.c_str(), "r");
    if (!p)
        return r;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p))
        r.out += buf;
    const int status = ::pclose(p);
    if (WIFEXITED(status))
        r.exit = WEXITSTATUS(status);
    return r;
}

} // namespace test
} // namespace vip

#endif // VIP_TESTS_TEST_UTIL_HH
