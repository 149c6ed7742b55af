/**
 * @file
 * Per-component energy accounting.
 *
 * An EnergyAccount integrates power over simulated time (for
 * state-machine components: active/idle/sleep) and accumulates
 * per-event energies (per byte, per instruction, per access).
 * Accounts register with an EnergyLedger so the platform can produce
 * the per-component breakdown used by Figs 15 and 16.
 */

#ifndef VIP_POWER_ENERGY_ACCOUNT_HH
#define VIP_POWER_ENERGY_ACCOUNT_HH

#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/state_io.hh"
#include "sim/types.hh"

namespace vip
{

/** Energy bookkeeping for one component. */
class EnergyAccount
{
  public:
    EnergyAccount() = default;
    explicit EnergyAccount(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    /**
     * The component's power changed to @p watts at @p now.  Integrates
     * the previous power level over the elapsed interval.
     */
    void
    setPower(double watts, Tick now)
    {
        vip_assert(now >= _lastTick, "energy time went backwards in ",
                   _name);
        _staticNj += _watts * toSec(now - _lastTick) * 1e9;
        _watts = watts;
        _lastTick = now;
    }

    /** Add a one-off dynamic energy amount (nanojoules). */
    void addDynamicNj(double nj) { _dynamicNj += nj; }

    /** Close the integration interval (idempotent). */
    void close(Tick now) { setPower(_watts, now); }

    /** Integrated state/static energy so far (nJ). */
    double staticNj() const { return _staticNj; }

    /** Accumulated per-event energy so far (nJ). */
    double dynamicNj() const { return _dynamicNj; }

    /** Total energy (nJ). Call close() first for exact values. */
    double totalNj() const { return _staticNj + _dynamicNj; }

    /** Total energy in millijoules. */
    double totalMj() const { return totalNj() * 1e-6; }

    double currentWatts() const { return _watts; }

    /**
     * Checkpoint/restore.  The integrals accumulate doubles in event
     * order and cannot be reproduced by replay, so the exact bits are
     * stored.  A component's io() must therefore never call
     * setPower() on load — the ledger section restores the whole
     * integration state, including the current power level, after
     * every component's section.
     */
    void
    io(StateIO &io)
    {
        io.d(_watts);
        io.d(_staticNj);
        io.d(_dynamicNj);
        io.tick(_lastTick);
    }

  private:
    std::string _name;
    double _watts = 0.0;
    double _staticNj = 0.0;
    double _dynamicNj = 0.0;
    Tick _lastTick = 0;
};

/**
 * The platform-wide registry of energy accounts, grouped by category
 * ("cpu", "dram", "sa", "ip", "buffer").
 */
class EnergyLedger
{
  public:
    /** Create (or look up) the account for @p category / @p name. */
    EnergyAccount &
    account(const std::string &category, const std::string &name)
    {
        auto key = category + "." + name;
        auto it = _accounts.find(key);
        if (it == _accounts.end()) {
            it = _accounts.emplace(key, EnergyAccount(key)).first;
            _byCategory[category].push_back(&it->second);
        }
        return it->second;
    }

    /** Close all accounts at @p now. */
    void
    closeAll(Tick now)
    {
        for (auto &[k, acc] : _accounts)
            acc.close(now);
    }

    /** Total energy in a category (nJ). */
    double
    categoryNj(const std::string &category) const
    {
        auto it = _byCategory.find(category);
        if (it == _byCategory.end())
            return 0.0;
        double sum = 0.0;
        for (const auto *acc : it->second)
            sum += acc->totalNj();
        return sum;
    }

    /** Total platform energy (nJ). */
    double
    totalNj() const
    {
        double sum = 0.0;
        for (const auto &[k, acc] : _accounts)
            sum += acc.totalNj();
        return sum;
    }

    /** All category names present. */
    std::vector<std::string>
    categories() const
    {
        std::vector<std::string> out;
        out.reserve(_byCategory.size());
        for (const auto &[k, v] : _byCategory)
            out.push_back(k);
        return out;
    }

    /**
     * Checkpoint/restore.  Accounts live in an ordered map, so
     * iteration order is stable; every account must already exist on
     * load (they are created by component constructors), making a
     * name mismatch a config skew.
     */
    void
    io(StateIO &io)
    {
        io.shape("energy ledger", "accounts", _accounts.size());
        for (auto &[key, acc] : _accounts) {
            io.expect("energy ledger", "account", key);
            acc.io(io);
        }
    }

  private:
    std::map<std::string, EnergyAccount> _accounts;
    std::map<std::string, std::vector<EnergyAccount *>> _byCategory;
};

} // namespace vip

#endif // VIP_POWER_ENERGY_ACCOUNT_HH
