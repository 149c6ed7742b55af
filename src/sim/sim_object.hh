/**
 * @file
 * SimObject: the common base of every named simulated component.
 *
 * A SimObject belongs to a System (see system.hh), through which it
 * reaches the shared event queue.  Names are hierarchical
 * ("soc.mem.ctrl0") and unique within a System.
 */

#ifndef VIP_SIM_SIM_OBJECT_HH
#define VIP_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/audit.hh"
#include "sim/event_queue.hh"
#include "sim/system.hh"
#include "sim/types.hh"

namespace vip
{

class StatRegistry;

/** Base class for all named simulation components. */
class SimObject : public Auditable
{
  public:
    /**
     * @param system Owning system (must outlive this object).
     * @param name   Hierarchical, unique instance name.
     */
    SimObject(System &system, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    System &system() const { return _system; }

    /** Current simulated time. */
    Tick curTick() const { return _system.curTick(); }

    /** Schedule a callback at an absolute tick.  @p kind is the
     *  optional profiling tag (see EventQueue::schedule). */
    template <typename F>
    EventId
    schedule(Tick when, F &&f, EventPriority prio = EventPriority::Default,
             const char *kind = nullptr)
    {
        return _system.eventq().schedule(when, std::forward<F>(f), prio,
                                         kind);
    }

    /** Schedule a callback @p delta ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delta, F &&f,
               EventPriority prio = EventPriority::Default,
               const char *kind = nullptr)
    {
        return _system.eventq().scheduleIn(delta, std::forward<F>(f),
                                           prio, kind);
    }

    /** Cancel a scheduled callback. */
    void deschedule(EventId id) { _system.eventq().deschedule(id); }

    /**
     * Hook called by System::run() just before the first event is
     * serviced; components start periodic activity here.
     */
    virtual void startup() {}

    /**
     * Hook called when simulation ends; components should fold any
     * in-progress accounting (e.g. energy integration) into stats.
     */
    virtual void finalize() {}

    /**
     * Register this component's counters with the unified stats
     * registry (dotted paths, units, descriptions; see
     * obs/stat_registry.hh).  Called once after the platform is
     * built; registered getters must stay valid for the component's
     * lifetime.  Purely observational — implementations must not
     * schedule events or touch architectural state.
     */
    virtual void registerStats(StatRegistry &registry)
    {
        (void)registry;
    }

  private:
    System &_system;
    std::string _name;
};

} // namespace vip

#endif // VIP_SIM_SIM_OBJECT_HH
