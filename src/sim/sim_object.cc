#include "sim/sim_object.hh"

namespace vip
{

SimObject::SimObject(System &system, std::string name)
    : _system(system), _name(std::move(name))
{
    _system.registerObject(this);
}

SimObject::~SimObject()
{
    _system.unregisterObject(this);
}

} // namespace vip
