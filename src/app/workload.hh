/**
 * @file
 * The multi-application workloads of Table 2 (W1..W8).
 */

#ifndef VIP_APP_WORKLOAD_HH
#define VIP_APP_WORKLOAD_HH

#include <string>
#include <vector>

#include "app/application.hh"

namespace vip
{

/** A workload: the set of applications running concurrently. */
struct Workload
{
    std::string name;
    std::string useCase;
    std::vector<AppSpec> apps;
};

/** Factory for the Table 2 workloads. */
class WorkloadCatalog
{
  public:
    /** W1..W8 by index. */
    static Workload byIndex(int i);

    /** All eight multi-app workloads. */
    static std::vector<Workload> all();

    /** A single application as a workload (the A1..A7 columns). */
    static Workload single(int app_index);

    /** "A1".."A7" (single()) or "W1".."W8" (byIndex()), either case;
     *  SimFatal naming the valid names otherwise. */
    static Workload byName(const std::string &name);
};

} // namespace vip

#endif // VIP_APP_WORKLOAD_HH
