/**
 * @file
 * Host roster for distributed sweeps: the --hosts JSON file format,
 * and the factory that turns one HostSpec into a WorkerTransport
 * (optionally wrapped in a FaultyTransport for chaos runs).
 *
 * Hosts file shape:
 *
 *   { "hosts": [
 *       { "name": "local", "transport": "process", "slots": 4 },
 *       { "name": "node7", "transport": "ssh", "slots": 8,
 *         "ssh": ["ssh", "-oBatchMode=yes", "node7"],
 *         "remote_dir": "/tmp/vip-fleet",
 *         "vip_sim": "/opt/vip/bin/vip_sim",
 *         "op_timeout_ms": 30000, "op_retries": 3 },
 *       { "name": "flaky", "transport": "process", "slots": 2,
 *         "fault": "seed=7,drop=0.1,partition@40+25" } ] }
 *
 * "transport" is "process" (local fork/exec of vip_sim) or "ssh"
 * (vip_sim on a remote host).  A per-host "fault" spec wraps that
 * host only; the --fault CLI flag wraps every host that has no spec
 * of its own.
 */

#ifndef VIP_FLEET_HOSTS_HH
#define VIP_FLEET_HOSTS_HH

#include <memory>
#include <string>
#include <vector>

#include "fleet/transport/remote_transport.hh"
#include "fleet/transport/transport.hh"

namespace vip
{
namespace fleet
{

struct HostSpec
{
    std::string name;
    std::string transport = "process"; ///< process | ssh
    int slots = 1;                     ///< concurrent attempts
    std::string faultSpec;             ///< "" = no injection
    RemoteHostOptions remote;          ///< ssh transport only
};

/** Parse a --hosts JSON file.  False + *err on malformed input. */
bool parseHostsFile(const std::string &path,
                    std::vector<HostSpec> *out, std::string *err);

/**
 * Build the transport for @p host.  @p vipSimPath is the local
 * worker binary (process transport; also the default remote binary
 * when the host spec leaves "vip_sim" empty).
 * @p globalFaultSpec applies to hosts without their own "fault"
 * entry ("" = none).  Returns nullptr + *err on a bad fault spec or
 * unknown transport kind.
 */
std::unique_ptr<WorkerTransport>
makeTransport(const HostSpec &host, const std::string &vipSimPath,
              const std::string &globalFaultSpec, std::string *err);

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_HOSTS_HH
