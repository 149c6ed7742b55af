/**
 * @file
 * LocalTransport: fork/exec of vip_sim on this machine — the default
 * worker backend.  Full crash isolation, SIGKILL-able, stdout+stderr
 * captured to the attempt's log.txt.  The child chdir()s into the
 * attempt directory, so worker argv uses the fixed attempt-relative
 * artifact names.
 */

#ifndef VIP_FLEET_TRANSPORT_LOCAL_TRANSPORT_HH
#define VIP_FLEET_TRANSPORT_LOCAL_TRANSPORT_HH

#include "fleet/transport/transport.hh"

namespace vip
{
namespace fleet
{

/** The newest simulated tick in a heartbeat CSV (-1 before the first
 *  complete row); exposed for tests. */
double readLastTickMs(const std::string &metricsCsv);

class LocalTransport : public WorkerTransport
{
  public:
    /** @p vipSimPath must be an absolute path (children chdir). */
    explicit LocalTransport(std::string vipSimPath);

    const char *kind() const override { return "process"; }
    std::unique_ptr<WorkerHandle> launch(const LaunchRequest &req,
                                         std::string *err) override;
    PollResult poll(WorkerHandle &h) override;
    bool heartbeat(WorkerHandle &h, HeartbeatInfo *info,
                   std::string *err) override;
    void interrupt(WorkerHandle &h) override;
    void forceKill(WorkerHandle &h) override;
    bool fetch(WorkerHandle &h, ArtifactManifest *out,
               std::string *err) override;
    bool probe(std::string *err) override;

  private:
    std::string _vipSim;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_TRANSPORT_LOCAL_TRANSPORT_HH
