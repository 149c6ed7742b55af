/**
 * @file
 * FaultyTransport: a deterministic fault-injection decorator around
 * any WorkerTransport, so every partition-tolerance path in the
 * supervisor — lease expiry, zombie rejection, fetch retry, host
 * quarantine, graceful degradation — is exercisable on one machine
 * with no network and no timing luck.
 *
 * Faults are keyed on (seed, op count), never on wall time or a
 * global RNG: the same spec against the same sweep injects the same
 * faults at the same ops on every run.  Spec grammar (comma-joined):
 *
 *   seed=N            RNG seed (default 1)
 *   drop=P            op fails with a transport error, prob P
 *   delay=P           op succeeds after a small injected stall
 *   dup=P             op runs twice (idempotency exercise)
 *   corrupt=P         fetch succeeds but a manifest checksum lies
 *   partition@N+M     ops [N, N+M) all fail; workers keep running
 *   die@N             from op N on, the host is permanently dead
 *                     (live workers are killed once — a host crash)
 *
 * Probability faults apply to poll/heartbeat/fetch/probe only;
 * launch, interrupt, and forceKill stay clean so claims release
 * correctly and cleanup always works — zombies come from partitions
 * and deaths, which *do* cover launch.  corrupt applies to fetch
 * only.
 */

#ifndef VIP_FLEET_TRANSPORT_FAULTY_TRANSPORT_HH
#define VIP_FLEET_TRANSPORT_FAULTY_TRANSPORT_HH

#include "fleet/transport/transport.hh"

namespace vip
{
namespace fleet
{

struct FaultSpec
{
    std::uint64_t seed = 1;
    double drop = 0.0;
    double delay = 0.0;
    double dup = 0.0;
    double corrupt = 0.0;
    long partitionAtOp = -1; ///< first partitioned op, -1 = none
    long partitionOps = 0;   ///< window length in ops
    long dieAtOp = -1;    ///< first dead op, -1 = never

    /** Parse the spec grammar above; false + *err on bad input. */
    static bool parse(const std::string &s, FaultSpec *out,
                      std::string *err);
};

/** Injection tally, for the report's fault section. */
struct FaultCounters
{
    long ops = 0;
    long drops = 0;
    long delays = 0;
    long dups = 0;
    long corrupts = 0;
    long partitioned = 0; ///< ops failed inside a partition window
    bool died = false;

    /** Every fault injected, a death counting once. */
    long
    injected() const
    {
        return drops + delays + dups + corrupts + partitioned +
               (died ? 1 : 0);
    }
};

class FaultyTransport : public WorkerTransport
{
  public:
    FaultyTransport(std::unique_ptr<WorkerTransport> inner,
                    FaultSpec spec);
    ~FaultyTransport() override;

    const char *kind() const override;
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

    const FaultCounters &counters() const { return _counters; }

  private:
    struct Handle;

    /** One per public op: advances the op counter and decides this
     *  op's fate. */
    struct Verdict
    {
        bool dead = false;        ///< die window reached
        bool partitioned = false; ///< inside a partition window
        bool drop = false;
        bool delay = false;
        bool dup = false;
        bool corrupt = false;
    };
    Verdict nextOp(bool probabilistic, bool fetchOp);
    void killAllOnce();

    std::unique_ptr<WorkerTransport> _inner;
    FaultSpec _spec;
    std::string _kind;
    FaultCounters _counters;
    bool _killed = false;
    std::vector<Handle *> _live;
};

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_TRANSPORT_FAULTY_TRANSPORT_HH
