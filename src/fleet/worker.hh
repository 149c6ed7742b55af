/**
 * @file
 * One fleet attempt as a local process: the fixed attempt-relative
 * artifact names, the vip_sim child fork/exec'd inside its attempt
 * directory, the tail of its heartbeat CSV, and the tmp+rename writes
 * that publish a finished attempt's artifacts.
 *
 * Every attempt runs in its own directory, <out>/shards/<job>/a<N>/
 * (N = the attempt number), and writes its artifacts there under fixed
 * relative names, so a retry never touches the files of the attempt
 * it replaces.  Only the supervisor copies an attempt's artifacts to
 * the canonical shard paths, each through a tmp+rename commit: a
 * canonical artifact is either absent or whole, even when vip_fleet
 * is killed mid-copy.
 */

#ifndef VIP_FLEET_WORKER_HH
#define VIP_FLEET_WORKER_HH

#include <sys/types.h>

#include <string>
#include <vector>

namespace vip
{
namespace fleet
{

/** Fixed attempt-relative artifact names. */
namespace attempt_files
{
constexpr const char *kStats = "stats.json";
constexpr const char *kMetrics = "metrics.csv";
constexpr const char *kDigest = "digest.dig";
constexpr const char *kLog = "log.txt";
constexpr const char *kPmDir = "pm";
constexpr const char *kCheckpoint = "pm/checkpoint.vips";
} // namespace attempt_files

/** How a worker process ended. */
struct WorkerExit
{
    bool ok = false;    ///< exit code 0
    int termSignal = 0; ///< killed by this signal
    std::string error;  ///< "" when ok
};

/**
 * One vip_sim child.  start() creates the attempt directory (with its
 * pm/), forks, chdir()s the child into it and execs the binary with
 * stdout+stderr appended to the attempt's log.txt.  Destruction
 * SIGKILLs and reaps a child still running, so no worker outlives the
 * slot that owns it.
 */
class WorkerProcess
{
  public:
    WorkerProcess() = default;
    WorkerProcess(WorkerProcess &&o) noexcept;
    WorkerProcess &operator=(WorkerProcess &&o) noexcept;
    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;
    ~WorkerProcess();

    /** Start @p binary (a path relative to this process's directory
     *  is resolved before the child's chdir) with @p args in @p dir,
     *  on a process that has no child yet.  False + *err when the
     *  directory, the log or the fork fails; no child exists then. */
    bool start(const std::string &binary, const std::string &dir,
               const std::vector<std::string> &args, std::string *err);

    /** Reap a started child without blocking: true once it is gone,
     *  with *exit saying how (a waitpid error reads as a failed
     *  exit).  Call only while a child runs. */
    bool reap(WorkerExit *exit);

    /** Send @p sig to the child while it runs. */
    void signal(int sig);

  private:
    pid_t _pid = -1;
};

/** Size of @p path in bytes; -1 when it does not exist. */
long fileSize(const std::string &path);

/** The newest simulated tick in a heartbeat CSV (-1 before the first
 *  complete row); exposed for tests. */
double readLastTickMs(const std::string &metricsCsv);

/** Write @p content to @p path through "<path>.tmp" and rename(2).
 *  False (with *err set) on any I/O failure; the target is never left
 *  torn. */
bool writeFileAtomic(const std::string &path,
                     const std::string &content, std::string *err);

/** Copy @p src to @p dst the same way: "<dst>.tmp", then rename. */
bool copyFileAtomic(const std::string &src, const std::string &dst,
                    std::string *err);

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_WORKER_HH
