/**
 * @file
 * FleetJournal: the sweep's one record, and the fold that reads it.
 *
 * Every supervisor transition — the sweep's start, one declaration
 * per job, launch, heartbeat, chaos and hang kills, job failure,
 * commit, interrupt, the sweep's end — is one JSON object on one line
 * of <outDir>/journal.jsonl, written and flushed immediately so a
 * SIGKILLed sweep still leaves its whole story.  With echo on, the
 * same line goes to stderr as "[fleet] <record>" (heartbeats
 * excepted): the journal is also the supervisor's log.
 *
 * Records carry a dense monotonic "seq" and the supervisor's
 * wall-clock "wall_ms"; job-scoped records also carry the attempt
 * number, and every record that moves a job to a new state names
 * that state:
 *
 *   {"seq": 12, "wall_ms": 153.2, "type": "job_fail",
 *    "job": "vip-W1-s2", "attempt": 1, "why": "exit code 1",
 *    "elapsed_ms": 140.5, "will_resume": false, "state": "backoff"}
 *
 * foldJournal() turns the file back into the sweep — every job's
 * state, attempts and history, the summary counts.  report.json is
 * the fold of a finished sweep; vip_top folds a live (or killed) one,
 * so the two cannot disagree.
 *
 * A journal that was never open()ed swallows records silently.
 */

#ifndef VIP_FLEET_JOURNAL_HH
#define VIP_FLEET_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "fleet/scheduler.hh"

namespace vip
{
namespace fleet
{

class FleetJournal
{
  public:
    /** Truncate-open @p path; fatal on failure.  @p echo also prints
     *  every record but heartbeats to stderr. */
    void open(const std::string &path, bool echo);

    bool enabled() const { return _out.is_open(); }

    /**
     * One in-flight record; fields append in call order and the
     * destructor writes + flushes the line.  Returned by event(); use
     * as a builder:
     *
     *   journal.event(now, "launch").str("job", id).u64("attempt", n);
     */
    class Record
    {
      public:
        Record(Record &&o) noexcept
            : _j(o._j), _echo(o._echo), _line(std::move(o._line))
        {
            o._j = nullptr;
        }
        Record(const Record &) = delete;
        Record &operator=(const Record &) = delete;
        Record &operator=(Record &&) = delete;
        ~Record();

        Record &str(const char *key, const std::string &v);
        Record &num(const char *key, double v);
        Record &u64(const char *key, std::uint64_t v);
        Record &b(const char *key, bool v);

      private:
        friend class FleetJournal;
        Record(FleetJournal *j, double wallMs, const char *type);

        FleetJournal *_j; ///< null when disabled or moved-from
        bool _echo = false;
        std::string _line;
    };

    /** Start a record (no-op builder when the journal is closed). */
    Record event(double wallMs, const char *type);

  private:
    friend class Record;
    std::ofstream _out;
    bool _echo = false;
    std::uint64_t _seq = 0;
};

/** One job as the journal tells it. */
struct FoldedJob
{
    FleetJob job;
    JobState state = JobState::Pending;
    int attempts = 0;
    bool resumed = false;     ///< some attempt restored a checkpoint
    double wallMs = 0.0;      ///< wall time of the settled attempts
    std::string lastError;
    std::vector<std::string> history; ///< one line per lost attempt
    double steadyTickMs = -1.0; ///< committed sim.steady.tick; -1 none

    /** @{ live progress: the current attempt's newest heartbeat tick
     *  and its recent sim-ms-per-wall-s rates (newest last, <= 16) */
    double tickMs = -1.0;
    double tickWallMs = -1.0;
    std::vector<double> rates;
    /** @} */
};

/** The sweep a journal describes. */
struct FoldedSweep
{
    std::string name;
    double seconds = 0.0;     ///< simulated seconds per job
    double wallMs = 0.0;      ///< newest record's stamp
    bool ended = false;       ///< sweep_end seen
    bool interrupted = false; ///< stop flag fired mid-sweep
    std::vector<FoldedJob> jobs; ///< spec order

    /** @{ summary counts */
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t retries = 0;  ///< attempts beyond each job's first
    std::size_t resumes = 0;  ///< attempts restored from a ring
    std::size_t hangKills = 0;
    /** @} */

    /** 0 all done; 1 completed with failed jobs; 2 interrupted. */
    int exitCode() const
    {
        if (interrupted)
            return 2;
        return failed == 0 ? 0 : 1;
    }
};

/** Fold a journal.  An unterminated last line (a record still being
 *  written) is skipped; SimFatal on a malformed record. */
FoldedSweep foldJournal(std::istream &in);

} // namespace fleet
} // namespace vip

#endif // VIP_FLEET_JOURNAL_HH
