#include "fleet/transport/remote_transport.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "fleet/transport/subprocess.hh"

namespace fs = std::filesystem;

namespace vip
{
namespace fleet
{

namespace
{

double
wallMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** First 16-hex-digit token in @p text (the --fnv1a output), or
 *  false when none parses. */
bool
scanFnvToken(const std::string &text, std::uint64_t *out)
{
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               (text[i] == ' ' || text[i] == '\n' ||
                text[i] == '\r' || text[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < text.size() && text[j] != ' ' &&
               text[j] != '\n' && text[j] != '\r' &&
               text[j] != '\t')
            ++j;
        if (j - i == 16 && parseFnvHex(text.substr(i, 16), out))
            return true;
        i = j;
    }
    return false;
}

struct RemoteHandle : WorkerHandle
{
    std::string jobId;
    std::string attemptDir;  ///< local mirror
    std::string remoteDir;   ///< remote attempt directory
    pid_t sshPid = -1;       ///< the launched worker's ssh child
    bool reaped = false;
    PollResult final;

    /** @{ throttled heartbeat cache */
    double lastProbeMs = -1.0e18;
    HeartbeatInfo cached;
    bool cachedOk = true;
    std::string cachedErr;
    /** @} */

    ~RemoteHandle() override
    {
        // Last-resort cleanup of the local ssh child; the remote
        // worker (if any survives) is the remote host's orphan
        // reaper's problem.
        if (sshPid > 0 && !reaped) {
            ::kill(sshPid, SIGKILL);
            int status = 0;
            ::waitpid(sshPid, &status, 0);
        }
    }
};

} // namespace

RemoteTransport::RemoteTransport(RemoteHostOptions opt)
    : _opt(std::move(opt))
{
}

/**
 * One bounded remote command with capped-exponential retry.  Retries
 * only transport-shaped failures (timeout, ssh death, exit 255);
 * a clean nonzero exit is the command's own answer and returned
 * as-is.
 */
struct RemoteTransport::Op
{
    const RemoteHostOptions &opt;
    std::string what;

    RunResult
    run(const std::string &remoteCmd, const std::string &stdinFile)
    {
        RunResult r;
        double delay = opt.retryBaseMs;
        for (int attempt = 1;; ++attempt) {
            std::vector<std::string> argv = opt.sshCmd;
            argv.push_back(remoteCmd);
            r = runCapture(argv, stdinFile, opt.opTimeoutMs);
            const bool transportFailure =
                !r.started || r.timedOut || r.termSignal != 0 ||
                r.exitCode == 255;
            if (!transportFailure || attempt >= opt.opRetries)
                return r;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay));
            delay = std::min(delay * 2.0, opt.retryCapMs);
        }
    }

    std::string
    describe(const RunResult &r) const
    {
        if (!r.started)
            return what + ": " + r.error;
        if (r.timedOut)
            return what + ": timed out";
        if (r.termSignal != 0)
            return what + ": ssh killed by signal " +
                   std::to_string(r.termSignal);
        return what + ": exit " + std::to_string(r.exitCode) +
               (r.out.empty()
                    ? ""
                    : " (" + r.out.substr(0, 160) + ")");
    }
};

std::unique_ptr<WorkerHandle>
RemoteTransport::launch(const LaunchRequest &req, std::string *err)
{
    auto h = std::make_unique<RemoteHandle>();
    h->jobId = req.jobId;
    h->attemptDir = req.attemptDir;
    h->remoteDir = _opt.remoteDir + "/" + req.jobId + "/a" +
                   std::to_string(req.token);

    std::error_code ec;
    fs::create_directories(req.attemptDir + "/" +
                               attempt_files::kPmDir,
                           ec);
    if (ec) {
        if (err)
            *err = "cannot create local " + req.attemptDir + ": " +
                   ec.message();
        return nullptr;
    }

    const std::string rdir = shellQuote(h->remoteDir);
    std::vector<std::string> args = req.args;

    // Stage the restore checkpoint out, checksum-verified.
    if (!req.restoreFrom.empty()) {
        bool ok = false;
        const std::uint64_t want = fnv1aFile(req.restoreFrom, &ok);
        if (!ok) {
            if (err)
                *err = "restore checkpoint " + req.restoreFrom +
                       " is unreadable";
            return nullptr;
        }
        Op stage{_opt, "stage restore checkpoint"};
        const std::string dst =
            h->remoteDir + "/" + attempt_files::kRestore;
        bool staged = false;
        for (int i = 0; i < _opt.opRetries && !staged; ++i) {
            RunResult r = stage.run("mkdir -p " + rdir + "/pm && "
                                    "cat > " + shellQuote(dst),
                                    req.restoreFrom);
            if (!r.ok()) {
                if (err)
                    *err = stage.describe(r);
                continue;
            }
            Op sum{_opt, "verify staged checkpoint"};
            r = sum.run(shellQuote(_opt.vipSim) + " --fnv1a " +
                        shellQuote(dst), "");
            std::uint64_t got = 0;
            if (r.ok() && scanFnvToken(r.out, &got) && got == want) {
                staged = true;
            } else if (err) {
                *err = r.ok() ? "staged checkpoint checksum "
                                "mismatch"
                              : sum.describe(r);
            }
        }
        if (!staged)
            return nullptr;
        args.push_back("--restore");
        args.push_back(attempt_files::kRestore);
    } else {
        Op mk{_opt, "create remote attempt dir"};
        const RunResult r = mk.run("mkdir -p " + rdir + "/pm", "");
        if (!r.ok()) {
            if (err)
                *err = mk.describe(r);
            return nullptr;
        }
    }

    // Launch: the $$ pid lands in a file (exec keeps it), so
    // interrupt/forceKill can signal the remote worker directly.
    std::string cmd = "cd " + rdir + " && echo $$ > pid && exec " +
                      shellQuote(_opt.vipSim);
    for (const auto &a : args)
        cmd += " " + shellQuote(a);
    cmd += " > " + shellQuote(std::string(attempt_files::kLog)) +
           " 2>&1";

    const std::string clientLog = req.attemptDir + "/ssh-client.log";
    const int logFd = ::open(clientLog.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<std::string> argv = _opt.sshCmd;
    argv.push_back(cmd);
    std::vector<char *> cargv;
    for (const auto &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        if (logFd >= 0)
            ::close(logFd);
        if (err)
            *err = std::string("fork failed: ") +
                   std::strerror(errno);
        return nullptr;
    }
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_RDONLY);
        if (devnull >= 0)
            ::dup2(devnull, 0);
        if (logFd >= 0) {
            ::dup2(logFd, 1);
            ::dup2(logFd, 2);
        }
        ::execvp(cargv[0], cargv.data());
        ::_exit(127);
    }
    if (logFd >= 0)
        ::close(logFd);
    h->sshPid = pid;
    return h;
}

PollResult
RemoteTransport::poll(WorkerHandle &wh)
{
    auto &h = static_cast<RemoteHandle &>(wh);
    if (h.reaped)
        return h.final;
    int status = 0;
    const pid_t r = ::waitpid(h.sshPid, &status, WNOHANG);
    PollResult pr;
    if (r == 0) {
        pr.state = WorkerState::Running;
        return pr;
    }
    if (r != h.sshPid) {
        pr.state = WorkerState::Unreachable;
        pr.error = std::string("waitpid: ") + std::strerror(errno);
        return pr;
    }
    h.reaped = true;
    if (WIFSIGNALED(status)) {
        pr.state = WorkerState::Unreachable;
        pr.error = "ssh client killed by signal " +
                   std::to_string(WTERMSIG(status));
        h.final = pr;
        return pr;
    }
    const int code = WEXITSTATUS(status);
    if (code == 255) {
        // ssh's own "connection/authentication failed" code — the
        // worker's fate is unknown: a transport failure, not a
        // worker verdict.
        pr.state = WorkerState::Unreachable;
        pr.error = "ssh transport error (exit 255)";
        h.final = pr;
        return pr;
    }
    pr.state = WorkerState::Exited;
    pr.exitCode = code;
    pr.ok = code == 0;
    if (code > 128) {
        pr.termSignal = code - 128;
        pr.error = "killed by signal " +
                   std::to_string(pr.termSignal);
    } else if (!pr.ok) {
        pr.error = "exit code " + std::to_string(code);
    }
    h.final = pr;
    return pr;
}

bool
RemoteTransport::heartbeat(WorkerHandle &wh, HeartbeatInfo *info,
                           std::string *err)
{
    auto &h = static_cast<RemoteHandle &>(wh);
    const double now = wallMs();
    if (now - h.lastProbeMs < _opt.heartbeatRefreshMs) {
        *info = h.cached;
        if (!h.cachedOk && err)
            *err = h.cachedErr;
        return h.cachedOk;
    }
    h.lastProbeMs = now;

    Op hb{_opt, "heartbeat probe"};
    const std::string rdir = shellQuote(h.remoteDir);
    const RunResult r = hb.run(
        "cd " + rdir + " && { { wc -c < metrics.csv; } 2>/dev/null"
        " || echo -1; } && { tail -n 1 metrics.csv 2>/dev/null"
        " || true; }", "");
    if (!r.ok()) {
        h.cachedOk = false;
        h.cachedErr = hb.describe(r);
        h.cached = HeartbeatInfo{};
        *info = h.cached;
        if (err)
            *err = h.cachedErr;
        return false;
    }
    HeartbeatInfo out;
    const char *p = r.out.c_str();
    char *end = nullptr;
    const long sz = std::strtol(p, &end, 10);
    out.size = end == p ? -1 : sz;
    if (end && *end) {
        // Second line: the newest CSV row (or the header).
        const char *row = end;
        while (*row == '\n' || *row == '\r')
            ++row;
        if ((*row >= '0' && *row <= '9') || *row == '-' ||
            *row == '.')
            out.tickMs = std::strtod(row, nullptr);
    }
    h.cachedOk = true;
    h.cached = out;
    *info = out;
    return true;
}

void
RemoteTransport::interrupt(WorkerHandle &wh)
{
    auto &h = static_cast<RemoteHandle &>(wh);
    Op op{_opt, "remote interrupt"};
    op.run("kill -TERM \"$(cat " + shellQuote(h.remoteDir + "/pid") +
           " 2>/dev/null)\" 2>/dev/null || true", "");
}

void
RemoteTransport::forceKill(WorkerHandle &wh)
{
    auto &h = static_cast<RemoteHandle &>(wh);
    Op op{_opt, "remote kill"};
    op.run("kill -KILL \"$(cat " + shellQuote(h.remoteDir + "/pid") +
           " 2>/dev/null)\" 2>/dev/null || true", "");
}

bool
RemoteTransport::fetch(WorkerHandle &wh, ArtifactManifest *out,
                       std::string *err)
{
    auto &h = static_cast<RemoteHandle &>(wh);
    out->clear();
    for (const std::string &name : attemptArtifactNames()) {
        Artifact a;
        a.name = name;
        a.localPath = h.attemptDir + "/" + name;
        const std::string rpath =
            shellQuote(h.remoteDir + "/" + name);

        Op sum{_opt, "checksum " + name};
        RunResult r = sum.run(shellQuote(_opt.vipSim) + " --fnv1a " +
                              rpath, "");
        if (r.started && !r.timedOut && r.termSignal == 0 &&
            r.exitCode == 1) {
            a.present = false; // the attempt never produced it
            out->push_back(std::move(a));
            continue;
        }
        std::uint64_t want = 0;
        if (!r.ok() || !scanFnvToken(r.out, &want)) {
            if (err)
                *err = r.ok() ? "unparsable checksum for " + name
                              : sum.describe(r);
            return false;
        }

        bool fetched = false;
        std::string lastErr;
        for (int i = 0; i < _opt.opRetries && !fetched; ++i) {
            Op cat{_opt, "fetch " + name};
            r = cat.run("cat " + rpath, "");
            if (!r.ok()) {
                lastErr = cat.describe(r);
                continue;
            }
            const std::uint64_t got =
                fnv1aBytes(r.out.data(), r.out.size());
            if (got != want) {
                lastErr = name + " corrupted in transit: remote " +
                          fnvHex(want) + ", received " + fnvHex(got);
                continue;
            }
            std::string werr;
            if (!writeFileAtomic(a.localPath, r.out, &werr)) {
                lastErr = werr;
                continue;
            }
            fetched = true;
        }
        if (!fetched) {
            if (err)
                *err = lastErr;
            return false;
        }
        a.present = true;
        a.fnv = want;
        out->push_back(std::move(a));
    }
    return true;
}

bool
RemoteTransport::probe(std::string *err)
{
    Op op{_opt, "probe"};
    const RunResult r = op.run("true", "");
    if (!r.ok()) {
        if (err)
            *err = op.describe(r);
        return false;
    }
    return true;
}

} // namespace fleet
} // namespace vip
