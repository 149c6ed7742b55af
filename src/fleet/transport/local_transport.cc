#include "fleet/transport/local_transport.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace vip
{
namespace fleet
{

/**
 * The shard's simulated progress: the tick_ms column (first field) of
 * the newest complete data row of its heartbeat CSV, or -1 before the
 * first sample lands.  The supervisor polls every running slot every
 * few wall ms while the file keeps growing, so only its tail is read:
 * a window at the end of the file, widened until it holds a whole
 * data row.  An unterminated last line is a row still being written
 * and is ignored.
 */
double
readLastTickMs(const std::string &metricsCsv)
{
    std::ifstream in(metricsCsv, std::ios::binary | std::ios::ate);
    if (!in)
        return -1.0;
    const std::streamoff size = in.tellg();
    std::string buf;
    for (std::streamoff window = 4096;; window *= 4) {
        const std::streamoff start = std::max<std::streamoff>(
            0, size - window);
        buf.resize(static_cast<std::size_t>(size - start));
        in.seekg(start);
        if (!in.read(buf.data(), static_cast<std::streamsize>(
                                     buf.size())))
            return -1.0;
        // Complete lines only: each ends at a '\n' and starts right
        // after one (or at the start of the file).
        std::size_t end = buf.rfind('\n');
        while (end != std::string::npos && end > 0) {
            const std::size_t nl = buf.rfind('\n', end - 1);
            if (nl == std::string::npos && start > 0)
                break; // cut by the window; widen it
            const std::size_t begin =
                nl == std::string::npos ? 0 : nl + 1;
            const char c = begin < end ? buf[begin] : '#';
            // Skip comments, the "tick_ms,..." header and blanks.
            if ((c >= '0' && c <= '9') || c == '-' || c == '.')
                return std::strtod(buf.c_str() + begin, nullptr);
            end = nl;
        }
        if (start == 0)
            return -1.0;
    }
}

namespace
{

long
statFileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long>(st.st_size);
}

struct LocalHandle : WorkerHandle
{
    pid_t pid = -1;
    std::string attemptDir;
    bool reaped = false;
    PollResult final; ///< cached once waitpid() reaps the child

    ~LocalHandle() override
    {
        // Last-resort cleanup: never leave an orphan worker running.
        if (pid > 0 && !reaped) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

} // namespace

LocalTransport::LocalTransport(std::string vipSimPath)
{
    // Workers chdir into their attempt directory before the exec, so
    // a path relative to this process's directory is resolved now.
    std::error_code ec;
    const fs::path abs = fs::absolute(vipSimPath, ec);
    _vipSim = ec ? std::move(vipSimPath) : abs.string();
}

std::unique_ptr<WorkerHandle>
LocalTransport::launch(const LaunchRequest &req, std::string *err)
{
    std::error_code ec;
    fs::create_directories(req.attemptDir + "/" +
                               attempt_files::kPmDir,
                           ec);
    if (ec) {
        if (err)
            *err = "cannot create " + req.attemptDir + ": " +
                   ec.message();
        return nullptr;
    }

    std::vector<std::string> args = req.args;
    if (!req.restoreFrom.empty()) {
        // Stage the restore checkpoint in (hard link when possible,
        // else a verified copy), so argv stays attempt-relative.
        const std::string staged =
            req.attemptDir + "/" + attempt_files::kRestore;
        fs::remove(staged, ec);
        fs::create_hard_link(req.restoreFrom, staged, ec);
        if (ec) {
            std::string cerr2;
            bool ok = false;
            const std::uint64_t h = fnv1aFile(req.restoreFrom, &ok);
            if (!ok ||
                !copyFileAtomicVerified(req.restoreFrom, staged, h,
                                        &cerr2)) {
                if (err)
                    *err = "cannot stage restore checkpoint: " +
                           (ok ? cerr2 : "unreadable " +
                                             req.restoreFrom);
                return nullptr;
            }
        }
        args.push_back("--restore");
        args.push_back(attempt_files::kRestore);
    }

    const std::string logPath =
        req.attemptDir + "/" + attempt_files::kLog;
    const int logFd = ::open(logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logFd < 0) {
        if (err)
            *err = "cannot open " + logPath + ": " +
                   std::strerror(errno);
        return nullptr;
    }

    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(_vipSim.c_str()));
    for (auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(logFd);
        if (err)
            *err = std::string("fork failed: ") +
                   std::strerror(errno);
        return nullptr;
    }
    if (pid == 0) {
        if (::chdir(req.attemptDir.c_str()) != 0)
            ::_exit(126);
        ::dup2(logFd, 1);
        ::dup2(logFd, 2);
        ::close(logFd);
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "execv %s failed: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    ::close(logFd);

    auto h = std::make_unique<LocalHandle>();
    h->pid = pid;
    h->attemptDir = req.attemptDir;
    return h;
}

PollResult
LocalTransport::poll(WorkerHandle &wh)
{
    auto &h = static_cast<LocalHandle &>(wh);
    if (h.reaped)
        return h.final;
    int status = 0;
    const pid_t r = ::waitpid(h.pid, &status, WNOHANG);
    PollResult pr;
    if (r == 0) {
        pr.state = WorkerState::Running;
        return pr;
    }
    if (r != h.pid) {
        pr.state = WorkerState::Unreachable;
        pr.error = std::string("waitpid: ") + std::strerror(errno);
        return pr;
    }
    pr.state = WorkerState::Exited;
    if (WIFSIGNALED(status)) {
        pr.termSignal = WTERMSIG(status);
        pr.error = "killed by signal " +
                   std::to_string(pr.termSignal);
    } else {
        pr.exitCode = WEXITSTATUS(status);
        pr.ok = pr.exitCode == 0;
        if (!pr.ok)
            pr.error = "exit code " + std::to_string(pr.exitCode);
    }
    h.reaped = true;
    h.final = pr;
    return pr;
}

bool
LocalTransport::heartbeat(WorkerHandle &wh, HeartbeatInfo *info,
                          std::string *err)
{
    (void)err;
    auto &h = static_cast<LocalHandle &>(wh);
    const std::string csv =
        h.attemptDir + "/" + attempt_files::kMetrics;
    info->size = statFileSize(csv);
    info->tickMs = info->size > 0 ? readLastTickMs(csv) : -1.0;
    return true;
}

void
LocalTransport::interrupt(WorkerHandle &wh)
{
    auto &h = static_cast<LocalHandle &>(wh);
    if (!h.reaped && h.pid > 0)
        ::kill(h.pid, SIGTERM);
}

void
LocalTransport::forceKill(WorkerHandle &wh)
{
    auto &h = static_cast<LocalHandle &>(wh);
    if (!h.reaped && h.pid > 0)
        ::kill(h.pid, SIGKILL);
}

bool
LocalTransport::fetch(WorkerHandle &wh, ArtifactManifest *out,
                      std::string *err)
{
    auto &h = static_cast<LocalHandle &>(wh);
    return localManifest(h.attemptDir, out, err);
}

bool
LocalTransport::probe(std::string *err)
{
    if (::access(_vipSim.c_str(), X_OK) != 0) {
        if (err)
            *err = "worker binary " + _vipSim +
                   " is not executable: " + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace fleet
} // namespace vip
