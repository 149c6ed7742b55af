#include "fleet/worker.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace vip
{
namespace fleet
{

WorkerProcess::WorkerProcess(WorkerProcess &&o) noexcept : _pid(o._pid)
{
    o._pid = -1;
}

WorkerProcess &
WorkerProcess::operator=(WorkerProcess &&o) noexcept
{
    if (this != &o) {
        WorkerProcess gone(std::move(*this)); // reaps our old child
        _pid = o._pid;
        o._pid = -1;
    }
    return *this;
}

WorkerProcess::~WorkerProcess()
{
    if (_pid > 0) {
        ::kill(_pid, SIGKILL);
        int status = 0;
        ::waitpid(_pid, &status, 0);
    }
}

bool
WorkerProcess::start(const std::string &binary, const std::string &dir,
                     const std::vector<std::string> &args,
                     std::string *err)
{
    std::error_code ec;
    fs::create_directories(dir + "/" + attempt_files::kPmDir, ec);
    if (ec) {
        *err = "cannot create " + dir + ": " + ec.message();
        return false;
    }
    const std::string logPath = dir + "/" + attempt_files::kLog;
    const int logFd = ::open(logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logFd < 0) {
        *err = "cannot open " + logPath + ": " + std::strerror(errno);
        return false;
    }

    const fs::path abs = fs::absolute(binary, ec);
    const std::string exe = ec ? binary : abs.string();
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(logFd);
        *err = std::string("fork failed: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        if (::chdir(dir.c_str()) != 0)
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
    _pid = pid;
    return true;
}

bool
WorkerProcess::reap(WorkerExit *exit)
{
    int status = 0;
    const pid_t r = ::waitpid(_pid, &status, WNOHANG);
    if (r == 0)
        return false;
    *exit = WorkerExit();
    _pid = -1;
    if (r < 0) {
        exit->error = std::string("waitpid: ") + std::strerror(errno);
    } else if (WIFSIGNALED(status)) {
        exit->termSignal = WTERMSIG(status);
        exit->error =
            "killed by signal " + std::to_string(exit->termSignal);
    } else if (WEXITSTATUS(status) != 0) {
        exit->error = "exit code " + std::to_string(WEXITSTATUS(status));
    } else {
        exit->ok = true;
    }
    return true;
}

void
WorkerProcess::signal(int sig)
{
    if (_pid > 0)
        ::kill(_pid, sig);
}

long
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long>(st.st_size);
}

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

bool
renameOver(const std::string &tmp, const std::string &path,
           std::string *err)
{
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        *err = "rename " + tmp + " -> " + path + ": " + ec.message();
    return !ec;
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string *err)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            *err = "cannot open " + tmp;
            return false;
        }
        os.write(content.data(),
                 static_cast<std::streamsize>(content.size()));
        os.flush();
        if (!os) {
            *err = "short write on " + tmp;
            return false;
        }
    }
    return renameOver(tmp, path, err);
}

bool
copyFileAtomic(const std::string &src, const std::string &dst,
               std::string *err)
{
    const std::string tmp = dst + ".tmp";
    std::error_code ec;
    fs::copy_file(src, tmp, fs::copy_options::overwrite_existing, ec);
    if (ec) {
        *err = "copy " + src + " -> " + tmp + ": " + ec.message();
        return false;
    }
    return renameOver(tmp, dst, err);
}

} // namespace fleet
} // namespace vip
