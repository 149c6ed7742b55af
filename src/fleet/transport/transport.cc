#include "fleet/transport/transport.hh"

#include <sys/stat.h>

#include <chrono>

namespace vip
{
namespace fleet
{

double
steadyWallMs()
{
    // One process-wide epoch so every transport's stamps compare.
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

const std::vector<std::string> &
attemptArtifactNames()
{
    static const std::vector<std::string> names{
        attempt_files::kStats, attempt_files::kMetrics,
        attempt_files::kDigest, attempt_files::kCheckpoint,
        attempt_files::kLog};
    return names;
}

bool
localManifest(const std::string &attemptDir, ArtifactManifest *out,
              std::string *err)
{
    struct stat st;
    if (::stat(attemptDir.c_str(), &st) != 0) {
        if (err)
            *err = "attempt directory " + attemptDir + " is gone";
        return false;
    }
    out->clear();
    for (const std::string &name : attemptArtifactNames()) {
        Artifact a;
        a.name = name;
        a.localPath = attemptDir + "/" + name;
        bool ok = false;
        const std::uint64_t h = fnv1aFile(a.localPath, &ok);
        a.present = ok;
        a.fnv = ok ? h : 0;
        out->push_back(std::move(a));
    }
    return true;
}

} // namespace fleet
} // namespace vip
