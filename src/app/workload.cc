#include "app/workload.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace vip
{

namespace
{

/** Clone an app under a unique instance name. */
AppSpec
instance(AppSpec a, const std::string &suffix)
{
    a.name += suffix;
    for (auto &f : a.flows)
        f.name += suffix;
    return a;
}

} // namespace

Workload
WorkloadCatalog::byIndex(int i)
{
    Workload w;
    switch (i) {
      case 1:
        w.name = "W1";
        w.useCase = "Concurrent multiple Video Playback from disk";
        w.apps = {instance(AppCatalog::videoPlayer(), "#0"),
                  instance(AppCatalog::videoPlayer(), "#1")};
        break;
      case 2:
        w.name = "W2";
        w.useCase = "Concurrent multiple Video Playback (1 HD + 2)";
        w.apps = {
            instance(AppCatalog::videoPlayer(resolutions::r4k, 60.0,
                                             "HD-Video"),
                     "#0"),
            instance(AppCatalog::videoPlayer(resolutions::r1080p),
                     "#1"),
            instance(AppCatalog::videoPlayer(resolutions::r1080p),
                     "#2"),
        };
        break;
      case 3:
        w.name = "W3";
        w.useCase = "Youtube video played with video on disk";
        w.apps = {instance(AppCatalog::videoPlayer(), "#0"),
                  instance(AppCatalog::youtube(), "#1")};
        break;
      case 4:
        w.name = "W4";
        w.useCase = "Watching video while teleconferencing";
        w.apps = {instance(AppCatalog::skype(), "#0"),
                  instance(AppCatalog::videoPlayer(), "#1")};
        break;
      case 5:
        w.name = "W5";
        w.useCase = "Online multi-player gaming";
        w.apps = {instance(AppCatalog::game1(), "#0"),
                  instance(AppCatalog::skype(), "#1")};
        break;
      case 6:
        w.name = "W6";
        w.useCase = "Music playback from disk while gaming";
        w.apps = {instance(AppCatalog::arGame(), "#0"),
                  instance(AppCatalog::audioPlay(), "#1")};
        break;
      case 7:
        w.name = "W7";
        w.useCase = "Recording while playing another video";
        w.apps = {instance(AppCatalog::videoPlayer(), "#0"),
                  instance(AppCatalog::videoRecord(), "#1")};
        break;
      case 8:
        w.name = "W8";
        w.useCase = "Multiplayer gaming with video-streaming";
        w.apps = {instance(AppCatalog::videoPlayer(), "#0"),
                  instance(AppCatalog::arGame(), "#1")};
        break;
      default:
        fatal("no workload W", i);
    }
    return w;
}

std::vector<Workload>
WorkloadCatalog::all()
{
    std::vector<Workload> out;
    out.reserve(8);
    for (int i = 1; i <= 8; ++i)
        out.push_back(byIndex(i));
    return out;
}

Workload
WorkloadCatalog::single(int app_index)
{
    Workload w;
    w.name = 'A' + std::to_string(app_index);
    w.apps = {AppCatalog::byIndex(app_index)};
    w.useCase = "single application " + w.apps[0].name;
    return w;
}

Workload
WorkloadCatalog::byName(const std::string &name)
{
    if (name.size() >= 2 && (name[0] == 'A' || name[0] == 'a'))
        return single(std::atoi(&name[1]));
    if (name.size() >= 2 && (name[0] == 'W' || name[0] == 'w'))
        return byIndex(std::atoi(&name[1]));
    fatal("unknown workload '", name, "' (use A1..A7 or W1..W8)");
}

} // namespace vip
