/**
 * @file
 * The application catalog of Table 1.
 *
 * Each AppSpec bundles the flows an application runs concurrently,
 * its class (which selects the frame-burst sizing policy of Section
 * 4.3), and the per-frame software cost model.
 */

#ifndef VIP_APP_APPLICATION_HH
#define VIP_APP_APPLICATION_HH

#include <string>
#include <vector>

#include "app/flow.hh"

namespace vip
{

/** Application classes of Section 4.3. */
enum class AppClass : std::uint8_t
{
    VideoPlayback, ///< video playing/streaming apps
    VideoEncode,   ///< recording, Skype, Hangout ("recording" apps)
    Game,          ///< touch / flick based games
    AudioOnly,     ///< music playback
};

const char *appClassName(AppClass c);

/** An application: a named set of flows plus its burst class. */
struct AppSpec
{
    std::string name;
    AppClass cls = AppClass::VideoPlayback;
    std::vector<FlowSpec> flows;

    void
    validate() const
    {
        for (const auto &f : flows)
            f.validate();
    }
};

/**
 * Factory for the Table 1 applications.  Video resolution defaults to
 * 1080p; Table 3's 4K frames are used by the "HD" variants (workload
 * W2 and the motivation experiments of Figs 2-3).
 */
class AppCatalog
{
  public:
    /** A1: Game-1 — GPU-DC; AD-SND. */
    static AppSpec game1();

    /** A2: AR-Game — GPU-DC; CPU-VE-NW; AD-SND; MIC-AE-NW. */
    static AppSpec arGame();

    /** A3: Audio-Play — CPU-AD-SND; CPU-DC. */
    static AppSpec audioPlay();

    /** A4: Skype — CPU-VD-DC; CAM-VE-NW; AD-SND; MIC-AE-NW. */
    static AppSpec skype();

    /** A5: Video Player — CPU-VD-DC; AD-SND (Table 3: 4K frames). */
    static AppSpec videoPlayer(Resolution res = resolutions::r4k,
                               double fps = 60.0,
                               const std::string &name = "VideoPlay");

    /** A6: Video Record — CAM-IMG-DC; CAM-VE-MMC; MIC-AE-MMC. */
    static AppSpec videoRecord();

    /** A7: YouTube — CPU-VD-DC; AD-SND (streamed playback). */
    static AppSpec youtube();

    /** By index 1..7 (A1..A7). */
    static AppSpec byIndex(int i);

    /**
     * The instrumented Grafika player of the motivation study
     * (Figure 1): CPU-VD-GPU-DC with a render/composition pass, at
     * the given resolution and rate.  bench_paper runs it for Figs 2-3.
     */
    static AppSpec grafikaPlayer(Resolution res = resolutions::r4k,
                                 double fps = 60.0,
                                 const std::string &name = "Grafika");

    /** Helper: the audio playback flow (AD - SND). */
    static FlowSpec audioFlow(const std::string &name,
                              bool fromCpu = false);

    /** Helper: the microphone capture flow (MIC - AE - <sink>). */
    static FlowSpec micFlow(const std::string &name, IpKind sink);
};

} // namespace vip

#endif // VIP_APP_APPLICATION_HH
