/**
 * @file
 * Tests for the application catalog (Table 1), workload catalog
 * (Table 2), flow specs, GOP model and user-input models (Figs 5/6).
 */

#include <gtest/gtest.h>

#include "app/application.hh"
#include "app/user_input.hh"
#include "app/workload.hh"
#include "core/system_config.hh"
#include "sim/logging.hh"

namespace vip
{
namespace
{

std::vector<IpKind>
stagesOf(const AppSpec &a, std::size_t flow)
{
    return a.flows.at(flow).stages;
}

TEST(Table1, A1Game1Flows)
{
    auto a = AppCatalog::byIndex(1);
    EXPECT_EQ(a.name, "Game-1");
    ASSERT_EQ(a.flows.size(), 2u);
    EXPECT_EQ(stagesOf(a, 0),
              (std::vector<IpKind>{IpKind::GPU, IpKind::DC}));
    EXPECT_EQ(stagesOf(a, 1),
              (std::vector<IpKind>{IpKind::AD, IpKind::SND}));
}

TEST(Table1, A2ArGameFlows)
{
    auto a = AppCatalog::byIndex(2);
    ASSERT_EQ(a.flows.size(), 4u);
    EXPECT_EQ(stagesOf(a, 0),
              (std::vector<IpKind>{IpKind::GPU, IpKind::DC}));
    EXPECT_EQ(stagesOf(a, 1),
              (std::vector<IpKind>{IpKind::CPU, IpKind::VE,
                                   IpKind::NW}));
    EXPECT_EQ(stagesOf(a, 3),
              (std::vector<IpKind>{IpKind::MIC, IpKind::AE,
                                   IpKind::NW}));
}

TEST(Table1, A4SkypeFlows)
{
    auto a = AppCatalog::byIndex(4);
    ASSERT_EQ(a.flows.size(), 4u);
    EXPECT_EQ(stagesOf(a, 0),
              (std::vector<IpKind>{IpKind::CPU, IpKind::VD,
                                   IpKind::DC}));
    EXPECT_EQ(stagesOf(a, 1),
              (std::vector<IpKind>{IpKind::CAM, IpKind::VE,
                                   IpKind::NW}));
    EXPECT_EQ(a.cls, AppClass::VideoEncode);
}

TEST(Table1, A5VideoPlayerUses4kPerTable3)
{
    auto a = AppCatalog::byIndex(5);
    EXPECT_EQ(stagesOf(a, 0),
              (std::vector<IpKind>{IpKind::CPU, IpKind::VD,
                                   IpKind::DC}));
    // Table 3: Vid.Frame 4K (3840x2160) at 60 FPS.
    EXPECT_EQ(a.flows[0].edgeBytes[1],
              std::uint64_t(3840) * 2160 * 3 / 2);
    EXPECT_DOUBLE_EQ(a.flows[0].fps, 60.0);
}

TEST(Table1, A6VideoRecordFlows)
{
    auto a = AppCatalog::byIndex(6);
    ASSERT_EQ(a.flows.size(), 3u);
    EXPECT_EQ(stagesOf(a, 0),
              (std::vector<IpKind>{IpKind::CAM, IpKind::IMG,
                                   IpKind::DC}));
    EXPECT_EQ(stagesOf(a, 1),
              (std::vector<IpKind>{IpKind::CAM, IpKind::VE,
                                   IpKind::MMC}));
    // Table 3: camera frame 2560x1620.
    EXPECT_EQ(a.flows[0].edgeBytes[0],
              std::uint64_t(2560) * 1620 * 3 / 2);
}

TEST(Table1, EveryAppValidates)
{
    for (int i = 1; i <= 7; ++i)
        EXPECT_NO_THROW(AppCatalog::byIndex(i).validate()) << "A" << i;
    EXPECT_THROW(AppCatalog::byIndex(8), SimFatal);
}

TEST(Table1, EveryFlowEndsInASink)
{
    for (int i = 1; i <= 7; ++i) {
        for (const auto &f : AppCatalog::byIndex(i).flows)
            EXPECT_TRUE(ipIsSink(f.hwStages().back())) << f.name;
    }
}

TEST(Table2, WorkloadComposition)
{
    auto w1 = WorkloadCatalog::byIndex(1);
    EXPECT_EQ(w1.apps.size(), 2u); // 2 video players
    auto w2 = WorkloadCatalog::byIndex(2);
    EXPECT_EQ(w2.apps.size(), 3u); // 1 HD + 2 video
    auto w4 = WorkloadCatalog::byIndex(4);
    EXPECT_EQ(w4.apps[0].name.substr(0, 5), "Skype");
    auto w6 = WorkloadCatalog::byIndex(6);
    EXPECT_EQ(w6.apps[0].cls, AppClass::Game);
    EXPECT_EQ(w6.apps[1].cls, AppClass::AudioOnly);
    EXPECT_EQ(WorkloadCatalog::all().size(), 8u);
    EXPECT_THROW(WorkloadCatalog::byIndex(9), SimFatal);
}

TEST(Table2, InstanceNamesAreUnique)
{
    for (const auto &w : WorkloadCatalog::all()) {
        std::set<std::string> names;
        for (const auto &a : w.apps) {
            for (const auto &f : a.flows)
                EXPECT_TRUE(names.insert(f.name).second)
                    << w.name << ": duplicate flow " << f.name;
        }
    }
}

TEST(FlowSpec, PeriodFromFps)
{
    FlowSpec f;
    f.fps = 60.0;
    EXPECT_EQ(f.period(), fromSec(1.0 / 60.0));
}

TEST(FlowSpec, HwStagesDropCpu)
{
    auto a = AppCatalog::byIndex(5);
    auto hw = a.flows[0].hwStages();
    ASSERT_EQ(hw.size(), 2u);
    EXPECT_EQ(hw[0], IpKind::VD);
}

TEST(FlowSpec, ValidationCatchesBadShapes)
{
    FlowSpec f;
    f.name = "bad";
    f.stages = {IpKind::VD, IpKind::DC};
    f.edgeBytes = {1024}; // wrong arity
    EXPECT_THROW(f.validate(), SimFatal);

    f.edgeBytes = {1024, 0}; // zero edge
    EXPECT_THROW(f.validate(), SimFatal);

    f.stages = {IpKind::DC, IpKind::VD}; // sink mid-chain
    f.edgeBytes = {1024, 1024};
    EXPECT_THROW(f.validate(), SimFatal);

    f.stages = {IpKind::VD, IpKind::VD}; // no sink at the end
    EXPECT_THROW(f.validate(), SimFatal);
}

TEST(GopModel, IndependentFramesEveryGop)
{
    GopParams g;
    g.gopSize = 16;
    EXPECT_TRUE(g.isIndependent(0));
    EXPECT_FALSE(g.isIndependent(1));
    EXPECT_TRUE(g.isIndependent(32));
}

TEST(GopModel, IFramesAreLargerThanPFrames)
{
    GopParams g;
    std::uint64_t raw = 12_MiB;
    auto iSize = g.compressedBytes(raw, 0);
    auto pSize = g.compressedBytes(raw, 1);
    EXPECT_GT(iSize, pSize);
    EXPECT_NEAR(static_cast<double>(raw) / iSize, g.iCompression, 0.1);
    EXPECT_NEAR(static_cast<double>(raw) / pSize, g.pCompression, 0.1);
}

TEST(FlowSpec, FrameEdgesVaryWithGop)
{
    auto a = AppCatalog::byIndex(5);
    const auto &f = a.flows[0];
    auto i_edges = f.frameEdges(0);
    auto p_edges = f.frameEdges(1);
    EXPECT_GT(i_edges[0], p_edges[0]);
    EXPECT_EQ(i_edges[1], p_edges[1]); // decoded size constant
}

TEST(FlowSpec, BaselineMemBytesCountsStagingTraffic)
{
    FlowSpec f;
    f.name = "t";
    f.stages = {IpKind::CPU, IpKind::VD, IpKind::DC};
    f.edgeBytes = {100, 1000};
    // read 100 (VD in) + write 1000 (VD out) + read 1000 (DC in).
    EXPECT_EQ(f.baselineMemBytesPerFrame(), 100u + 2000u);
}

TEST(UserInput, FlappyGapsRespectPaperBounds)
{
    FlappyTapModel m;
    Random rng(11);
    int above_half = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        Tick gap = m.nextGap(rng);
        // "rapid successive clicks will be at least 0.15 sec apart"
        ASSERT_GE(gap, fromSec(0.13));
        above_half += gap > fromSec(0.5) ? 1 : 0;
    }
    // "most touches (>60%) above 0.5 seconds"
    EXPECT_GT(static_cast<double>(above_half) / n, 0.55);
}

TEST(UserInput, FlappyTapsAreInstant)
{
    FlappyTapModel m;
    Random rng(1);
    EXPECT_EQ(m.inputDuration(rng), 0u);
}

TEST(UserInput, FruitFlickGapsCoverLongTail)
{
    FruitFlickModel m;
    Random rng(12);
    bool sawLong = false;
    for (int i = 0; i < 5000; ++i) {
        Tick gap = m.nextGap(rng);
        ASSERT_GE(gap, fromSec(6.0 / 60.0)); // >= 6 frames
        if (gap > fromSec(2.0))
            sawLong = true; // >120-frame pauses exist (Fig 6b)
    }
    EXPECT_TRUE(sawLong);
}

TEST(UserInput, FruitFlicksTakeTime)
{
    FruitFlickModel m;
    Random rng(13);
    for (int i = 0; i < 100; ++i) {
        Tick d = m.inputDuration(rng);
        EXPECT_GE(d, fromSec(0.19));
        EXPECT_LE(d, fromSec(0.61));
    }
}

TEST(UserInput, FactorySelectsByAppName)
{
    EXPECT_STREQ(makeTouchModel("AR-Game.render")->name(),
                 "fruit-flick");
    EXPECT_STREQ(makeTouchModel("Game-1.render")->name(),
                 "flappy-tap");
}

TEST(CliNames, ConfigsAndWorkloadsRoundTrip)
{
    for (SystemConfig c : kAllConfigs) {
        EXPECT_EQ(systemConfigByCliName(systemConfigCliName(c)), c);
        EXPECT_EQ(systemConfigCliNameOf(systemConfigName(c)),
                  systemConfigCliName(c));
    }
    EXPECT_EQ(systemConfigCliNameOf("custom"), "custom");
    try {
        systemConfigByCliName("turbo");
        ADD_FAILURE() << "unknown config accepted";
    } catch (const SimFatal &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "(use baseline | frameburst | iptoip | "
                      "iptoip-fb | vip)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(WorkloadCatalog::byName("W4").name, "W4");
    EXPECT_EQ(WorkloadCatalog::byName("a3").name, "A3");
    EXPECT_THROW(WorkloadCatalog::byName("Z9"), SimFatal);
}

} // namespace
} // namespace vip
