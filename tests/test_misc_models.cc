/**
 * @file
 * Tests for the SRAM (CACTI-stand-in) model, energy accounting,
 * frame tracing and the software stack.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "app/trace.hh"
#include "driver/software_stack.hh"
#include "power/energy_account.hh"
#include "power/sram_model.hh"
#include "test_util.hh"

namespace vip
{
namespace
{

TEST(SramModel, EnergyAndAreaGrowWithCapacity)
{
    double prevE = 0.0, prevA = 0.0;
    for (std::uint64_t kb = 1; kb <= 64; kb *= 2) {
        auto est = SramModel::forCapacity(kb * 1024);
        EXPECT_GT(est.readEnergyNj, prevE);
        EXPECT_GT(est.areaMm2, prevA);
        EXPECT_GT(est.leakageWatts, 0.0);
        prevE = est.readEnergyNj;
        prevA = est.areaMm2;
    }
}

TEST(SramModel, MatchesFig14bEndpoints)
{
    // Fig 14b plots ~0.065 nJ / ~0.35 mm^2 at 64 KB and well under
    // 0.01 nJ / 0.01 mm^2 at 0.5 KB.
    auto big = SramModel::forCapacity(64_KiB);
    EXPECT_NEAR(big.readEnergyNj, 0.065, 0.01);
    EXPECT_NEAR(big.areaMm2, 0.35, 0.05);
    auto small = SramModel::forCapacity(512);
    EXPECT_LT(small.readEnergyNj, 0.012);
    EXPECT_LT(small.areaMm2, 0.01);
}

TEST(SramModel, WritesCostSlightlyMoreThanReads)
{
    auto est = SramModel::forCapacity(2048);
    EXPECT_GT(est.writeEnergyNj, est.readEnergyNj);
    EXPECT_LT(est.writeEnergyNj, est.readEnergyNj * 1.5);
}

TEST(SramModel, AccessEnergyScalesWithBytes)
{
    auto est = SramModel::forCapacity(2048);
    double one = est.readNj(64);
    double many = est.readNj(1024);
    EXPECT_NEAR(many / one, 16.0, 0.01);
    // One access per started 64 B, and at least one.
    EXPECT_EQ(est.readNj(0), est.readEnergyNj);
    EXPECT_EQ(est.readNj(65), 2 * est.readEnergyNj);
    EXPECT_EQ(est.writeNj(1024), 16 * est.writeEnergyNj);
}

TEST(EnergyAccount, IntegratesPowerOverTime)
{
    EnergyAccount acc("t");
    acc.setPower(2.0, 0);            // 2 W from t=0
    acc.setPower(0.0, fromSec(1));   // off after 1 s
    acc.close(fromSec(2));
    // 2 W * 1 s = 2 J = 2e9 nJ.
    EXPECT_DOUBLE_EQ(acc.staticNj(), 2e9);
}

TEST(EnergyAccount, DynamicEventsAccumulate)
{
    EnergyAccount acc("t");
    acc.addDynamicNj(5.0);
    acc.addDynamicNj(7.0);
    EXPECT_DOUBLE_EQ(acc.dynamicNj(), 12.0);
    EXPECT_DOUBLE_EQ(acc.totalNj(), 12.0);
}

TEST(EnergyLedger, CategoriesSumToTotal)
{
    EnergyLedger ledger;
    ledger.account("cpu", "c0").addDynamicNj(10.0);
    ledger.account("cpu", "c1").addDynamicNj(20.0);
    ledger.account("dram", "m").addDynamicNj(5.0);
    EXPECT_DOUBLE_EQ(ledger.categoryNj("cpu"), 30.0);
    EXPECT_DOUBLE_EQ(ledger.categoryNj("dram"), 5.0);
    EXPECT_DOUBLE_EQ(ledger.categoryNj("nope"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.totalNj(), 35.0);
    EXPECT_EQ(ledger.categories().size(), 2u);
}

TEST(EnergyLedger, AccountIsStable)
{
    EnergyLedger ledger;
    auto &a = ledger.account("ip", "vd");
    auto &b = ledger.account("ip", "vd");
    EXPECT_EQ(&a, &b);
}

TEST(FrameTrace, AggregatesViolationsAndDrops)
{
    FrameTrace t;
    FrameEvent e;
    e.started = fromMs(1);
    e.completed = fromMs(5);
    t.record(e);
    e.violated = true;
    t.record(e);
    e.dropped = true;
    t.record(e);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.countViolations(), 2u);
    EXPECT_EQ(t.countDrops(), 1u);
    EXPECT_DOUBLE_EQ(t.meanFlowTimeMs(), 4.0);
}

TEST(FrameTrace, CsvRoundTrip)
{
    FrameTrace t;
    for (int i = 0; i < 5; ++i) {
        FrameEvent e;
        e.flowId = 3;
        e.flowName = "VideoPlay.video#0";
        e.frameId = i;
        e.generated = fromMs(i * 16.0);
        e.started = e.generated + fromMs(1);
        e.completed = e.started + fromMs(10);
        e.deadline = e.generated + fromMs(20);
        e.violated = i % 2 == 0;
        e.dropped = i == 4;
        t.record(e);
    }
    std::stringstream ss;
    t.dumpCsv(ss);
    FrameTrace back = FrameTrace::loadCsv(ss);
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back.events()[i].frameId, t.events()[i].frameId);
        EXPECT_EQ(back.events()[i].completed, t.events()[i].completed);
        EXPECT_EQ(back.events()[i].violated, t.events()[i].violated);
        EXPECT_EQ(back.events()[i].flowName, t.events()[i].flowName);
    }
    EXPECT_EQ(back.countDrops(), 1u);
}

TEST(FrameTrace, EmptyCsvGivesEmptyTrace)
{
    std::stringstream ss;
    EXPECT_TRUE(FrameTrace::loadCsv(ss).empty());
}

class StackTest : public test::PlatformFixture
{
  protected:
    void
    SetUp() override
    {
        buildPlatform(true);
        cluster = std::make_unique<CpuCluster>(*sys, "t.cpu",
                                               CpuConfig{}, 2, *ledger);
        stack = std::make_unique<SoftwareStack>(*cluster,
                                                DriverCosts{});
    }

    std::unique_ptr<CpuCluster> cluster;
    std::unique_ptr<SoftwareStack> stack;
};

TEST_F(StackTest, RunTaskConsumesCpuTime)
{
    Tick done = 0;
    stack->runTask(1'300'000, [&] { done = sys->curTick(); });
    run();
    // 1.3 M instr at 1.3 GHz = 1 ms.
    EXPECT_NEAR(toMs(done), 1.0, 0.01);
}

TEST_F(StackTest, InterruptChargesIsrCost)
{
    Tick done = 0;
    stack->raiseInterrupt([&] { done = sys->curTick(); });
    run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(cluster->totalInterrupts(), 1u);
}

TEST_F(StackTest, SubmitWithRetryDrainsInOrder)
{
    IpParams p = defaultIpParams(IpKind::VD);
    p.clockHz = 1e9;
    p.bytesPerCycle = 4.0;
    p.hwQueueDepth = 2;
    IpCore ip(*sys, "t.ip", p, *sa, *ledger);

    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        StageJob j;
        j.inputBytes = 64_KiB;
        j.outputBytes = 0;
        j.readsMemory = false;
        j.writesMemory = false;
        j.onComplete = [&order, i] { order.push_back(i); };
        stack->submitWithRetry(ip, std::move(j));
    }
    // Hardware queue holds 2 + 1 running; the rest wait in software.
    EXPECT_GT(stack->softwareQueueLength(ip), 0u);
    run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(stack->softwareQueueLength(ip), 0u);
}

} // namespace
} // namespace vip
