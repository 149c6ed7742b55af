/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace vip
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ServicesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTieBeforeInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.schedule(50, [&] { order.push_back(0); },
                EventPriority::ClockTick);
    eq.schedule(50, [&] { order.push_back(2); },
                EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [&] {
        EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
    });
    eq.run();
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(100, [&] { ran = true; });
    eq.deschedule(id);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, DescheduleIsIdempotentAndSafeAfterRun)
{
    EventQueue eq;
    int runs = 0;
    EventId id = eq.schedule(10, [&] { ++runs; });
    eq.run();
    EXPECT_EQ(runs, 1);
    eq.deschedule(id); // already ran: harmless
    eq.deschedule(id);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelledEventDoesNotAdvanceTime)
{
    EventQueue eq;
    EventId id = eq.schedule(1000, [] {});
    eq.schedule(2000, [] {});
    eq.deschedule(id);
    eq.serviceOne();
    EXPECT_EQ(eq.curTick(), 2000u);
}

TEST(EventQueue, RunUntilStopsAtLimitAndAdvancesTime)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(100, [&] { ++ran; });
    eq.schedule(300, [&] { ++ran; });
    Tick t = eq.runUntil(200);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(t, 200u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(400);
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, EventExactlyAtLimitRuns)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(200, [&] { ran = true; });
    eq.runUntil(200);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recur = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, recur);
    };
    eq.schedule(0, recur);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 99u);
    EXPECT_EQ(eq.servicedEvents(), 100u);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelledEntriesDoNotAccumulate)
{
    // Regression: descheduling used to leave a tombstone per
    // cancelled id forever.  Schedule/deschedule 100k events and
    // check the heap holds exactly the live population throughout.
    EventQueue eq;
    std::vector<EventId> live;
    for (int i = 0; i < 100'000; ++i) {
        EventId id = eq.schedule(1'000'000 + i, [] {});
        ASSERT_EQ(eq.heapSize(), eq.pending()) << "after schedule " << i;
        if (i % 10 == 9) {
            live.push_back(id); // keep 10% alive
        } else {
            eq.deschedule(id);
            ASSERT_EQ(eq.heapSize(), eq.pending())
                << "after cancel " << i;
        }
    }
    EXPECT_EQ(eq.pending(), live.size());

    // Draining by cancellation alone must also empty the heap.
    for (EventId id : live) {
        eq.deschedule(id);
        ASSERT_EQ(eq.heapSize(), eq.pending());
    }
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST(EventQueue, ServicingAlsoCompactsDeadEntries)
{
    // Dead entries can come to dominate without any further
    // deschedule() call when serviceOne() shrinks the live set.
    EventQueue eq;
    std::vector<EventId> doomed;
    for (int i = 0; i < 500; ++i)
        eq.schedule(10'000 + i, [] {});
    for (int i = 0; i < 400; ++i)
        doomed.push_back(eq.schedule(20'000 + i, [] {}));
    for (EventId id : doomed)
        eq.deschedule(id);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_LE(eq.heapSize(), 64u);
}

/** Pool slot an id names (the low EventQueue::kSlotBits). */
std::uint64_t
slotOf(EventId id)
{
    return id & ((std::uint64_t(1) << EventQueue::kSlotBits) - 1);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsInert)
{
    EventQueue eq;
    int ranOld = 0;
    int ranNew = 0;
    EventId old = eq.schedule(10, [&] { ++ranOld; });
    eq.deschedule(old);
    EventId reuse = eq.schedule(20, [&] { ++ranNew; });
    ASSERT_EQ(slotOf(reuse), slotOf(old));
    ASSERT_NE(reuse, old);

    EXPECT_FALSE(eq.isLive(old));
    EXPECT_TRUE(eq.isLive(reuse));
    eq.deschedule(old); // must not cancel the slot's new occupant
    EXPECT_TRUE(eq.isLive(reuse));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.scheduledWhen(reuse), 20u);
    eq.run();
    EXPECT_EQ(ranOld, 0);
    EXPECT_EQ(ranNew, 1);
    EXPECT_FALSE(eq.isLive(reuse));
}

TEST(EventQueue, CallbackDeschedulesItselfThenReusesItsSlot)
{
    EventQueue eq;
    EventId self = InvalidEventId;
    EventId next = InvalidEventId;
    int ranNext = 0;
    self = eq.schedule(10, [&] {
        EXPECT_FALSE(eq.isLive(self)); // already being serviced
        eq.deschedule(self);           // harmless
        next = eq.schedule(20, [&] { ++ranNext; });
    });
    eq.run();
    EXPECT_EQ(slotOf(next), slotOf(self));
    EXPECT_EQ(ranNext, 1);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.servicedEvents(), 2u);
}

/** Counts its own destructions (move-only capture probe). */
struct DtorProbe
{
    explicit DtorProbe(int &n) : dtors(n) {}
    ~DtorProbe() { ++dtors; }
    int &dtors;
};

TEST(EventQueue, MoveOnlyCaptureRunsOnceAndIsDestroyedOnce)
{
    int runs = 0;
    int serviced = 0;
    int cancelled = 0;
    int abandoned = 0;
    {
        EventQueue eq;
        eq.schedule(10, [p = std::make_unique<DtorProbe>(serviced),
                         &runs] { ++runs; });
        EventId c =
            eq.schedule(20, [p = std::make_unique<DtorProbe>(cancelled),
                             &runs] { ++runs; });
        eq.schedule(30, [p = std::make_unique<DtorProbe>(abandoned),
                         &runs] { ++runs; });
        // Growing the pool relocates the pending captures.
        for (int i = 0; i < 100; ++i)
            eq.schedule(5, [] {});
        eq.deschedule(c);
        EXPECT_EQ(cancelled, 1);
        eq.runUntil(25);
        EXPECT_EQ(runs, 1);
        EXPECT_EQ(serviced, 1);
        EXPECT_EQ(abandoned, 0);
        EXPECT_EQ(eq.pending(), 1u);
    }
    // Still pending when the queue died: destroyed, never run.
    EXPECT_EQ(abandoned, 1);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(serviced, 1);
    EXPECT_EQ(cancelled, 1);
}

TEST(EventQueue, DifferentialAgainstOrderedSet)
{
    // ~100k random schedule/deschedule/serviceOne operations, checked
    // against a std::set of (when, prio, seq): service order,
    // pending(), isLive() and scheduledWhen() must all agree.  Some
    // callbacks schedule more events, growing the pool mid-dispatch.
    using Ref = std::tuple<Tick, int, std::uint64_t>;
    struct Issued
    {
        EventId id;
        Ref key;
        bool live;
    };
    constexpr EventPriority kPrios[] = {
        EventPriority::ClockTick, EventPriority::Default,
        EventPriority::Stats, EventPriority::Audit,
        EventPriority::Teardown};

    EventQueue eq;
    std::mt19937_64 rng(20151013);
    std::set<Ref> ref;
    std::vector<Issued> issued;
    std::uint64_t fired = ~std::uint64_t(0);
    std::vector<AuditViolation> sink;

    std::function<void()> scheduleOne = [&] {
        const Tick when = eq.curTick() + rng() % 2000;
        const EventPriority prio = kPrios[rng() % std::size(kPrios)];
        const std::uint64_t seq = issued.size();
        const bool spawns = rng() % 8 == 0;
        const EventId id = eq.schedule(
            when,
            [&fired, &scheduleOne, seq, spawns] {
                fired = seq;
                if (spawns)
                    scheduleOne();
            },
            prio);
        const Ref key{when, static_cast<int>(prio), seq};
        issued.push_back(Issued{id, key, true});
        ref.insert(key);
    };

    for (int op = 0; op < 100'000; ++op) {
        const auto dice = rng() % 8;
        if (dice < 4) {
            scheduleOne();
        } else if (dice < 6 && !issued.empty()) {
            // Any id ever issued: live, serviced or cancelled.
            Issued &e = issued[rng() % issued.size()];
            if (e.live) {
                ref.erase(e.key);
                e.live = false;
            }
            eq.deschedule(e.id);
        } else if (ref.empty()) {
            ASSERT_FALSE(eq.serviceOne());
        } else {
            const Ref next = *ref.begin();
            ref.erase(ref.begin());
            issued[std::get<2>(next)].live = false;
            ASSERT_TRUE(eq.serviceOne());
            ASSERT_EQ(fired, std::get<2>(next)) << "op " << op;
            ASSERT_EQ(eq.curTick(), std::get<0>(next));
        }
        ASSERT_EQ(eq.pending(), ref.size()) << "op " << op;
        if (!issued.empty()) {
            const Issued &e = issued[rng() % issued.size()];
            ASSERT_EQ(eq.isLive(e.id), e.live) << "op " << op;
            if (e.live) {
                ASSERT_EQ(eq.scheduledWhen(e.id), std::get<0>(e.key));
            }
        }
        if (op % 5000 == 0) {
            AuditContext ctx("eventq", eq.curTick(), /*strict=*/true,
                             sink);
            eq.auditInvariants(ctx);
        }
    }
    EXPECT_TRUE(sink.empty());
}

TEST(EventQueue, AuditInvariantsHoldUnderChurn)
{
    EventQueue eq;
    std::vector<AuditViolation> sink;
    std::vector<EventId> ids;
    for (int i = 0; i < 10'000; ++i)
        ids.push_back(eq.schedule(100 + i, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 3)
        eq.deschedule(ids[i]);
    AuditContext ctx("eventq", eq.curTick(), /*strict=*/true, sink);
    eq.auditInvariants(ctx); // strict: throws on violation
    EXPECT_TRUE(sink.empty());

    StateDigest a, b;
    eq.stateDigest(a);
    eq.stateDigest(b);
    EXPECT_EQ(a.value(), b.value());
}

TEST(EventQueue, DigestReflectsProgress)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    StateDigest before;
    eq.stateDigest(before);
    eq.run();
    StateDigest after;
    eq.stateDigest(after);
    EXPECT_NE(before.value(), after.value());
}

TEST(EventQueue, ManyEventsStressDeterminism)
{
    // Two identical queues fed the same schedule must service events
    // identically (the whole simulator depends on this).
    auto runOnce = [] {
        EventQueue eq;
        std::vector<std::uint64_t> log;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            Tick when = (i * 7919) % 4096;
            eq.schedule(when, [&log, i] { log.push_back(i); });
        }
        eq.run();
        return log;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

} // namespace
} // namespace vip
