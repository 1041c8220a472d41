#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace ccnuma
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFunction([&] { order.push_back(3); }, 30);
    eq.scheduleFunction([&] { order.push_back(1); }, 10);
    eq.scheduleFunction([&] { order.push_back(2); }, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleFunction([&order, i] { order.push_back(i); }, 7);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFunction([&] { order.push_back(2); }, 5, 200);
    eq.scheduleFunction([&] { order.push_back(1); }, 5, 50);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleFunction([] {}, 10);
    eq.run();
    EXPECT_THROW(eq.scheduleFunction([] {}, 5), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    EventFunction ev([] {});
    eq.schedule(&ev, 5);
    EXPECT_THROW(eq.schedule(&ev, 6), PanicError);
    eq.run();
}

TEST(EventQueue, DeschedulePreventsFiring)
{
    EventQueue eq;
    bool fired = false;
    EventFunction ev([&] { fired = true; });
    eq.schedule(&ev, 5);
    eq.deschedule(&ev);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleAfterDeschedule)
{
    EventQueue eq;
    int fired = 0;
    EventFunction ev([&] { ++fired; });
    eq.schedule(&ev, 5);
    eq.deschedule(&ev);
    eq.schedule(&ev, 8);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 8u);
}

TEST(EventQueue, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.scheduleFunction(
        [&] {
            ticks.push_back(eq.curTick());
            eq.scheduleFunctionIn(
                [&] { ticks.push_back(eq.curTick()); }, 5);
        },
        10);
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.scheduleFunction([&] { ++count; }, t);
    bool ok = eq.runUntil([&] { return count == 4; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(count, 4);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilLimitStops)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.scheduleFunction([&] { ++count; }, t);
    bool ok = eq.runUntil([&] { return false; }, 50);
    EXPECT_FALSE(ok);
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, ZeroDelaySelfSchedulingTerminates)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> fn = [&] {
        if (++depth < 100)
            eq.scheduleFunctionIn(fn, 0);
    };
    eq.scheduleFunctionIn(fn, 0);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, CountsProcessed)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleFunction([] {}, i);
    eq.run();
    EXPECT_EQ(eq.numProcessed(), 7u);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ScheduledEventDestroyedWhileUnwindingIsTolerated)
{
    // A still-scheduled event destroyed during exception unwinding
    // must not abort (that would mask the original error): its queue
    // entry is cancelled and the exception propagates.
    EventQueue eq;
    bool fired = false;
    struct Boom
    {
    };
    EXPECT_THROW(
        {
            EventFunction ev([&] { fired = true; }, "doomed");
            eq.schedule(&ev, 10);
            throw Boom{};
        },
        Boom);
    EXPECT_EQ(eq.numPending(), 0u);
    // The cancelled entry must never fire or touch the dead event.
    eq.run(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.numProcessed(), 0u);
}

// The overflow structure behind the wheel is a 64-epoch ring plus a
// far list for beyond-horizon timers; these tests pin its tier
// transitions (insert, deschedule, migrate, min queries) without
// caring which tier an event happens to land in.

/** One tick in each tier: wheel, epoch ring, far list. */
constexpr Tick kWheelTick = EventQueue::wheelTicks / 2;
constexpr Tick kRingTick = 3 * EventQueue::wheelTicks;
constexpr Tick kFarTick = 200 * EventQueue::wheelTicks;

TEST(EventQueueOverflow, FiresInOrderAcrossAllTiers)
{
    EventQueue eq;
    std::vector<Tick> order;
    auto at = [&](Tick t) {
        eq.scheduleFunction([&order, &eq] {
            order.push_back(eq.curTick());
        }, t);
    };
    // Scrambled inserts spanning every tier, including several epochs
    // of the ring and two beyond-horizon events that must be promoted
    // through the ring before firing.
    const std::vector<Tick> when = {
        kFarTick,     kWheelTick,    kRingTick,
        kFarTick + 1, 17,            63 * EventQueue::wheelTicks,
        kRingTick + 5, 5 * EventQueue::wheelTicks + 123,
        kFarTick + EventQueue::wheelTicks * 64};
    for (Tick t : when)
        at(t);
    eq.run();
    std::vector<Tick> sorted = when;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(order, sorted);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueueOverflow, NextWhenSeesEveryTier)
{
    EventQueue eq;
    eq.scheduleFunction([] {}, kFarTick);
    EXPECT_EQ(eq.nextWhen(), kFarTick);
    eq.scheduleFunction([] {}, kRingTick);
    EXPECT_EQ(eq.nextWhen(), kRingTick);
    eq.scheduleFunction([] {}, kWheelTick);
    EXPECT_EQ(eq.nextWhen(), kWheelTick);
}

TEST(EventQueueOverflow, DescheduleFromEachTierUpdatesMin)
{
    // Removing the current minimum from the ring or far list forces
    // the lazy min recompute; the next event to fire must still be
    // the true minimum of what remains.
    EventQueue eq;
    EventFunction wheel_ev([] {}, "wheel"), ring_ev([] {}, "ring"),
        far_ev([] {}, "far");
    eq.schedule(&wheel_ev, kWheelTick);
    eq.schedule(&ring_ev, kRingTick);
    eq.schedule(&far_ev, kFarTick);

    eq.deschedule(&wheel_ev);
    EXPECT_EQ(eq.nextWhen(), kRingTick);
    eq.deschedule(&ring_ev);
    EXPECT_EQ(eq.nextWhen(), kFarTick);

    bool fired = false;
    eq.scheduleFunction([&] { fired = true; }, kFarTick + 7);
    eq.deschedule(&far_ev);
    EXPECT_EQ(eq.nextWhen(), kFarTick + 7);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueueOverflow, SameTickFifoSurvivesMigration)
{
    // Events migrated out of the overflow tiers keep their original
    // scheduling sequence, so same-tick FIFO holds even when the
    // events spent time parked in different tiers.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        eq.scheduleFunction([&order, i] { order.push_back(i); },
                            kFarTick);
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueOverflow, SteadyStateHopsThroughRing)
{
    // A 64-tick self-rescheduling hop wraps the wheel every 16 steps
    // with a large parked far population; the run must stay linear in
    // fired events (this is the structure BM_WheelParkedOverflow
    // guards for throughput; here we pin the behavior).
    EventQueue eq;
    for (int i = 0; i < 512; ++i) {
        eq.scheduleFunction([] {},
                            kFarTick + static_cast<Tick>(i) * 64);
    }
    std::uint64_t hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 1000)
            eq.scheduleFunction(hop, eq.curTick() + 64);
    };
    eq.scheduleFunction(hop, 64);
    eq.run(64 * 1000);
    EXPECT_EQ(hops, 1000u);
    // The parked events are all still pending and still ordered.
    EXPECT_EQ(eq.numPending(), 512u);
    EXPECT_EQ(eq.nextWhen(), kFarTick);
}

TEST(EventQueueOverflow, RunLimitLeavesParkedEventsParked)
{
    // Stepping a queue with run(limit) while only a far event is
    // pending must not advance the wheel to it: an event scheduled
    // afterwards at a nearer tick has to fire first, on time.
    for (bool until : {false, true}) {
        SCOPED_TRACE(until ? "runUntil" : "run");
        EventQueue eq;
        std::vector<Tick> order;
        auto at = [&](Tick t) {
            eq.scheduleFunction([&order, &eq] {
                order.push_back(eq.curTick());
            }, t);
        };
        at(kFarTick);
        for (Tick limit = 100; limit <= 400; limit += 100) {
            if (until)
                eq.runUntil([] { return false; }, limit);
            else
                eq.run(limit);
            EXPECT_TRUE(order.empty());
        }
        at(kRingTick);
        at(500);
        eq.run();
        EXPECT_EQ(order, (std::vector<Tick>{500, kRingTick, kFarTick}));
    }
}

TEST(EventQueue, ThrowingOneShotDoesNotLeak)
{
    // A one-shot whose callback throws is still reclaimed by the
    // queue (scope guard in step()); under ASan/LSan a leak here
    // fails the test binary.
    EventQueue eq;
    struct Boom
    {
    };
    eq.scheduleFunction([] { throw Boom{}; }, 5);
    EXPECT_THROW(eq.run(), Boom);
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueue, ExternalKeysOrderIndependentOfInsertion)
{
    // Cross-queue work (network arrivals, sync grants) carries an
    // explicit (priority, schedTick, ctx, seq) key; its same-tick
    // firing order must follow that key whatever order it was
    // injected in, and its fire-context must be current while it
    // runs. This is what makes sharded runs match serial ones.
    struct Ext
    {
        int priority;
        Tick schedTick;
        std::uint32_t ctx;
        std::uint64_t seq;
        std::uint32_t fireCtx;
    };
    const std::vector<Ext> in_key_order = {
        {50, 3, 2, 0, 1}, {50, 7, 0, 4, 2}, {50, 7, 1, 0, 3},
        {50, 7, 1, 2, 0}, {100, 0, 3, 9, 3}, {100, 4, 0, 1, 1},
    };
    auto fire = [&](const std::vector<std::size_t> &insertion) {
        EventQueue eq;
        eq.setNumContexts(4);
        std::vector<std::pair<std::size_t, std::uint32_t>> fired;
        for (std::size_t i : insertion) {
            const Ext &e = in_key_order[i];
            eq.scheduleExternal(
                [&fired, &eq, i] {
                    fired.emplace_back(i, eq.context());
                },
                20, e.priority, "ext", e.schedTick, e.ctx, e.seq,
                e.fireCtx);
        }
        eq.run();
        EXPECT_EQ(eq.curTick(), 20u);
        return fired;
    };

    std::vector<std::size_t> order(in_key_order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<std::pair<std::size_t, std::uint32_t>> expected;
    for (std::size_t i : order)
        expected.emplace_back(i, in_key_order[i].fireCtx);

    EXPECT_EQ(fire(order), expected);
    std::reverse(order.begin(), order.end());
    EXPECT_EQ(fire(order), expected);
    EXPECT_EQ(fire({3, 0, 5, 1, 4, 2}), expected);
}

TEST(EventQueue, RunWindowStopsBeforeEndAndResumesIdentically)
{
    // The sharded scheduler advances each queue one window at a
    // time: runWindow(end) fires everything strictly before end,
    // including children spawned inside the window, and leaves the
    // rest pending. Running in windows must fire the same events at
    // the same ticks as one uninterrupted run.
    auto seed = [](EventQueue &q, std::vector<std::pair<Tick, int>> &f) {
        for (int i = 0; i < 12; ++i) {
            q.scheduleFunction(
                [&f, &q, i] {
                    f.emplace_back(q.curTick(), i);
                    if (i % 2 == 1) {
                        q.scheduleFunction(
                            [&f, &q, i] {
                                f.emplace_back(q.curTick(), 100 + i);
                            },
                            q.curTick() + 4);
                    }
                },
                static_cast<Tick>(i) * 3);
        }
    };

    EventQueue whole;
    std::vector<std::pair<Tick, int>> once;
    seed(whole, once);
    whole.run();

    EventQueue windowed;
    std::vector<std::pair<Tick, int>> fired;
    seed(windowed, fired);
    windowed.runWindow(10);
    ASSERT_FALSE(fired.empty());
    for (const auto &[tick, id] : fired)
        EXPECT_LT(tick, 10u) << "event " << id;
    EXPECT_FALSE(windowed.empty());
    EXPECT_GE(windowed.nextWhen(), 10u);
    for (Tick end = 20; !windowed.empty(); end += 10)
        windowed.runWindow(end);

    EXPECT_EQ(fired, once);
    EXPECT_EQ(windowed.numProcessed(), whole.numProcessed());
}

} // namespace
} // namespace ccnuma
