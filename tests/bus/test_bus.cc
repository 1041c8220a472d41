#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "bus/bus.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace ccnuma
{
namespace
{

/** Scriptable snooping agent. */
struct MockAgent : BusAgent
{
    SnoopResult snoopReply = SnoopResult::None;
    std::uint64_t supplyVersion = 0;
    std::vector<BusTxn> snooped;
    std::vector<BusTxn> done;

    SnoopResult
    busSnoop(BusTxn &txn) override
    {
        snooped.push_back(txn);
        if (snoopReply == SnoopResult::DirtySupply ||
            snoopReply == SnoopResult::SharedSupply) {
            txn.dataVersion = supplyVersion;
        }
        return snoopReply;
    }

    void busDone(BusTxn &txn) override { done.push_back(txn); }
};

/** Scriptable coherence hook. */
struct MockHook : BusCoherenceHook
{
    SupplyDecision decision = SupplyDecision::Memory;
    bool followCacheSnoop = true;
    std::vector<BusTxn> observed;
    std::vector<std::pair<BusTxn, Tick>> captured;

    SupplyDecision
    busObserve(BusTxn &txn, SnoopResult combined) override
    {
        observed.push_back(txn);
        if (followCacheSnoop &&
            combined == SnoopResult::DirtySupply &&
            txn.cmd != BusCmd::WriteBack) {
            return SupplyDecision::Cache;
        }
        return decision;
    }

    void
    busCaptureWriteBack(BusTxn &txn, Tick t) override
    {
        captured.emplace_back(txn, t);
    }
};

struct BusFixture : ::testing::Test
{
    EventQueue eq;
    BusParams params;
    MemoryParams memParams;
    std::unique_ptr<Bus> bus;
    std::unique_ptr<MemoryController> mem;
    MockHook hook;
    MockAgent a0, a1, a2;

    void
    SetUp() override
    {
        bus = std::make_unique<Bus>("bus", eq, params);
        mem = std::make_unique<MemoryController>("mem", memParams);
        bus->setMemory(mem.get());
        bus->setCoherenceHook(&hook);
        bus->addAgent(&a0);
        bus->addAgent(&a1);
        bus->addAgent(&a2);
    }
};

TEST_F(BusFixture, MemorySuppliesRead)
{
    mem->setVersion(0x1000, 5);
    bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    const BusTxn &txn = a0.done[0];
    EXPECT_EQ(txn.supply, SupplyDecision::Memory);
    EXPECT_EQ(txn.dataVersion, 5u);
    // arb (4) + memory access (20) + first beat (2).
    EXPECT_EQ(txn.dataTick, 4u + 20u + 2u);
    // Requester is never snooped.
    EXPECT_TRUE(a0.snooped.empty());
    EXPECT_EQ(a1.snooped.size(), 1u);
    EXPECT_EQ(a2.snooped.size(), 1u);
}

TEST_F(BusFixture, CacheToCacheBeatsMemoryLatency)
{
    a1.snoopReply = SnoopResult::DirtySupply;
    a1.supplyVersion = 9;
    bus->request(BusCmd::Read, 0x2000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].supply, SupplyDecision::Cache);
    EXPECT_EQ(a0.done[0].dataVersion, 9u);
    EXPECT_EQ(a0.done[0].dataTick, 4u + 16u + 2u);
    EXPECT_TRUE(a0.done[0].sharedSeen);
}

TEST_F(BusFixture, AddressPipelineSpacing)
{
    bus->request(BusCmd::Read, 0x1000, 0);
    bus->request(BusCmd::Read, 0x2000, 1);
    bus->request(BusCmd::Read, 0x3000, 2);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    ASSERT_EQ(a1.done.size(), 1u);
    ASSERT_EQ(a2.done.size(), 1u);
    // One address strobe per 4 ticks (2 bus cycles).
    EXPECT_EQ(a0.done[0].strobeTick, 4u);
    EXPECT_EQ(a1.done[0].strobeTick, 8u);
    EXPECT_EQ(a2.done[0].strobeTick, 12u);
}

TEST_F(BusFixture, DataBusSerializesTransfers)
{
    // Two memory reads of different banks: data ready at the same
    // time, but the data bus moves one line at a time (8 beats of
    // 2 ticks each).
    bus->request(BusCmd::Read, 0x1000, 0);
    bus->request(BusCmd::Read, 0x1080, 1); // adjacent line
    eq.run();
    Tick d0 = a0.done[0].dataTick;
    Tick d1 = a1.done[0].dataTick;
    EXPECT_GE(d1, d0 - 2 + 8 * 2);
}

TEST_F(BusFixture, DeferredRespondCompletesLater)
{
    hook.decision = SupplyDecision::Deferred;
    std::uint64_t id = bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    EXPECT_TRUE(a0.done.empty());
    EXPECT_EQ(bus->numOutstanding(), 1u);
    bus->deferredRespond(id, 77, eq.curTick() + 100);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].dataVersion, 77u);
    EXPECT_EQ(bus->numOutstanding(), 0u);
}

TEST_F(BusFixture, InvalCompletesWithoutData)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::Inval, 0x1000, 0);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    // Strobe (4) + snoop latency (4), no data phase.
    EXPECT_EQ(eq.curTick(), 8u);
    EXPECT_EQ(a1.snooped.size(), 1u);
}

TEST_F(BusFixture, WriteBackToMemory)
{
    hook.decision = SupplyDecision::Memory;
    bus->request(BusCmd::WriteBack, 0x1000, 0, /*version=*/33);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(mem->version(0x1000), 33u);
    EXPECT_EQ(mem->statWrites.value(), 1.0);
}

TEST_F(BusFixture, WriteBackCapturedByHook)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::WriteBack, 0x1000, 0, /*version=*/44);
    eq.run();
    ASSERT_EQ(hook.captured.size(), 1u);
    EXPECT_EQ(hook.captured[0].first.dataVersion, 44u);
    EXPECT_EQ(mem->version(0x1000), 0u); // memory not written
}

TEST_F(BusFixture, FromCcReadMayFindNoData)
{
    hook.decision = SupplyDecision::NoData;
    bus->request(BusCmd::Read, 0x1000, 0, 0, /*from_cc=*/true);
    eq.run();
    ASSERT_EQ(a0.done.size(), 1u);
    EXPECT_EQ(a0.done[0].supply, SupplyDecision::NoData);
}

TEST_F(BusFixture, OutstandingLimitThrottles)
{
    params.maxOutstanding = 2;
    bus = std::make_unique<Bus>("bus2", eq, params);
    bus->setMemory(mem.get());
    bus->setCoherenceHook(&hook);
    bus->addAgent(&a0);
    hook.decision = SupplyDecision::Deferred;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(bus->request(BusCmd::Read, 0x1000 + 0x80 * i,
                                   0));
    eq.run();
    // Only two can be granted until a response retires one.
    EXPECT_EQ(hook.observed.size(), 2u);
    bus->deferredRespond(ids[0], 1, eq.curTick());
    eq.run();
    EXPECT_EQ(hook.observed.size(), 3u);
}

TEST_F(BusFixture, StatsAccumulate)
{
    bus->request(BusCmd::Read, 0x1000, 0);
    eq.run();
    EXPECT_EQ(bus->statTxns.value(), 1.0);
    EXPECT_GT(bus->statAddrBusy.value(), 0.0);
    EXPECT_GT(bus->statDataBusy.value(), 0.0);
}

/**
 * The open-transaction slot ring against a model, through queued
 * grants (bursts far beyond the outstanding limit) and a transaction
 * deferred for the whole run while ids lap the ring many times: the
 * ring must grow, and isOpen, fillScheduled, lineBusy and
 * numOutstanding must match the model after every step.
 */
TEST_F(BusFixture, SlotRingTracksOpenTransactionsAsItGrows)
{
    struct DeferExcl : BusCoherenceHook
    {
        std::vector<std::uint64_t> deferred;
        SupplyDecision
        busObserve(BusTxn &txn, SnoopResult) override
        {
            if (txn.cmd != BusCmd::ReadExcl)
                return SupplyDecision::Memory;
            deferred.push_back(txn.id);
            return SupplyDecision::Deferred;
        }
    } defer_hook;
    bus->setCoherenceHook(&defer_hook);
    const std::size_t initial_slots = bus->slotCapacity();
    // Free slots hold id 0, which is never issued: it is not open.
    auto expect_id0_closed = [&] {
        EXPECT_FALSE(bus->isOpen(0));
        EXPECT_FALSE(bus->fillScheduled(0));
        EXPECT_THROW(bus->deferredRespond(0, 0, eq.curTick()),
                     PanicError);
    };
    expect_id0_closed();

    std::map<std::uint64_t, Addr> open; // id -> line
    std::set<std::uint64_t> answered;
    std::uint64_t first_id = 0, last_id = 0;
    std::size_t seen[3] = {0, 0, 0};
    MockAgent *agents[3] = {&a0, &a1, &a2};
    Random rng(17);

    auto issue = [&](BusCmd cmd, Addr line, int agent) {
        std::uint64_t id = bus->request(cmd, line, agent);
        if (first_id == 0)
            first_id = id;
        last_id = id;
        open[id] = line;
    };
    auto check = [&](int step) {
        for (int a = 0; a < 3; ++a) {
            for (; seen[a] < agents[a]->done.size(); ++seen[a]) {
                std::uint64_t id = agents[a]->done[seen[a]].id;
                ASSERT_EQ(open.erase(id), 1u) << "step " << step;
                answered.erase(id);
            }
        }
        ASSERT_EQ(bus->numOutstanding(), open.size()) << "step " << step;
        std::set<Addr> busy_lines;
        for (std::uint64_t id = first_id; id <= last_id; ++id) {
            auto it = open.find(id);
            ASSERT_EQ(bus->isOpen(id), it != open.end())
                << "step " << step << " id " << id;
            if (it == open.end()) {
                EXPECT_FALSE(bus->fillScheduled(id));
                continue;
            }
            busy_lines.insert(it->second);
            if (answered.count(id)) {
                EXPECT_TRUE(bus->fillScheduled(id)) << "id " << id;
            }
        }
        for (std::uint64_t id : defer_hook.deferred) {
            if (open.count(id) && !answered.count(id)) {
                EXPECT_FALSE(bus->fillScheduled(id)) << "id " << id;
            }
        }
        for (Addr line = 0x10000; line < 0x10000 + 0x80 * 24;
             line += 0x80) {
            EXPECT_EQ(bus->lineBusy(line), busy_lines.count(line) != 0)
                << "step " << step << " line " << std::hex << line;
        }
    };

    // The sticky transaction: deferred now, answered only at the end.
    issue(BusCmd::ReadExcl, 0x10000, 0);
    eq.run();
    ASSERT_EQ(defer_hook.deferred.size(), 1u);
    const std::uint64_t sticky = defer_hook.deferred[0];
    check(-1);

    // Each step runs as an event, a random number of ticks after the
    // previous one, so transactions are caught in every phase.
    int step = 0;
    std::function<void()> run_step = [&] {
        if (step % 150 == 0) {
            // Burst: far more requests than grants or initial slots.
            for (int i = 0; i < 48; ++i) {
                issue(i % 4 == 0 ? BusCmd::ReadExcl : BusCmd::Read,
                      0x10080 + 0x80 * (i % 23), i % 3);
            }
        } else {
            issue(rng.chance(0.3) ? BusCmd::ReadExcl : BusCmd::Read,
                  0x10080 + 0x80 * rng.below(23),
                  static_cast<int>(rng.below(3)));
        }
        // Answer some deferred transactions (never the sticky one).
        for (std::uint64_t id : defer_hook.deferred) {
            if (id != sticky && open.count(id) && !answered.count(id) &&
                rng.chance(0.5)) {
                bus->deferredRespond(id, 3, eq.curTick() + 10);
                answered.insert(id);
            }
        }
        check(step);
        if (step % 50 == 0)
            expect_id0_closed();
        if (++step < 600 && !HasFailure()) {
            eq.scheduleFunctionIn([&] { run_step(); },
                                  1 + rng.below(40));
        }
    };
    eq.scheduleFunctionIn([&] { run_step(); }, 1);
    eq.run();
    check(step);
    ASSERT_FALSE(HasFailure());
    // Ids lapped the initial ring many times; the sticky transaction
    // made it grow to span every live id, and no further.
    EXPECT_GT(last_id - first_id, 4 * initial_slots);
    EXPECT_GT(bus->slotCapacity(), initial_slots);
    EXPECT_LT(bus->slotCapacity(), 2 * (last_id - first_id + 1));
    EXPECT_TRUE(bus->isOpen(sticky));
    EXPECT_TRUE(bus->lineBusy(0x10000));

    // Drain: answer everything still deferred.
    for (std::uint64_t id : defer_hook.deferred) {
        if (open.count(id) && !answered.count(id)) {
            bus->deferredRespond(id, 4, eq.curTick());
            answered.insert(id);
        }
    }
    eq.run();
    check(1000);
    EXPECT_EQ(bus->numOutstanding(), 0u);
    EXPECT_FALSE(bus->isOpen(sticky));
    EXPECT_FALSE(bus->lineBusy(0x10000));
    EXPECT_THROW(bus->deferredRespond(sticky, 0, eq.curTick()),
                 PanicError);
    expect_id0_closed();
}

} // namespace
} // namespace ccnuma
