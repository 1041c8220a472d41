/**
 * @file
 * Allocation-free scheduling proof: global counting operator new.
 *
 * This binary replaces the global allocator with a counting wrapper
 * and asserts that the simulator's steady-state paths — pooled
 * one-shot callbacks, reusable member events, network sends, bus
 * transactions and the whole processor -> cache unit -> bus ->
 * coherence controller miss path — perform ZERO heap allocations
 * once warm. It lives in its own test target so the replaced operator
 * new cannot perturb (or be perturbed by) unrelated tests.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "bus/bus.hh"
#include "mem/memory_controller.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "system/machine.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ccnuma
{
namespace
{

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Representative hot-path capture: two pointers plus a message-ish
 * payload, comfortably inside SmallCallback::inlineBytes. */
struct Payload
{
    std::uint64_t words[10] = {};
};

TEST(AllocFree, PooledOneShotsSteadyState)
{
    EventQueue eq;
    std::uint64_t fired = 0;

    // Warm-up: populate the pool slabs at the peak outstanding count
    // the steady-state loop will reach.
    for (int i = 0; i < 128; ++i) {
        Payload pl;
        pl.words[0] = static_cast<std::uint64_t>(i);
        eq.scheduleFunctionIn([&fired, pl] { fired += pl.words[0]; },
                              static_cast<Tick>(i % 17));
    }
    eq.run();

    std::uint64_t before = allocCount();
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 64; ++i) {
            Payload pl;
            pl.words[0] = 1;
            // Mix near delays with far ones that park in the
            // overflow tier and migrate across window rotations.
            Tick delay = (i % 8 == 0)
                             ? 3 * EventQueue::wheelTicks
                             : static_cast<Tick>(i % 23);
            eq.scheduleFunctionIn(
                [&fired, pl] { fired += pl.words[0]; }, delay, 100,
                "steady one-shot");
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "pooled one-shot path allocated on the steady state";
    EXPECT_EQ(eq.callbackHeapFallbacks(), 0u);
    EXPECT_EQ(fired, 200u * 64u + 127u * 64u);
}

TEST(AllocFree, MemberEventRescheduleSteadyState)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    EventFunction ev([&fired] { ++fired; }, "member tick");

    eq.schedule(&ev, 1);
    eq.run();

    std::uint64_t before = allocCount();
    for (int i = 0; i < 10000; ++i) {
        eq.scheduleIn(&ev, static_cast<Tick>(1 + i % 5));
        if (i % 7 == 0) {
            // cancel/re-add cycle: unlink is in-place, no side table
            eq.deschedule(&ev);
            eq.scheduleIn(&ev, 2);
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "member-event reschedule path allocated";
    EXPECT_EQ(fired, 10001u);
}

TEST(AllocFree, NetworkSendSteadyState)
{
    EventQueue eq;
    Network net("alloc-net", eq, 4, NetworkParams{});
    std::uint64_t delivered = 0;

    for (int i = 0; i < 64; ++i) {
        net.send(static_cast<NodeId>(i % 4),
                 static_cast<NodeId>((i + 1) % 4), 96,
                 [&delivered] { ++delivered; });
    }
    eq.run();

    std::uint64_t before = allocCount();
    for (int round = 0; round < 500; ++round) {
        for (int i = 0; i < 12; ++i) {
            net.send(static_cast<NodeId>(i % 4),
                     static_cast<NodeId>((i + 1) % 4), 96,
                     [&delivered] { ++delivered; });
        }
        eq.run();
    }
    EXPECT_EQ(allocCount() - before, 0u)
        << "Network::send steady state allocated";
    EXPECT_EQ(eq.callbackHeapFallbacks(), 0u);
    EXPECT_EQ(delivered, 64u + 500u * 12u);
}

/** Bus agent that only counts completions. */
struct CountingAgent : BusAgent
{
    std::uint64_t done = 0;
    SnoopResult busSnoop(BusTxn &) override { return SnoopResult::None; }
    void busDone(BusTxn &) override { ++done; }
};

/**
 * Hook that lets memory supply reads and defers every read-exclusive,
 * remembering the deferred ids in a fixed array so the test can answer
 * them later without allocating.
 */
struct DeferringHook : BusCoherenceHook
{
    std::uint64_t deferred[64] = {};
    unsigned numDeferred = 0;

    SupplyDecision
    busObserve(BusTxn &txn, SnoopResult) override
    {
        if (txn.cmd != BusCmd::ReadExcl)
            return SupplyDecision::Memory;
        deferred[numDeferred++] = txn.id;
        return SupplyDecision::Deferred;
    }
};

TEST(AllocFree, BusTransactionSteadyState)
{
    EventQueue eq;
    Bus bus("alloc-bus", eq, BusParams{});
    MemoryController mem("alloc-mem", MemoryParams{});
    DeferringHook hook;
    CountingAgent agents[3];
    bus.setMemory(&mem);
    bus.setCoherenceHook(&hook);
    for (auto &a : agents)
        bus.addAgent(&a);

    // One round: 24 requests from three agents, more than the bus
    // grants at once (queued grants), a third of them deferred and
    // answered only after everything else drained.
    auto round = [&] {
        hook.numDeferred = 0;
        for (int i = 0; i < 24; ++i) {
            BusCmd cmd = i % 3 == 0 ? BusCmd::ReadExcl : BusCmd::Read;
            bus.request(cmd, static_cast<Addr>(0x1000 + 0x80 * i),
                        i % 3);
        }
        eq.run();
        for (unsigned d = 0; d < hook.numDeferred; ++d)
            bus.deferredRespond(hook.deferred[d], 1, eq.curTick());
        eq.run();
    };
    for (int r = 0; r < 8; ++r)
        round();

    std::uint64_t before = allocCount();
    for (int r = 0; r < 500; ++r)
        round();
    EXPECT_EQ(allocCount() - before, 0u)
        << "bus request/address-phase/deliver cycle allocated";
    EXPECT_EQ(eq.callbackHeapFallbacks(), 0u);
    EXPECT_EQ(bus.numOutstanding(), 0u);
    EXPECT_EQ(agents[0].done + agents[1].done + agents[2].done,
              508u * 24u);
}

std::uint64_t
busTxns(Machine &m, unsigned nodes)
{
    double n = 0;
    for (unsigned i = 0; i < nodes; ++i)
        n += m.node(i).bus().statTxns.value();
    return static_cast<std::uint64_t>(n);
}

/**
 * A 2-node x 2-proc machine on a miss-heavy kernel: four threads
 * hammer a small shared region (coherence misses, forwards, nacks,
 * writebacks, parking at the home), with private data that stays
 * cached. Tables and pools grow only to their high-water marks, and
 * the rare paths (a request stalled behind a writeback, a nack retry)
 * reach theirs late, so the first 4M ticks warm up; a window of at
 * least 10k bus transactions after that must not allocate at all.
 */
void
missPathSteadyState(Arch arch)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.withProcsPerNode(2, 4);
    cfg.withArch(arch);
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.lineBytes = cfg.node.cache.lineBytes;
    UniformWorkload::Knobs k;
    k.refsPerThread = 120000;
    k.sharedFraction = 0.6;
    k.writeFraction = 0.4;
    k.computeGap = 2;
    k.sharedBytes = 16 << 10;
    k.privateBytes = 8 << 10;
    UniformWorkload w(p, k);

    Machine m(cfg);
    std::uint64_t allocs0 = 0, allocs1 = 0, txns0 = 0, txns1 = 0;
    const Tick warm = 4'000'000, window = 1'000'000;
    m.eq().scheduleFunction(
        [&] {
            allocs0 = allocCount();
            txns0 = busTxns(m, cfg.numNodes);
        },
        warm);
    m.eq().scheduleFunction(
        [&] {
            allocs1 = allocCount();
            txns1 = busTxns(m, cfg.numNodes);
        },
        warm + window);
    RunResult r = m.run(w);

    ASSERT_GT(r.execTicks, warm + window) << "run ended inside the window";
    EXPECT_GE(txns1 - txns0, 10'000u) << "window too short";
    EXPECT_EQ(allocs1 - allocs0, 0u)
        << engineTypeName(cfg.node.cc.engineType)
        << ": miss path allocated over " << txns1 - txns0
        << " bus transactions";
    EXPECT_EQ(m.eq().callbackHeapFallbacks(), 0u);
}

TEST(AllocFree, MachineMissPathSteadyState)
{
    missPathSteadyState(Arch::HWC);
    missPathSteadyState(Arch::PPC);
}

/** No one-shot callback on any kernel's path outgrows its buffer. */
TEST(AllocFree, KernelRunNeverFallsBackToHeapCallbacks)
{
    for (const char *app : {"FFT", "Radix", "Barnes"}) {
        for (Arch arch : {Arch::HWC, Arch::TwoPPC}) {
            MachineConfig cfg = MachineConfig::base();
            cfg.withProcsPerNode(2, 8);
            cfg.withArch(arch);
            WorkloadParams p;
            p.numThreads = cfg.totalProcs();
            p.scale = 0.05;
            p.lineBytes = cfg.node.cache.lineBytes;
            auto w = makeWorkload(app, p);
            Machine m(cfg);
            m.run(*w);
            EXPECT_EQ(m.eq().callbackHeapFallbacks(), 0u)
                << app << " on " << static_cast<int>(arch);
        }
    }
}

} // namespace
} // namespace ccnuma
