/**
 * @file
 * Sharded-scheduler identity pinning: running any workload with
 * CCNUMA_SHARDS > 1 must be *bit-identical* to the serial scheduler —
 * same retired instructions, same execution ticks, and the same full
 * statistics dump — because cross-shard work (network arrivals, sync
 * grants) carries explicit deterministic event keys and is injected
 * at conservative window barriers in the exact order the serial
 * scheduler would have processed it.
 *
 * Also pinned here: the fault-injection campaign composes with
 * sharding (per-node RNG streams make the injected fault sequence
 * layout-independent), and every serial-fallback path is counted,
 * never silent.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/result_io.hh"
#include "system/machine.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

constexpr Arch kArchs[] = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                           Arch::TwoPPC};
constexpr unsigned kShardCounts[] = {1, 2, 4, 8};

/** Everything a run can observably produce. */
struct Snapshot
{
    std::uint64_t instructions = 0;
    Tick execTicks = 0;
    std::string stats;
    unsigned shardsUsed = 0;
    std::string fallback;
    RunResult result;
};

MachineConfig
shardableConfig(Arch arch, unsigned shards)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 8; // divisible by every tested shard count
    cfg.node.procsPerNode = 1;
    cfg.withArch(arch);
    cfg.shards = shards;
    return cfg;
}

Snapshot
runPoint(const MachineConfig &cfg, const std::string &app,
         double scale = 0.03)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = scale;
    auto w = makeWorkload(app, p);
    Machine m(cfg);
    Snapshot s;
    s.result = m.run(*w);
    s.instructions = s.result.instructions;
    s.execTicks = s.result.execTicks;
    s.shardsUsed = m.shardsUsed();
    s.fallback = m.shardFallbackReason();
    std::ostringstream os;
    m.printStats(os);
    s.stats = os.str();
    return s;
}

class ShardedKernel : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ShardedKernel, BitIdenticalAcrossShardCounts)
{
    // Adaptive windows must reproduce the serial run exactly, because
    // widening is only applied when cross-shard silence is provable.
    for (Arch arch : kArchs) {
        // The serial oracle forces deferred sync grants so it
        // produces the sharded grant timing (serial runs default to
        // the seed's zero-delay wakes).
        MachineConfig oracle_cfg = shardableConfig(arch, 1);
        oracle_cfg.forceSyncDefer = true;
        Snapshot serial = runPoint(oracle_cfg, GetParam());
        ASSERT_GT(serial.instructions, 0u);
        for (unsigned shards : kShardCounts) {
            if (shards == 1)
                continue;
            Snapshot s = runPoint(shardableConfig(arch, shards),
                                  GetParam());
            SCOPED_TRACE(GetParam() + " on " +
                         std::string(archName(arch)) + " with " +
                         std::to_string(shards) + " shards");
            EXPECT_EQ(s.shardsUsed, shards);
            EXPECT_TRUE(s.fallback.empty()) << s.fallback;
            EXPECT_EQ(s.instructions, serial.instructions);
            EXPECT_EQ(s.execTicks, serial.execTicks);
            EXPECT_EQ(s.stats, serial.stats);
            EXPECT_GT(s.result.windowsRun, 0u);
            // Every window is either widened or held to the
            // conservative end.
            EXPECT_EQ(s.result.windowsWidened + s.result.windowFallbacks,
                      s.result.windowsRun);
        }
    }
}

TEST(AdaptiveWindows, WideningAndFallbacksAreCounted)
{
    // The planner's decisions must be observable: a sharded adaptive
    // run reports every window it executed, every window it widened
    // past the conservative end, and every fallback to the floor —
    // so a planner that silently degrades to conservative windows is
    // distinguishable from one that works.
    Snapshot a = runPoint(shardableConfig(Arch::PPC, 4), "FFT", 0.05);
    EXPECT_EQ(a.shardsUsed, 4u);
    EXPECT_GT(a.result.windowsRun, 0u);
    // Kernels have quiet phases; a planner that never widens on this
    // point is broken (this is the claim the perf win rests on).
    EXPECT_GT(a.result.windowsWidened, 0u);
    EXPECT_LE(a.result.windowsWidened, a.result.windowsRun);

    // The serial scheduler reports no window activity at all.
    Snapshot s = runPoint(shardableConfig(Arch::PPC, 1), "FFT", 0.05);
    EXPECT_EQ(s.result.shardsUsed, 1u);
    EXPECT_EQ(s.result.windowsRun, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ShardedKernel,
    ::testing::Values("LU", "Cholesky", "Water-Nsq", "Water-Sp",
                      "Barnes", "FFT", "Radix", "Ocean"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(ShardedFaults, SeededCampaignIsLayoutIndependent)
{
    // Corrupting faults healed by the reliable transport, no checker
    // (the checker forces serial): the injected fault sequence and
    // the recovery accounting must not depend on the shard layout.
    auto cfg_for = [](unsigned shards) {
        MachineConfig cfg =
            shardableConfig(Arch::PPC, shards).withReliableTransport();
        cfg.verify.faults.seed = 11;
        cfg.verify.faults.dropEveryN = 97;
        cfg.verify.faults.duplicateProb = 0.02;
        cfg.verify.faults.reorderProb = 0.02;
        cfg.verify.faults.reorderDelayMax = 300;
        if (shards == 1)
            cfg.forceSyncDefer = true; // sharded grant-timing oracle
        return cfg;
    };
    Snapshot serial = runPoint(cfg_for(1), "FFT", 0.05);
    ASSERT_TRUE(serial.result.completed);
    ASSERT_GT(serial.result.faultsInjected, 0u);
    for (unsigned shards : {2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(shards) + " shards");
        Snapshot s = runPoint(cfg_for(shards), "FFT", 0.05);
        EXPECT_EQ(s.shardsUsed, shards);
        EXPECT_EQ(s.instructions, serial.instructions);
        EXPECT_EQ(s.execTicks, serial.execTicks);
        EXPECT_EQ(s.stats, serial.stats);
        EXPECT_EQ(s.result.faultsInjected,
                  serial.result.faultsInjected);
        EXPECT_EQ(s.result.xportRetransmits,
                  serial.result.xportRetransmits);
        EXPECT_EQ(s.result.xportTimeouts, serial.result.xportTimeouts);
        EXPECT_EQ(s.result.xportDupsDropped,
                  serial.result.xportDupsDropped);
        EXPECT_EQ(s.result.xportReordersHealed,
                  serial.result.xportReordersHealed);
        EXPECT_EQ(s.result.nackRetries, serial.result.nackRetries);
        EXPECT_EQ(s.result.retryBackoffTicks,
                  serial.result.retryBackoffTicks);
    }
}

TEST(ShardedFallback, ZeroLookaheadFallsBackToSerialWithDiagnostic)
{
    // A zero sync hand-off empties the conservative window: the
    // machine must fall back to the serial scheduler and say so in
    // the RunResult — never silently.
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    cfg.syncHandoffTicks = 0;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.fallback.empty());
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_EQ(s.result.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_GT(s.instructions, 0u);
}

TEST(ShardedFallback, CheckerForcesSerial)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    cfg.verify.checker = true;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
}

TEST(ShardedFallback, FirstTouchPlacementForcesSerial)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 2);
    cfg.placement = PlacementPolicy::FirstTouch;
    Snapshot s = runPoint(cfg, "LU");
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
}

TEST(ShardedFallback, CrashFaultsForceSerial)
{
    // Crash and repair events mutate cross-node state synchronously,
    // so a scheduled crash pins the serial scheduler, counted.
    MachineConfig cfg =
        shardableConfig(Arch::PPC, 4).withCrashRecovery();
    CrashFault f;
    f.node = 1;
    f.atTick = 4000;
    cfg.verify.faults.crashes.push_back(f);
    Snapshot s = runPoint(cfg, "FFT");
    EXPECT_TRUE(s.result.completed);
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_EQ(s.result.windowsRun, 0u);
}

TEST(ShardedFallback, IntegrityFlipsForceSerial)
{
    // Flip events poison lines and kill processors across nodes at
    // the flip tick: the serial scheduler again, counted.
    MachineConfig cfg = shardableConfig(Arch::PPC, 4).withIntegrity();
    FlipFault f;
    f.domain = FlipDomain::Message;
    f.node = 1;
    f.atTick = 4000;
    cfg.verify.faults.flips.push_back(f);
    Snapshot s = runPoint(cfg, "FFT");
    EXPECT_TRUE(s.result.completed);
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_EQ(s.result.windowsRun, 0u);
}

/** The fields a serial fallback of a 4-shard request must report. */
void
expectSerialFallback(const Snapshot &s)
{
    EXPECT_TRUE(s.result.completed);
    EXPECT_EQ(s.shardsUsed, 1u);
    EXPECT_EQ(s.result.shardsRequested, 4u);
    EXPECT_EQ(s.result.shardsUsed, 1u);
    EXPECT_FALSE(s.result.shardFallback.empty());
    EXPECT_EQ(s.result.windowsRun, 0u);
}

TEST(ShardedFallback, WatchdogRunsSerialWithDeferredGrants)
{
    // The hang watchdog schedules its checks on one queue, so a
    // watched sharded request runs serially — but with deferred
    // grants, which makes it the sharded run's serial oracle: its
    // results equal the unwatched sharded run's.
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    Snapshot plain = runPoint(cfg, "FFT");
    ASSERT_EQ(plain.shardsUsed, 4u);
    cfg.verify.watchdog = true;
    Snapshot s = runPoint(cfg, "FFT");
    expectSerialFallback(s);
    EXPECT_TRUE(serve::resultsIdentical(s.result, plain.result));
    EXPECT_EQ(s.stats, plain.stats);
}

/** Read @p path whole; empty if it cannot be opened. */
std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(ShardedFallback, TracingRunsSerialWithDeferredGrants)
{
    // One tracer records the whole machine, so a traced sharded
    // request runs serially with deferred grants: results equal the
    // untraced sharded run's, and the exported trace and metrics are
    // exactly a traced forceSyncDefer serial run's.
    const std::string dir = ::testing::TempDir();
    auto traced = [&](MachineConfig cfg, const std::string &tag) {
        cfg.obs.enabled = true;
        cfg.obs.chromeTraceFile = dir + "shard_fallback_" + tag +
                                  ".trace.json";
        cfg.obs.metricsFile = dir + "shard_fallback_" + tag +
                              ".metrics.json";
        return cfg;
    };
    MachineConfig cfg = shardableConfig(Arch::PPC, 4);
    Snapshot plain = runPoint(cfg, "FFT");
    ASSERT_EQ(plain.shardsUsed, 4u);
    const MachineConfig sharded = traced(cfg, "sharded");
    Snapshot s = runPoint(sharded, "FFT");
    expectSerialFallback(s);
    EXPECT_TRUE(serve::resultsIdentical(s.result, plain.result));
    // The stats dump gains the tracer's own "obs." group; the rest is
    // equal.
    std::istringstream lines(s.stats);
    std::string line, untraced;
    bool saw_obs = false;
    while (std::getline(lines, line)) {
        if (line.rfind("obs.", 0) == 0)
            saw_obs = true;
        else
            untraced += line + "\n";
    }
    EXPECT_TRUE(saw_obs);
    EXPECT_EQ(untraced, plain.stats);

    MachineConfig oracle_cfg = shardableConfig(Arch::PPC, 1);
    oracle_cfg.forceSyncDefer = true;
    const MachineConfig oracle = traced(oracle_cfg, "oracle");
    Snapshot o = runPoint(oracle, "FFT");
    EXPECT_TRUE(serve::resultsIdentical(s.result, o.result));
    EXPECT_EQ(s.stats, o.stats);
    const std::string trace = slurp(sharded.obs.chromeTraceFile);
    const std::string metrics = slurp(sharded.obs.metricsFile);
    EXPECT_GT(trace.size(), 1000u);
    EXPECT_GT(metrics.size(), 100u);
    EXPECT_EQ(trace, slurp(oracle.obs.chromeTraceFile));
    EXPECT_EQ(metrics, slurp(oracle.obs.metricsFile));
    for (const MachineConfig *c : {&sharded, &oracle}) {
        std::remove(c->obs.chromeTraceFile.c_str());
        std::remove(c->obs.metricsFile.c_str());
    }
}

TEST(ShardedFallback, RecoveryArmedWithoutCrashKeepsShards)
{
    // Crash recovery armed but no crash scheduled: nothing mutates
    // cross-node state outside the event keys, so the requested
    // shards and adaptive windows stay, and the run still matches the
    // serial oracle with the same recovery machinery armed.
    MachineConfig oracle_cfg =
        shardableConfig(Arch::PPC, 1).withCrashRecovery();
    oracle_cfg.forceSyncDefer = true;
    Snapshot serial = runPoint(oracle_cfg, "FFT");
    ASSERT_TRUE(serial.result.completed);

    MachineConfig cfg =
        shardableConfig(Arch::PPC, 4).withCrashRecovery();
    Snapshot s = runPoint(cfg, "FFT");
    EXPECT_TRUE(s.result.completed);
    EXPECT_EQ(s.shardsUsed, 4u);
    EXPECT_TRUE(s.result.shardFallback.empty())
        << s.result.shardFallback;
    EXPECT_EQ(s.result.windowsWidened + s.result.windowFallbacks,
              s.result.windowsRun);
    EXPECT_EQ(s.instructions, serial.instructions);
    EXPECT_EQ(s.execTicks, serial.execTicks);
    EXPECT_EQ(s.stats, serial.stats);
}

TEST(ShardedWindows, SeededLookaheadsStayIdentical)
{
    // The identity matrix above runs at the default lookahead. Here a
    // seeded sweep varies what bounds the window width — network
    // flight latency and sync hand-off — together with the shard
    // count; every draw must match its own serial oracle, and every
    // window must be counted as widened or held back.
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const unsigned shard_choices[] = {2, 4, 8};
    for (int i = 0; i < 6; ++i) {
        const Tick flight = 2 + next() % 60;
        const Tick handoff = 1 + next() % 48;
        const unsigned shards = shard_choices[next() % 3];
        SCOPED_TRACE("flight=" + std::to_string(flight) +
                     " handoff=" + std::to_string(handoff) + " " +
                     std::to_string(shards) + " shards");
        auto cfg_for = [&](unsigned n) {
            MachineConfig cfg = shardableConfig(Arch::PPC, n);
            cfg.net.flightLatency = flight;
            cfg.syncHandoffTicks = handoff;
            cfg.forceSyncDefer = n == 1;
            return cfg;
        };
        Snapshot serial = runPoint(cfg_for(1), "FFT");
        ASSERT_TRUE(serial.result.completed);
        Snapshot s = runPoint(cfg_for(shards), "FFT");
        EXPECT_EQ(s.shardsUsed, shards);
        EXPECT_TRUE(s.fallback.empty()) << s.fallback;
        EXPECT_GT(s.result.windowsRun, 0u);
        EXPECT_EQ(s.result.windowsWidened + s.result.windowFallbacks,
                  s.result.windowsRun);
        EXPECT_EQ(s.instructions, serial.instructions);
        EXPECT_EQ(s.execTicks, serial.execTicks);
        EXPECT_EQ(s.stats, serial.stats);
    }
}

TEST(ShardedConfig, UnevenShardCountIsRejected)
{
    MachineConfig cfg = shardableConfig(Arch::PPC, 3); // 8 % 3 != 0
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace ccnuma
