/**
 * @file
 * The canonical-form contract: every user-settable field that can
 * change simulation results must change the content hash, and the
 * fields proven result-invariant by the identity suites (shards,
 * observability) must NOT. This is the test the static_assert
 * tripwires in canonical.cc point at: a new config field lands here
 * as one more perturbation row.
 */

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/canonical.hh"

using namespace ccnuma;
using namespace ccnuma::serve;

namespace
{

struct Perturbation
{
    const char *name;
    std::function<void(MachineConfig &)> apply;
};

MachineConfig
baseConfig()
{
    MachineConfig cfg = MachineConfig::base();
    // Give the fault lists one element each so the per-element
    // fields are exercised too.
    CrashFault cf;
    cf.node = 1;
    cf.atTick = 1000;
    cfg.verify.faults.crashes.push_back(cf);
    FlipFault ff;
    ff.node = 2;
    ff.atTick = 2000;
    ff.bits = 1;
    cfg.verify.faults.flips.push_back(ff);
    return cfg;
}

WorkloadParams
baseParams()
{
    WorkloadParams wp;
    wp.numThreads = 16;
    wp.scale = 0.05;
    return wp;
}

PointKey
keyFor(const MachineConfig &cfg,
       const WorkloadParams &wp = baseParams(),
       const std::string &app = "FFT")
{
    return makePointKey(cfg, app, wp);
}

const std::vector<Perturbation> &
perturbations()
{
    using C = MachineConfig;
    static const std::vector<Perturbation> all = {
        {"machine.numNodes", [](C &c) { c.numNodes *= 2; }},
        {"machine.pageBytes", [](C &c) { c.pageBytes *= 2; }},
        {"machine.placement",
         [](C &c) { c.placement = PlacementPolicy::FirstTouch; }},
        {"machine.syncBase", [](C &c) { c.syncBase += 0x1000; }},
        {"machine.syncHandoffTicks",
         [](C &c) { c.syncHandoffTicks += 1; }},
        {"machine.maxTicks", [](C &c) { c.maxTicks += 1; }},
        // Grant timing is result-affecting: a serial run with forced
        // deferral produces the sharded timing, not the seed's
        // zero-delay wakes, so the two must not share a cache entry.
        {"sync.deferredGrants", [](C &c) { c.forceSyncDefer = true; }},
        {"node.procsPerNode", [](C &c) { c.node.procsPerNode += 1; }},
        {"bus.arbLatency", [](C &c) { c.node.bus.arbLatency += 1; }},
        {"bus.strobeSpacing",
         [](C &c) { c.node.bus.strobeSpacing += 1; }},
        {"bus.snoopLatency",
         [](C &c) { c.node.bus.snoopLatency += 1; }},
        {"bus.memDataLatency",
         [](C &c) { c.node.bus.memDataLatency += 1; }},
        {"bus.c2cDataLatency",
         [](C &c) { c.node.bus.c2cDataLatency += 1; }},
        {"bus.beatTicks", [](C &c) { c.node.bus.beatTicks += 1; }},
        {"bus.busWidthBytes",
         [](C &c) { c.node.bus.busWidthBytes *= 2; }},
        {"bus.lineBytes", [](C &c) { c.node.bus.lineBytes *= 2; }},
        {"bus.maxOutstanding",
         [](C &c) { c.node.bus.maxOutstanding += 1; }},
        {"mem.numBanks", [](C &c) { c.node.mem.numBanks *= 2; }},
        {"mem.bankBusy", [](C &c) { c.node.mem.bankBusy += 1; }},
        {"mem.accessLatency",
         [](C &c) { c.node.mem.accessLatency += 1; }},
        {"mem.lineBytes", [](C &c) { c.node.mem.lineBytes *= 2; }},
        {"dir.dramLatency",
         [](C &c) { c.node.dir.dramLatency += 1; }},
        {"dir.dramBusy", [](C &c) { c.node.dir.dramBusy += 1; }},
        {"dir.cacheEntries",
         [](C &c) { c.node.dir.cacheEntries *= 2; }},
        {"dir.cacheAssoc", [](C &c) { c.node.dir.cacheAssoc *= 2; }},
        {"dir.lineBytes", [](C &c) { c.node.dir.lineBytes *= 2; }},
        {"dir.cacheEnabled",
         [](C &c) { c.node.dir.cacheEnabled = !c.node.dir.cacheEnabled; }},
        {"cc.engineType",
         [](C &c) { c.node.cc.engineType = EngineType::PP; }},
        {"cc.numEngines", [](C &c) { c.node.cc.numEngines += 1; }},
        {"cc.dispatchLatency",
         [](C &c) { c.node.cc.dispatchLatency += 1; }},
        {"cc.niDelay", [](C &c) { c.node.cc.niDelay += 1; }},
        {"cc.ppTransferPoll",
         [](C &c) { c.node.cc.ppTransferPoll += 1; }},
        {"cc.livelockThreshold",
         [](C &c) { c.node.cc.livelockThreshold += 1; }},
        {"cc.directDataPath",
         [](C &c) { c.node.cc.directDataPath = !c.node.cc.directDataPath; }},
        {"cc.priorityArbitration",
         [](C &c) {
             c.node.cc.priorityArbitration =
                 !c.node.cc.priorityArbitration;
         }},
        {"cc.dynamicSplit",
         [](C &c) { c.node.cc.dynamicSplit = !c.node.cc.dynamicSplit; }},
        {"cc.retry.backoffBase",
         [](C &c) { c.node.cc.retry.backoffBase += 1; }},
        {"cc.retry.backoffMax",
         [](C &c) { c.node.cc.retry.backoffMax += 1; }},
        {"cc.retry.maxRetries",
         [](C &c) { c.node.cc.retry.maxRetries += 1; }},
        {"cc.recoveryEnabled",
         [](C &c) {
             c.node.cc.recoveryEnabled = !c.node.cc.recoveryEnabled;
         }},
        {"cc.repairTicks", [](C &c) { c.node.cc.repairTicks += 1; }},
        {"cc.timeoutRetries",
         [](C &c) { c.node.cc.timeoutRetries += 1; }},
        {"cc.probeRetries",
         [](C &c) { c.node.cc.probeRetries += 1; }},
        {"cc.probeFanout", [](C &c) { c.node.cc.probeFanout += 1; }},
        {"cache.l1Bytes", [](C &c) { c.node.cache.l1Bytes *= 2; }},
        {"cache.l1Assoc", [](C &c) { c.node.cache.l1Assoc *= 2; }},
        {"cache.l2Bytes", [](C &c) { c.node.cache.l2Bytes *= 2; }},
        {"cache.l2Assoc", [](C &c) { c.node.cache.l2Assoc *= 2; }},
        {"cache.lineBytes",
         [](C &c) { c.node.cache.lineBytes *= 2; }},
        {"cache.l1HitLatency",
         [](C &c) { c.node.cache.l1HitLatency += 1; }},
        {"cache.l2HitLatency",
         [](C &c) { c.node.cache.l2HitLatency += 1; }},
        {"cache.fillRestart",
         [](C &c) { c.node.cache.fillRestart += 1; }},
        {"cache.missTimeoutTicks",
         [](C &c) { c.node.cache.missTimeoutTicks += 100; }},
        {"proc.missDetect",
         [](C &c) { c.node.proc.missDetect += 1; }},
        {"proc.checkMonotonic",
         [](C &c) {
             c.node.proc.checkMonotonic = !c.node.proc.checkMonotonic;
         }},
        {"net.flightLatency",
         [](C &c) { c.net.flightLatency += 1; }},
        {"net.portWidthBytes",
         [](C &c) { c.net.portWidthBytes *= 2; }},
        {"net.portCycle", [](C &c) { c.net.portCycle += 1; }},
        {"reliable.enabled",
         [](C &c) { c.reliable.enabled = !c.reliable.enabled; }},
        {"reliable.retransmitTimeout",
         [](C &c) { c.reliable.retransmitTimeout += 1; }},
        {"reliable.retransmitTimeoutMax",
         [](C &c) { c.reliable.retransmitTimeoutMax += 1; }},
        {"reliable.maxRetransmits",
         [](C &c) { c.reliable.maxRetransmits += 1; }},
        {"reliable.ackDelay", [](C &c) { c.reliable.ackDelay += 1; }},
        {"reliable.reorderBufCap",
         [](C &c) { c.reliable.reorderBufCap += 1; }},
        {"reliable.crc",
         [](C &c) { c.reliable.crc = !c.reliable.crc; }},
        {"recovery.enabled",
         [](C &c) { c.recovery.enabled = !c.recovery.enabled; }},
        {"recovery.repairTicks",
         [](C &c) { c.recovery.repairTicks += 1; }},
        {"recovery.missTimeoutTicks",
         [](C &c) { c.recovery.missTimeoutTicks += 1; }},
        {"recovery.timeoutRetries",
         [](C &c) { c.recovery.timeoutRetries += 1; }},
        {"recovery.probeRetries",
         [](C &c) { c.recovery.probeRetries += 1; }},
        {"recovery.probeFanout",
         [](C &c) { c.recovery.probeFanout += 1; }},
        {"integrity.enabled",
         [](C &c) { c.integrity.enabled = !c.integrity.enabled; }},
        {"integrity.scrubIntervalTicks",
         [](C &c) { c.integrity.scrubIntervalTicks += 1; }},
        {"verify.checker",
         [](C &c) { c.verify.checker = !c.verify.checker; }},
        {"verify.watchdog",
         [](C &c) { c.verify.watchdog = !c.verify.watchdog; }},
        {"verify.watchdogBudget",
         [](C &c) { c.verify.watchdogBudget += 1; }},
        {"faults.seed", [](C &c) { c.verify.faults.seed += 1; }},
        {"faults.delayJitterProb",
         [](C &c) { c.verify.faults.delayJitterProb += 0.125; }},
        {"faults.delayJitterMax",
         [](C &c) { c.verify.faults.delayJitterMax += 1; }},
        {"faults.engineStallProb",
         [](C &c) { c.verify.faults.engineStallProb += 0.125; }},
        {"faults.engineStallMax",
         [](C &c) { c.verify.faults.engineStallMax += 1; }},
        {"faults.reorderProb",
         [](C &c) { c.verify.faults.reorderProb += 0.125; }},
        {"faults.reorderDelayMax",
         [](C &c) { c.verify.faults.reorderDelayMax += 1; }},
        {"faults.duplicateProb",
         [](C &c) { c.verify.faults.duplicateProb += 0.125; }},
        {"faults.duplicateDelay",
         [](C &c) { c.verify.faults.duplicateDelay += 1; }},
        {"faults.dropEveryN",
         [](C &c) { c.verify.faults.dropEveryN += 1; }},
        {"faults.crashes.size",
         [](C &c) { c.verify.faults.crashes.push_back({}); }},
        {"faults.crash0.node",
         [](C &c) { c.verify.faults.crashes[0].node += 1; }},
        {"faults.crash0.atTick",
         [](C &c) { c.verify.faults.crashes[0].atTick += 1; }},
        {"faults.crash0.loseDirectory",
         [](C &c) {
             c.verify.faults.crashes[0].loseDirectory =
                 !c.verify.faults.crashes[0].loseDirectory;
         }},
        {"faults.crash0.permanent",
         [](C &c) {
             c.verify.faults.crashes[0].permanent =
                 !c.verify.faults.crashes[0].permanent;
         }},
        {"faults.flips.size",
         [](C &c) { c.verify.faults.flips.push_back({}); }},
        {"faults.flip0.domain",
         [](C &c) {
             c.verify.faults.flips[0].domain = FlipDomain::Directory;
         }},
        {"faults.flip0.node",
         [](C &c) { c.verify.faults.flips[0].node += 1; }},
        {"faults.flip0.atTick",
         [](C &c) { c.verify.faults.flips[0].atTick += 1; }},
        {"faults.flip0.bits",
         [](C &c) { c.verify.faults.flips[0].bits += 1; }},
        {"faults.flip0.seed",
         [](C &c) { c.verify.faults.flips[0].seed += 1; }},
        {"faults.flip0.preferClean",
         [](C &c) {
             c.verify.faults.flips[0].preferClean =
                 !c.verify.faults.flips[0].preferClean;
         }},
    };
    return all;
}

TEST(Canonical, EveryConfigFieldChangesTheHash)
{
    const MachineConfig base = baseConfig();
    const PointKey base_key = keyFor(base);
    for (const Perturbation &p : perturbations()) {
        MachineConfig cfg = base;
        p.apply(cfg);
        PointKey k = keyFor(cfg);
        EXPECT_NE(k.canonical, base_key.canonical)
            << p.name << ": canonical form did not change";
        EXPECT_NE(k.hash, base_key.hash)
            << p.name << ": hash did not change";
    }
}

TEST(Canonical, EveryWorkloadFieldChangesTheHash)
{
    const MachineConfig cfg = baseConfig();
    const PointKey base_key = keyFor(cfg);

    struct WpPerturbation
    {
        const char *name;
        std::function<void(WorkloadParams &)> apply;
    };
    const WpPerturbation wps[] = {
        {"numThreads", [](WorkloadParams &w) { w.numThreads += 1; }},
        {"scale", [](WorkloadParams &w) { w.scale += 0.125; }},
        {"dataFactor", [](WorkloadParams &w) { w.dataFactor += 0.125; }},
        {"lineBytes", [](WorkloadParams &w) { w.lineBytes *= 2; }},
        {"heapBase", [](WorkloadParams &w) { w.heapBase += 0x1000; }},
        {"seed", [](WorkloadParams &w) { w.seed += 1; }},
    };
    for (const auto &p : wps) {
        WorkloadParams wp = baseParams();
        p.apply(wp);
        EXPECT_NE(keyFor(cfg, wp).hash, base_key.hash)
            << "workload." << p.name << ": hash did not change";
    }

    EXPECT_NE(keyFor(cfg, baseParams(), "LU").hash, base_key.hash)
        << "workload.app: hash did not change";
}

TEST(Canonical, ResultInvariantFieldsDoNotChangeTheHash)
{
    const MachineConfig base = baseConfig();
    const PointKey base_key = keyFor(base);

    // Shard count: bit-identity across shard counts is proven by
    // tests/integration/test_sharded_identity.cc, so points with
    // different shard counts share one cache entry.  Serial runs use
    // zero-delay sync wakes, so they key differently from sharded
    // runs (sync.deferredGrants) — unless deferral is forced, which
    // makes a serial run the sharded oracle and merges the entries.
    // baseConfig() schedules crashes and flips, which keep a run
    // serial, so the shard cases start from the fault-free preset.
    const MachineConfig shardable = MachineConfig::base();
    MachineConfig sharded2 = shardable;
    sharded2.shards = 2;
    MachineConfig sharded4 = shardable;
    sharded4.shards = 4;
    EXPECT_EQ(keyFor(sharded2).hash, keyFor(sharded4).hash);
    EXPECT_EQ(keyFor(sharded2).canonical, keyFor(sharded4).canonical);
    EXPECT_NE(keyFor(sharded4).hash, keyFor(shardable).hash);
    MachineConfig deferred_serial = shardable;
    deferred_serial.forceSyncDefer = true;
    EXPECT_EQ(keyFor(deferred_serial).hash, keyFor(sharded4).hash);
    EXPECT_EQ(keyFor(deferred_serial).canonical,
              keyFor(sharded4).canonical);

    // Observability: traced runs are proven identical to untraced
    // runs by tests/obs/test_traced_kernels.cc.
    MachineConfig traced = base;
    traced.obs.enabled = true;
    traced.obs.chromeTraceFile = "elsewhere.json";
    EXPECT_EQ(keyFor(traced).hash, base_key.hash);
    EXPECT_EQ(keyFor(traced).canonical, base_key.canonical);
}

TEST(Canonical, SerialFallbackKeysAsTheSerialRun)
{
    // A sharded request that falls back to the serial scheduler runs
    // with zero-delay sync wakes, exactly like a plain serial run, so
    // it must share that run's key and never the deferred oracle's:
    // the two runs give different execTicks.
    const Perturbation cases[] = {
        {"checker", [](MachineConfig &c) { c.verify.checker = true; }},
        {"first-touch",
         [](MachineConfig &c) {
             c.placement = PlacementPolicy::FirstTouch;
         }},
        {"crash",
         [](MachineConfig &c) {
             c.verify.faults.crashes.push_back(CrashFault{});
         }},
        {"flip",
         [](MachineConfig &c) {
             c.verify.faults.flips.push_back(FlipFault{});
         }},
        {"empty lookahead",
         [](MachineConfig &c) { c.syncHandoffTicks = 0; }},
    };
    for (const Perturbation &p : cases) {
        SCOPED_TRACE(p.name);
        MachineConfig serial = MachineConfig::base();
        p.apply(serial);
        MachineConfig sharded = serial;
        sharded.shards = 2;
        ASSERT_NE(sharded.shardPlan().fallback, nullptr);
        MachineConfig deferred = serial;
        deferred.forceSyncDefer = true;
        EXPECT_EQ(keyFor(sharded).canonical, keyFor(serial).canonical);
        EXPECT_EQ(keyFor(sharded).hash, keyFor(serial).hash);
        EXPECT_NE(keyFor(sharded).canonical,
                  keyFor(deferred).canonical);
        EXPECT_NE(keyFor(sharded).hash, keyFor(deferred).hash);
    }
}

TEST(Canonical, DiagnosticFallbackKeepsTheShardedKey)
{
    // Tracing and the hang watchdog keep a sharded request on one
    // queue, but with deferred grants: the run is the sharded run's
    // serial oracle, so it keeps the key a sharded run had
    // (sync.deferredGrants=1) and never takes the undeferred serial
    // run's. A result-changing fallback (the checker) still wins.
    const MachineConfig serial = MachineConfig::base();
    MachineConfig sharded = serial;
    sharded.shards = 2;
    MachineConfig checker_only = sharded;
    checker_only.verify.checker = true;
    const char *checker_reason = checker_only.shardPlan().fallback;
    ASSERT_NE(checker_reason, nullptr);
    const Perturbation cases[] = {
        {"tracing", [](MachineConfig &c) { c.obs.enabled = true; }},
        {"watchdog",
         [](MachineConfig &c) { c.verify.watchdog = true; }},
    };
    for (const Perturbation &p : cases) {
        SCOPED_TRACE(p.name);
        MachineConfig diag = sharded;
        p.apply(diag);
        const ShardPlan plan = diag.shardPlan();
        EXPECT_EQ(plan.shards, 1u);
        EXPECT_NE(plan.fallback, nullptr);
        EXPECT_TRUE(plan.deferredGrants);
        MachineConfig oracle = serial;
        p.apply(oracle);
        oracle.forceSyncDefer = true;
        MachineConfig undeferred = serial;
        p.apply(undeferred);
        const PointKey k = keyFor(diag);
        EXPECT_NE(k.canonical.find("sync.deferredGrants=1"),
                  std::string::npos);
        EXPECT_EQ(k.canonical, keyFor(oracle).canonical);
        EXPECT_EQ(k.hash, keyFor(oracle).hash);
        EXPECT_NE(k.canonical, keyFor(undeferred).canonical);

        MachineConfig checked = diag;
        checked.verify.checker = true;
        EXPECT_FALSE(checked.shardPlan().deferredGrants);
        EXPECT_STREQ(checked.shardPlan().fallback, checker_reason);
    }
    // Tracing is result-invariant: the traced sharded key is the
    // untraced sharded key itself.
    MachineConfig traced = sharded;
    traced.obs.enabled = true;
    EXPECT_EQ(keyFor(traced).canonical, keyFor(sharded).canonical);
    EXPECT_EQ(keyFor(traced).hash, keyFor(sharded).hash);
}

TEST(Canonical, HashIsStableAcrossRuns)
{
    // The hash must be stable across processes and hosts (it names
    // persisted cache files), so it is pinned here: FNV-1a over the
    // canonical text of known inputs.
    EXPECT_EQ(hash64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(hash64("a"), 0xaf63dc4c8601ec8cull);

    PointKey a = keyFor(baseConfig());
    PointKey b = keyFor(baseConfig());
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.canonical, b.canonical);
}

} // namespace
