/**
 * @file
 * Machine-level behavioral tests: configuration presets, measurement
 * plumbing, and first-order performance sanity (PPC slower than HWC
 * under load; two engines help under load).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "system/machine.hh"
#include "workload/synthetic.hh"

namespace ccnuma
{
namespace
{

RunResult
runUniform(Arch arch, unsigned nodes, unsigned ppn,
           const UniformWorkload::Knobs &k, std::uint64_t seed = 7)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = nodes;
    cfg.node.procsPerNode = ppn;
    cfg.withArch(arch);
    Machine m(cfg);
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.seed = seed;
    UniformWorkload w(p, k);
    return m.run(w, /*check=*/true);
}

UniformWorkload::Knobs
heavyKnobs()
{
    UniformWorkload::Knobs k;
    k.refsPerThread = 4000;
    k.sharedFraction = 0.9;
    k.writeFraction = 0.4;
    k.sharedBytes = 2 << 20;
    k.computeGap = 2;
    return k;
}

TEST(MachineConfigTest, PresetsApply)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.numNodes, 16u);
    EXPECT_EQ(cfg.totalProcs(), 64u);

    cfg.withArch(Arch::TwoPPC);
    EXPECT_EQ(cfg.node.cc.engineType, EngineType::PP);
    EXPECT_EQ(cfg.node.cc.numEngines, 2u);

    cfg.withLineBytes(32);
    EXPECT_EQ(cfg.node.cache.lineBytes, 32u);
    EXPECT_EQ(cfg.node.bus.lineBytes, 32u);

    cfg.withProcsPerNode(8);
    EXPECT_EQ(cfg.numNodes, 8u);
    EXPECT_EQ(cfg.totalProcs(), 64u);

    cfg.withNetworkLatency(200);
    EXPECT_EQ(cfg.net.flightLatency, 200u);
}

TEST(MachineConfigTest, BadPpnRejected)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_THROW(cfg.withProcsPerNode(7), FatalError);
}

TEST(MachineConfigTest, ValidateAcceptsPresets)
{
    EXPECT_NO_THROW(MachineConfig::base().validate());
    EXPECT_NO_THROW(MachineConfig::base()
                        .withArch(Arch::TwoPPC)
                        .withLineBytes(32)
                        .withReliableTransport()
                        .validate());
}

TEST(MachineConfigTest, ValidateRejectsNonsense)
{
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.numNodes = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.node.procsPerNode = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.withLineBytes(96); // not a power of two
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.node.cache.lineBytes = 32; // out of sync with bus/mem/dir
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.pageBytes = 1000; // not a power of two
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.pageBytes = 64; // smaller than the 128-byte line
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.net.portWidthBytes = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.net.portCycle = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.maxTicks = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg =
            MachineConfig::base().withReliableTransport();
        cfg.reliable.retransmitTimeout = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg =
            MachineConfig::base().withReliableTransport();
        cfg.reliable.retransmitTimeoutMax = 100; // below the base 400
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg =
            MachineConfig::base().withReliableTransport();
        cfg.node.cc.retry.backoffMax = 1; // below backoffBase 32
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

TEST(MachineConfigTest, MachineConstructionValidates)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 1;
    cfg.net.portCycle = 0;
    EXPECT_THROW(Machine m(cfg), FatalError);
}

TEST(MachineConfigTest, MaxTicksEnvTakesPositiveIntegersOnly)
{
    // A zero or unparsable CCNUMA_MAX_TICKS would stop the run at
    // tick 0 and report a wedge; it must be warned about and ignored.
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    UniformWorkload::Knobs k;
    k.refsPerThread = 500;
    for (const char *bad : {"abc", "0", "-5", "12x", ""}) {
        SCOPED_TRACE(std::string("CCNUMA_MAX_TICKS=") + bad);
        ASSERT_EQ(setenv("CCNUMA_MAX_TICKS", bad, 1), 0);
        Machine m(cfg);
        unsetenv("CCNUMA_MAX_TICKS");
        EXPECT_EQ(m.config().maxTicks, cfg.maxTicks);
        WorkloadParams p;
        p.numThreads = cfg.totalProcs();
        UniformWorkload w(p, k);
        RunResult r = m.run(w);
        EXPECT_TRUE(r.completed);
        EXPECT_GT(r.execTicks, 0u);
    }
    ASSERT_EQ(setenv("CCNUMA_MAX_TICKS", "123456789", 1), 0);
    Machine m(cfg);
    unsetenv("CCNUMA_MAX_TICKS");
    EXPECT_EQ(m.config().maxTicks, 123456789u);
}

TEST(MachineConfigTest, ShardsEnvTakesPositiveIntegersOnly)
{
    // A shard count that is not a positive integer, or does not fit
    // an unsigned, must be warned about and leave the configured
    // count; "-5" must not wrap to about 4.29e9 shards. Only small
    // counts are accepted here, so no test value can start many
    // shard threads.
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    for (const char *bad : {"-5", "0", "abc", "", "4294967296"}) {
        SCOPED_TRACE(std::string("CCNUMA_SHARDS=") + bad);
        ASSERT_EQ(setenv("CCNUMA_SHARDS", bad, 1), 0);
        Machine m(cfg);
        unsetenv("CCNUMA_SHARDS");
        EXPECT_EQ(m.config().shards, cfg.shards);
    }
    ASSERT_EQ(setenv("CCNUMA_SHARDS", "2", 1), 0);
    Machine m(cfg);
    unsetenv("CCNUMA_SHARDS");
    EXPECT_EQ(m.config().shards, 2u);
    UniformWorkload::Knobs k;
    k.refsPerThread = 200;
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    UniformWorkload w(p, k);
    EXPECT_TRUE(m.run(w).completed);
}

/**
 * Construct a traced machine with @p var set to @p value and return
 * its effective configuration. Tracing is on in the
 * config itself, so the trace knobs are read; nothing runs, so no
 * trace file is written.
 */
MachineConfig
tracedConfigWithEnv(const char *var, const char *value)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.obs.enabled = true;
    cfg.obs.sampleEvery = 8;
    cfg.obs.ringCapacity = 1024;
    EXPECT_EQ(setenv(var, value, 1), 0);
    Machine m(cfg);
    unsetenv(var);
    return m.config();
}

TEST(MachineConfigTest, TraceSampleEnvTakesPositiveIntegersOnly)
{
    // A bare strtoull turned "abc" into a sampling rate of 1 (trace
    // everything) instead of keeping the configured rate.
    for (const char *bad : {"abc", "0", "-5", "12x", "", " 4"}) {
        SCOPED_TRACE(std::string("CCNUMA_TRACE_SAMPLE=") + bad);
        EXPECT_EQ(tracedConfigWithEnv("CCNUMA_TRACE_SAMPLE", bad)
                      .obs.sampleEvery,
                  8u);
    }
    EXPECT_EQ(tracedConfigWithEnv("CCNUMA_TRACE_SAMPLE", "32")
                  .obs.sampleEvery,
              32u);
}

TEST(MachineConfigTest, TraceRingEnvTakesPositiveIntegersOnly)
{
    for (const char *bad : {"abc", "0", "-5", "64k", ""}) {
        SCOPED_TRACE(std::string("CCNUMA_TRACE_RING=") + bad);
        EXPECT_EQ(tracedConfigWithEnv("CCNUMA_TRACE_RING", bad)
                      .obs.ringCapacity,
                  1024u);
    }
    EXPECT_EQ(tracedConfigWithEnv("CCNUMA_TRACE_RING", "4096")
                  .obs.ringCapacity,
              4096u);
}

TEST(MachinePerf, PpcSlowerThanHwcUnderLoad)
{
    RunResult hwc = runUniform(Arch::HWC, 4, 4, heavyKnobs());
    RunResult ppc = runUniform(Arch::PPC, 4, 4, heavyKnobs());
    EXPECT_GT(ppc.execTicks, hwc.execTicks);
    // The PP's occupancy per request is higher.
    EXPECT_GT(ppc.ccOccupancy, hwc.ccOccupancy);
}

TEST(MachinePerf, TwoEnginesNeverMuchWorse)
{
    RunResult one = runUniform(Arch::PPC, 4, 4, heavyKnobs());
    RunResult two = runUniform(Arch::TwoPPC, 4, 4, heavyKnobs());
    // Under saturating load the second engine should help, and in
    // no case should it cost more than a small constant factor.
    EXPECT_LT(static_cast<double>(two.execTicks),
              1.05 * static_cast<double>(one.execTicks));
}

TEST(MachinePerf, RccpiRoughlyArchIndependent)
{
    // The paper: RCCPI differs by less than 1% across the four
    // implementations for all applications. Allow a few percent for
    // our smaller runs.
    RunResult a = runUniform(Arch::HWC, 4, 2, heavyKnobs());
    RunResult b = runUniform(Arch::PPC, 4, 2, heavyKnobs());
    ASSERT_GT(a.rccpi(), 0.0);
    EXPECT_NEAR(b.rccpi() / a.rccpi(), 1.0, 0.05);
}

TEST(MachinePerf, StatsArePlumbed)
{
    RunResult r = runUniform(Arch::PPC, 2, 2, heavyKnobs());
    EXPECT_GT(r.avgUtilization, 0.0);
    EXPECT_LE(r.avgUtilization, 1.0);
    EXPECT_GT(r.arrivalsPerUs, 0.0);
    EXPECT_GT(r.avgQueueDelayTicks, 0.0);
    EXPECT_GT(r.memRefs, 0u);
}

TEST(MachinePerf, SlowNetworkSlowsExecution)
{
    UniformWorkload::Knobs k = heavyKnobs();
    MachineConfig fast = MachineConfig::base();
    fast.numNodes = 4;
    fast.node.procsPerNode = 2;
    fast.withArch(Arch::HWC);
    MachineConfig slow = fast;
    slow.withNetworkLatency(200); // 1 us

    WorkloadParams p;
    p.numThreads = fast.totalProcs();

    Machine mf(fast);
    UniformWorkload wf(p, k);
    RunResult rf = mf.run(wf);

    Machine ms(slow);
    UniformWorkload ws(p, k);
    RunResult rs = ms.run(ws);

    EXPECT_GT(rs.execTicks, rf.execTicks);
}

} // namespace
} // namespace ccnuma
