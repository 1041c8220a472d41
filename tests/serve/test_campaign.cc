/**
 * @file
 * Campaign specs and the one-execution-path guarantee: spec
 * validation, grid expansion, and — the load-bearing check — results
 * served through the campaign backend (SimPoint resolution, cache,
 * CampaignRunner) are bit-identical to direct bench-style runs, with
 * the refactored harness pinned against pre-refactor golden numbers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "serve/campaign.hh"
#include "serve/result_io.hh"
#include "serve/session.hh"

using namespace ccnuma;
using namespace ccnuma::serve;

namespace
{

TEST(CampaignSpec, ParsesFullSpec)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"name\": \"n\", \"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"2PPC\"], \"scale\": 0.1, "
        "\"procs\": 32, \"seeds\": [1, 2], \"dataFactor\": 2.0, "
        "\"lineBytes\": 64, \"netLatencyTicks\": 28, "
        "\"shards\": 4, \"priority\": 2}");
    EXPECT_EQ(s.name, "n");
    ASSERT_EQ(s.apps.size(), 2u);
    ASSERT_EQ(s.archs.size(), 2u);
    EXPECT_EQ(s.archs[0], Arch::HWC);
    EXPECT_EQ(s.archs[1], Arch::TwoPPC);
    EXPECT_DOUBLE_EQ(s.scale, 0.1);
    EXPECT_EQ(s.procs, 32u);
    ASSERT_EQ(s.seeds.size(), 2u);
    EXPECT_EQ(s.lineBytes, 64u);
    EXPECT_EQ(s.netLatencyTicks, 28u);
    EXPECT_EQ(s.shards, 4u);
    EXPECT_EQ(s.priority, 2u);
    EXPECT_EQ(s.numPoints(), 8u);
}

TEST(CampaignSpec, DefaultsApply)
{
    CampaignSpec s = parseCampaignSpec("{\"apps\": [\"FFT\"]}");
    EXPECT_EQ(s.archs.size(), 4u); // all four architectures
    EXPECT_EQ(s.seeds.size(), 1u);
    EXPECT_DOUBLE_EQ(s.scale, 0.5);
    EXPECT_EQ(s.procs, 64u);
    EXPECT_EQ(s.priority, 0u);
}

TEST(CampaignSpec, RejectsInvalidSpecs)
{
    EXPECT_THROW(parseCampaignSpec("not json"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("[]"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("{}"), CampaignError);
    EXPECT_THROW(parseCampaignSpec("{\"apps\": []}"),
                 CampaignError);
    EXPECT_THROW(parseCampaignSpec("{\"apps\": [\"NoSuchApp\"]}"),
                 CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"archs\": [\"PP\"]}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"scale\": 0}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"scale\": 9}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec("{\"apps\": [\"FFT\"], \"procs\": 0}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"lineBytes\": 96}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"priority\": 3}"),
        CampaignError);
    EXPECT_THROW(
        parseCampaignSpec(
            "{\"apps\": [\"FFT\"], \"seeds\": \"12\"}"),
        CampaignError);
    // Unsigned fields past UINT_MAX are rejected, not narrowed:
    // 4294967360 is 2^32 + 64, which would read as 64 processors.
    for (const char *field :
         {"\"procs\": 4294967360", "\"lineBytes\": 4294967424",
          "\"shards\": 4294967298", "\"priority\": 4294967297"}) {
        SCOPED_TRACE(field);
        EXPECT_THROW(parseCampaignSpec(std::string(
                         "{\"apps\": [\"FFT\"], ") + field + "}"),
                     CampaignError);
    }
}

TEST(CampaignExpand, GridOrderAndConventions)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 64, \"seeds\": [1, 2]}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 8u);

    // App-major, then arch, then seed.
    EXPECT_EQ(points[0].app, "FFT");
    EXPECT_EQ(points[0].wp.seed, 1u);
    EXPECT_EQ(points[1].wp.seed, 2u);
    EXPECT_EQ(points[2].cfg.node.cc.engineType, EngineType::PP);
    EXPECT_EQ(points[4].app, "LU");

    // FFT gets all 64 procs; LU honors the paper's 32-proc cap.
    EXPECT_EQ(points[0].wp.numThreads, 64u);
    EXPECT_EQ(points[4].wp.numThreads, 32u);

    // Distinct seeds must produce distinct cache keys.
    EXPECT_NE(points[0].key().hash, points[1].key().hash);
}

TEST(CampaignExpand, TweaksApplyToTheConfig)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\"], \"archs\": [\"HWC\"], "
        "\"lineBytes\": 32, \"netLatencyTicks\": 28}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].cfg.node.cache.lineBytes, 32u);
    EXPECT_EQ(points[0].wp.lineBytes, 32u); // post-tweak line size
    EXPECT_EQ(points[0].cfg.net.flightLatency, 28u);
}

TEST(SimPoint, EnvOverridesReachTheKey)
{
    // Machine applies the CCNUMA_* overrides before it runs, so the
    // cache key must be taken from the overridden configuration: a
    // daemon started with CCNUMA_SHARDS=2 runs deferred-grant timing
    // and must not file the result under undeferred serial.
    for (const char *var : {"CCNUMA_RELIABLE", "CCNUMA_SHARDS"})
        unsetenv(var);
    auto key = [] {
        return makeSimPoint("FFT", Arch::HWC, 16, 0.05).key().canonical;
    };
    const std::string plain = key();
    for (const char *var : {"CCNUMA_RELIABLE", "CCNUMA_SHARDS"}) {
        SCOPED_TRACE(var);
        ASSERT_EQ(setenv(var, var == std::string("CCNUMA_SHARDS") ? "2"
                                                                  : "1",
                         1),
                  0);
        EXPECT_NE(key(), plain);
        unsetenv(var);
        EXPECT_EQ(key(), plain);
    }
    ASSERT_EQ(setenv("CCNUMA_SHARDS", "2", 1), 0);
    SimPoint sharded = makeSimPoint("FFT", Arch::HWC, 16, 0.05);
    unsetenv("CCNUMA_SHARDS");
    EXPECT_EQ(sharded.cfg.shards, 2u);
    EXPECT_NE(sharded.key().canonical.find("sync.deferredGrants=1"),
              std::string::npos);
}

TEST(SimPoint, TraceEnvIsSeenBeforePlanning)
{
    // CCNUMA_TRACE is read where the other overrides are, so the
    // point's configuration already plans the traced run: serial,
    // with the sharded run's deferred grants and key.
    unsetenv("CCNUMA_TRACE");
    const SimPoint plain =
        makeSimPoint("FFT", Arch::HWC, 16, 0.05, 1.0, nullptr, 2);
    ASSERT_EQ(plain.cfg.shardPlan().shards, 2u);
    ASSERT_EQ(setenv("CCNUMA_TRACE", "1", 1), 0);
    const SimPoint traced =
        makeSimPoint("FFT", Arch::HWC, 16, 0.05, 1.0, nullptr, 2);
    unsetenv("CCNUMA_TRACE");
    EXPECT_TRUE(traced.cfg.obs.enabled);
    EXPECT_EQ(traced.cfg.shards, 2u);
    const ShardPlan plan = traced.cfg.shardPlan();
    EXPECT_EQ(plan.shards, 1u);
    EXPECT_NE(plan.fallback, nullptr);
    EXPECT_TRUE(plan.deferredGrants);
    EXPECT_EQ(traced.key().canonical, plain.key().canonical);
}

/**
 * The one-execution-path guarantee, end to end: expanding a campaign
 * and running it through CampaignRunner + cache yields results
 * bit-identical to direct SimSession runs of the same points —
 * 2 kernels x 2 architectures.
 */
TEST(CampaignIdentity, ServedEqualsDirectTwoKernelsTwoArchs)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 16}");
    std::vector<SimPoint> points = expandCampaign(s);
    ASSERT_EQ(points.size(), 4u);

    ResultCache cache(1 << 20);
    CampaignRunner runner(2, &cache);
    std::vector<PointOutcome> served = runner.run(points);
    ASSERT_EQ(served.size(), points.size());

    SimSession session;
    for (std::size_t i = 0; i < points.size(); ++i) {
        RunResult direct = session.run(points[i]);
        EXPECT_TRUE(resultsIdentical(served[i].result, direct))
            << points[i].app << " point " << i
            << ": served result differs from a direct run";
    }

    // Running the same campaign again is served without simulating.
    std::vector<PointOutcome> again = runner.run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(again[i].fromCache);
        EXPECT_TRUE(
            resultsIdentical(again[i].result, served[i].result));
    }
    EXPECT_EQ(cache.stats().hits, points.size());
}

/**
 * Pre-refactor goldens: these exact numbers were produced by the
 * bench harness BEFORE it was rebased onto the serve backend
 * (bench_fig6_base at --scale=0.05 --procs=16). The refactor
 * promised byte-identical results; this pins it.
 *
 * execTicks re-pinned in PR 10: serial runs restored the seed's
 * zero-delay sync wakes, so serial cycle counts shifted slightly
 * (every other field is unchanged).
 */
TEST(CampaignIdentity, MatchesPreRefactorFig6Goldens)
{
    CampaignSpec s = parseCampaignSpec(
        "{\"apps\": [\"FFT\", \"LU\"], "
        "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.05, "
        "\"procs\": 16}");
    std::vector<SimPoint> points = expandCampaign(s);
    CampaignRunner runner(2, nullptr);
    std::vector<PointOutcome> out = runner.run(points);
    ASSERT_EQ(out.size(), 4u);

    const RunResult &fft_hwc = out[0].result;
    EXPECT_EQ(fft_hwc.workload, "FFT-256");
    EXPECT_EQ(fft_hwc.execTicks, 17353u);
    EXPECT_EQ(fft_hwc.instructions, 31136u);
    EXPECT_EQ(fft_hwc.memRefs, 5024u);
    EXPECT_EQ(fft_hwc.misses, 949u);
    EXPECT_EQ(fft_hwc.ccRequests, 987u);
    EXPECT_EQ(fft_hwc.ccOccupancy, 26658u);

    const RunResult &fft_ppc = out[1].result;
    EXPECT_EQ(fft_ppc.execTicks, 30459u);
    EXPECT_EQ(fft_ppc.ccRequests, 982u);
    EXPECT_EQ(fft_ppc.ccOccupancy, 59018u);

    const RunResult &lu_hwc = out[2].result;
    EXPECT_EQ(lu_hwc.execTicks, 63257u);
    EXPECT_EQ(lu_hwc.instructions, 69312u);
    EXPECT_EQ(lu_hwc.memRefs, 3776u);
    EXPECT_EQ(lu_hwc.misses, 230u);
    EXPECT_EQ(lu_hwc.ccRequests, 203u);
    EXPECT_EQ(lu_hwc.ccOccupancy, 5902u);

    const RunResult &lu_ppc = out[3].result;
    EXPECT_EQ(lu_ppc.execTicks, 66649u);
    EXPECT_EQ(lu_ppc.ccRequests, 206u);
    EXPECT_EQ(lu_ppc.ccOccupancy, 12863u);
}

} // namespace
