/**
 * @file
 * Trace-replay correctness: a captured reference stream must be
 * observationally identical to the coroutine it was recorded from —
 * op for op across every kernel and thread, and result for result
 * when driven through a whole Machine (including under seeded fault
 * injection, which perturbs timing but must never change which ops a
 * processor issues). A capture split across host threads must equal
 * the single-threaded one, and streams must replay exactly across
 * chunk boundaries. The cache plumbing is covered too: single-flight
 * capture dedup with callers joining the capture, a worker's failure
 * reaching every caller, LRU eviction at the byte cap, an oversize
 * trace kept out of the cache, and a persist directory refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "system/machine.hh"
#include "workload/replay.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace
{

WorkloadParams
tinyParams(unsigned threads = 4, double scale = 0.04)
{
    WorkloadParams p;
    p.numThreads = threads;
    p.scale = scale;
    return p;
}

/**
 * Identity text for a (kernel, params) pair. The cache compares
 * identities as opaque strings, so tests can use their own rendering
 * as long as it is injective over the workloads they create (the
 * campaign layer uses serve::canonicalWorkload, which renders every
 * WorkloadParams field the same way).
 */
std::string
identityOf(const std::string &app, const WorkloadParams &p)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/t%u/s%.6f/d%.6f/l%u/seed%llu",
                  app.c_str(), p.numThreads, p.scale, p.dataFactor,
                  p.lineBytes, (unsigned long long)p.seed);
    return buf;
}

std::vector<ThreadOp>
drain(OpStream s)
{
    std::vector<ThreadOp> ops;
    ThreadOp op;
    while (s.next(op))
        ops.push_back(op);
    return ops;
}

/** Resident size of @p app's captured trace under @p p. */
std::uint64_t
traceBytes(const std::string &app, const WorkloadParams &p)
{
    auto w = makeWorkload(app, p);
    return captureWorkload(*w, identityOf(app, p))->bytes();
}

bool
sameOp(const ThreadOp &a, const ThreadOp &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.count == b.count;
}

/**
 * @p inner with its streams declared dependent, so capture drains
 * them one after another in thread order on the calling thread: the
 * single-threaded reference for the split capture.
 */
struct SerialStreams : Workload
{
    std::unique_ptr<Workload> inner;
    explicit SerialStreams(std::unique_ptr<Workload> w)
        : Workload(w->params()), inner(std::move(w))
    {}
    std::string name() const override { return inner->name(); }
    OpStream thread(unsigned tid) override { return inner->thread(tid); }
    bool independentStreams() const override { return false; }
};

class ReplayKernels : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReplayKernels, CapturedStreamMatchesFreshGenerationOpForOp)
{
    const WorkloadParams p = tinyParams();
    auto captured = makeWorkload(GetParam(), p);
    auto buf = captureWorkload(*captured, identityOf(GetParam(), p));
    ASSERT_EQ(buf->threads.size(), p.numThreads);
    EXPECT_GT(buf->ops(), 0u);
    EXPECT_EQ(buf->bytes(), buf->ops() * sizeof(PackedOp));

    ReplayWorkload replayed(makeWorkload(GetParam(), p), buf);
    auto fresh = makeWorkload(GetParam(), p);
    for (unsigned tid = 0; tid < p.numThreads; ++tid) {
        std::vector<ThreadOp> want = drain(fresh->thread(tid));
        std::vector<ThreadOp> got = drain(replayed.thread(tid));
        ASSERT_EQ(got.size(), want.size()) << "thread " << tid;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(sameOp(got[i], want[i]))
                << GetParam() << " thread " << tid << " op " << i;
        }
    }
}

TEST_P(ReplayKernels, SplitCaptureMatchesSingleThreadedCapture)
{
    // Enough threads and ops that streams span several chunks and
    // the capture's workers interleave.
    const WorkloadParams p = tinyParams(16, 0.25);
    const std::string id = identityOf(GetParam(), p);
    auto split = makeWorkload(GetParam(), p);
    SerialStreams serial(makeWorkload(GetParam(), p));
    auto a = captureWorkload(*split, id);
    auto b = captureWorkload(serial, id);
    ASSERT_EQ(a->threads.size(), p.numThreads);
    EXPECT_GT(a->ops(), 0u);
    EXPECT_TRUE(a->threads == b->threads);
    EXPECT_EQ(a->bytes(), b->bytes());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ReplayKernels,
                         ::testing::ValuesIn(splashNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(Replay, MachineRunBitIdenticalUnderReplay)
{
    // Every workload that declares independent streams must run the
    // same live and replayed, down to the stats dump. Cholesky's
    // threads share a host-side task cursor, so it must say so.
    EXPECT_FALSE(makeWorkload("Cholesky", tinyParams())
                     ->independentStreams());
    std::vector<std::string> apps = {"Uniform"};
    for (const std::string &app : splashNames()) {
        if (app != "Cholesky")
            apps.push_back(app);
    }
    MachineConfig cfg = MachineConfig::base();
    cfg.numNodes = 2;
    cfg.node.procsPerNode = 2;
    cfg.withArch(Arch::PPC);
    const WorkloadParams p =
        tinyParams(cfg.totalProcs(), 0.05);

    for (const std::string &app : apps) {
        SCOPED_TRACE(app);
        ASSERT_TRUE(makeWorkload(app, p)->independentStreams());

        auto generated = makeWorkload(app, p);
        Machine m1(cfg);
        RunResult direct = m1.run(*generated);
        std::ostringstream liveStats;
        m1.printStats(liveStats);

        auto source = makeWorkload(app, p);
        auto buf = captureWorkload(*source, identityOf(app, p));
        ReplayWorkload replayed(makeWorkload(app, p), buf);
        Machine m2(cfg);
        RunResult viaReplay = m2.run(replayed);
        std::ostringstream replayStats;
        m2.printStats(replayStats);

        EXPECT_GT(direct.memRefs, 0u);
        EXPECT_EQ(direct.instructions, viaReplay.instructions);
        EXPECT_EQ(direct.execTicks, viaReplay.execTicks);
        EXPECT_EQ(direct.memRefs, viaReplay.memRefs);
        EXPECT_EQ(liveStats.str(), replayStats.str());
    }
}

TEST(Replay, SeededFaultCampaignComposesWithReplay)
{
    // Fault injection perturbs *timing* (seeded delay jitter and
    // engine stalls), not the reference stream, so a fault campaign
    // driven from a replayed trace must reproduce the generated-trace
    // run exactly, seed for seed.
    auto campaign = [](bool replay) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            MachineConfig cfg = MachineConfig::base();
            cfg.numNodes = 2;
            cfg.node.procsPerNode = 2;
            cfg.withArch(Arch::PPC);
            cfg.verify.faults.seed = seed;
            cfg.verify.faults.delayJitterProb = 0.3;
            cfg.verify.faults.delayJitterMax = 200;
            const WorkloadParams p =
                tinyParams(cfg.totalProcs(), 0.04);
            Machine m(cfg);
            RunResult r;
            if (replay) {
                auto src = makeWorkload("Radix", p);
                auto buf =
                    captureWorkload(*src, identityOf("Radix", p));
                ReplayWorkload w(makeWorkload("Radix", p), buf);
                r = m.run(w);
            } else {
                auto w = makeWorkload("Radix", p);
                r = m.run(*w);
            }
            EXPECT_GT(r.instructions, 0u);
            out.emplace_back(r.instructions, r.execTicks);
        }
        return out;
    };
    EXPECT_EQ(campaign(false), campaign(true));
}

TEST(Replay, CacheServesSecondAcquireFromMemory)
{
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("LU", p);
    auto make = [&] { return makeWorkload("LU", p); };

    auto first = cache.acquire(id, make);
    auto second = cache.acquire(id, make);
    EXPECT_EQ(first.get(), second.get());

    ReplayStats st = cache.stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.bytes, first->bytes());
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
}

TEST(Replay, ConcurrentAcquiresShareOneCapture)
{
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("FFT", p);
    std::vector<std::shared_ptr<const ReplayBuffer>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] {
            got[i] = cache.acquire(
                id, [&] { return makeWorkload("FFT", p); });
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &b : got) {
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b.get(), got[0].get());
    }
    EXPECT_EQ(cache.stats().captures, 1u);
}

TEST(Replay, JoinersShareOneCaptureAndCountAsDedupWaits)
{
    // Hold the owner in make() until every caller is inside acquire,
    // so the others find the capture in flight and join it.
    constexpr unsigned callers = 4;
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams(16, 0.1);
    const std::string id = identityOf("LU", p);
    std::latch arrived(callers);
    std::vector<std::shared_ptr<const ReplayBuffer>> got(callers);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < callers; ++i) {
        threads.emplace_back([&, i] {
            arrived.count_down();
            got[i] = cache.acquire(id, [&] {
                arrived.wait();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                return makeWorkload("LU", p);
            });
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &b : got) {
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b.get(), got[0].get());
    }
    ReplayStats st = cache.stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.dedupWaits, callers - 1);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.75);

    auto fresh = makeWorkload("LU", p);
    auto serial = captureWorkload(*fresh, id);
    EXPECT_TRUE(got[0]->threads == serial->threads);
}

TEST(Replay, FailureOffTheOwnerThreadReachesEveryCaller)
{
    // Streams generated on any host thread but the owner's yield an
    // op that does not pack, so the fatal is raised on a helper or a
    // joiner. The owner's own streams are slow, so other workers are
    // sure to take some.
    struct FailsOffOwner : Workload
    {
        std::thread::id owner = std::this_thread::get_id();
        explicit FailsOffOwner(const WorkloadParams &p) : Workload(p) {}
        std::string name() const override { return "FailsOffOwner"; }
        OpStream
        thread(unsigned) override
        {
            if (std::this_thread::get_id() != owner) {
                co_yield ThreadOp{};
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                co_yield ThreadOp::load(64);
            }
        }
    };
    constexpr unsigned callers = 4;
    ReplayCache cache(64 << 20);
    const WorkloadParams p = tinyParams(16);
    const std::string id = "fails-off-owner";
    std::latch arrived(callers);
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < callers; ++i) {
        threads.emplace_back([&] {
            arrived.count_down();
            try {
                cache.acquire(id, [&]() -> std::unique_ptr<Workload> {
                    arrived.wait();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                    return std::make_unique<FailsOffOwner>(p);
                });
            } catch (const FatalError &) {
                ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), callers);
    ReplayStats st = cache.stats();
    EXPECT_EQ(st.captures, 0u);
    EXPECT_EQ(st.dedupWaits, 0u);
    EXPECT_EQ(st.entries, 0u);

    // No in-flight entry is left behind: the next request captures.
    auto buf = cache.acquire(id, [&] { return makeWorkload("FFT", p); });
    ASSERT_NE(buf, nullptr);
    EXPECT_GT(buf->ops(), 0u);
    EXPECT_EQ(cache.stats().captures, 1u);
}

TEST(Replay, StreamsAroundChunkBoundariesReplayExactly)
{
    const std::size_t sizes[] = {0,
                                 1,
                                 replayChunkOps - 1,
                                 replayChunkOps,
                                 replayChunkOps + 1,
                                 2 * replayChunkOps + 1};
    std::vector<std::vector<ThreadOp>> scripts;
    for (std::size_t n : sizes) {
        std::vector<ThreadOp> ops;
        for (std::size_t i = 0; i < n; ++i) {
            ops.push_back(i % 3 == 0 ? ThreadOp::compute(
                                           static_cast<std::uint32_t>(i))
                                     : ThreadOp::store(64 * (i + n)));
        }
        scripts.push_back(std::move(ops));
    }
    const WorkloadParams p =
        tinyParams(static_cast<unsigned>(scripts.size()));
    ReplayCache cache(64 << 20);
    auto buf = cache.acquire("chunks", [&] {
        return std::make_unique<ScriptWorkload>(p, scripts);
    });

    ReplayWorkload replayed(std::make_unique<ScriptWorkload>(p, scripts),
                            buf);
    for (unsigned t = 0; t < scripts.size(); ++t) {
        SCOPED_TRACE("stream of " + std::to_string(sizes[t]));
        EXPECT_EQ(buf->threads[t].size(), sizes[t]);
        EXPECT_EQ(buf->threads[t].numChunks(),
                  (sizes[t] + replayChunkOps - 1) / replayChunkOps);
        // Move the stream half way through: a replay cursor must
        // carry its chunk position with it.
        OpStream s = replayed.thread(t);
        std::vector<ThreadOp> got;
        ThreadOp op;
        for (std::size_t i = 0; i < sizes[t] / 2 && s.next(op); ++i)
            got.push_back(op);
        OpStream moved = std::move(s);
        EXPECT_FALSE(s.next(op));
        while (moved.next(op))
            got.push_back(op);
        EXPECT_FALSE(moved.next(op));
        ASSERT_EQ(got.size(), scripts[t].size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_TRUE(sameOp(got[i], scripts[t][i])) << "op " << i;
    }
}

TEST(Replay, ByteCapEvictsLeastRecentlyUsed)
{
    const WorkloadParams p = tinyParams();
    const std::uint64_t fft = traceBytes("FFT", p);
    const std::uint64_t radix = traceBytes("Radix", p);

    // Room for either trace on its own, not for both.
    const std::uint64_t cap =
        std::max(fft, radix) + std::min(fft, radix) / 2;
    ReplayCache cache(cap);
    cache.acquire(identityOf("FFT", p),
                  [&] { return makeWorkload("FFT", p); });
    cache.acquire(identityOf("Radix", p),
                  [&] { return makeWorkload("Radix", p); });
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, cap);

    // The evicted identity is regenerated, not wrongly served.
    cache.acquire(identityOf("FFT", p),
                  [&] { return makeWorkload("FFT", p); });
    EXPECT_EQ(cache.stats().captures, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Replay, OversizeTraceLeavesResidentSetAlone)
{
    // Admitting a trace larger than the whole cap would flush every
    // resident trace, itself included. It must go back to its caller
    // unadmitted, and what was resident stays resident.
    const WorkloadParams p = tinyParams();
    const std::uint64_t fft = traceBytes("FFT", p);
    const std::uint64_t radix = traceBytes("Radix", p);
    ASSERT_LT(fft, radix);

    ReplayCache cache(fft + (radix - fft) / 2);
    auto small = cache.acquire(identityOf("FFT", p),
                               [&] { return makeWorkload("FFT", p); });
    auto big = cache.acquire(identityOf("Radix", p),
                             [&] { return makeWorkload("Radix", p); });
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(big->bytes(), radix);
    ReplayStats st = cache.stats();
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.bytes, fft);

    auto again = cache.acquire(identityOf("FFT", p),
                               [&] { return makeWorkload("FFT", p); });
    EXPECT_EQ(again.get(), small.get());
    st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.captures, 2u);
}

TEST(Replay, CaptureRefusesOpsThatDoNotPack)
{
    // A replayed stream must equal the generated one field for field,
    // so an op the 8-byte encoding cannot carry exactly is fatal.
    struct OneOp : Workload
    {
        ThreadOp op;
        OneOp(const WorkloadParams &p, ThreadOp o) : Workload(p), op(o)
        {}
        std::string name() const override { return "OneOp"; }
        OpStream
        thread(unsigned) override
        {
            co_yield op;
        }
    };
    WorkloadParams p = tinyParams(1);
    ThreadOp wide = ThreadOp::load(Addr(1) << packedKindShift);
    ThreadOp loadWithCount = ThreadOp::store(64);
    loadWithCount.count = 3;
    ThreadOp lockWithAddr = ThreadOp::lock(2);
    lockWithAddr.addr = 64;
    for (ThreadOp bad : {wide, loadWithCount, lockWithAddr, ThreadOp{}}) {
        OneOp w(p, bad);
        EXPECT_THROW(captureWorkload(w, "bad"), FatalError);
    }
    ThreadOp top = ThreadOp::store(packedPayloadMask);
    OneOp w(p, top);
    auto buf = captureWorkload(w, "top");
    ASSERT_EQ(buf->ops(), 1u);
    EXPECT_TRUE(sameOp(unpackOp(buf->threads[0][0]), top));
}

TEST(Replay, CacheRefusesAPersistDirectory)
{
    // Traces live in memory only. A caller that still names a
    // directory would believe its traces persist, so that is fatal.
    EXPECT_NO_THROW(ReplayCache(1 << 20, ""));
    EXPECT_THROW(ReplayCache(1 << 20, "replay-traces"), FatalError);
}

TEST(Replay, BytesEnvTakesPositiveIntegersOnly)
{
    // A bare strtoull read "abc" as a cap of 0 (replay silently off)
    // and "256M" as 256 bytes; both must keep the default instead.
    unsetenv("CCNUMA_REPLAY_BYTES");
    EXPECT_EQ(replayBytesFromEnv(), defaultReplayBytes);
    for (const char *bad : {"abc", "256M", "0", "-1", "1e9", ""}) {
        SCOPED_TRACE(std::string("CCNUMA_REPLAY_BYTES=") + bad);
        ASSERT_EQ(setenv("CCNUMA_REPLAY_BYTES", bad, 1), 0);
        EXPECT_EQ(replayBytesFromEnv(), defaultReplayBytes);
    }
    ASSERT_EQ(setenv("CCNUMA_REPLAY_BYTES", "1048576", 1), 0);
    EXPECT_EQ(replayBytesFromEnv(), 1048576u);
    unsetenv("CCNUMA_REPLAY_BYTES");
}

} // namespace
} // namespace ccnuma
