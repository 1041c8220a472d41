/**
 * @file
 * Trace-replay correctness: a captured reference stream must be
 * observationally identical to the coroutine it was recorded from —
 * op for op across every kernel and thread, and result for result
 * when driven through a whole Machine (including under seeded fault
 * injection, which perturbs timing but must never change which ops a
 * processor issues). A capture split across host threads must equal
 * the single-threaded one, in memory and on disk, and streams must
 * replay exactly across chunk boundaries. The cache plumbing is
 * covered too: single-flight capture dedup with callers joining the
 * capture, a worker's failure reaching every caller, LRU eviction at
 * the byte cap, an oversize trace kept
 * out of the cache, disk persistence with a fresh process's cold
 * cache served from disk, and stale disk files (identity-text
 * mismatch, seeded corruption, the version 1 format) rejected and
 * regenerated instead of silently replayed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <random>
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

/** RAII temporary directory for the persistence tests. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("ccnuma_replay_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    static unsigned &
    counter()
    {
        static unsigned n = 0;
        return n;
    }
};

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

std::string
readFile(const std::filesystem::path &f)
{
    std::ifstream is(f, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

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
    TempDir dir;
    ReplayCache warm(64 << 20, dir.path.string());
    auto buf = warm.acquire("chunks", [&] {
        return std::make_unique<ScriptWorkload>(p, scripts);
    });
    ReplayCache cold(64 << 20, dir.path.string());
    auto loaded = cold.acquire("chunks", [&] {
        return std::make_unique<ScriptWorkload>(p, scripts);
    });
    EXPECT_EQ(cold.stats().diskHits, 1u);

    for (const auto &b : {buf, loaded}) {
        ReplayWorkload replayed(std::make_unique<ScriptWorkload>(p, scripts),
                                b);
        for (unsigned t = 0; t < scripts.size(); ++t) {
            SCOPED_TRACE("stream of " + std::to_string(sizes[t]));
            EXPECT_EQ(b->threads[t].size(), sizes[t]);
            EXPECT_EQ(b->threads[t].numChunks(),
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
}

TEST(Replay, SplitCaptureWritesTheSerialCapturesFile)
{
    // The same identity captured split and serially must persist the
    // same bytes, and the split capture's file must load.
    const WorkloadParams p = tinyParams(16, 0.1);
    for (const std::string app : {"LU", "Radix", "Barnes"}) {
        SCOPED_TRACE(app);
        const std::string id = identityOf(app, p);
        TempDir split, serial;
        {
            ReplayCache a(64 << 20, split.path.string());
            a.acquire(id, [&] { return makeWorkload(app, p); });
            ReplayCache b(64 << 20, serial.path.string());
            b.acquire(id, [&]() -> std::unique_ptr<Workload> {
                return std::make_unique<SerialStreams>(
                    makeWorkload(app, p));
            });
        }
        auto only = [](const TempDir &d) {
            std::filesystem::path f;
            for (const auto &e :
                 std::filesystem::directory_iterator(d.path))
                f = e.path();
            return f;
        };
        const std::filesystem::path fs = only(split), fr = only(serial);
        ASSERT_FALSE(fs.empty());
        EXPECT_EQ(fs.filename(), fr.filename());
        EXPECT_TRUE(readFile(fs) == readFile(fr));

        ReplayCache cold(64 << 20, split.path.string());
        auto loaded = cold.acquire(id, [&] { return makeWorkload(app, p); });
        EXPECT_EQ(cold.stats().diskHits, 1u);
        auto fresh = makeWorkload(app, p);
        EXPECT_TRUE(loaded->threads == captureWorkload(*fresh, id)->threads);
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

TEST(Replay, DiskPersistServesColdCache)
{
    TempDir dir;
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("Cholesky", p);
    auto make = [&] { return makeWorkload("Cholesky", p); };

    ReplayCache warm(64 << 20, dir.path.string());
    auto captured = warm.acquire(id, make);
    EXPECT_EQ(warm.stats().captures, 1u);
    ASSERT_FALSE(
        std::filesystem::is_empty(dir.path));

    // A new cache (fresh process, in spirit) must serve the identity
    // from disk without running the generator.
    ReplayCache cold(64 << 20, dir.path.string());
    auto loaded = cold.acquire(id, make);
    EXPECT_EQ(cold.stats().captures, 0u);
    EXPECT_EQ(cold.stats().diskHits, 1u);
    ASSERT_EQ(loaded->threads.size(), captured->threads.size());
    for (std::size_t t = 0; t < loaded->threads.size(); ++t) {
        ASSERT_EQ(loaded->threads[t].size(),
                  captured->threads[t].size());
        for (std::size_t i = 0; i < loaded->threads[t].size(); ++i) {
            ASSERT_EQ(loaded->threads[t][i], captured->threads[t][i])
                << "thread " << t << " op " << i;
        }
    }
    EXPECT_EQ(loaded->identity, id);
}

TEST(Replay, StaleDiskFileRejectedAndRegenerated)
{
    // Hashes only *name* disk files; the identity text stored inside
    // is what gets trusted. Cross-wire two identities' files so the
    // requested name holds the wrong trace: the load must be counted
    // as a stale reject and the trace regenerated, never replayed.
    TempDir dirA, dirB;
    const WorkloadParams p = tinyParams();
    const std::string idA = identityOf("FFT", p);
    const std::string idB = identityOf("Barnes", p);

    {
        ReplayCache a(64 << 20, dirA.path.string());
        a.acquire(idA, [&] { return makeWorkload("FFT", p); });
        ReplayCache b(64 << 20, dirB.path.string());
        b.acquire(idB, [&] { return makeWorkload("Barnes", p); });
    }
    std::filesystem::path fileA, fileB;
    for (const auto &e :
         std::filesystem::directory_iterator(dirA.path))
        fileA = e.path();
    for (const auto &e :
         std::filesystem::directory_iterator(dirB.path))
        fileB = e.path();
    ASSERT_FALSE(fileA.empty());
    ASSERT_FALSE(fileB.empty());
    // idB's file name now holds idA's payload.
    std::filesystem::copy_file(
        fileA, fileB,
        std::filesystem::copy_options::overwrite_existing);

    ReplayCache victim(64 << 20, dirB.path.string());
    auto buf = victim.acquire(
        idB, [&] { return makeWorkload("Barnes", p); });
    EXPECT_EQ(victim.stats().staleRejects, 1u);
    EXPECT_EQ(victim.stats().diskHits, 0u);
    EXPECT_EQ(victim.stats().captures, 1u);
    EXPECT_EQ(buf->identity, idB);

    // Regeneration also rewrote the stale file: a fresh cache now
    // loads the *correct* trace from disk.
    ReplayCache healed(64 << 20, dirB.path.string());
    healed.acquire(idB, [&] { return makeWorkload("Barnes", p); });
    EXPECT_EQ(healed.stats().diskHits, 1u);
    EXPECT_EQ(healed.stats().staleRejects, 0u);
}

TEST(Replay, TruncatedDiskFileIsIgnored)
{
    TempDir dir;
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("Ocean", p);
    {
        ReplayCache warm(64 << 20, dir.path.string());
        warm.acquire(id, [&] { return makeWorkload("Ocean", p); });
    }
    std::filesystem::path file;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path))
        file = e.path();
    ASSERT_FALSE(file.empty());
    std::filesystem::resize_file(file, 12);

    ReplayCache cold(64 << 20, dir.path.string());
    auto buf = cold.acquire(
        id, [&] { return makeWorkload("Ocean", p); });
    EXPECT_EQ(cold.stats().diskHits, 0u);
    EXPECT_EQ(cold.stats().captures, 1u);
    EXPECT_GT(buf->ops(), 0u);
}

void
writeFile(const std::filesystem::path &f, const std::string &bytes)
{
    std::ofstream os(f, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
putU64(std::string &bytes, std::size_t at, std::uint64_t v)
{
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

std::uint64_t
getU64(const std::string &bytes, std::size_t at)
{
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

/** @p b in the version 1 layout: 24-byte ThreadOp records. */
std::string
versionOneFile(const ReplayBuffer &b)
{
    std::string out("CCNREPL1", 8);
    auto u64 = [&out](std::uint64_t v) {
        out.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    u64(b.identity.size());
    out += b.identity;
    u64(b.threads.size());
    for (const auto &t : b.threads)
        u64(t.size());
    for (const auto &t : b.threads) {
        for (PackedOp p : t) {
            ThreadOp op = unpackOp(p);
            out.append(reinterpret_cast<const char *>(&op), sizeof(op));
        }
    }
    return out;
}

TEST(Replay, CorruptDiskFilesAreRejectedNeverReplayed)
{
    // Seeded mutations of a persisted trace: truncations, bit flips
    // anywhere (counts and ops included), huge counts and thread
    // numbers, an op of no known kind, and a version 1 file. Every
    // one must be a counted stale reject followed by a recapture that
    // returns the true trace: never a crash, a wrong replay, or an
    // allocation sized by a corrupt count.
    TempDir dir;
    const WorkloadParams p = tinyParams();
    const std::string id = identityOf("FFT", p);
    auto make = [&] { return makeWorkload("FFT", p); };
    std::shared_ptr<const ReplayBuffer> truth;
    {
        ReplayCache warm(64 << 20, dir.path.string());
        truth = warm.acquire(id, make);
    }
    std::filesystem::path file;
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        file = e.path();
    ASSERT_FALSE(file.empty());
    const std::string pristine = readFile(file);

    // Offsets in the version 2 layout.
    const std::size_t threadsAt = 16 + id.size();
    const std::size_t countsAt = threadsAt + 8;
    const std::size_t opsAt = countsAt + 8 * truth->threads.size();
    ASSERT_EQ(pristine.size(), opsAt + truth->bytes() + 8);
    ASSERT_EQ(getU64(pristine, threadsAt), truth->threads.size());

    std::mt19937_64 rng(14);
    auto pick = [&rng](std::size_t lo, std::size_t hi) {
        return std::uniform_int_distribution<std::size_t>(lo, hi - 1)(
            rng);
    };
    std::vector<std::pair<std::string, std::string>> cases;
    auto flipBit = [&](const char *what, std::size_t lo,
                       std::size_t hi) {
        std::string b = pristine;
        std::size_t bit = pick(lo * 8, hi * 8);
        b[bit / 8] = static_cast<char>(b[bit / 8] ^ (1 << (bit % 8)));
        cases.emplace_back(what + std::to_string(bit), b);
    };
    for (int i = 0; i < 12; ++i) {
        std::size_t len = pick(0, pristine.size());
        cases.emplace_back("truncate to " + std::to_string(len),
                           pristine.substr(0, len));
    }
    for (int i = 0; i < 12; ++i)
        flipBit("flip count bit ", countsAt, opsAt);
    for (int i = 0; i < 24; ++i)
        flipBit("flip op bit ", opsAt, pristine.size() - 8);
    for (int i = 0; i < 12; ++i)
        flipBit("flip any bit ", 0, pristine.size());
    const std::uint64_t hugeValues[] = {
        ~0ull, 1ull << 61, 1ull << 40, getU64(pristine, countsAt) + 1};
    for (std::uint64_t huge : hugeValues) {
        std::string b = pristine;
        putU64(b, countsAt, huge);
        cases.emplace_back("count " + std::to_string(huge), b);
        b = pristine;
        putU64(b, threadsAt, huge);
        cases.emplace_back("threads " + std::to_string(huge), b);
    }
    {
        // Move one op from thread 0's count to thread 1's: the sizes
        // still add up, so only the checksum can tell.
        std::string b = pristine;
        putU64(b, countsAt, getU64(b, countsAt) - 1);
        putU64(b, countsAt + 8, getU64(b, countsAt + 8) + 1);
        cases.emplace_back("shifted counts", b);
        // Two counts each 2^63 too large: their sum wraps back to the
        // true total, so only a per-count bound stops the allocation.
        b = pristine;
        putU64(b, countsAt, getU64(b, countsAt) + (1ull << 63));
        putU64(b, countsAt + 8, getU64(b, countsAt + 8) + (1ull << 63));
        cases.emplace_back("wrapping counts", b);
        b = pristine;
        putU64(b, opsAt, getU64(b, opsAt) | (7ull << packedKindShift));
        cases.emplace_back("op kind 7", b);
        b = pristine + std::string(8, '\0');
        cases.emplace_back("trailing word", b);
    }
    cases.emplace_back("version 1", versionOneFile(*truth));

    for (const auto &[what, bytes] : cases) {
        SCOPED_TRACE(what);
        writeFile(file, bytes);
        ReplayCache cold(64 << 20, dir.path.string());
        auto got = cold.acquire(id, make);
        ReplayStats st = cold.stats();
        EXPECT_EQ(st.staleRejects, 1u);
        EXPECT_EQ(st.diskHits, 0u);
        EXPECT_EQ(st.captures, 1u);
        ASSERT_NE(got, nullptr);
        EXPECT_TRUE(got->threads == truth->threads);
    }
    // The last recapture rewrote a well-formed file.
    ReplayCache healed(64 << 20, dir.path.string());
    EXPECT_TRUE(healed.acquire(id, make)->threads == truth->threads);
    EXPECT_EQ(healed.stats().diskHits, 1u);
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
