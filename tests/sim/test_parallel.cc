/**
 * @file
 * Thread pool and deterministic parallel-map tests (bench sweeps).
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel.hh"

namespace ccnuma
{
namespace
{

TEST(ThreadPool, RunsEveryPostedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.post([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.post([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.post([&ran] { ++ran; });
    pool.post([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, HardwareJobsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

TEST(ParallelMap, ResultsInInputOrder)
{
    std::vector<int> items(257);
    std::iota(items.begin(), items.end(), 0);
    // More workers than cores, fewer items than thread stride — the
    // collection order must still match the input order exactly.
    auto out = parallelMap(8, items, [](int v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelMap, SerialAndParallelAgree)
{
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 1);
    auto fn = [](int v) { return 3 * v + 1; };
    auto serial = parallelMap(1, items, fn);
    auto parallel = parallelMap(6, items, fn);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelForIndex, CoversEveryIndexOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelForIndex(5, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForIndex, InlineWhenSingleJob)
{
    // jobs=1 must run on the calling thread (no pool, exact serial
    // semantics for the default bench configuration).
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    parallelForIndex(1, 10, [&](std::size_t) {
        seen.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), caller);
}

TEST(ParallelForIndex, PropagatesFirstException)
{
    EXPECT_THROW(
        parallelForIndex(4, 100,
                         [](std::size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

/** Threads in this process right now (Linux: /proc/self/task). */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(ParallelForIndex, StartsNoMoreWorkersThanIndices)
{
    // 64 jobs over 2 indices: only 2 workers could take anything, so
    // only 2 threads may be started.
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "needs /proc/self/task to count threads";
    const std::size_t before = liveThreads();
    std::mutex m;
    std::set<std::thread::id> ids;
    std::size_t peak = 0;
    parallelForIndex(64, 2, [&](std::size_t) {
        std::lock_guard<std::mutex> g(m);
        ids.insert(std::this_thread::get_id());
        peak = std::max(peak, liveThreads());
    });
    EXPECT_LE(ids.size(), 2u);
    EXPECT_LE(peak, before + 2);
}

} // namespace
} // namespace ccnuma
