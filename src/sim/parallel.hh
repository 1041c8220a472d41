/**
 * @file
 * Worker-thread pool for parallel bench sweeps.
 *
 * The simulator itself is strictly single-threaded and deterministic:
 * one Machine owns one EventQueue and never shares mutable state with
 * another. That isolation is what makes sweep-level parallelism free —
 * each (architecture × workload) point builds its own Machine, so N
 * points can run on N threads with bit-identical per-point results.
 *
 * ThreadPool is a plain fixed-size pool (condition-variable queue);
 * parallelMap() is the deterministic-order helper the benches use:
 * results come back indexed by input position regardless of which
 * worker finished first, and the first exception (if any) is rethrown
 * in the caller after all workers drain.
 */

#ifndef CCNUMA_SIM_PARALLEL_HH
#define CCNUMA_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ccnuma
{

/** Fixed-size worker pool. Tasks are plain closures. */
class ThreadPool
{
  public:
    /**
     * @param jobs worker count; 0 selects the hardware concurrency.
     */
    explicit ThreadPool(unsigned jobs = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /** Enqueue @p task for execution on some worker. */
    void post(std::function<void()> task);

    /** Block until every posted task has finished running. */
    void wait();

    /** @return the machine's hardware concurrency (at least 1). */
    static unsigned hardwareJobs();

  private:
    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cvWork_;
    std::condition_variable cvIdle_;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    bool stopping_ = false;
};

/**
 * Apply @p fn to every index in [0, n) using @p jobs workers.
 * Index order of execution is unspecified; completion is awaited.
 * jobs <= 1 runs inline (no threads), preserving exact serial
 * behavior for the default bench configuration.
 */
template <typename Fn>
void
parallelForIndex(unsigned jobs, std::size_t n, Fn &&fn)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // One worker per index at most: a worker with nothing to take
    // would only be started and joined.
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
    std::atomic<std::size_t> next{0};
    std::mutex emu;
    std::exception_ptr first;
    for (unsigned w = 0; w < pool.jobs(); ++w) {
        pool.post([&] {
            while (true) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> g(emu);
                    if (!first)
                        first = std::current_exception();
                }
            }
        });
    }
    pool.wait();
    if (first)
        std::rethrow_exception(first);
}

/**
 * Map @p fn over @p items on @p jobs workers and return the results
 * in input order — the deterministic-collection primitive for bench
 * sweeps. @p fn must be callable concurrently from multiple threads.
 */
template <typename T, typename Fn>
auto
parallelMap(unsigned jobs, const std::vector<T> &items, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(items[0]))>>
{
    using R = std::decay_t<decltype(fn(items[0]))>;
    std::vector<R> results(items.size());
    parallelForIndex(jobs, items.size(),
                     [&](std::size_t i) { results[i] = fn(items[i]); });
    return results;
}

} // namespace ccnuma

#endif // CCNUMA_SIM_PARALLEL_HH
