/**
 * @file
 * Trace-replay fast path for repeated-identity sweeps.
 *
 * Figure sweeps (fig6-fig12) run the same eight kernels dozens of
 * times while varying only *machine* parameters — protocol, occupancy,
 * network latency, shard count. The reference stream a kernel feeds
 * the simulated processors depends on none of those: it is fully
 * determined by the workload identity (kernel name plus every
 * WorkloadParams field). Generating it from the data-computing
 * coroutines again for every sweep point is pure waste.
 *
 * This module captures each identity's per-thread operation streams
 * once into a ReplayBuffer, packed 8 bytes per op (PackedOp) in
 * fixed-size chunks, and replays them allocation-free through
 * OpStream::fromBuffer for every later point with the same identity.
 * The streams of a capture are split across host threads (see
 * captureWorkload).
 *
 * Replay is bit-identical for every workload whose thread streams
 * are independent (Workload::independentStreams): the consumer pulls
 * ops one at a time and timing feedback only decides when the next op
 * is pulled, never which op arrives, so a buffer and the coroutine it
 * was recorded from are observationally equivalent streams.
 * The exception is a workload whose threads share host-side state,
 * which is Cholesky: its task cursor hands tasks out in the order the
 * streams are drained. Capture drains thread 0 first, so thread 0
 * records every task, and a replayed run schedules the whole task DAG
 * on one processor where a live run spreads it in simulated-time
 * order. Instruction and reference totals match; timing does not.
 *
 * The identity key is a caller-supplied canonical text (the campaign
 * layer passes serve::canonicalWorkload(app, params), which renders
 * every WorkloadParams field). Keys are compared as full strings.
 *
 * The cache is a byte-capped in-memory LRU with single-flight capture
 * dedup. Every outcome is counted. A trace larger than the whole cap
 * is handed to its caller but never admitted, so it cannot flush the
 * resident set. Traces live in this process only: they are not
 * persisted, because recapturing one on several host threads measured
 * about twice as fast as loading it back from a file (DESIGN §19).
 *
 * Environment knobs (read once, at first globalReplayCache() use):
 *  - CCNUMA_REPLAY=0       disable replay entirely (always generate)
 *  - CCNUMA_REPLAY_BYTES=N in-memory cap in bytes (default 256 MiB;
 *                          a positive integer, anything else is
 *                          warned about and ignored)
 */

#ifndef CCNUMA_WORKLOAD_REPLAY_HH
#define CCNUMA_WORKLOAD_REPLAY_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/workload.hh"

namespace ccnuma
{

/**
 * A captured reference stream: one chunked packed-op stream per
 * workload thread.
 */
struct ReplayBuffer
{
    /** Canonical workload identity this trace was captured from. */
    std::string identity;
    std::vector<ChunkedOps> threads;

    /** Resident payload size (ops only; identity text is noise). */
    std::uint64_t
    bytes() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.size() * sizeof(PackedOp);
        return n;
    }

    std::uint64_t
    ops() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.size();
        return n;
    }
};

/**
 * Capture @p w's complete reference stream by running every thread
 * coroutine to exhaustion. The workload is consumed — callers must
 * construct a fresh instance for anything that runs after capture.
 * An op that cannot be packed exactly (see packOp) is a fatal error:
 * replaying anything but the generated stream would be silently
 * wrong.
 *
 * When @p w's streams are independent, the calling thread and helper
 * threads it starts (up to std::thread::hardware_concurrency() in
 * all, joined before the call returns) take streams from a shared
 * counter; otherwise the caller drains them alone, in thread order.
 * Either way the buffer holds the same ops.
 */
std::shared_ptr<const ReplayBuffer>
captureWorkload(Workload &w, std::string identity);

/**
 * One capture that several host threads can work on: the owner
 * (run()) and any caller that joins it (join()) take thread streams
 * from a shared counter. Defined in replay.cc.
 */
class CaptureJob;

/** Monotonic counters for every replay-cache outcome. */
struct ReplayStats
{
    std::uint64_t captures = 0;     ///< traces generated (compute ran)
    std::uint64_t hits = 0;         ///< served from memory
    std::uint64_t dedupWaits = 0;   ///< waited on an in-flight capture
    std::uint64_t evictions = 0;    ///< LRU entries dropped at the cap
    std::uint64_t bytes = 0;        ///< current resident payload bytes
    std::uint64_t entries = 0;      ///< current resident trace count

    /** replayed / (replayed + captured); 0 when nothing was asked. */
    double
    hitRate() const
    {
        std::uint64_t served = hits + dedupWaits;
        std::uint64_t total = served + captures;
        return total ? static_cast<double>(served) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Byte-capped, single-flight, in-memory cache of captured reference
 * streams, keyed by canonical workload identity text.
 */
class ReplayCache
{
  public:
    /**
     * @param byte_cap    resident ceiling; 0 disables the memory LRU
     *                    (captures still dedup while in flight).
     * @param persist_dir must be empty; anything else is fatal, so
     *                    no caller believes its traces persist.
     */
    explicit ReplayCache(std::uint64_t byte_cap,
                         const std::string &persist_dir = "");

    ReplayCache(const ReplayCache &) = delete;
    ReplayCache &operator=(const ReplayCache &) = delete;

    /**
     * Return the trace for @p identity, capturing it with a workload
     * from @p make on the first request. Concurrent requests for the
     * same identity share one capture (single-flight): while it runs,
     * they take streams from it alongside its owner instead of
     * sleeping, and each counts as a dedup wait. When the capture
     * fails, the owner and every caller that shared it get the
     * failure, and the next request starts a new capture. The returned
     * buffer is immutable and safe to replay from any thread.
     */
    std::shared_ptr<const ReplayBuffer>
    acquire(const std::string &identity,
            const std::function<std::unique_ptr<Workload>()> &make);

    ReplayStats stats() const;

  private:
    struct Entry
    {
        std::shared_ptr<const ReplayBuffer> buf;
        std::list<std::string>::iterator lruPos;
    };

    struct Flight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        /** Set once the owner starts capturing. */
        std::shared_ptr<CaptureJob> job;
        /** The owner's failure, handed to every caller that waited. */
        std::exception_ptr error;
        std::shared_ptr<const ReplayBuffer> buf;
    };

    void insertLocked(const std::string &identity,
                      std::shared_ptr<const ReplayBuffer> buf);
    void evictLocked();

    mutable std::mutex mutex_;
    std::uint64_t byteCap_;
    std::unordered_map<std::string, Entry> entries_;
    /** Identity texts, least-recently-used first. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> inFlight_;
    ReplayStats stats_;
};

/**
 * Wrap a captured trace as a Workload: thread(tid) replays the
 * recorded stream allocation-free; name()/place()/params() delegate
 * to a fresh @p inner instance of the same identity (placement hints
 * are machine-facing, cheap, and must still run per machine).
 */
class ReplayWorkload : public Workload
{
  public:
    ReplayWorkload(std::unique_ptr<Workload> inner,
                   std::shared_ptr<const ReplayBuffer> buf)
        : Workload(inner->params()), inner_(std::move(inner)),
          buf_(std::move(buf))
    {
        ccnuma_assert(buf_ != nullptr);
        ccnuma_assert(buf_->threads.size() == numThreads());
    }

    std::string name() const override { return inner_->name(); }

    OpStream
    thread(unsigned tid) override
    {
        // Aliasing shared_ptr: the stream keeps the whole buffer
        // alive while reading one thread's ops.
        return OpStream::fromBuffer(std::shared_ptr<const ChunkedOps>(
            buf_, &buf_->threads.at(tid)));
    }

    void place(AddressMap &map) override { inner_->place(map); }

  private:
    std::unique_ptr<Workload> inner_;
    std::shared_ptr<const ReplayBuffer> buf_;
};

/** In-memory replay cap when CCNUMA_REPLAY_BYTES is unset. */
inline constexpr std::uint64_t defaultReplayBytes = 256ull << 20;

/**
 * The replay cache's in-memory cap: CCNUMA_REPLAY_BYTES when it is a
 * positive integer, else defaultReplayBytes (with a warning if set).
 */
std::uint64_t replayBytesFromEnv();

/**
 * Process-wide replay cache, configured from the environment on first
 * use. nullptr when CCNUMA_REPLAY=0 — callers fall back to generating
 * every stream.
 */
ReplayCache *globalReplayCache();

} // namespace ccnuma

#endif // CCNUMA_WORKLOAD_REPLAY_HH
