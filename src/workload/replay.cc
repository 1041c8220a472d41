#include "workload/replay.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "sim/logging.hh"

namespace ccnuma
{

/**
 * Streams are taken one at a time from next_ by every worker: the
 * owner, the helper threads run() starts, and any caller that joins.
 * Each stream is drained by one worker into its own ChunkedOps, so
 * the buffer is the same whichever worker took which stream.
 *
 * The workload belongs to the owner, so run() waits until no worker
 * is inside work() and then closes the job: a caller that joins after
 * that returns without touching the workload.
 */
class CaptureJob
{
  public:
    CaptureJob(Workload &w, std::string identity)
        : w_(w), n_(w.numThreads()), serial_(!w.independentStreams()),
          buf_(std::make_shared<ReplayBuffer>()), closed_(serial_)
    {
        buf_->identity = std::move(identity);
        buf_->threads.resize(n_);
    }

    CaptureJob(const CaptureJob &) = delete;
    CaptureJob &operator=(const CaptureJob &) = delete;

    /**
     * Capture every stream, with helper threads when the streams are
     * independent, and return the buffer. Rethrows the first failure
     * of any worker. Called once, by the owner.
     */
    std::shared_ptr<const ReplayBuffer>
    run()
    {
        if (serial_) {
            for (unsigned t = 0; t < n_; ++t)
                captureStream(t);
            return buf_;
        }
        const unsigned workers = std::min(
            std::max(1u, std::thread::hardware_concurrency()), n_);
        std::vector<std::jthread> helpers;
        try {
            helpers.reserve(workers);
            for (unsigned i = 1; i < workers; ++i)
                helpers.emplace_back([this] { work(); });
        } catch (...) {
            // Out of threads or memory: the workers already started
            // (the owner at least) capture every stream anyway.
        }
        work();
        {
            std::unique_lock<std::mutex> g(m_);
            idle_.wait(g, [this] { return active_ == 0; });
            closed_ = true;
        }
        helpers.clear(); // joins them
        if (error_)
            std::rethrow_exception(error_);
        return buf_;
    }

    /**
     * Take streams until none is left (or a worker failed), then
     * return. Failures are kept for run() to rethrow.
     */
    void
    work() noexcept
    {
        {
            std::lock_guard<std::mutex> g(m_);
            if (closed_)
                return;
            ++active_;
        }
        try {
            while (!failed_.load(std::memory_order_relaxed)) {
                unsigned t = next_.fetch_add(1, std::memory_order_relaxed);
                if (t >= n_)
                    break;
                captureStream(t);
            }
        } catch (...) {
            std::lock_guard<std::mutex> g(m_);
            if (!error_)
                error_ = std::current_exception();
            failed_.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> g(m_);
        if (--active_ == 0)
            idle_.notify_all();
    }

  private:
    void
    captureStream(unsigned t)
    {
        OpStream s = w_.thread(t);
        // Filled locally and moved in at the end: neighbouring
        // streams' ChunkedOps share cache lines, and bumping a size
        // there on every op would bounce those lines between workers.
        ChunkedOps ops;
        ThreadOp op;
        while (s.next(op)) {
            PackedOp p;
            if (!packOp(op, p)) {
                fatal("replay capture of %s: thread %u op %zu (kind "
                      "%u, addr %#llx, count %u) does not pack into "
                      "8 bytes (addresses must be below 2^61, and a "
                      "kind carries only its own field)",
                      buf_->identity.c_str(), t, ops.size(),
                      static_cast<unsigned>(op.kind),
                      static_cast<unsigned long long>(op.addr),
                      op.count);
            }
            ops.push_back(p);
        }
        buf_->threads[t] = std::move(ops);
    }

    Workload &w_;
    const unsigned n_;
    /** Dependent streams: run() drains them alone, in thread order. */
    const bool serial_;
    std::shared_ptr<ReplayBuffer> buf_;
    std::atomic<unsigned> next_{0};
    std::atomic<bool> failed_{false};
    std::mutex m_;
    std::condition_variable idle_;
    /** Workers inside work(). */
    unsigned active_ = 0;
    /** No worker may enter work() any more. */
    bool closed_;
    std::exception_ptr error_;
};

std::shared_ptr<const ReplayBuffer>
captureWorkload(Workload &w, std::string identity)
{
    return CaptureJob(w, std::move(identity)).run();
}

ReplayCache::ReplayCache(std::uint64_t byte_cap,
                         const std::string &persist_dir)
    : byteCap_(byte_cap)
{
    if (!persist_dir.empty())
        fatal("replay cache: traces live in memory only, so the "
              "persist directory must be empty (got '%s')",
              persist_dir.c_str());
}

void
ReplayCache::insertLocked(const std::string &identity,
                          std::shared_ptr<const ReplayBuffer> buf)
{
    // A trace larger than the whole cap goes back to its caller
    // unadmitted: inserting it would make evictLocked drop every
    // resident trace and then the new one too.
    if (byteCap_ == 0 || buf->bytes() > byteCap_)
        return;
    auto it = entries_.find(identity);
    if (it != entries_.end()) {
        lru_.splice(lru_.end(), lru_, it->second.lruPos);
        return;
    }
    Entry e;
    e.buf = std::move(buf);
    lru_.push_back(identity);
    e.lruPos = std::prev(lru_.end());
    stats_.bytes += e.buf->bytes();
    entries_.emplace(identity, std::move(e));
    stats_.entries = entries_.size();
    evictLocked();
}

void
ReplayCache::evictLocked()
{
    while (stats_.bytes > byteCap_ && !lru_.empty()) {
        auto it = entries_.find(lru_.front());
        stats_.bytes -= it->second.buf->bytes();
        lru_.pop_front();
        entries_.erase(it);
        ++stats_.evictions;
    }
    stats_.entries = entries_.size();
}

std::shared_ptr<const ReplayBuffer>
ReplayCache::acquire(
    const std::string &identity,
    const std::function<std::unique_ptr<Workload>()> &make)
{
    std::shared_ptr<Flight> flight;
    bool owner = false;
    {
        std::lock_guard<std::mutex> g(mutex_);
        auto it = entries_.find(identity);
        if (it != entries_.end()) {
            ++stats_.hits;
            lru_.splice(lru_.end(), lru_, it->second.lruPos);
            return it->second.buf;
        }
        auto fit = inFlight_.find(identity);
        if (fit != inFlight_.end()) {
            flight = fit->second;
        } else {
            flight = std::make_shared<Flight>();
            inFlight_.emplace(identity, flight);
            owner = true;
        }
    }

    if (!owner) {
        // Single-flight rendezvous: work on the owner's capture
        // once it starts, then take its result.
        std::shared_ptr<CaptureJob> job;
        {
            std::unique_lock<std::mutex> fl(flight->m);
            flight->cv.wait(
                fl, [&] { return flight->done || flight->job; });
            if (!flight->done)
                job = flight->job;
        }
        if (job)
            job->work();
        std::unique_lock<std::mutex> fl(flight->m);
        flight->cv.wait(fl, [&] { return flight->done; });
        if (flight->error)
            std::rethrow_exception(flight->error);
        std::lock_guard<std::mutex> g(mutex_);
        ++stats_.dedupWaits;
        return flight->buf;
    }

    std::shared_ptr<const ReplayBuffer> buf;
    try {
        auto w = make();
        auto job = std::make_shared<CaptureJob>(*w, identity);
        {
            std::lock_guard<std::mutex> fl(flight->m);
            flight->job = job;
        }
        flight->cv.notify_all();
        buf = job->run();
    } catch (...) {
        {
            std::lock_guard<std::mutex> g(mutex_);
            inFlight_.erase(identity);
        }
        {
            std::lock_guard<std::mutex> fl(flight->m);
            flight->error = std::current_exception();
            flight->job = nullptr;
            flight->done = true;
        }
        flight->cv.notify_all();
        throw;
    }

    {
        std::lock_guard<std::mutex> g(mutex_);
        ++stats_.captures;
        insertLocked(identity, buf);
        inFlight_.erase(identity);
    }
    {
        std::lock_guard<std::mutex> fl(flight->m);
        flight->buf = buf;
        flight->job = nullptr;
        flight->done = true;
    }
    flight->cv.notify_all();
    return buf;
}

ReplayStats
ReplayCache::stats() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return stats_;
}

std::uint64_t
replayBytesFromEnv()
{
    std::uint64_t cap = defaultReplayBytes;
    envPositiveInt("CCNUMA_REPLAY_BYTES", cap);
    return cap;
}

ReplayCache *
globalReplayCache()
{
    static ReplayCache *cache = []() -> ReplayCache * {
        const char *onoff = std::getenv("CCNUMA_REPLAY");
        if (onoff != nullptr && std::string(onoff) == "0")
            return nullptr;
        return new ReplayCache(replayBytesFromEnv());
    }();
    return cache;
}

} // namespace ccnuma
