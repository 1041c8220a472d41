#include "workload/replay.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/logging.hh"

namespace ccnuma
{

namespace
{

/**
 * On-disk trace layout (host-endian, same-platform cache only — the
 * embedded identity check rejects anything else that slips through):
 *
 *   magic "CCNREPL2"            8 bytes
 *   identityLen                 u64
 *   identity text               identityLen bytes
 *   numThreads                  u64
 *   per-thread op count         numThreads x u64
 *   per-thread PackedOp records concatenated, in thread order
 *   checksum                    u64, checksumWords over
 *                               numThreads, the counts and the
 *                               records
 *
 * Version 1 ("CCNREPL1") stored 24-byte ThreadOp records; such a file
 * fails the magic check and is recaptured like any stale file.
 */
constexpr char kMagic[8] = {'C', 'C', 'N', 'R', 'E', 'P', 'L', '2'};

/** FNV-1a; names disk files only, identity text is the real key. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Fold @p n words into @p h. Each step is a bijection of the state
 * for a fixed word, so a file that differs from the written one in a
 * single word always fails the check.
 */
std::uint64_t
checksumWords(std::uint64_t h, const std::uint64_t *w, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h = (h ^ w[i]) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    return h;
}

constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ull;

/** True iff @p p is an op packOp can produce. */
bool
validPackedOp(PackedOp p)
{
    PackedOp again = 0;
    return packOp(unpackOp(p), again) && again == p;
}

bool
readU64(std::istream &is, std::uint64_t &v)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&v), sizeof(v)));
}

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

} // namespace

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
                         std::string persist_dir)
    : byteCap_(byte_cap), persistDir_(std::move(persist_dir))
{}

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

std::string
ReplayCache::pathFor(const std::string &identity) const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(identity)));
    return persistDir_ + "/" + buf + ".replay";
}

std::shared_ptr<const ReplayBuffer>
ReplayCache::loadFromDisk(const std::string &identity,
                          bool &stale) const
{
    stale = false;
    if (persistDir_.empty())
        return nullptr;
    std::ifstream is(pathFor(identity), std::ios::binary);
    if (!is)
        return nullptr;
    // The file exists, so from here on anything short of a
    // well-formed v2 trace of this identity is a stale reject: the
    // caller recaptures and rewrites it.
    stale = true;
    if (!is.seekg(0, std::ios::end))
        return nullptr;
    // Every size read below is checked against the bytes the file
    // still holds before anything is allocated for it.
    std::uint64_t left = static_cast<std::uint64_t>(is.tellg());
    is.seekg(0);
    char magic[sizeof(kMagic)];
    std::uint64_t id_len = 0;
    if (left < sizeof(kMagic) + sizeof(id_len) ||
        !is.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
        !readU64(is, id_len))
        return nullptr;
    left -= sizeof(kMagic) + sizeof(id_len);
    if (id_len != identity.size() || id_len > left)
        return nullptr;
    std::string id(id_len, '\0');
    if (!is.read(id.data(), static_cast<std::streamsize>(id_len)))
        return nullptr;
    left -= id_len;
    // Hash-named file holding a different identity (collision or a
    // trace captured under older workload parameters): reject it
    // rather than replay the wrong stream.
    if (id != identity)
        return nullptr;
    std::uint64_t nthreads = 0;
    if (left < sizeof(nthreads) || !readU64(is, nthreads))
        return nullptr;
    left -= sizeof(nthreads);
    // What follows is numThreads counts, the records and the
    // checksum, all whole words.
    if (left % sizeof(std::uint64_t) != 0)
        return nullptr;
    std::uint64_t words = left / sizeof(std::uint64_t);
    if (words == 0 || nthreads > words - 1)
        return nullptr;
    words -= nthreads + 1;
    std::vector<std::uint64_t> counts(nthreads);
    if (!is.read(reinterpret_cast<char *>(counts.data()),
                 static_cast<std::streamsize>(nthreads *
                                              sizeof(std::uint64_t))))
        return nullptr;
    for (std::uint64_t c : counts) {
        if (c > words)
            return nullptr;
        words -= c;
    }
    if (words != 0)
        return nullptr; // size mismatch
    std::uint64_t sum = checksumWords(kChecksumSeed, &nthreads, 1);
    sum = checksumWords(sum, counts.data(), counts.size());
    auto b = std::make_shared<ReplayBuffer>();
    b->identity = identity;
    b->threads.resize(nthreads);
    for (std::uint64_t t = 0; t < nthreads; ++t) {
        ChunkedOps &ops = b->threads[t];
        for (std::uint64_t left_ops = counts[t]; left_ops != 0;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left_ops, replayChunkOps));
            PackedOp *dst = ops.appendChunk(n);
            if (!is.read(reinterpret_cast<char *>(dst),
                         static_cast<std::streamsize>(
                             n * sizeof(PackedOp))))
                return nullptr;
            if (!std::all_of(dst, dst + n, validPackedOp))
                return nullptr;
            sum = checksumWords(sum, dst, n);
            left_ops -= n;
        }
    }
    std::uint64_t want = 0;
    if (!readU64(is, want) || want != sum)
        return nullptr;
    stale = false;
    return b;
}

void
ReplayCache::storeToDisk(const ReplayBuffer &b) const
{
    if (persistDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(persistDir_, ec);
    if (ec)
        return;
    std::string path = pathFor(b.identity);
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return;
        os.write(kMagic, sizeof(kMagic));
        writeU64(os, b.identity.size());
        os.write(b.identity.data(),
                 static_cast<std::streamsize>(b.identity.size()));
        const std::uint64_t nthreads = b.threads.size();
        writeU64(os, nthreads);
        std::vector<std::uint64_t> counts;
        for (const auto &t : b.threads)
            counts.push_back(t.size());
        std::uint64_t sum = checksumWords(kChecksumSeed, &nthreads, 1);
        sum = checksumWords(sum, counts.data(), counts.size());
        for (std::uint64_t c : counts)
            writeU64(os, c);
        for (const auto &t : b.threads) {
            for (std::size_t c = 0; c < t.numChunks(); ++c) {
                std::span<const PackedOp> ops = t.chunk(c);
                os.write(reinterpret_cast<const char *>(ops.data()),
                         static_cast<std::streamsize>(ops.size_bytes()));
                sum = checksumWords(sum, ops.data(), ops.size());
            }
        }
        writeU64(os, sum);
        if (!os)
            return;
    }
    // Atomic publish: a concurrent reader sees the old file or the
    // new one, never a torn write.
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
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
    bool from_disk = false;
    bool stale = false;
    try {
        buf = loadFromDisk(identity, stale);
        from_disk = buf != nullptr;
        if (!from_disk) {
            auto w = make();
            auto job = std::make_shared<CaptureJob>(*w, identity);
            {
                std::lock_guard<std::mutex> fl(flight->m);
                flight->job = job;
            }
            flight->cv.notify_all();
            buf = job->run();
        }
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
        if (stale)
            ++stats_.staleRejects;
        if (from_disk)
            ++stats_.diskHits;
        else
            ++stats_.captures;
        insertLocked(identity, buf);
        inFlight_.erase(identity);
    }
    if (!from_disk)
        storeToDisk(*buf);
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
        std::uint64_t cap = replayBytesFromEnv();
        std::string dir;
        if (const char *d = std::getenv("CCNUMA_REPLAY_DIR"))
            dir = d;
        return new ReplayCache(cap, std::move(dir));
    }();
    return cache;
}

} // namespace ccnuma
