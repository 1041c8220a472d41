#include "serve/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "report/json.hh"
#include "serve/result_io.hh"

namespace ccnuma
{
namespace serve
{

ResultCache::ResultCache(std::uint64_t byte_cap,
                         std::string persist_dir)
    : byteCap_(byte_cap), persistDir_(std::move(persist_dir))
{}

bool
ResultCache::lookupLocked(const PointKey &key, RunResult &out)
{
    auto it = entries_.find(key.hash);
    if (it == entries_.end())
        return false;
    if (it->second.canonical != key.canonical) {
        // A genuine 64-bit collision: two distinct points share a
        // hash. Never merge them — the second point bypasses the
        // cache (counted, so a hot collision is visible in stats).
        ++stats_.collisions;
        return false;
    }
    lru_.splice(lru_.end(), lru_, it->second.lruPos);
    out = it->second.result;
    return true;
}

void
ResultCache::insertLocked(const PointKey &key, const RunResult &r)
{
    if (byteCap_ == 0)
        return;
    auto it = entries_.find(key.hash);
    if (it != entries_.end()) {
        // Either a re-fill of the same point (keep the fresher
        // result) or a collision loser; the existing entry wins the
        // slot in the collision case.
        if (it->second.canonical != key.canonical)
            return;
        it->second.result = r;
        it->second.json = resultToJson(r);
        lru_.splice(lru_.end(), lru_, it->second.lruPos);
        return;
    }
    Entry e;
    e.canonical = key.canonical;
    e.json = resultToJson(r);
    e.result = r;
    lru_.push_back(key.hash);
    e.lruPos = std::prev(lru_.end());
    stats_.bytes += entryBytes(e);
    entries_.emplace(key.hash, std::move(e));
    ++stats_.insertions;
    stats_.entries = entries_.size();
    evictLocked();
}

void
ResultCache::evictLocked()
{
    while (stats_.bytes > byteCap_ && !lru_.empty()) {
        std::uint64_t victim = lru_.front();
        auto it = entries_.find(victim);
        stats_.bytes -= entryBytes(it->second);
        lru_.pop_front();
        entries_.erase(it);
        ++stats_.evictions;
    }
    stats_.entries = entries_.size();
}

namespace
{

/**
 * The whole persisted file for (@p canonical, @p r): the canonical
 * text, a digest of the result text, and the result. The digest is
 * what tells a changed value inside "result" (which still parses and
 * still matches the canonical text) from the stored one.
 */
std::string
cacheFileText(const std::string &canonical, const RunResult &r)
{
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      hash64(resultToJson(r))));
    std::ostringstream os;
    report::JsonWriter j(os);
    j.beginObject();
    j.key("canonical").value(canonical);
    j.key("digest").value(digest);
    j.key("result");
    writeRunResult(j, r);
    j.endObject();
    os << "\n";
    return os.str();
}

} // namespace

std::string
ResultCache::pathFor(std::uint64_t hash) const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return persistDir_ + "/" + buf + ".json";
}

bool
ResultCache::loadFromDisk(const PointKey &key, RunResult &out)
{
    if (persistDir_.empty())
        return false;
    std::ifstream is(pathFor(key.hash));
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    try {
        const JsonValue doc = parseJson(text);
        const JsonValue *r = doc.get("result");
        if (!r)
            return false;
        RunResult loaded = resultFromJson(*r);
        // Served only when the file is byte for byte what storeToDisk
        // writes for this point and this result: a stale or colliding
        // canonical text, a digest that does not match the result (a
        // changed value), a file without a digest, or any other edit
        // is a miss, and the file is rewritten.
        if (text != cacheFileText(key.canonical, loaded))
            return false;
        out = std::move(loaded);
        return true;
    } catch (const JsonError &) {
        return false; // corrupt file == miss; it will be rewritten
    }
}

void
ResultCache::storeToDisk(const PointKey &key, const RunResult &r)
{
    if (persistDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(persistDir_, ec);
    if (ec)
        return;
    std::string path = pathFor(key.hash);
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            return;
        os << cacheFileText(key.canonical, r);
    }
    // Atomic publish: a concurrent reader sees the old file or the
    // new one, never a torn write.
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

bool
ResultCache::lookup(const PointKey &key, RunResult &out)
{
    std::lock_guard<std::mutex> g(mutex_);
    return lookupLocked(key, out);
}

ResultCache::Outcome
ResultCache::fetch(const PointKey &key,
                   const std::function<RunResult()> &compute)
{
    while (true) {
        std::shared_ptr<Flight> flight;
        bool owner = false;
        {
            std::lock_guard<std::mutex> g(mutex_);
            Outcome o;
            if (lookupLocked(key, o.result)) {
                ++stats_.hits;
                o.source = Source::Memory;
                return o;
            }
            auto it = inFlight_.find(key.hash);
            if (it != inFlight_.end()) {
                flight = it->second;
            } else {
                flight = std::make_shared<Flight>();
                inFlight_.emplace(key.hash, flight);
                owner = true;
            }
        }

        if (!owner) {
            // Single-flight rendezvous: share the owner's result.
            std::unique_lock<std::mutex> fl(flight->m);
            flight->cv.wait(fl, [&] { return flight->done; });
            if (!flight->failed) {
                std::lock_guard<std::mutex> g(mutex_);
                ++stats_.dedupWaits;
                Outcome o;
                o.result = flight->result;
                o.source = Source::Deduped;
                return o;
            }
            // The owner's compute threw; retry the whole fetch (we
            // may become the new owner).
            continue;
        }

        Outcome o;
        bool from_disk = false;
        try {
            from_disk = loadFromDisk(key, o.result);
            if (!from_disk)
                o.result = compute();
        } catch (...) {
            {
                std::lock_guard<std::mutex> g(mutex_);
                inFlight_.erase(key.hash);
            }
            {
                std::lock_guard<std::mutex> fl(flight->m);
                flight->failed = true;
                flight->done = true;
            }
            flight->cv.notify_all();
            throw;
        }

        o.source = from_disk ? Source::Disk : Source::Computed;
        {
            std::lock_guard<std::mutex> g(mutex_);
            if (from_disk)
                ++stats_.diskHits;
            else
                ++stats_.misses;
            insertLocked(key, o.result);
            inFlight_.erase(key.hash);
        }
        if (!from_disk)
            storeToDisk(key, o.result);
        {
            std::lock_guard<std::mutex> fl(flight->m);
            flight->result = o.result;
            flight->done = true;
        }
        flight->cv.notify_all();
        return o;
    }
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return stats_;
}

} // namespace serve
} // namespace ccnuma
