/**
 * @file
 * Content-addressed result cache with single-flight deduplication.
 *
 * The campaign service keys every simulation point by the stable
 * 64-bit hash of its canonical form (serve/canonical.hh) and serves
 * repeats from this cache instead of re-simulating. Three layers:
 *
 *  - a byte-capped in-memory LRU of completed results (the canonical
 *    text is stored alongside each entry, so a hash collision is
 *    detected and bypasses the cache rather than merging points);
 *  - single-flight dedup of IN-FLIGHT points: when N concurrent
 *    campaigns ask for the same key while the first simulation is
 *    still running, the N-1 late arrivals block on its completion
 *    and share the one result — duplicate points are simulated
 *    exactly once machine-wide;
 *  - optional disk persistence (one <hash>.json per entry under a
 *    caller-chosen directory, bench/out/cache/ by convention):
 *    a memory miss consults disk before simulating, and every fill
 *    is written through, so a restarted daemon keeps its history.
 *    Each file carries its canonical text and a digest of the
 *    result text; a file that is not byte for byte what would be
 *    written for the requested point and the result it holds is a
 *    miss and gets rewritten, so a corrupted result is never served.
 *
 * Every outcome is counted (hits, misses, dedup waits, disk hits,
 * evictions, collisions) — cache behavior is never silent.
 */

#ifndef CCNUMA_SERVE_RESULT_CACHE_HH
#define CCNUMA_SERVE_RESULT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/canonical.hh"
#include "system/machine.hh"

namespace ccnuma
{
namespace serve
{

/** Monotonic counters describing every lookup outcome. */
struct CacheStats
{
    std::uint64_t hits = 0;        ///< served from memory
    std::uint64_t diskHits = 0;    ///< served from the persist dir
    std::uint64_t misses = 0;      ///< simulated (compute ran)
    std::uint64_t dedupWaits = 0;  ///< waited on an in-flight twin
    std::uint64_t evictions = 0;   ///< LRU entries dropped at the cap
    std::uint64_t collisions = 0;  ///< hash matched, canonical didn't
    std::uint64_t insertions = 0;  ///< entries filled
    std::uint64_t bytes = 0;       ///< current resident payload bytes
    std::uint64_t entries = 0;     ///< current resident entry count

    /** served-without-simulating / lookups (0 when no lookups). */
    double
    hitRate() const
    {
        std::uint64_t served = hits + diskHits + dedupWaits;
        std::uint64_t total = served + misses;
        return total ? static_cast<double>(served) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /**
     * Requested points per simulated point; > 1 means the cache
     * deduplicated work (the load bench's figure of merit).
     */
    double
    dedupFactor() const
    {
        std::uint64_t total = hits + diskHits + dedupWaits + misses;
        return misses ? static_cast<double>(total) /
                            static_cast<double>(misses)
                      : (total ? static_cast<double>(total) : 1.0);
    }
};

/** A byte-capped, single-flight, optionally persistent result cache. */
class ResultCache
{
  public:
    /**
     * @param byte_cap  resident-payload ceiling; 0 disables the
     *                  memory LRU (single-flight dedup of concurrent
     *                  identical fetches still applies).
     * @param persist_dir disk write-through directory; "" disables
     *                  persistence. Created on first use.
     */
    explicit ResultCache(std::uint64_t byte_cap,
                         std::string persist_dir = "");

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** How a fetch was satisfied. */
    enum class Source
    {
        Computed,  ///< simulated here and now
        Memory,    ///< in-memory LRU hit
        Disk,      ///< persisted entry loaded
        Deduped,   ///< shared an in-flight twin's simulation
    };

    struct Outcome
    {
        RunResult result;
        Source source = Source::Computed;

        bool
        fromCache() const
        {
            return source == Source::Memory || source == Source::Disk;
        }
        bool deduped() const { return source == Source::Deduped; }
    };

    /**
     * Return @p key's result, computing it with @p compute on a true
     * miss. Concurrent fetches of the same key run @p compute once:
     * late arrivals block until the first finishes and share its
     * result. @p compute may throw; the exception propagates to the
     * computing caller and waiters retry the fetch themselves.
     */
    Outcome fetch(const PointKey &key,
                  const std::function<RunResult()> &compute);

    /** Probe without computing. @return true and fill @p out on hit. */
    bool lookup(const PointKey &key, RunResult &out);

    CacheStats stats() const;

    std::uint64_t byteCap() const { return byteCap_; }
    const std::string &persistDir() const { return persistDir_; }

  private:
    struct Entry
    {
        std::string canonical;
        std::string json;  ///< serialized result (the byte charge)
        RunResult result;
        std::list<std::uint64_t>::iterator lruPos;
    };

    /** One in-flight computation waiters rendezvous on. */
    struct Flight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        RunResult result;
    };

    /** Charge for one entry: canonical + serialized payload. */
    static std::uint64_t
    entryBytes(const Entry &e)
    {
        return e.canonical.size() + e.json.size() + 64;
    }

    /** Locked helpers. */
    bool lookupLocked(const PointKey &key, RunResult &out);
    void insertLocked(const PointKey &key, const RunResult &r);
    void evictLocked();

    /** Disk persistence (no cache lock held while doing I/O). */
    std::string pathFor(std::uint64_t hash) const;
    bool loadFromDisk(const PointKey &key, RunResult &out);
    void storeToDisk(const PointKey &key, const RunResult &r);

    std::uint64_t byteCap_;
    std::string persistDir_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, Entry> entries_;
    /** LRU order, most recent at the back; values are hashes. */
    std::list<std::uint64_t> lru_;
    std::map<std::uint64_t, std::shared_ptr<Flight>> inFlight_;
    CacheStats stats_;
};

} // namespace serve
} // namespace ccnuma

#endif // CCNUMA_SERVE_RESULT_CACHE_HH
