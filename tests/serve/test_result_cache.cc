/**
 * @file
 * The content-addressed result cache: RunResult round-trip fidelity,
 * LRU eviction at the byte cap, single-flight dedup of concurrent
 * identical fetches, disk persistence across cache instances with
 * corrupted files never served, and the never-silent counters for
 * all of it.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/result_cache.hh"
#include "serve/result_io.hh"

using namespace ccnuma;
using namespace ccnuma::serve;

namespace
{

/** A synthetic result distinguishable by @p tag. */
RunResult
makeResult(std::uint64_t tag)
{
    RunResult r;
    r.workload = "synthetic-" + std::to_string(tag);
    r.arch = "HWC";
    r.execTicks = 1000 + tag;
    r.instructions = 2000 + tag;
    r.memRefs = 3000 + tag;
    r.misses = 40 + tag;
    r.ccRequests = 50 + tag;
    r.ccOccupancy = 60 + tag;
    r.avgUtilization = 0.25 + 0.001 * static_cast<double>(tag);
    r.avgQueueDelayTicks = 1.5 + static_cast<double>(tag);
    r.arrivalsPerUs = 0.125;
    r.escapedCorruptions = 0;
    r.completed = true;
    r.shardsRequested = 1;
    r.shardsUsed = 1;
    return r;
}

/** A synthetic key; distinct tags hash apart. */
PointKey
makeKey(std::uint64_t tag)
{
    PointKey k;
    k.canonical = "synthetic.tag=" + std::to_string(tag) + "\n";
    k.hash = hash64(k.canonical);
    return k;
}

TEST(ResultIo, RoundTripsEveryField)
{
    RunResult r = makeResult(7);
    // Exercise the long tail of counters too.
    r.faultsInjected = 1;
    r.xportRetransmits = 2;
    r.crashesInjected = 3;
    r.dirRebuilds = 4;
    r.flipsInjected = 5;
    r.crcDetected = 6;
    r.scrubCorrections = 7;
    r.linesPoisoned = 8;
    r.escapedCorruptions = 0;
    r.shardFallback = true;
    r.avgUtilization = 0.123456789012345678; // %.17g must hold this
    r.windowsRun = 9;
    r.windowsWidened = 10;
    r.windowFallbacks = 11;
    r.syncWindowStops = 12;

    RunResult back = resultFromJson(resultToJson(r));
    EXPECT_TRUE(resultsIdentical(r, back));
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.execTicks, r.execTicks);
    EXPECT_EQ(back.avgUtilization, r.avgUtilization); // bit-exact
    EXPECT_EQ(back.shardFallback, r.shardFallback);
    EXPECT_EQ(back.windowsRun, r.windowsRun);
    EXPECT_EQ(back.windowsWidened, r.windowsWidened);
    EXPECT_EQ(back.windowFallbacks, r.windowFallbacks);
    EXPECT_EQ(back.syncWindowStops, r.syncWindowStops);
}

TEST(ResultIo, LoadsResultsWithRetiredSpeculationCounters)
{
    // Result files written before the window-policy knob and the
    // speculative policy were removed carry seven more keys. They
    // must still load, and compare identical to the same result
    // without them.
    RunResult r = makeResult(9);
    r.windowsRun = 3;
    const std::string current = resultToJson(r);
    ASSERT_EQ(current.back(), '}');
    const std::string older =
        current.substr(0, current.size() - 1) +
        ",\"windowPolicy\":\"adaptive\""
        ",\"windowPolicyFallback\":\"the hang watchdog polls at "
        "lock-step barriers\",\"rollbacks\":13,\"antiMessages\":14,"
        "\"squashedEvents\":15,\"checkpointBytes\":16,"
        "\"gvtSweeps\":17}";

    RunResult back = resultFromJson(older);
    EXPECT_TRUE(resultsIdentical(back, resultFromJson(current)));
    EXPECT_TRUE(resultsIdentical(back, r));
    EXPECT_EQ(back.windowsRun, r.windowsRun);
}

TEST(ResultIo, RejectsIntegersOutsideTheirFields)
{
    // A result read back must hold exactly what the document says, or
    // be refused: a fraction, an infinity-sized number or a shard
    // count past UINT_MAX must not be cast into the field.
    const std::string doc = resultToJson(makeResult(5));
    ASSERT_EQ(doc.back(), '}');
    auto with = [&](const std::string &key, const std::string &value) {
        // A repeated key reads as its first occurrence, so splice the
        // bad member in front of the original one.
        return "{\"" + key + "\":" + value + "," + doc.substr(1);
    };
    for (const char *bad : {"1e30", "-1e30", "2.5"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(resultFromJson(with("escapedCorruptions", bad)),
                     JsonError);
    }
    for (const char *key : {"shardsRequested", "shardsUsed"}) {
        SCOPED_TRACE(key);
        EXPECT_THROW(resultFromJson(with(key, "4294967296")),
                     JsonError);
        EXPECT_THROW(resultFromJson(with(key, "1.5")), JsonError);
        EXPECT_EQ(resultFromJson(with(key, "4294967295")).shardsUsed,
                  key == std::string("shardsUsed") ? 4294967295u
                                                   : 1u);
    }
    // The signed field keeps its whole range, negative values too.
    EXPECT_EQ(resultFromJson(with("escapedCorruptions", "-3"))
                  .escapedCorruptions,
              -3);
}

TEST(ResultCache, HitsAfterMiss)
{
    ResultCache cache(1 << 20);
    PointKey k = makeKey(1);
    int computed = 0;
    auto compute = [&] {
        ++computed;
        return makeResult(1);
    };

    auto first = cache.fetch(k, compute);
    EXPECT_EQ(first.source, ResultCache::Source::Computed);
    auto second = cache.fetch(k, compute);
    EXPECT_EQ(second.source, ResultCache::Source::Memory);
    EXPECT_EQ(computed, 1);
    EXPECT_TRUE(resultsIdentical(first.result, second.result));

    CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsedAtByteCap)
{
    // Size the cap off a real entry so the test tracks the charge
    // formula instead of hard-coding byte counts: room for two
    // entries, not three.
    std::uint64_t one_entry;
    {
        ResultCache probe(1 << 20);
        probe.fetch(makeKey(0), [] { return makeResult(0); });
        one_entry = probe.stats().bytes;
    }
    ASSERT_GT(one_entry, 0u);

    ResultCache cache(2 * one_entry + one_entry / 2);
    cache.fetch(makeKey(1), [] { return makeResult(1); });
    cache.fetch(makeKey(2), [] { return makeResult(2); });
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch key 1 so key 2 is the LRU victim when key 3 lands.
    RunResult out;
    EXPECT_TRUE(cache.lookup(makeKey(1), out));
    cache.fetch(makeKey(3), [] { return makeResult(3); });

    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytes, cache.byteCap());
    EXPECT_TRUE(cache.lookup(makeKey(1), out));
    EXPECT_TRUE(cache.lookup(makeKey(3), out));
    EXPECT_FALSE(cache.lookup(makeKey(2), out));
}

TEST(ResultCache, ZeroCapComputesEveryTimeButStillCounts)
{
    ResultCache cache(0);
    int computed = 0;
    auto compute = [&] {
        ++computed;
        return makeResult(1);
    };
    cache.fetch(makeKey(1), compute);
    cache.fetch(makeKey(1), compute);
    EXPECT_EQ(computed, 2);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(s.entries, 0u);
}

TEST(ResultCache, SingleFlightDedupsConcurrentIdenticalFetches)
{
    ResultCache cache(1 << 20);
    PointKey k = makeKey(42);

    std::atomic<int> computations{0};
    std::atomic<int> in_compute{0};
    constexpr int kThreads = 8;

    auto compute = [&] {
        in_compute.fetch_add(1);
        ++computations;
        // Long enough that every other thread arrives while the
        // computation is still in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return makeResult(42);
    };

    std::vector<std::thread> threads;
    std::vector<ResultCache::Outcome> outcomes(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            outcomes[i] = cache.fetch(k, compute);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(computations.load(), 1)
        << "identical concurrent fetches must simulate once";
    int computed = 0, deduped = 0, memory = 0;
    for (const auto &o : outcomes) {
        if (o.source == ResultCache::Source::Computed)
            ++computed;
        else if (o.source == ResultCache::Source::Deduped)
            ++deduped;
        else if (o.source == ResultCache::Source::Memory)
            ++memory;
        EXPECT_TRUE(resultsIdentical(o.result, makeResult(42)));
    }
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(deduped + memory, kThreads - 1);

    CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.dedupWaits + s.hits,
              static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_GT(s.dedupFactor(), 1.0);
}

TEST(ResultCache, WaitersRetryWhenTheOwnerThrows)
{
    ResultCache cache(1 << 20);
    PointKey k = makeKey(9);

    EXPECT_THROW(
        cache.fetch(k, []() -> RunResult {
            throw std::runtime_error("boom");
        }),
        std::runtime_error);

    // The failed flight must not poison the key.
    auto o = cache.fetch(k, [] { return makeResult(9); });
    EXPECT_EQ(o.source, ResultCache::Source::Computed);
    EXPECT_TRUE(resultsIdentical(o.result, makeResult(9)));
}

TEST(ResultCache, PersistsAcrossInstances)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "ccnuma_cache_test";
    fs::remove_all(dir);

    PointKey k = makeKey(5);
    RunResult r = makeResult(5);
    {
        ResultCache cache(1 << 20, dir.string());
        cache.fetch(k, [&] { return r; });
    }

    // A new instance (fresh memory) must satisfy the fetch from
    // disk without computing.
    ResultCache warm(1 << 20, dir.string());
    bool computed = false;
    auto o = warm.fetch(k, [&] {
        computed = true;
        return r;
    });
    EXPECT_FALSE(computed);
    EXPECT_EQ(o.source, ResultCache::Source::Disk);
    EXPECT_TRUE(resultsIdentical(o.result, r));
    EXPECT_EQ(warm.stats().diskHits, 1u);

    // A mismatched canonical form under the same hash file name is
    // ignored (stale/corrupt guard), not served.
    PointKey other = makeKey(6);
    ResultCache poisoned(1 << 20, dir.string());
    std::string stale = dir.string() + "/";
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(other.hash));
        stale += buf;
        stale += ".json";
    }
    {
        std::ofstream os(stale);
        os << "{\"canonical\": \"something else\", \"result\": {}}";
    }
    bool recomputed = false;
    auto o2 = poisoned.fetch(other, [&] {
        recomputed = true;
        return makeResult(6);
    });
    EXPECT_TRUE(recomputed);
    EXPECT_EQ(o2.source, ResultCache::Source::Computed);

    fs::remove_all(dir);
}

TEST(ResultCache, CorruptedFilesAreNeverServed)
{
    // Seeded mutations of a persisted result: truncations, bit flips,
    // digit changes (a changed digit inside "result" still parses and
    // still matches the canonical text), and the file as written
    // before it carried a digest. None may come back as a disk hit;
    // each must be recomputed and the file rewritten.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("ccnuma_cache_mutation_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    const PointKey k = makeKey(7);
    const RunResult truth = makeResult(7);
    {
        ResultCache cache(1 << 20, dir.string());
        cache.fetch(k, [&] { return truth; });
    }
    fs::path file;
    for (const auto &e : fs::directory_iterator(dir))
        file = e.path();
    ASSERT_FALSE(file.empty());
    std::string pristine;
    {
        std::ifstream is(file, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        pristine = os.str();
    }

    std::mt19937_64 rng(17);
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    std::vector<std::pair<std::string, std::string>> cases;
    cases.emplace_back("drop the final newline",
                       pristine.substr(0, pristine.size() - 1));
    for (int i = 0; i < 16; ++i) {
        std::size_t len = pick(pristine.size());
        cases.emplace_back("truncate to " + std::to_string(len),
                           pristine.substr(0, len));
    }
    for (int i = 0; i < 48; ++i) {
        std::string b = pristine;
        std::size_t bit = pick(8 * b.size());
        b[bit / 8] = static_cast<char>(b[bit / 8] ^ (1 << (bit % 8)));
        cases.emplace_back("flip bit " + std::to_string(bit), b);
    }
    std::vector<std::size_t> digits;
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        if (pristine[i] >= '0' && pristine[i] <= '9')
            digits.push_back(i);
    }
    ASSERT_FALSE(digits.empty());
    for (int i = 0; i < 48; ++i) {
        std::string b = pristine;
        std::size_t at = digits[pick(digits.size())];
        b[at] = static_cast<char>('0' + (b[at] - '0' + 1 + pick(9)) % 10);
        cases.emplace_back("digit at " + std::to_string(at), b);
    }
    {
        // The layout without a digest.
        std::size_t from = pristine.find("\"digest\"");
        ASSERT_NE(from, std::string::npos);
        std::size_t to = pristine.find(',', from);
        ASSERT_NE(to, std::string::npos);
        std::string b = pristine;
        b.erase(from, to + 1 - from);
        cases.emplace_back("no digest", b);
    }

    for (const auto &[what, bytes] : cases) {
        SCOPED_TRACE(what);
        ASSERT_NE(bytes, pristine);
        {
            std::ofstream os(file, std::ios::binary | std::ios::trunc);
            os << bytes;
        }
        ResultCache cold(1 << 20, dir.string());
        auto o = cold.fetch(k, [&] { return truth; });
        EXPECT_EQ(o.source, ResultCache::Source::Computed);
        EXPECT_EQ(cold.stats().diskHits, 0u);
        EXPECT_TRUE(resultsIdentical(o.result, truth));
    }
    // The last recompute rewrote a file that is served again.
    ResultCache healed(1 << 20, dir.string());
    auto o = healed.fetch(k, [&] { return truth; });
    EXPECT_EQ(o.source, ResultCache::Source::Disk);
    EXPECT_TRUE(resultsIdentical(o.result, truth));

    fs::remove_all(dir);
}

} // namespace
