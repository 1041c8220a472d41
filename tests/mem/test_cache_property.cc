/**
 * @file
 * Property test: the set-associative cache against a simple
 * reference model (per-set LRU list), under long random operation
 * sequences.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"

namespace ccnuma
{
namespace
{

/** Reference: per-set most-recently-used-first list of line addrs. */
struct RefModel
{
    unsigned assoc;
    unsigned numSets;
    unsigned lineBytes;
    std::map<std::size_t, std::list<Addr>> sets;

    std::size_t
    setOf(Addr line) const
    {
        return (line / lineBytes) % numSets;
    }

    bool
    present(Addr line) const
    {
        auto it = sets.find(setOf(line));
        if (it == sets.end())
            return false;
        for (Addr a : it->second) {
            if (a == line)
                return true;
        }
        return false;
    }

    void
    touch(Addr line)
    {
        auto &s = sets[setOf(line)];
        s.remove(line);
        s.push_front(line);
    }

    /** @return evicted line, or ~0 if none. */
    Addr
    allocate(Addr line)
    {
        auto &s = sets[setOf(line)];
        s.push_front(line);
        if (s.size() > assoc) {
            Addr victim = s.back();
            s.pop_back();
            return victim;
        }
        return ~static_cast<Addr>(0);
    }

    void invalidate(Addr line) { sets[setOf(line)].remove(line); }
};

class CacheVsReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheVsReference, LongRandomSequenceAgrees)
{
    const unsigned line = 128;
    SetAssocCache c("c", 16 * 1024, 4, line); // 32 sets
    RefModel ref{4, c.numSets(), line, {}};
    Random rng(GetParam());

    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(256) * line; // 256 lines: 8x pressure
        int op = static_cast<int>(rng.below(10));
        if (op < 7) {
            // Access: hit must agree; miss allocates in both.
            CacheLine *l = c.findLine(addr);
            bool ref_hit = ref.present(addr);
            ASSERT_EQ(l != nullptr, ref_hit)
                << "iter " << i << " addr " << std::hex << addr;
            if (l) {
                c.touch(l);
                ref.touch(addr);
            } else {
                SetAssocCache::Victim v;
                c.allocate(addr, LineState::Shared, &v);
                Addr ref_victim = ref.allocate(addr);
                ASSERT_EQ(v.valid,
                          ref_victim != ~static_cast<Addr>(0));
                if (v.valid)
                    ASSERT_EQ(v.lineAddr, ref_victim);
            }
        } else if (op < 9) {
            // External invalidation.
            c.invalidate(addr);
            ref.invalidate(addr);
        } else {
            // Cross-check a random probe without touching.
            ASSERT_EQ(c.findLine(addr) != nullptr,
                      ref.present(addr));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheVsReference,
                         ::testing::Values(1, 7, 42, 1234, 99999));

/**
 * The packed 32-bit tag array against a reference scan: lookups must
 * agree with the reference model and with a scan of the line entries
 * themselves through allocation, invalidation, whole-cache flushes,
 * injected single-bit flips and scrubs. Line numbers share their low
 * bits (and set index) across high parts that span the whole 32-bit
 * range, so a tag truncated or compared on the wrong width aliases.
 */
class PackedTagsVsReference
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PackedTagsVsReference, FindLineAgreesWithReferenceScan)
{
    const unsigned line = 64;
    SetAssocCache c("c", 8 * 1024, 4, line); // 32 sets
    RefModel ref{4, c.numSets(), line, {}};
    Random rng(GetParam());
    Random flips(GetParam() * 31 + 5);
    const std::uint64_t high[] = {0, 1ull << 12, 1ull << 16,
                                  1ull << 24, 1ull << 31,
                                  (1ull << 32) - 4096};
    auto pick = [&] {
        std::uint64_t low = rng.below(24) * c.numSets() + rng.below(3);
        return static_cast<Addr>(high[rng.below(6)] + low) * line;
    };
    auto scan = [&](Addr a) {
        bool found = false;
        c.forEachLine([&](const CacheLine &l) {
            if (l.lineAddr == a)
                found = true;
        });
        return found;
    };

    for (int i = 0; i < 20000; ++i) {
        const Addr addr = pick();
        const int op = static_cast<int>(rng.below(100));
        if (op < 60) {
            CacheLine *l = c.findLine(addr + rng.below(line));
            ASSERT_EQ(l != nullptr, ref.present(addr))
                << "iter " << i << " addr " << std::hex << addr;
            if (l) {
                ASSERT_EQ(l->lineAddr, addr);
                c.touch(l);
                ref.touch(addr);
            } else {
                SetAssocCache::Victim v;
                CacheLine *nl =
                    c.allocate(addr, LineState::Modified, &v);
                ASSERT_EQ(nl->lineAddr, addr);
                Addr ref_victim = ref.allocate(addr);
                ASSERT_EQ(v.valid,
                          ref_victim != ~static_cast<Addr>(0));
                if (v.valid) {
                    ASSERT_EQ(v.lineAddr, ref_victim);
                }
            }
        } else if (op < 75) {
            c.invalidate(addr);
            ref.invalidate(addr);
        } else if (op < 90) {
            // Corrupt a random word of a random line; the correction
            // is parked and must be applied before any lookup.
            c.injectCeFlip(flips);
        } else if (op < 97) {
            c.scrubNow();
            ASSERT_EQ(c.pendingCount(), 0u);
        } else if (op < 98) {
            c.invalidateAll();
            ref.sets.clear();
        } else {
            ASSERT_EQ(c.findLine(addr) != nullptr, scan(addr));
        }
        ASSERT_EQ(c.findLine(addr) != nullptr, ref.present(addr))
            << "iter " << i << " addr " << std::hex << addr;
    }
    EXPECT_GT(c.eccCorrected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedTagsVsReference,
                         ::testing::Values(3, 11, 2024));

TEST(PackedTags, LineNumberBeyondTagWidthFailsCleanly)
{
    const unsigned line = 128;
    SetAssocCache c("c", 16 * 1024, 4, line);
    const Addr too_big = static_cast<Addr>(kNoLineNum) * line;
    EXPECT_EQ(c.findLine(too_big), nullptr);
    EXPECT_THROW(c.allocate(too_big, LineState::Shared, nullptr),
                 FatalError);
    EXPECT_THROW(c.allocate(too_big << 8, LineState::Shared, nullptr),
                 FatalError);
    // The largest line number that fits is an ordinary line.
    const Addr largest = too_big - line;
    ASSERT_NE(c.allocate(largest, LineState::Shared, nullptr),
              nullptr);
    EXPECT_NE(c.findLine(largest), nullptr);
    EXPECT_EQ(c.numValid(), 1u);
}

} // namespace
} // namespace ccnuma
