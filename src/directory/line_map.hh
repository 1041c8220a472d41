/**
 * @file
 * Open-addressed line-address map for the directory store.
 *
 * The directory's authoritative entry table is the hottest associative
 * container in the simulator: every home-side handler looks a line up,
 * and entries are created once and never erased. std::unordered_map
 * pays a node allocation per entry and two dependent loads per lookup
 * (bucket array, then node). LineMap exploits the no-erase usage:
 *
 *  - lookups probe a flat open-addressed table of (key, index) slots
 *    with linear probing — one cache line covers four slots;
 *  - entries live in a std::deque, so a DirEntry reference stays valid
 *    across growth (matching unordered_map's reference stability,
 *    which coherence_controller.cc relies on within a handler);
 *  - no tombstones are ever needed because nothing is erased.
 *
 * Iteration (forEach) walks the deque in insertion order, which is
 * deterministic across runs and platforms.
 */

#ifndef CCNUMA_DIRECTORY_LINE_MAP_HH
#define CCNUMA_DIRECTORY_LINE_MAP_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Flat find-or-create map from line address to @p Value, no erase. */
template <typename Value>
class LineMap
{
  public:
    /** @param expected pre-size for this many entries (no rehash). */
    explicit LineMap(std::size_t expected = 0)
    {
        std::size_t cap = kMinCapacity;
        while (cap < expected * 2)
            cap <<= 1;
        table_.assign(cap, Slot{});
        mask_ = cap - 1;
    }

    /** Find or create the entry for @p key. References are stable. */
    Value &
    operator[](Addr key)
    {
        ccnuma_assert(key != kEmpty);
        std::size_t i = probeStart(key);
        while (true) {
            Slot &s = table_[i];
            if (s.key == key)
                return store_[s.idx].second;
            if (s.key == kEmpty)
                break;
            i = (i + 1) & mask_;
        }
        if ((store_.size() + 1) * 2 > table_.size()) {
            grow();
            i = probeStart(key);
            while (table_[i].key != kEmpty)
                i = (i + 1) & mask_;
        }
        table_[i].key = key;
        table_[i].idx = static_cast<std::uint32_t>(store_.size());
        store_.emplace_back(key, Value{});
        return store_.back().second;
    }

    /** @return the entry for @p key, or nullptr if never created. */
    const Value *
    find(Addr key) const
    {
        std::size_t i = probeStart(key);
        while (true) {
            const Slot &s = table_[i];
            if (s.key == key)
                return &store_[s.idx].second;
            if (s.key == kEmpty)
                return nullptr;
            i = (i + 1) & mask_;
        }
    }

    std::size_t size() const { return store_.size(); }
    std::size_t capacity() const { return table_.size(); }

    /** Drop every entry, keeping the table capacity. */
    void
    clear()
    {
        table_.assign(table_.size(), Slot{});
        store_.clear();
    }

    /** Visit (key, value) pairs in insertion order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const auto &kv : store_)
            f(kv.first, kv.second);
    }

  private:
    /** Reserved key: never a valid line-aligned address. */
    static constexpr Addr kEmpty = ~static_cast<Addr>(0);
    static constexpr std::size_t kMinCapacity = 64;

    struct Slot
    {
        Addr key = kEmpty;
        std::uint32_t idx = 0;
    };

    std::size_t
    probeStart(Addr key) const
    {
        // Fibonacci hashing: line addresses differ only in a narrow
        // band of middle bits, so mix before masking.
        std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> 32) & mask_;
    }

    void
    grow()
    {
        std::vector<Slot> fresh(table_.size() * 2);
        mask_ = fresh.size() - 1;
        table_.swap(fresh);
        for (std::uint32_t idx = 0;
             idx < static_cast<std::uint32_t>(store_.size()); ++idx) {
            std::size_t i = probeStart(store_[idx].first);
            while (table_[i].key != kEmpty)
                i = (i + 1) & mask_;
            table_[i].key = store_[idx].first;
            table_[i].idx = idx;
        }
    }

    std::vector<Slot> table_;
    std::size_t mask_ = 0;
    std::deque<std::pair<Addr, Value>> store_;
};

} // namespace ccnuma

#endif // CCNUMA_DIRECTORY_LINE_MAP_HH
