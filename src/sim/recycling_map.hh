/**
 * @file
 * std::unordered_map that keeps its erased nodes for reuse.
 *
 * The coherence controller's per-line transaction tables see one
 * insert and one erase per protocol transaction. A plain
 * unordered_map pays a node allocation (and, for container values,
 * the container's buffers) every time. This wrapper extracts erased
 * nodes instead of freeing them and re-inserts a spare node for the
 * next key, with its value reset but its buffers' capacity kept, so a
 * warm table never allocates.
 *
 * Iteration order is part of the simulator's output (crash replay
 * collects these tables in iteration order). A node-handle insert
 * takes the same path as emplace, and extract leaves the bucket array
 * alone exactly as erase does, so the order is identical to that of
 * a plain unordered_map driven by the same insert/erase sequence.
 */

#ifndef CCNUMA_SIM_RECYCLING_MAP_HH
#define CCNUMA_SIM_RECYCLING_MAP_HH

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ccnuma
{

template <typename K, typename V>
class RecyclingMap
{
    using Map = std::unordered_map<K, V>;

  public:
    using iterator = typename Map::iterator;
    using const_iterator = typename Map::const_iterator;

    /** Value for @p k, inserting a reset one when absent. */
    V &
    operator[](const K &k)
    {
        if (auto it = map_.find(k); it != map_.end())
            return it->second;
        if (spare_.empty())
            return map_.try_emplace(k).first->second;
        typename Map::node_type nh = std::move(spare_.back());
        spare_.pop_back();
        nh.key() = k;
        resetValue(nh.mapped());
        return map_.insert(std::move(nh)).position->second;
    }

    iterator find(const K &k) { return map_.find(k); }
    const_iterator find(const K &k) const { return map_.find(k); }
    std::size_t count(const K &k) const { return map_.count(k); }
    bool empty() const { return map_.empty(); }

    iterator begin() { return map_.begin(); }
    iterator end() { return map_.end(); }
    const_iterator begin() const { return map_.begin(); }
    const_iterator end() const { return map_.end(); }

    /** Erase @p it, keeping its node. @return the next iterator. */
    iterator
    erase(iterator it)
    {
        iterator next = std::next(it);
        spare_.push_back(map_.extract(it));
        return next;
    }

    /** Erase @p k if present. */
    void
    erase(const K &k)
    {
        if (auto it = map_.find(k); it != map_.end())
            erase(it);
    }

    /** Erase everything, keeping the nodes. */
    void
    clear()
    {
        while (!map_.empty())
            spare_.push_back(map_.extract(map_.begin()));
    }

  private:
    /** Containers keep their capacity; plain values reset to V{}. */
    static void
    resetValue(V &v)
    {
        if constexpr (requires { v.clear(); })
            v.clear();
        else
            v = V{};
    }

    Map map_;
    std::vector<typename Map::node_type> spare_;
};

} // namespace ccnuma

#endif // CCNUMA_SIM_RECYCLING_MAP_HH
