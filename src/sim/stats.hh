/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, sample averages, and bucketed distributions, grouped per
 * component and dumpable as a formatted report. All stats support
 * reset() so measurements can exclude warm-up (the paper reports the
 * parallel phase only).
 */

#ifndef CCNUMA_SIM_STATS_HH
#define CCNUMA_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ccnuma
{
namespace stats
{

/** Base class for all statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Zero the statistic (used to discard warm-up). */
    virtual void reset() = 0;

    /** Print one or more "name value # desc" lines. */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A simple additive counter. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }

    double value() const { return value_; }
    void set(double v) { value_ = v; }

    /** Fold another counter in (sharded per-shard stat folding). */
    void merge(const Scalar &o) { value_ += o.value_; }

    void reset() override { value_ = 0.0; }
    void print(std::ostream &os,
               const std::string &prefix) const override;

  private:
    double value_ = 0.0;
};

/** Mean/min/max over samples (e.g. queuing delays, latencies). */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    /**
     * Fold another sample set in. All sampled values in the simulator
     * are integer tick/byte counts well under 2^53, so the merged sum
     * is exact and independent of merge order — per-shard samples
     * fold to bit-identical aggregates.
     */
    void
    merge(const Average &o)
    {
        sum_ += o.sum_;
        count_ += o.count_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    void reset() override;
    void print(std::ostream &os,
               const std::string &prefix) const override;

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/** Fixed-width bucketed histogram. */
class Distribution : public Stat
{
  public:
    /**
     * @param bucket_size width of each bucket
     * @param num_buckets number of regular buckets; samples beyond
     *        the last bucket land in an overflow bucket.
     */
    Distribution(std::string name, std::string desc,
                 double bucket_size, std::size_t num_buckets)
        : Stat(std::move(name), std::move(desc)),
          bucketSize_(bucket_size), buckets_(num_buckets, 0)
    {}

    void
    sample(double v)
    {
        avg_.sample(v);
        if (v < 0) {
            // Casting a negative double to an unsigned index is UB;
            // negative samples get their own bucket instead.
            ++underflow_;
            return;
        }
        auto idx = static_cast<std::size_t>(v / bucketSize_);
        if (idx >= buckets_.size())
            ++overflow_;
        else
            ++buckets_[idx];
    }

    std::uint64_t count() const { return avg_.count(); }
    double mean() const { return avg_.mean(); }
    double minValue() const { return avg_.minValue(); }
    double maxValue() const { return avg_.maxValue(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketSize() const { return bucketSize_; }

    /**
     * Estimate the @p q quantile (0 <= q <= 1) by linear
     * interpolation within the fixed-width buckets. Samples in the
     * underflow bucket are treated as sitting at the recorded
     * minimum; the overflow bucket spans from the last bucket edge to
     * the recorded maximum. Returns 0 when empty.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }

    void reset() override;
    void print(std::ostream &os,
               const std::string &prefix) const override;

  private:
    Average avg_{"", ""};
    double bucketSize_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

/**
 * A named collection of statistics belonging to one component.
 * Groups do not own the stats they reference; components declare
 * stats as members and register them.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    void add(Stat *s) { stats_.push_back(s); }

    const std::string &name() const { return name_; }
    const std::vector<Stat *> &stats() const { return stats_; }

    void resetAll();
    void print(std::ostream &os) const;

  private:
    std::string name_;
    std::vector<Stat *> stats_;
};

/** Registry of groups for whole-machine dumps. */
class Registry
{
  public:
    void add(Group *g) { groups_.push_back(g); }

    void resetAll();
    void print(std::ostream &os) const;

  private:
    std::vector<Group *> groups_;
};

} // namespace stats
} // namespace ccnuma

#endif // CCNUMA_SIM_STATS_HH
