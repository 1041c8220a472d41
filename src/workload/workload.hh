/**
 * @file
 * Workload abstraction: a parallel program expressed as one lazily
 * generated operation stream per thread, plus optional page-placement
 * hints. The eight SPLASH-2 kernel re-implementations and the
 * synthetic traffic generators all derive from Workload.
 */

#ifndef CCNUMA_WORKLOAD_WORKLOAD_HH
#define CCNUMA_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_map.hh"
#include "sim/logging.hh"
#include "workload/op_stream.hh"

namespace ccnuma
{

/** Parameters shared by all workloads. */
struct WorkloadParams
{
    unsigned numThreads = 64;
    /**
     * Linear problem-scale factor. 1.0 reproduces the paper's data
     * set (Table 5); smaller values shrink data and iteration counts
     * proportionally so full sweeps run on small machines.
     */
    double scale = 1.0;
    /** Extra multiplier for the Figure 9 large-data variants. */
    double dataFactor = 1.0;
    unsigned lineBytes = 128;
    /** First heap address handed out by the bump allocator. */
    Addr heapBase = 0x10'0000;
    /** Seed for workloads with pseudo-random structure. */
    std::uint64_t seed = 12345;
};

/** Base class for all workloads. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &p)
        : params_(p), nextAddr_(p.heapBase)
    {}

    virtual ~Workload() = default;

    /** Workload name as reported in tables (e.g. "Ocean-258"). */
    virtual std::string name() const = 0;

    unsigned numThreads() const { return params_.numThreads; }

    /** Generate thread @p tid's operation stream. */
    virtual OpStream thread(unsigned tid) = 0;

    /**
     * True when each thread's stream depends on nothing but its own
     * generation: streams may then be drained in any order, on any
     * host thread, concurrently, and come out the same. A workload
     * whose threads share host-side state that generation mutates
     * (Cholesky's dynamic task cursor) returns false, and replay
     * capture then drains its streams one after another in thread
     * order on one host thread.
     */
    virtual bool independentStreams() const { return true; }

    /**
     * Apply page-placement hints before the run (the paper's FFT
     * uses programmer-optimal placement; everything else relies on
     * the default round-robin policy).
     */
    virtual void place(AddressMap &map) { (void)map; }

    const WorkloadParams &params() const { return params_; }

  protected:
    /** Bump-allocate a shared array. */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 0)
    {
        if (align == 0)
            align = params_.lineBytes;
        nextAddr_ = (nextAddr_ + align - 1) & ~(align - 1);
        Addr a = nextAddr_;
        nextAddr_ += bytes;
        return a;
    }

    /** Scale a dimension by the problem-scale factor (min 1). */
    std::uint64_t
    scaled(std::uint64_t n, double factor = 1.0) const
    {
        double v = static_cast<double>(n) * params_.scale * factor;
        return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
    }

    WorkloadParams params_;
    Addr nextAddr_;
};

/**
 * Instantiate a workload by its table name: "LU", "Cholesky",
 * "Water-Nsq", "Water-Sp", "Barnes", "FFT", "Radix", "Ocean",
 * or "Uniform" (the synthetic generator).
 * @throws FatalError for unknown names.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &p);

/** The eight SPLASH-2 application names in the paper's table order. */
const std::vector<std::string> &splashNames();

} // namespace ccnuma

#endif // CCNUMA_WORKLOAD_WORKLOAD_HH
