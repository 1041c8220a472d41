/**
 * @file
 * Re-implementations of the eight SPLASH-2 kernels the paper
 * evaluates (Table 5). Each class computes the application's real
 * parallel access pattern — block-owner dense LU, supernodal sparse
 * Cholesky with a dynamic task queue, all-pairs and spatial-grid
 * Water, tree-based Barnes-Hut, six-step FFT with all-to-all
 * transposes, two-pass Radix sort with scattered permutation writes,
 * and red-black Ocean relaxation with nearest-neighbor halos — and
 * yields it as per-thread operation streams.
 *
 * Problem sizes follow Table 5 at scale 1.0: LU 512x512 (16x16
 * blocks), 512 molecules for both Water codes, 8K particles for
 * Barnes, tk15-sized synthetic sparsity for Cholesky, 64K complex
 * doubles for FFT (256K with dataFactor 4), 256K keys radix 1K for
 * Radix, and a 258x258 ocean (514x514 with dataFactor ~2).
 */

#ifndef CCNUMA_WORKLOAD_SPLASH_HH
#define CCNUMA_WORKLOAD_SPLASH_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "workload/workload.hh"

namespace ccnuma
{

/** Blocked dense LU factorization (owner-computes, 16x16 blocks). */
class LuWorkload : public Workload
{
  public:
    explicit LuWorkload(const WorkloadParams &p);
    std::string name() const override { return "LU"; }
    OpStream thread(unsigned tid) override;

    unsigned matrixDim() const { return n_; }

  private:
    unsigned owner(unsigned bi, unsigned bj) const;
    Addr blockAddr(unsigned bi, unsigned bj) const;

    unsigned n_ = 0;       ///< matrix dimension
    unsigned nb_ = 0;      ///< blocks per dimension
    unsigned pr_ = 0, pc_ = 0; ///< processor grid
    Addr a_ = 0;
    static constexpr unsigned blockDim = 16;
};

/** Blocked sparse Cholesky with a lock-protected dynamic task queue. */
class CholeskyWorkload : public Workload
{
  public:
    explicit CholeskyWorkload(const WorkloadParams &p);
    std::string name() const override { return "Cholesky"; }
    OpStream thread(unsigned tid) override;
    /** Every thread draws tasks from the shared nextTask_ cursor. */
    bool independentStreams() const override { return false; }

  private:
    struct Task
    {
        Addr base = 0;
        unsigned lines = 0;       ///< supernode size in lines
        unsigned parents[3] = {}; ///< indices of consumed tasks
        unsigned numParents = 0;
    };

    std::vector<Task> tasks_;
    Addr counterAddr_ = 0;   ///< shared task-queue cursor line
    unsigned nextTask_ = 0;  ///< host-side cursor (dynamic schedule)
    std::uint32_t queueLock_ = 0;
};

/** All-pairs Water (O(n^2) force interactions, per-molecule locks). */
class WaterNsqWorkload : public Workload
{
  public:
    explicit WaterNsqWorkload(const WorkloadParams &p);
    std::string name() const override { return "Water-Nsq"; }
    OpStream thread(unsigned tid) override;

  private:
    Addr molAddr(unsigned m) const;

    unsigned nmol_ = 0;
    unsigned steps_ = 0;
    Addr mols_ = 0;
    static constexpr unsigned molBytes = 512;
    static constexpr unsigned numLocks = 128;
};

/** Spatial-grid Water (forces with neighboring cells only). */
class WaterSpWorkload : public Workload
{
  public:
    explicit WaterSpWorkload(const WorkloadParams &p);
    std::string name() const override { return "Water-Sp"; }
    OpStream thread(unsigned tid) override;

  private:
    Addr molAddr(unsigned m) const;

    unsigned nmol_ = 0;
    unsigned steps_ = 0;
    Addr mols_ = 0;
    static constexpr unsigned molBytes = 512;
};

/** Barnes-Hut N-body (tree build with cell locks, force traversal). */
class BarnesWorkload : public Workload
{
  public:
    explicit BarnesWorkload(const WorkloadParams &p);
    std::string name() const override { return "Barnes"; }
    OpStream thread(unsigned tid) override;

  private:
    unsigned npart_ = 0;
    unsigned ncell_ = 0;
    unsigned steps_ = 0;
    Addr parts_ = 0;
    Addr cells_ = 0;
    static constexpr unsigned partBytes = 128;
    static constexpr unsigned cellBytes = 64;
    static constexpr unsigned numLocks = 1024;
};

/** Six-step FFT with all-to-all transposes and placement hints. */
class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(const WorkloadParams &p);
    std::string name() const override;
    OpStream thread(unsigned tid) override;
    void place(AddressMap &map) override;

    std::uint64_t points() const
    {
        return static_cast<std::uint64_t>(dim_) * dim_;
    }

  private:
    Addr elemAddr(Addr base, unsigned r, unsigned c) const;

    unsigned dim_ = 0; ///< sqrt(points): dim_ x dim_ matrix
    unsigned rowStride_ = 0; ///< padded row stride, in elements
    Addr x_ = 0, trans_ = 0, roots_ = 0;
    static constexpr unsigned elemBytes = 16; ///< complex double
};

/** Radix sort: histogram, parallel prefix, scattered permutation. */
class RadixWorkload : public Workload
{
  public:
    explicit RadixWorkload(const WorkloadParams &p);
    std::string name() const override;
    OpStream thread(unsigned tid) override;

  private:
    std::uint64_t nkeys_ = 0;
    unsigned passes_ = 0;
    Addr keys_ = 0, out_ = 0, hists_ = 0;
    std::vector<std::uint32_t> keyData_; ///< host-side real keys
    /** Per-pass digit of each key (precomputed). */
    std::vector<std::vector<std::uint16_t>> digits_;
    /** Per-pass stable-sort destination of each key. */
    std::vector<std::vector<std::uint32_t>> dests_;
    static constexpr unsigned radix = 1024;
    static constexpr unsigned keyBytes = 4;
};

/** Red-black Ocean relaxation with a lock-protected reduction. */
class OceanWorkload : public Workload
{
  public:
    explicit OceanWorkload(const WorkloadParams &p);
    std::string name() const override;
    OpStream thread(unsigned tid) override;

  private:
    Addr cell(Addr grid, unsigned r, unsigned c) const;
    Addr coarseCell(Addr grid, unsigned r, unsigned c) const;

    unsigned n_ = 0;     ///< grid dimension
    unsigned nc_ = 0;    ///< coarse (multigrid) dimension
    unsigned steps_ = 0; ///< timesteps
    Addr gridA_ = 0, gridB_ = 0;
    Addr coarseA_ = 0, coarseB_ = 0;
    static constexpr unsigned elemBytes = 8;
};

} // namespace ccnuma

#endif // CCNUMA_WORKLOAD_SPLASH_HH
