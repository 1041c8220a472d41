/**
 * @file
 * Seeded fault injector. Hooks into Network::send (as a NetworkTap)
 * and into the coherence controllers' dispatch queues (via
 * CoherenceController::setStallHook) to perturb a run according to a
 * FaultConfig. Randomness is partitioned into one deterministic
 * stream per source node (network faults) and per node (engine
 * stalls), each seeded from (config seed, node): a (config, seed)
 * pair replays exactly, and — because each stream is consumed only by
 * its own node's execution, whose operation order the event keys pin
 * down — the injected fault pattern is identical whether the machine
 * runs serial or sharded.
 */

#ifndef CCNUMA_VERIFY_FAULT_INJECTOR_HH
#define CCNUMA_VERIFY_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "net/network.hh"
#include "protocol/wire.hh"
#include "sim/random.hh"
#include "verify/fault_config.hh"

namespace ccnuma
{

/** Injects network and engine faults per a FaultConfig. */
class FaultInjector : public NetworkTap
{
  public:
    FaultInjector(const FaultConfig &cfg, unsigned num_nodes);

    const FaultConfig &config() const { return cfg_; }

    // --- NetworkTap ---
    bool onDelivery(NodeId src, NodeId dst, Tick &delivered,
                    Tick &duplicate_at) override;

    /**
     * Engine-stall hook body for @p node (wired through
     * CoherenceController::setStallHook).
     * @return extra ticks the engine stays busy before dispatching,
     *         or 0 for no stall.
     */
    Tick engineStall(NodeId node);

    // --- fail-stop crash faults (driven by the recovery manager) ---

    /** Scheduled controller crashes, in config order. */
    const std::vector<CrashFault> &crashes() const
    {
        return cfg_.crashes;
    }

    /** The recovery manager reports each crash it actually fired. */
    void noteCrashInjected() { ++crashesInjected_; }

    // --- bit-flip faults (driven by the integrity manager) ---

    /** Scheduled bit flips, in config order. */
    const std::vector<FlipFault> &flips() const { return cfg_.flips; }

    /**
     * Arm a message-domain flip: the next transport frame sent by
     * @p node has @p bits distinct payload bits flipped (chosen by a
     * Random stream over @p seed). One armed flip corrupts exactly
     * one frame; arming again replaces any still-pending flip.
     */
    void armMessageFlip(NodeId node, unsigned bits,
                        std::uint64_t seed);

    /**
     * Transport hook body: apply the pending flip for @p src to the
     * packed frame image, if one is armed.
     * @return the number of bits flipped (0 when nothing was armed).
     */
    unsigned corruptFrame(NodeId src, wire::FrameImage &frame);

    /** True while an armed message flip has not yet hit a frame. */
    bool messageFlipPending(NodeId node) const
    {
        return node < pendingFlip_.size() &&
               pendingFlip_[node].bits != 0;
    }

    /** Frames actually corrupted by armed message flips. */
    std::uint64_t framesCorrupted() const { return framesCorrupted_; }

    // --- injection counters (test assertions) ---
    std::uint64_t injectedDelays() const;
    std::uint64_t injectedStalls() const;
    std::uint64_t injectedReorders() const;
    std::uint64_t injectedDuplicates() const;
    std::uint64_t injectedDrops() const;
    std::uint64_t injectedCrashes() const { return crashesInjected_; }

  private:
    /**
     * Per-source-node fault state: the RNG stream, the send counter
     * the drop-every-Nth rule counts, the per-destination FIFO
     * clamps, and the injection counters. Touched only by the source
     * node's shard.
     */
    struct SrcState
    {
        Random rng{0};
        std::uint64_t msgCount = 0;
        /** Latest delivery tick scheduled per destination. */
        std::vector<Tick> lastScheduled;
        std::uint64_t delays = 0;
        std::uint64_t reorders = 0;
        std::uint64_t duplicates = 0;
        std::uint64_t drops = 0;
    };

    /** Per-node engine-stall state. */
    struct StallState
    {
        Random rng{0};
        std::uint64_t stalls = 0;
    };

    /** An armed-but-not-yet-applied message flip for one node. */
    struct PendingFlip
    {
        unsigned bits = 0; ///< 0 = nothing armed
        std::uint64_t seed = 0;
    };

    FaultConfig cfg_;
    std::vector<SrcState> src_;
    std::vector<StallState> stall_;
    std::vector<PendingFlip> pendingFlip_;
    std::uint64_t crashesInjected_ = 0;
    std::uint64_t framesCorrupted_ = 0;
};

} // namespace ccnuma

#endif // CCNUMA_VERIFY_FAULT_INJECTOR_HH
