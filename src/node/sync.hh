/**
 * @file
 * Synchronization substrate: barriers and locks.
 *
 * Synchronization variables live in the simulated shared address
 * space (one cache line each), and every barrier arrival / lock
 * acquire / lock release performs a store to the variable's line
 * through the normal cache and coherence machinery, so
 * synchronization generates realistic hot-line protocol traffic at
 * the variable's home node. This manager supplies the *semantics*
 * (who waits, who is released) without unbounded spinning: waiters
 * sleep and are woken by the granting event, paying one additional
 * coherence access on the handoff.
 *
 * Grants are always deferred: a barrier release or lock handoff
 * reaches the granted processor handoffTicks after the operation
 * that caused it — modeling the flag/line propagation delay of a real
 * sleeping waiter — and the grant event carries an explicit
 * deterministic key from the sync manager's own context. Deferral is
 * also what makes the manager shardable: operations performed during
 * a conservative window are recorded per shard and processed at the
 * window barrier in (event key) merge order, which is exactly the
 * order the serial path processes them inline, so grant timing and
 * sequence numbers are bit-identical in both modes.
 */

#ifndef CCNUMA_NODE_SYNC_HH
#define CCNUMA_NODE_SYNC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sharded.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Barrier and lock coordination across the whole machine. */
class SyncManager
{
  public:
    SyncManager(const std::string &name, const ShardMap &map,
                Addr sync_base, unsigned line_bytes);

    /** Single-queue convenience constructor (unit tests). */
    SyncManager(const std::string &name, EventQueue &eq,
                Addr sync_base, unsigned line_bytes,
                unsigned num_nodes = 4);

    /** Number of threads each barrier waits for. */
    void setBarrierParticipants(unsigned n) { participants_ = n; }
    unsigned barrierParticipants() const { return participants_; }

    /** Grant propagation delay (MachineConfig::syncHandoffTicks). */
    void setHandoffTicks(Tick d) { handoffTicks_ = d; }
    Tick handoffTicks() const { return handoffTicks_; }

    /**
     * Force the deferred (sharded-style) grant path even on a single
     * queue. Serial runs normally use the seed's zero-delay wakes;
     * identity oracles for the sharded modes flip this on
     * (CCNUMA_SYNC_DEFER=1) so both sides time grants identically.
     */
    void setForceDefer(bool on) { forceDefer_ = on; }
    bool forceDefer() const { return forceDefer_; }

    /** Address of barrier @p id's cache line. */
    Addr
    barrierAddr(std::uint32_t id) const
    {
        return syncBase_ + static_cast<Addr>(id) * lineBytes_;
    }

    /** Address of lock @p id's cache line. */
    Addr
    lockAddr(std::uint32_t id) const
    {
        return syncBase_ + lockRegionOffset_ +
               static_cast<Addr>(id) * lineBytes_;
    }

    /**
     * Record a barrier arrival by @p node. When the last participant
     * has arrived, every arriver's @p wake runs (in a fresh event on
     * its own node's queue) handoffTicks after the final arrival;
     * the final arriver's wake receives released = true.
     */
    void arrive(std::uint32_t id, NodeId node,
                std::function<void(bool released)> wake);

    /**
     * Request a lock. @p granted runs handoffTicks after the
     * operation that hands @p node the lock: the acquire itself when
     * the lock is free, the release that reaches this waiter
     * otherwise.
     */
    void lockAcquire(std::uint32_t id, NodeId node,
                     std::function<void()> granted);

    /** Release a lock, handing it to the oldest waiter if any. */
    void lockRelease(std::uint32_t id, NodeId node);

    /**
     * Process operations recorded during the last sharded window, in
     * deterministic (event key) merge order. Called at the window
     * barrier with all shard threads quiescent. Serial mode processes
     * inline and never buffers, so this is then a no-op.
     *
     * Adaptive windows run *different* spans per shard, so an
     * operation posted by a far-ahead shard may sort after operations
     * a lagging shard has not yet posted. @p safe is the tick every
     * shard has provably reached (the post-drain minimum of all
     * queues' nextWhen()): only operations below that horizon are
     * processed now, and each processed operation shrinks the horizon
     * to op.tick + handoffTicks, since its grant can wake a processor
     * whose next sync operation would sort before a later buffered
     * one. The unprocessed suffix is deferred to a later barrier.
     * With the default safe = maxTick everything is processed: right
     * only when every queue has passed every buffered operation.
     */
    void processPending(Tick safe = maxTick);

    /**
     * @return true when no recorded operations are buffered, counting
     * operations deferred past an adaptive horizon.
     */
    bool pendingEmpty() const;

    /**
     * Earliest event key tick among deferred operations (maxTick when
     * none). The adaptive window planner bounds every shard's window
     * by this, so no shard can outrun a deferred operation's effects.
     */
    Tick pendingMinWhen() const;

    stats::Group &statGroup() { return statGroup_; }

    stats::Scalar statBarriers{"barriers", "barrier episodes completed"};
    stats::Scalar statLockHandoffs{"lock_handoffs",
        "lock acquisitions that had to queue"};

  private:
    struct Op
    {
        enum class Kind
        {
            BarrierArrive,
            LockAcquire,
            LockRelease,
        };
        Kind kind;
        std::uint32_t id = 0;
        NodeId node = 0;
        Tick tick = 0;
        std::function<void(bool)> wake;
        std::function<void()> granted;
    };

    struct Record
    {
        EventKey key;
        Op op;
    };

    struct BarrierArrival
    {
        NodeId node;
        std::function<void(bool)> wake;
    };

    struct BarrierState
    {
        std::vector<BarrierArrival> arrivals;
    };

    struct LockWaiter
    {
        NodeId node;
        std::function<void()> granted;
    };

    struct LockState
    {
        bool held = false;
        std::deque<LockWaiter> waiting;
    };

    /** Route one operation: inline (serial) or recorded (sharded). */
    void post(Op op);
    /** Apply one operation to barrier/lock state, issuing grants. */
    void processOp(Op &op);
    /** Schedule a grant event on @p node's queue with a sync key. */
    void grant(NodeId node, Tick op_tick, std::function<void()> fn);

    ShardMap ownMap_;
    const ShardMap *map_;
    Addr syncBase_;
    unsigned lineBytes_;
    Addr lockRegionOffset_;
    unsigned participants_ = 1;
    Tick handoffTicks_ = 16;
    bool forceDefer_ = false;
    /** Per-context grant sequence (advances in processing order). */
    std::uint64_t syncSeq_ = 0;
    /** Per-shard operation logs (sharded mode only). */
    std::vector<std::vector<Record>> pending_;
    /**
     * Operations deferred past an adaptive-window safe horizon,
     * kept sorted by event key until a later barrier's horizon
     * admits them.
     */
    std::vector<Record> deferred_;
    std::unordered_map<std::uint32_t, BarrierState> barriers_;
    std::unordered_map<std::uint32_t, LockState> locks_;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_NODE_SYNC_HH
