/**
 * @file
 * Intra-machine sharded simulation support.
 *
 * A Machine can run on one event queue (serial) or on several, one
 * per shard of SMP nodes, advanced in conservative windows: nodes
 * interact only through the point-to-point network, whose minimum
 * end-to-end latency (serialization + flight) bounds how far any
 * shard can safely run ahead of the others (further only while its
 * peers are provably quiet; see Machine::runWindows). ShardMap is the
 * routing table from node to owning queue plus the deterministic
 * context numbering shared by the serial and sharded paths; ShardTeam
 * is the pool of persistent worker threads that execute one window
 * per shard between barriers. Windows are ~16 ticks, so the handoff
 * uses a spin-then-yield epoch barrier rather than a mutex/condvar
 * queue — the wake latency of the latter would dominate the window.
 */

#ifndef CCNUMA_SIM_SHARDED_HH
#define CCNUMA_SIM_SHARDED_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace ccnuma
{

/**
 * Node-to-queue routing plus the machine-wide scheduling-context
 * numbering. Contexts are what make event ordering independent of
 * the queue layout (see EventKey): node n owns context n, the network
 * egress port of source node s owns context numNodes + s, the sync
 * manager owns context 2*numNodes, and machine start-up/teardown uses
 * context 2*numNodes + 1.
 */
struct ShardMap
{
    unsigned numNodes = 0;
    unsigned numShards = 1;
    /** Owning queue per shard. */
    std::vector<EventQueue *> queueOfShard;
    /** Shard index per node (contiguous blocks). */
    std::vector<unsigned> shardOfNode;

    EventQueue &
    of(unsigned node) const
    {
        return *queueOfShard[shardOfNode[node]];
    }

    unsigned shardOf(unsigned node) const { return shardOfNode[node]; }
    bool sharded() const { return numShards > 1; }

    std::uint32_t nodeCtx(unsigned node) const { return node; }
    std::uint32_t netCtx(unsigned src) const { return numNodes + src; }
    std::uint32_t syncCtx() const { return 2 * numNodes; }
    std::uint32_t externalCtx() const { return 2 * numNodes + 1; }
    std::uint32_t numContexts() const { return 2 * numNodes + 2; }

    /** Serial layout: every node on one queue. */
    static ShardMap single(EventQueue &eq, unsigned num_nodes);

    /**
     * Block partition of @p num_nodes nodes over the given queues
     * (num_nodes must be a multiple of the queue count).
     */
    static ShardMap partition(const std::vector<EventQueue *> &queues,
                              unsigned num_nodes);
};

/**
 * Persistent worker team for the sharded window loop. Shard 0 runs on
 * the coordinating thread itself; shards 1..n-1 each get a dedicated
 * worker parked on a spin-then-yield epoch barrier. run() executes
 * fn(shard) for every shard and returns when all are done, rethrowing
 * the lowest-shard exception if any shard threw.
 */
class ShardTeam
{
  public:
    explicit ShardTeam(unsigned shards);
    ~ShardTeam();

    ShardTeam(const ShardTeam &) = delete;
    ShardTeam &operator=(const ShardTeam &) = delete;

    void run(const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned shard);
    /** Spin briefly, then yield, until @p ready returns true. */
    static void spinUntil(const std::function<bool()> &ready);

    unsigned shards_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> done_{0};
    std::atomic<bool> stop_{false};
    const std::function<void(unsigned)> *fn_ = nullptr;
    std::vector<std::exception_ptr> errors_;
    std::vector<std::thread> workers_;
};

} // namespace ccnuma

#endif // CCNUMA_SIM_SHARDED_HH
