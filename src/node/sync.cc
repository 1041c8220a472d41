#include "node/sync.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ccnuma
{

SyncManager::SyncManager(const std::string &name, const ShardMap &map,
                         Addr sync_base, unsigned line_bytes)
    : map_(&map), syncBase_(sync_base), lineBytes_(line_bytes),
      lockRegionOffset_(static_cast<Addr>(line_bytes) * 64 * 1024),
      statGroup_(name)
{
    pending_.resize(map_->numShards);
    statGroup_.add(&statBarriers);
    statGroup_.add(&statLockHandoffs);
}

SyncManager::SyncManager(const std::string &name, EventQueue &eq,
                         Addr sync_base, unsigned line_bytes,
                         unsigned num_nodes)
    : ownMap_(ShardMap::single(eq, num_nodes)), map_(&ownMap_),
      syncBase_(sync_base), lineBytes_(line_bytes),
      lockRegionOffset_(static_cast<Addr>(line_bytes) * 64 * 1024),
      statGroup_(name)
{
    pending_.resize(1);
    statGroup_.add(&statBarriers);
    statGroup_.add(&statLockHandoffs);
}

void
SyncManager::arrive(std::uint32_t id, NodeId node,
                    std::function<void(bool)> wake)
{
    Op op;
    op.kind = Op::Kind::BarrierArrive;
    op.id = id;
    op.node = node;
    op.tick = map_->of(node).curTick();
    op.wake = std::move(wake);
    post(std::move(op));
}

void
SyncManager::lockAcquire(std::uint32_t id, NodeId node,
                         std::function<void()> granted)
{
    Op op;
    op.kind = Op::Kind::LockAcquire;
    op.id = id;
    op.node = node;
    op.tick = map_->of(node).curTick();
    op.granted = std::move(granted);
    post(std::move(op));
}

void
SyncManager::lockRelease(std::uint32_t id, NodeId node)
{
    Op op;
    op.kind = Op::Kind::LockRelease;
    op.id = id;
    op.node = node;
    op.tick = map_->of(node).curTick();
    post(std::move(op));
}

void
SyncManager::post(Op op)
{
    if (!map_->sharded()) {
        processOp(op);
        return;
    }
    // Record with the calling event's key; the barrier-time merge
    // sorts by it, reproducing the order the serial path would have
    // processed these operations inline.
    EventQueue &q = map_->of(op.node);
    EventKey key = q.currentKey();
    key.sub = q.nextSub();
    pending_[map_->shardOf(op.node)].push_back(
        Record{key, std::move(op)});
    // A window must not run past the point where this operation's own
    // grant could land back on this queue (e.g. an uncontended lock
    // acquire granted to the acquirer): stop the window there so the
    // grant is scheduled before the shard resumes. Cross-shard grants
    // are covered by the planner's pending-sync bound instead.
    q.clampWindowStop(q.curTick() + handoffTicks_);
}

void
SyncManager::processPending(Tick safe)
{
    for (auto &log : pending_) {
        for (Record &r : log)
            deferred_.push_back(std::move(r));
        log.clear();
    }
    std::sort(deferred_.begin(), deferred_.end(),
              [](const Record &a, const Record &b) {
                  return a.key < b.key;
              });
    // Process in key order while below the safe horizon. Each
    // processed operation may grant a wake at op.tick + handoffTicks,
    // and the woken processor's very next sync operation could sort
    // before anything still buffered at a later tick — so the horizon
    // shrinks as we go. Records at or past the horizon wait, sorted,
    // in deferred_ for a later barrier.
    Tick horizon = safe;
    std::size_t i = 0;
    for (; i < deferred_.size() && deferred_[i].key.when < horizon;
         ++i) {
        Op &op = deferred_[i].op;
        processOp(op);
        if (op.tick + handoffTicks_ < horizon)
            horizon = op.tick + handoffTicks_;
    }
    deferred_.erase(deferred_.begin(),
                    deferred_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool
SyncManager::pendingEmpty() const
{
    for (const auto &log : pending_) {
        if (!log.empty())
            return false;
    }
    return deferred_.empty();
}

Tick
SyncManager::pendingMinWhen() const
{
    // deferred_ is kept sorted by processPending.
    return deferred_.empty() ? maxTick : deferred_.front().key.when;
}

void
SyncManager::grant(NodeId node, Tick op_tick,
                   std::function<void()> fn)
{
    if (!map_->sharded() && !forceDefer_) {
        // Serial fast path: the wake runs as an ordinary zero-delay
        // event on the single queue (the seed's behavior). Sharded
        // runs always defer — the explicit sync key is what makes
        // grant order mode-independent.
        map_->of(node).scheduleFunctionIn(std::move(fn), 0);
        return;
    }
    Tick when = op_tick + handoffTicks_;
    map_->of(node).scheduleExternal(
        std::move(fn), when, Event::defaultPriority, "sync-grant",
        op_tick, map_->syncCtx(), syncSeq_++, map_->nodeCtx(node));
}

void
SyncManager::processOp(Op &op)
{
    switch (op.kind) {
      case Op::Kind::BarrierArrive: {
        BarrierState &b = barriers_[op.id];
        b.arrivals.push_back(
            BarrierArrival{op.node, std::move(op.wake)});
        ccnuma_assert(b.arrivals.size() <= participants_);
        if (b.arrivals.size() < participants_)
            return;
        ++statBarriers;
        std::vector<BarrierArrival> arrivals = std::move(b.arrivals);
        barriers_.erase(op.id);
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            bool released = (i + 1 == arrivals.size());
            grant(arrivals[i].node, op.tick,
                  [w = std::move(arrivals[i].wake), released] {
                      w(released);
                  });
        }
        return;
      }
      case Op::Kind::LockAcquire: {
        LockState &l = locks_[op.id];
        if (!l.held) {
            l.held = true;
            grant(op.node, op.tick, std::move(op.granted));
            return;
        }
        ++statLockHandoffs;
        l.waiting.push_back(
            LockWaiter{op.node, std::move(op.granted)});
        return;
      }
      case Op::Kind::LockRelease: {
        auto it = locks_.find(op.id);
        ccnuma_assert(it != locks_.end() && it->second.held);
        LockState &l = it->second;
        if (!l.waiting.empty()) {
            LockWaiter next = std::move(l.waiting.front());
            l.waiting.pop_front();
            // The lock stays held; ownership passes to the waiter.
            grant(next.node, op.tick, std::move(next.granted));
            return;
        }
        l.held = false;
        return;
      }
    }
}

} // namespace ccnuma
