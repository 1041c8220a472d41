#include "net/network.hh"

#include <algorithm>

#include "obs/tracer.hh"
#include "sim/logging.hh"

namespace ccnuma
{

void
Network::init()
{
    if (map_->numNodes == 0)
        fatal("network %s: need at least one node", name_.c_str());
    src_.resize(map_->numNodes);
    for (SrcPod &sp : src_)
        sp.pairLastArrive.assign(map_->numNodes, 0);
    dst_.resize(map_->numNodes);
    mailboxes_.resize(map_->numShards);

    statGroup_.add(&statMessages);
    statGroup_.add(&statBytes);
    statGroup_.add(&statEgressWait);
    statGroup_.add(&statIngressWait);
    statGroup_.add(&statLatency);
}

Network::Network(const std::string &name, const ShardMap &map,
                 const NetworkParams &p)
    : name_(name), map_(&map), params_(p), statGroup_(name)
{
    init();
}

Network::Network(const std::string &name, EventQueue &eq,
                 unsigned num_nodes, const NetworkParams &p)
    : name_(name), ownMap_(ShardMap::single(eq, num_nodes)),
      map_(&ownMap_), params_(p), statGroup_(name)
{
    init();
}

Tick
Network::serializeTicks(unsigned bytes) const
{
    unsigned flits =
        (bytes + params_.portWidthBytes - 1) / params_.portWidthBytes;
    return static_cast<Tick>(std::max(1u, flits)) * params_.portCycle;
}

bool
Network::planEgress(NodeId src, NodeId dst, Tick ser, Tick &arrive_at,
                    Tick &duplicate_at)
{
    ccnuma_assert(src < src_.size());
    ccnuma_assert(dst < dst_.size());
    if (src == dst)
        panic("network %s: node %u sending to itself", name_.c_str(),
              src);

    EventQueue &sq = map_->of(src);
    Tick now = sq.curTick();

    SrcPod &sp = src_[src];
    Tick egress_start = std::max(now, sp.egressFreeAt);
    sp.egressWait.sample(static_cast<double>(egress_start - now));
    sp.egressFreeAt = egress_start + ser;

    // The arrival event fires once the whole message could have
    // crossed an idle ingress port; the destination side re-derives
    // the head-arrival tick and resolves its own port contention.
    arrive_at = egress_start + ser + params_.flightLatency + ser;

    // Per-pair FIFO: a short message must not overtake an earlier
    // long one between the same endpoints.
    Tick &last = sp.pairLastArrive[dst];
    arrive_at = std::max(arrive_at, last);
    last = arrive_at;

    duplicate_at = 0;
    if (tap_ != nullptr) {
        // Fault injection: the tap may delay, duplicate, or drop the
        // delivery. Port bookkeeping above stays untouched — the
        // injected perturbation is on top of the modeled timing.
        if (!tap_->onDelivery(src, dst, arrive_at, duplicate_at))
            return false;
        ccnuma_assert(arrive_at >= now);
    }
    return true;
}

void
Network::noteSpan(NodeId src, NodeId dst, unsigned bytes,
                  Tick send_tick, Tick delivered)
{
    if (tracer_)
        tracer_->netSpan(src, dst, bytes, send_tick, delivered);
}

void
Network::drainMailboxes()
{
    for (auto &box : mailboxes_) {
        for (MailboxEntry &e : box) {
            map_->of(e.dstNode).scheduleExternal(
                std::move(e.fn), e.when, Event::defaultPriority,
                e.name, e.schedTick, e.ctx, e.seq,
                map_->nodeCtx(e.dstNode));
        }
        box.clear();
    }
}

void
Network::syncStats()
{
    statMessages.reset();
    statBytes.reset();
    statEgressWait.reset();
    statIngressWait.reset();
    statLatency.reset();
    for (const SrcPod &sp : src_)
        statEgressWait.merge(sp.egressWait);
    for (const DstPod &dp : dst_) {
        statMessages.merge(dp.messages);
        statBytes.merge(dp.bytes);
        statIngressWait.merge(dp.ingressWait);
        statLatency.merge(dp.latency);
    }
}

void
Network::resetStats()
{
    statGroup_.resetAll();
    for (SrcPod &sp : src_)
        sp.egressWait.reset();
    for (DstPod &dp : dst_) {
        dp.messages.reset();
        dp.bytes.reset();
        dp.ingressWait.reset();
        dp.latency.reset();
    }
}

} // namespace ccnuma
