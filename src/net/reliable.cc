#include "net/reliable.hh"

#include "obs/tracer.hh"
#include "protocol/retry.hh"
#include "sim/logging.hh"

namespace ccnuma
{

ReliableTransport::ReliableTransport(const std::string &name,
                                     const ShardMap &map,
                                     Network &net,
                                     const ReliableParams &p,
                                     DeliverFn deliver)
    : name_(name), map_(&map), numNodes_(map.numNodes), net_(net),
      params_(p), deliver_(std::move(deliver)), statGroup_(name)
{
    init();
}

ReliableTransport::ReliableTransport(const std::string &name,
                                     EventQueue &eq, Network &net,
                                     const ReliableParams &p,
                                     DeliverFn deliver)
    : name_(name), ownMap_(ShardMap::single(eq, net.numNodes())),
      map_(&ownMap_), numNodes_(net.numNodes()), net_(net),
      params_(p), deliver_(std::move(deliver)), statGroup_(name)
{
    init();
}

void
ReliableTransport::init()
{
    if (params_.retransmitTimeout == 0)
        fatal("%s: retransmitTimeout must be nonzero", name_.c_str());
    ccnuma_assert(deliver_ != nullptr);

    tx_.resize(static_cast<std::size_t>(numNodes_) * numNodes_);
    rx_.resize(static_cast<std::size_t>(numNodes_) * numNodes_);
    fenced_.assign(numNodes_, 0);
    dead_.assign(numNodes_, 0);

    statGroup_.add(&statDataFrames);
    statGroup_.add(&statAcks);
    statGroup_.add(&statRetransmits);
    statGroup_.add(&statTimeouts);
    statGroup_.add(&statDupsDropped);
    statGroup_.add(&statReordersHealed);
    statGroup_.add(&statBackoffTicks);
    statGroup_.add(&statCrcChecked);
    statGroup_.add(&statCrcDetected);
}

Tick
ReliableTransport::rtoFor(unsigned backoff_level) const
{
    return backoffDelay(params_.retransmitTimeout,
                        params_.retransmitTimeoutMax, backoff_level);
}

void
ReliableTransport::fenceNode(NodeId node, bool fenced)
{
    ccnuma_assert(node < numNodes_);
    fenced_[node] = fenced ? 1 : 0;
}

void
ReliableTransport::fenceNodeDead(NodeId node)
{
    ccnuma_assert(node < numNodes_);
    dead_[node] = 1;
    fenced_[node] = 0;
    // Drain every pair touching the dead node now; frames already in
    // flight are discarded on arrival, and armed timers find their
    // buffers empty.
    for (NodeId peer = 0; peer < numNodes_; ++peer) {
        for (std::size_t i :
             {pairIdx(node, peer), pairIdx(peer, node)}) {
            PairTx &p = tx_[i];
            fenceDrops_ += p.unacked.size();
            p.unacked.clear();
            if (p.timerArmed) {
                p.timerArmed = false;
                ++p.timerGen;
            }
            rx_[i].held.clear();
        }
    }
}

void
ReliableTransport::send(const Msg &msg, unsigned bytes)
{
    if (dead_[msg.src] || dead_[msg.dst]) {
        // A pre-crash scheduled send firing after degraded-mode
        // migration; the line has a new home by now.
        ++fenceDrops_;
        return;
    }
    PairTx &p = tx_[pairIdx(msg.src, msg.dst)];
    std::uint64_t seq = ++p.nextSeq;
    ccnuma_trace(msg.lineAddr,
                 "%8llu xport send %s n%u->n%u seq=%llu",
                 (unsigned long long)map_->of(msg.src).curTick(),
                 msgTypeName(msg.type), msg.src, msg.dst,
                 (unsigned long long)seq);
    TxFrame f;
    f.msg = msg;
    f.bytes = bytes;
    f.firstSend = map_->of(msg.src).curTick();
    p.unacked.emplace(seq, f);
    ++p.dataFrames;
    transmit(msg.src, msg.dst, seq, f);
    if (!p.timerArmed)
        armTimer(msg.src, msg.dst);
}

void
ReliableTransport::transmit(NodeId src, NodeId dst,
                            std::uint64_t seq, const TxFrame &f)
{
    // The network tap (fault injector) sits inside Network::send:
    // this frame may be dropped, duplicated, or held back there.
    if (params_.crc) {
        // Carry the packed wire image. A retransmission packs the
        // pristine TxFrame afresh, so a corrupted original is healed
        // by the normal go-back-N path once the receiver refuses it.
        wire::FrameImage img = wire::packFrame(f.msg, seq);
        if (corruptHook_)
            corruptHook_(src, img);
        net_.send(src, dst, f.bytes, [this, src, dst, img] {
            onFrameArrive(src, dst, img);
        });
        return;
    }
    Msg msg = f.msg;
    net_.send(src, dst, f.bytes, [this, src, dst, seq, msg] {
        onDataArrive(src, dst, seq, msg);
    });
}

void
ReliableTransport::onFrameArrive(NodeId src, NodeId dst,
                                 const wire::FrameImage &frame)
{
    // The CRC check comes before *everything* — in particular before
    // the crash-fence check in onDataArrive — so a corrupted frame
    // aimed at a fenced node is still counted as detected, not
    // silently folded into the fence drops.
    PairRx &r = rx_[pairIdx(src, dst)];
    ++r.crcChecked;
    if (!wire::frameCrcOk(frame)) {
        ++r.crcDetected;
        ccnuma_trace(0, "%8llu xport crc-drop n%u->n%u",
                     (unsigned long long)map_->of(dst).curTick(),
                     src, dst);
        if (obs::Tracer *t = tracer_) {
            t->faultEvent(obs::FaultKind::CrcDrop, dst, 0,
                          map_->of(dst).curTick());
        }
        return; // no ack: the sender's timer re-delivers it
    }
    std::uint64_t seq = 0;
    Msg msg = wire::unpackFrame(frame, seq);
    onDataArrive(src, dst, seq, msg);
}

void
ReliableTransport::onDataArrive(NodeId src, NodeId dst,
                                std::uint64_t seq, const Msg &msg)
{
    if (fenced_[dst] || dead_[dst] || dead_[src]) {
        // The destination's receive logic is dark (crashed) or gone
        // (degraded). No processing, no ack: for a temporary fence
        // the sender's retransmission timer re-delivers everything
        // after restart.
        ccnuma_trace(msg.lineAddr,
                     "%8llu xport fence-drop %s n%u->n%u seq=%llu",
                     (unsigned long long)map_->of(dst).curTick(),
                     msgTypeName(msg.type), src, dst,
                     (unsigned long long)seq);
        ++fenceDrops_;
        return;
    }
    PairRx &r = rx_[pairIdx(src, dst)];
    if (seq < r.nextExpected || r.held.count(seq)) {
        // Retransmitted or injector-duplicated copy of a frame we
        // already have; discard it but re-ack so the sender's buffer
        // drains even when the original ack was lost.
        ccnuma_trace(msg.lineAddr,
                     "%8llu xport dup-drop %s n%u->n%u seq=%llu "
                     "(expect %llu)",
                     (unsigned long long)map_->of(dst).curTick(),
                     msgTypeName(msg.type), src, dst,
                     (unsigned long long)seq,
                     (unsigned long long)r.nextExpected);
        ++r.dupsDropped;
        scheduleAck(src, dst);
        return;
    }
    if (seq == r.nextExpected) {
        ccnuma_trace(msg.lineAddr,
                     "%8llu xport deliver %s n%u->n%u seq=%llu",
                     (unsigned long long)map_->of(dst).curTick(),
                     msgTypeName(msg.type), src, dst,
                     (unsigned long long)seq);
        deliver_(msg);
        ++r.nextExpected;
        // A previously buffered run may now be contiguous.
        while (!r.held.empty() &&
               r.held.begin()->first == r.nextExpected) {
            Msg next = r.held.begin()->second;
            r.held.erase(r.held.begin());
            deliver_(next);
            ++r.nextExpected;
        }
    } else {
        // Early arrival: a predecessor was dropped or overtaken.
        if (r.held.size() >= params_.reorderBufCap) {
            panic("%s: pair node%u->node%u reorder buffer exceeded "
                  "%u frames (expecting seq %llu, got %llu)",
                  name_.c_str(), src, dst, params_.reorderBufCap,
                  (unsigned long long)r.nextExpected,
                  (unsigned long long)seq);
        }
        r.held.emplace(seq, msg);
        ++r.reordersHealed;
    }
    scheduleAck(src, dst);
}

void
ReliableTransport::scheduleAck(NodeId src, NodeId dst)
{
    // Delayed cumulative ack: coalesce a burst of deliveries into
    // one ack frame. The cumulative value is read at fire time so
    // the ack covers everything delivered inside the window. Both
    // this call and the fire run on the receiver's (dst's) queue.
    PairRx &r = rx_[pairIdx(src, dst)];
    if (r.ackPending)
        return;
    r.ackPending = true;
    map_->of(dst).scheduleFunctionIn(
        [this, src, dst] {
            PairRx &rr = rx_[pairIdx(src, dst)];
            rr.ackPending = false;
            std::uint64_t cum = rr.nextExpected - 1;
            ++rr.acks;
            net_.send(dst, src, msgHeaderBytes,
                      [this, src, dst, cum] {
                          onAckArrive(src, dst, cum);
                      });
        },
        params_.ackDelay);
}

void
ReliableTransport::onAckArrive(NodeId src, NodeId dst,
                               std::uint64_t cum)
{
    // Acks are cumulative: duplicated or reordered ack frames are
    // harmless, and a stale one simply acknowledges nothing new.
    // Rides a dst->src network delivery, so runs on src's queue.
    PairTx &p = tx_[pairIdx(src, dst)];
    bool progress = false;
    while (!p.unacked.empty() && p.unacked.begin()->first <= cum) {
        p.unacked.erase(p.unacked.begin());
        progress = true;
    }
    if (progress)
        p.backoffLevel = 0;
    if (p.unacked.empty() && p.timerArmed) {
        // Nothing left to guard; invalidate the pending timer.
        p.timerArmed = false;
        ++p.timerGen;
    }
}

void
ReliableTransport::armTimer(NodeId src, NodeId dst)
{
    PairTx &p = tx_[pairIdx(src, dst)];
    p.timerArmed = true;
    std::uint64_t gen = ++p.timerGen;
    map_->of(src).scheduleFunctionIn(
        [this, src, dst, gen] { onTimeout(src, dst, gen); },
        rtoFor(p.backoffLevel));
}

void
ReliableTransport::onTimeout(NodeId src, NodeId dst,
                             std::uint64_t gen)
{
    PairTx &p = tx_[pairIdx(src, dst)];
    if (gen != p.timerGen)
        return; // superseded by a later arm or a full drain
    if (p.unacked.empty()) {
        p.timerArmed = false;
        return;
    }
    Tick now = map_->of(src).curTick();
    ++p.timeouts;
    p.backoffTicks += rtoFor(p.backoffLevel);
    if (obs::Tracer *t = tracer_)
        t->xportEvent(obs::SpanKind::XportTimeout, src, dst, now);
    // Go-back-N: retransmit every unacknowledged frame in sequence
    // order. The receiver discards the ones it already holds, so one
    // timeout heals any number of losses in the window.
    for (auto &[seq, f] : p.unacked) {
        ++f.attempts;
        if (params_.maxRetransmits != 0 &&
            f.attempts > params_.maxRetransmits &&
            pairDeadHook_ && pairDeadHook_(src, dst)) {
            // The destination is crash-fenced and a restart or
            // migration is coming: keep retransmitting instead of
            // declaring the pair dead.
            f.attempts = 0;
            ++pairDeadDeferrals_;
        }
        if (params_.maxRetransmits != 0 &&
            f.attempts > params_.maxRetransmits) {
            // Graceful degradation: the pair is unrecoverable (every
            // retransmission or its ack was lost). End the run with
            // a clean diagnostic instead of backing off forever.
            fatal("%s: pair node%u->node%u presumed dead: %s seq "
                  "%llu for line %#llx abandoned after %u "
                  "retransmissions (first sent at tick %llu, now "
                  "%llu; %zu frame(s) outstanding)",
                  name_.c_str(), src, dst, msgTypeName(f.msg.type),
                  (unsigned long long)seq,
                  (unsigned long long)f.msg.lineAddr, f.attempts - 1,
                  (unsigned long long)f.firstSend,
                  (unsigned long long)now, p.unacked.size());
        }
        ++p.retransmits;
        if (obs::Tracer *t = tracer_) {
            t->xportEvent(obs::SpanKind::XportRetransmit, src, dst,
                          now);
        }
        transmit(src, dst, seq, f);
    }
    if (p.backoffLevel < 32)
        ++p.backoffLevel;
    armTimer(src, dst);
}

bool
ReliableTransport::idle() const
{
    for (const PairTx &p : tx_) {
        if (!p.unacked.empty())
            return false;
    }
    return true;
}

void
ReliableTransport::dumpState(std::ostream &os) const
{
    os << name_ << ":";
    bool any = false;
    for (std::size_t i = 0; i < tx_.size(); ++i) {
        const PairTx &p = tx_[i];
        if (p.unacked.empty())
            continue;
        any = true;
        os << " tx(node" << (i / numNodes_) << "->node"
           << (i % numNodes_) << ",unacked=" << p.unacked.size()
           << ",oldest=" << p.unacked.begin()->first << ",attempts="
           << p.unacked.begin()->second.attempts << ",backoff="
           << p.backoffLevel << ")";
    }
    for (std::size_t i = 0; i < rx_.size(); ++i) {
        const PairRx &r = rx_[i];
        if (r.held.empty())
            continue;
        any = true;
        os << " rx(node" << (i / numNodes_) << "->node"
           << (i % numNodes_) << ",held=" << r.held.size()
           << ",expecting=" << r.nextExpected << ")";
    }
    if (!any)
        os << " (all pairs drained)";
    os << "\n";
}

void
ReliableTransport::syncStats()
{
    statDataFrames.set(static_cast<double>(dataFrames()));
    statAcks.set(static_cast<double>(acksSent()));
    statRetransmits.set(static_cast<double>(retransmits()));
    statTimeouts.set(static_cast<double>(timeouts()));
    statDupsDropped.set(static_cast<double>(dupsDropped()));
    statReordersHealed.set(static_cast<double>(reordersHealed()));
    statBackoffTicks.set(static_cast<double>(backoffTicks()));
    statCrcChecked.set(static_cast<double>(crcChecked()));
    statCrcDetected.set(static_cast<double>(crcDetected()));
}

void
ReliableTransport::resetStats()
{
    statGroup_.resetAll();
    for (PairTx &p : tx_) {
        p.dataFrames = 0;
        p.retransmits = 0;
        p.timeouts = 0;
        p.backoffTicks = 0;
    }
    for (PairRx &r : rx_) {
        r.acks = 0;
        r.dupsDropped = 0;
        r.reordersHealed = 0;
        r.crcChecked = 0;
        r.crcDetected = 0;
    }
}

std::uint64_t
ReliableTransport::dataFrames() const
{
    std::uint64_t total = 0;
    for (const PairTx &p : tx_)
        total += p.dataFrames;
    return total;
}

std::uint64_t
ReliableTransport::acksSent() const
{
    std::uint64_t total = 0;
    for (const PairRx &r : rx_)
        total += r.acks;
    return total;
}

std::uint64_t
ReliableTransport::retransmits() const
{
    std::uint64_t total = 0;
    for (const PairTx &p : tx_)
        total += p.retransmits;
    return total;
}

std::uint64_t
ReliableTransport::timeouts() const
{
    std::uint64_t total = 0;
    for (const PairTx &p : tx_)
        total += p.timeouts;
    return total;
}

std::uint64_t
ReliableTransport::dupsDropped() const
{
    std::uint64_t total = 0;
    for (const PairRx &r : rx_)
        total += r.dupsDropped;
    return total;
}

std::uint64_t
ReliableTransport::reordersHealed() const
{
    std::uint64_t total = 0;
    for (const PairRx &r : rx_)
        total += r.reordersHealed;
    return total;
}

std::uint64_t
ReliableTransport::crcChecked() const
{
    std::uint64_t total = 0;
    for (const PairRx &r : rx_)
        total += r.crcChecked;
    return total;
}

std::uint64_t
ReliableTransport::crcDetected() const
{
    std::uint64_t total = 0;
    for (const PairRx &r : rx_)
        total += r.crcDetected;
    return total;
}

Tick
ReliableTransport::backoffTicks() const
{
    std::uint64_t total = 0;
    for (const PairTx &p : tx_)
        total += p.backoffTicks;
    return static_cast<Tick>(total);
}

} // namespace ccnuma
