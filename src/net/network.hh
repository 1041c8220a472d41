/**
 * @file
 * Point-to-point interconnection network model.
 *
 * The paper models its 32-byte-wide switch as a fixed point-to-point
 * latency (14 compute cycles = 70 ns in the base system) plus
 * contention at the external points (the network interfaces). We
 * model exactly that: each node has one egress and one ingress port;
 * a message serializes over each port at the port width per network
 * cycle, and spends the flight latency in between. The source clamps
 * each pair's arrival tick to be non-decreasing, so per-pair FIFO
 * delivery order is guaranteed — a property the coherence protocol
 * relies on — even when a short message re-serializes faster than an
 * earlier long one.
 *
 * Timing is resolved in two stages so that the model shards cleanly:
 * the egress port and the fault-injection tap are source-side state,
 * consulted at send time on the source's event queue; the ingress
 * port is destination-side state, consulted by an arrival event that
 * fires on the destination's queue when the message head has crossed
 * the switch. Arrival events carry an explicit deterministic key
 * (sent tick, source egress context, per-source sequence), so their
 * firing order — and therefore every downstream stat — is identical
 * whether source and destination share one event queue or live on
 * different shards with a mailbox in between.
 */

#ifndef CCNUMA_NET_NETWORK_HH
#define CCNUMA_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sharded.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{

namespace obs
{
class Tracer;
} // namespace obs

/** Network timing parameters. */
struct NetworkParams
{
    /** Point-to-point latency (Table 1: 14 ticks = 70 ns). */
    Tick flightLatency = 14;
    /** Switch link width in bytes. */
    unsigned portWidthBytes = 32;
    /** Ticks per network port cycle (100 MHz => 2 ticks). */
    Tick portCycle = 2;
};

/**
 * Observation/injection hook on network deliveries (the fault
 * injector implements this; see src/verify/). The tap may adjust the
 * delivery tick, request a duplicate delivery, or drop the message.
 */
class NetworkTap
{
  public:
    virtual ~NetworkTap() = default;

    /**
     * Called for every message once its natural delivery tick is
     * known. @p delivered may be moved later, never earlier: the
     * sharded lookahead window assumes no message arrives sooner
     * than Network::minLatency() after its send. Setting
     * @p duplicate_at nonzero schedules a second delivery of the same
     * message at that tick.
     * @return false to drop the message entirely.
     */
    virtual bool onDelivery(NodeId src, NodeId dst, Tick &delivered,
                            Tick &duplicate_at) = 0;
};

/**
 * The interconnect. Protocol layers send sized messages with a
 * delivery callback; the network adds egress serialization, flight
 * latency, and ingress serialization.
 */
class Network
{
  public:
    Network(const std::string &name, const ShardMap &map,
            const NetworkParams &p);

    /** Single-queue convenience constructor (unit tests). */
    Network(const std::string &name, EventQueue &eq,
            unsigned num_nodes, const NetworkParams &p);

    const NetworkParams &params() const { return params_; }
    unsigned numNodes() const
    {
        return static_cast<unsigned>(src_.size());
    }

    /**
     * Earliest possible gap, in ticks, between a send and its
     * arrival event firing at the destination: one egress port cycle
     * plus the switch flight plus one ingress port cycle. This is the
     * network's contribution to the sharded lookahead window.
     */
    Tick
    minLatency() const
    {
        return 2 * params_.portCycle + params_.flightLatency;
    }

    /**
     * Send @p bytes from @p src to @p dst; @p on_delivered runs at
     * the tick the message has fully arrived at the destination's
     * network interface. The callback goes straight into the event
     * queue's one-shot pool: keep captures small (within
     * SmallCallback::inlineBytes) and this path never allocates.
     */
    template <typename F>
    void
    send(NodeId src, NodeId dst, unsigned bytes, F &&on_delivered)
    {
        Tick ser = serializeTicks(bytes);
        Tick arrive_at = 0;
        Tick duplicate_at = 0;
        if (!planEgress(src, dst, ser, arrive_at, duplicate_at))
            return; // dropped by the fault-injection tap
        Tick send_tick = map_->of(src).curTick();
        if (duplicate_at != 0) {
            // Injected duplicate: scheduled first, as the tap-era
            // core did, so event ordering stays bit-identical.
            F dup(on_delivered);
            dispatchArrival(src, dst, bytes, ser, send_tick,
                            duplicate_at, std::move(dup),
                            "net-dup-arrival");
        }
        dispatchArrival(src, dst, bytes, ser, send_tick, arrive_at,
                        std::forward<F>(on_delivered), "net-arrival");
    }

    /**
     * Inject cross-shard arrival events accumulated during the last
     * window into their destination queues. Called at the window
     * barrier with all shard threads quiescent; injection order is
     * irrelevant because every arrival carries its explicit key.
     */
    void drainMailboxes();

    /** Install a delivery tap (fault injection); null to remove. */
    void setTap(NetworkTap *tap) { tap_ = tap; }
    NetworkTap *tap() const { return tap_; }

    /**
     * Adaptive-window support: have every cross-shard send clamp the
     * sending queue's window stop to arrive_at + @p margin, where
     * @p margin is the machine's conservative lookahead (the earliest
     * a consequence of the send could re-enter the sender's shard).
     * Off by default; a sharded Machine always sets it.
     */
    void
    setSendClampMargin(Tick margin)
    {
        clampSends_ = true;
        clampMargin_ = margin;
    }

    /** Record message flights with @p t (null: tracing off). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    stats::Group &statGroup() { return statGroup_; }

    /**
     * Fold the per-node stat pods into the published stats below.
     * Idempotent (reset + merge); called once threads are quiescent.
     */
    void syncStats();

    /** Zero the published stats and every per-node pod. */
    void resetStats();

    stats::Scalar statMessages{"messages", "messages delivered"};
    stats::Scalar statBytes{"bytes", "payload bytes delivered"};
    stats::Average statEgressWait{"egress_wait",
        "ticks waited for the source port"};
    stats::Average statIngressWait{"ingress_wait",
        "ticks waited for the destination port"};
    stats::Average statLatency{"latency",
        "total ticks from send to delivery"};

  private:
    /**
     * Source-side per-node state, touched only by the owning shard:
     * the egress port, the per-source arrival sequence counter, and
     * the egress-wait samples.
     */
    struct SrcPod
    {
        Tick egressFreeAt = 0;
        std::uint64_t egressSeq = 0;
        /**
         * Last natural arrival tick per destination. A later short
         * message re-serializes faster at the ingress and its arrival
         * event could otherwise fire before an earlier long one's;
         * clamping each pair's arrival tick to be non-decreasing
         * restores per-pair FIFO. The fault tap adjusts ticks after
         * the clamp, so injected reorders still happen.
         */
        std::vector<Tick> pairLastArrive;
        stats::Average egressWait{"", ""};
    };

    /**
     * Destination-side per-node state, touched only by the owning
     * shard's arrival events.
     */
    struct DstPod
    {
        Tick ingressFreeAt = 0;
        stats::Scalar messages{"", ""};
        stats::Scalar bytes{"", ""};
        stats::Average ingressWait{"", ""};
        stats::Average latency{"", ""};
    };

    /** A buffered cross-shard arrival (explicit key + closure). */
    struct MailboxEntry
    {
        std::function<void()> fn;
        Tick when = 0;
        Tick schedTick = 0;
        std::uint32_t ctx = 0;
        std::uint64_t seq = 0;
        unsigned dstNode = 0;
        const char *name = "net-arrival";
    };

    void init();

    Tick serializeTicks(unsigned bytes) const;

    /**
     * Resolve the egress port and the tap on the source side.
     * @return false if the tap dropped the message; otherwise
     * @p arrive_at (and @p duplicate_at, if duplicated) hold the
     * ticks the arrival event(s) fire at the destination.
     */
    bool planEgress(NodeId src, NodeId dst, Tick ser, Tick &arrive_at,
                    Tick &duplicate_at);

    /**
     * Schedule the destination-side arrival event: directly when the
     * destination shares the source's queue, via the source shard's
     * mailbox otherwise.
     */
    template <typename F>
    void
    dispatchArrival(NodeId src, NodeId dst, unsigned bytes, Tick ser,
                    Tick send_tick, Tick arrive_at, F &&cb,
                    const char *name)
    {
        std::uint64_t seq = src_[src].egressSeq++;
        std::uint32_t ctx = map_->netCtx(src);
        auto arrival = [this, src, dst, bytes, ser, send_tick,
                        cb = std::forward<F>(cb)]() mutable {
            arrive(src, dst, bytes, ser, send_tick, std::move(cb));
        };
        if (!map_->sharded() ||
            map_->shardOf(src) == map_->shardOf(dst)) {
            map_->of(dst).scheduleExternal(
                std::move(arrival), arrive_at,
                Event::defaultPriority, name, send_tick, ctx, seq,
                map_->nodeCtx(dst));
        } else {
            // Adaptive windows: a cross-shard send is the one way
            // this shard can conjure future traffic back toward
            // itself (the destination wakes at arrive_at and may
            // reply, arriving no sooner than arrive_at + the
            // machine's lookahead margin). Clamp the sender's own
            // window there so its clock never outruns a possible
            // reply; the planner's quiet-shard widening relies on it.
            if (clampSends_) {
                map_->of(src).clampWindowStop(arrive_at +
                                              clampMargin_);
            }
            mailboxes_[map_->shardOf(src)].push_back(MailboxEntry{
                std::move(arrival), arrive_at, send_tick, ctx, seq,
                dst, name});
        }
    }

    /**
     * The arrival event body, firing on the destination's queue:
     * resolve the ingress port, account stats/tracing, and run (or
     * schedule, under ingress contention) the delivery callback.
     */
    template <typename F>
    void
    arrive(NodeId src, NodeId dst, unsigned bytes, Tick ser,
           Tick send_tick, F &&cb)
    {
        EventQueue &dq = map_->of(dst);
        Tick at = dq.curTick();
        Tick head = at - ser;
        DstPod &dp = dst_[dst];
        Tick ingress_start = std::max(head, dp.ingressFreeAt);
        Tick delivered = ingress_start + ser;
        dp.ingressFreeAt = delivered;
        ++dp.messages;
        dp.bytes += static_cast<double>(bytes);
        dp.ingressWait.sample(
            static_cast<double>(ingress_start - head));
        dp.latency.sample(static_cast<double>(delivered - send_tick));
        noteSpan(src, dst, bytes, send_tick, delivered);
        if (delivered == at) {
            cb();
            return;
        }
        // Ingress contention: finish delivery later, keeping the
        // arrival's own key (the seq has retired, so it stays
        // unique) so ordering is mode-independent.
        EventKey k = dq.currentKey();
        dq.scheduleExternal(
            [cb = std::forward<F>(cb)]() mutable { cb(); }, delivered,
            Event::defaultPriority, "net-delivery", k.schedTick,
            k.ctx, k.seq, map_->nodeCtx(dst));
    }

    /** Tracer hook for a completed flight (out-of-line). */
    void noteSpan(NodeId src, NodeId dst, unsigned bytes,
                  Tick send_tick, Tick delivered);

    std::string name_;
    /** Owned routing table for the single-queue constructor. */
    ShardMap ownMap_;
    const ShardMap *map_;
    NetworkParams params_;
    std::vector<SrcPod> src_;
    std::vector<DstPod> dst_;
    /** Per-source-shard buffers of cross-shard arrivals. */
    std::vector<std::vector<MailboxEntry>> mailboxes_;
    NetworkTap *tap_ = nullptr;
    /** Clamp senders' window stops on cross-shard sends (adaptive). */
    bool clampSends_ = false;
    Tick clampMargin_ = 0;
    obs::Tracer *tracer_ = nullptr;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_NET_NETWORK_HH
