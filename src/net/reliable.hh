/**
 * @file
 * Reliable transport sublayer over the point-to-point network.
 *
 * The coherence protocol relies on the network delivering every
 * message exactly once, in per-pair FIFO order (see network.hh).
 * The fault injector can violate all three properties (drops,
 * duplicates, reorders). This sublayer restores them end to end, the
 * way a real coherence controller's network interface would:
 *
 *  - the sender stamps each protocol message with a per-(src,dst)
 *    transport sequence number and keeps it buffered until the
 *    receiver acknowledges it;
 *  - the receiver delivers frames strictly in sequence order,
 *    holding early arrivals in a reorder buffer and discarding
 *    duplicates, then acknowledges with a delayed cumulative ack;
 *  - an unacknowledged frame is retransmitted on a per-pair timer
 *    with capped exponential backoff; after maxRetransmits attempts
 *    the pair is declared dead and the run ends with a clean
 *    FatalError diagnostic instead of livelocking.
 *
 * Ack frames themselves ride the same lossy network; because acks
 * are cumulative, a lost or duplicated ack is harmless (the data
 * retransmission path covers it). The sublayer is off by default
 * and adds zero cost to the modeled timing when disabled; enabled,
 * data frames keep their natural delivery timing and only the
 * ack/retransmit traffic is added on top.
 *
 * Sharding: per-pair state divides cleanly by side. A pair's sender
 * state (send, ack arrival, retransmission timer) is touched only by
 * events on the source node's queue; its receiver state (data
 * arrival, delayed ack) only by events on the destination's. State
 * lives in flat per-pair arrays so no container ever rehashes under
 * concurrent access, and counters live in the per-pair pods, folded
 * into the published stats once threads are quiescent.
 */

#ifndef CCNUMA_NET_RELIABLE_HH
#define CCNUMA_NET_RELIABLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "net/network.hh"
#include "protocol/messages.hh"
#include "protocol/wire.hh"
#include "sim/event_queue.hh"
#include "sim/sharded.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Reliable-transport knobs (CCNUMA_RELIABLE force-enables). */
struct ReliableParams
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;
    /**
     * Base retransmission timeout (ticks). Must comfortably exceed
     * one data+ack round trip (~80 ticks on the base network) so a
     * healthy pair never retransmits.
     */
    Tick retransmitTimeout = 400;
    /** Ceiling of the exponential timeout backoff (ticks). */
    Tick retransmitTimeoutMax = 12'800;
    /**
     * Retransmissions of one frame before the pair is declared dead
     * and the run ends with a FatalError diagnostic.
     */
    unsigned maxRetransmits = 16;
    /** Cumulative-ack coalescing window (ticks). */
    Tick ackDelay = 8;
    /** Receive reorder-buffer cap per pair (sanity backstop). */
    unsigned reorderBufCap = 4096;
    /**
     * Carry each data frame as a packed wire image with a CRC-32
     * (PR 7 integrity). A receiver that sees a CRC mismatch treats
     * the frame as lost — no processing, no ack — and go-back-N
     * re-delivers a pristine copy from the sender's unacked buffer.
     * The modeled wire size is unchanged, so timing is identical.
     */
    bool crc = false;
};

/**
 * The reliable transport. One instance serves the whole machine: it
 * owns per-(src,dst) sender and receiver state for every pair and
 * hands cleaned (exactly-once, in-order) messages to the delivery
 * callback — the same Machine::deliverMsg the controllers would
 * otherwise be wired to directly.
 */
class ReliableTransport
{
  public:
    using DeliverFn = std::function<void(const Msg &)>;

    ReliableTransport(const std::string &name, const ShardMap &map,
                      Network &net, const ReliableParams &p,
                      DeliverFn deliver);

    /** Single-queue convenience constructor (unit tests). */
    ReliableTransport(const std::string &name, EventQueue &eq,
                      Network &net, const ReliableParams &p,
                      DeliverFn deliver);

    const ReliableParams &params() const { return params_; }

    /**
     * Send @p msg (wire size @p bytes) reliably from msg.src to
     * msg.dst. Called at the instant the message enters the network.
     */
    void send(const Msg &msg, unsigned bytes);

    /** True when no frame awaits acknowledgement on any pair. */
    bool idle() const;

    // --- crash-recovery hooks (PR 6) ---

    /**
     * Receive-fence @p node: while fenced, data frames arriving at it
     * are dropped without processing or acknowledgement, exactly as
     * if the crashed controller's receive logic were dark. Senders
     * keep retransmitting on their timers, so everything dropped is
     * re-delivered (in order, exactly once) after the fence lifts —
     * this is why crash faults require the reliable transport.
     */
    void fenceNode(NodeId node, bool fenced);

    /**
     * Permanently fence a dead node: frames to or from it are
     * discarded and its pairs' unacked buffers drain on their next
     * timer instead of retransmitting. Used by degraded mode once the
     * node's pages have been migrated to a successor.
     */
    void fenceNodeDead(NodeId node);

    /**
     * Called when a frame exhausts maxRetransmits. Return true to
     * defer the pair-dead escalation (the destination is known to be
     * crash-fenced and will be restarted or migrated): the frame's
     * attempt count resets and retransmission continues. Returning
     * false keeps the PR 2 behavior — FatalError.
     */
    using PairDeadHook = std::function<bool(NodeId src, NodeId dst)>;
    void setPairDeadHook(PairDeadHook fn)
    {
        pairDeadHook_ = std::move(fn);
    }

    /** Frames dropped at a fence (tests). */
    std::uint64_t fenceDrops() const { return fenceDrops_; }

    // --- integrity hooks (PR 7) ---

    /**
     * Corruption hook, wired to the fault injector when CRC frames
     * are on: called with every packed frame image at transmit time
     * (original sends and retransmissions alike) and may flip bits in
     * place. Returns the number of bits it flipped.
     */
    using CorruptFn =
        std::function<unsigned(NodeId src, wire::FrameImage &)>;
    void setCorruptHook(CorruptFn fn) { corruptHook_ = std::move(fn); }

    /** Frames whose CRC was verified at the receiver. */
    std::uint64_t crcChecked() const;
    /** Frames discarded for a CRC mismatch (treated as losses). */
    std::uint64_t crcDetected() const;

    /** Pair-dead escalations deferred by the hook (tests). */
    std::uint64_t pairDeadDeferrals() const
    {
        return pairDeadDeferrals_;
    }

    /** Record timeouts/retransmits with @p t (null: tracing off). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Dump per-pair transport state for deadlock diagnosis. */
    void dumpState(std::ostream &os) const;

    stats::Group &statGroup() { return statGroup_; }

    /**
     * Fold the per-pair counters into the published stats below.
     * Idempotent; called once shard threads are quiescent.
     */
    void syncStats();

    /**
     * Zero the published stats and the per-pair counters (warm-up
     * exclusion). Sequence numbers, unacked buffers, and timers are
     * live protocol state and are left untouched.
     */
    void resetStats();

    // --- counters (tests and the recovery scorecard) ---
    std::uint64_t dataFrames() const;
    std::uint64_t acksSent() const;
    std::uint64_t retransmits() const;
    std::uint64_t timeouts() const;
    std::uint64_t dupsDropped() const;
    std::uint64_t reordersHealed() const;
    Tick backoffTicks() const;

    stats::Scalar statDataFrames{"data_frames",
        "protocol messages sent through the transport"};
    stats::Scalar statAcks{"acks", "cumulative ack frames sent"};
    stats::Scalar statRetransmits{"retransmits",
        "data frames retransmitted"};
    stats::Scalar statTimeouts{"timeouts",
        "retransmission timer expirations"};
    stats::Scalar statDupsDropped{"dups_dropped",
        "duplicate frames discarded at the receiver"};
    stats::Scalar statReordersHealed{"reorders_healed",
        "early frames held until the sequence gap closed"};
    stats::Scalar statBackoffTicks{"backoff_ticks",
        "total ticks spent in retransmission backoff"};
    stats::Scalar statCrcChecked{"crc_checked",
        "frames whose CRC was verified at the receiver"};
    stats::Scalar statCrcDetected{"crc_detected",
        "frames discarded for a CRC mismatch"};

  private:
    /** A sent-but-unacknowledged data frame. */
    struct TxFrame
    {
        Msg msg;
        unsigned bytes = 0;
        unsigned attempts = 0; ///< retransmissions so far
        Tick firstSend = 0;
    };

    /**
     * Sender-side state of one (src,dst) pair; touched only by
     * events on the source node's queue.
     */
    struct PairTx
    {
        std::uint64_t nextSeq = 0; ///< last assigned
        std::map<std::uint64_t, TxFrame> unacked;
        bool timerArmed = false;
        std::uint64_t timerGen = 0; ///< invalidates stale timers
        unsigned backoffLevel = 0;
        std::uint64_t dataFrames = 0;
        std::uint64_t retransmits = 0;
        std::uint64_t timeouts = 0;
        Tick backoffTicks = 0;
    };

    /**
     * Receiver-side state of one (src,dst) pair; touched only by
     * events on the destination node's queue.
     */
    struct PairRx
    {
        std::uint64_t nextExpected = 1;
        std::map<std::uint64_t, Msg> held; ///< early arrivals
        bool ackPending = false;
        std::uint64_t acks = 0;
        std::uint64_t dupsDropped = 0;
        std::uint64_t reordersHealed = 0;
        std::uint64_t crcChecked = 0;
        std::uint64_t crcDetected = 0;
    };

    std::size_t
    pairIdx(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * numNodes_ + dst;
    }

    void init();
    void transmit(NodeId src, NodeId dst, std::uint64_t seq,
                  const TxFrame &f);
    void onFrameArrive(NodeId src, NodeId dst,
                       const wire::FrameImage &frame);
    void onDataArrive(NodeId src, NodeId dst, std::uint64_t seq,
                      const Msg &msg);
    void scheduleAck(NodeId src, NodeId dst);
    void onAckArrive(NodeId src, NodeId dst, std::uint64_t cum);
    void armTimer(NodeId src, NodeId dst);
    void onTimeout(NodeId src, NodeId dst, std::uint64_t gen);
    Tick rtoFor(unsigned backoff_level) const;

    std::string name_;
    ShardMap ownMap_;
    const ShardMap *map_;
    unsigned numNodes_;
    Network &net_;
    ReliableParams params_;
    DeliverFn deliver_;
    std::vector<PairTx> tx_;
    std::vector<PairRx> rx_;
    obs::Tracer *tracer_ = nullptr;
    std::vector<char> fenced_;   ///< receive-fenced (crashed) nodes
    std::vector<char> dead_;     ///< permanently fenced nodes
    PairDeadHook pairDeadHook_;
    CorruptFn corruptHook_;
    std::uint64_t fenceDrops_ = 0;
    std::uint64_t pairDeadDeferrals_ = 0;
    stats::Group statGroup_;
};

} // namespace ccnuma

#endif // CCNUMA_NET_RELIABLE_HH
