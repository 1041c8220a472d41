/**
 * @file
 * The per-request tracing and occupancy-timeline tracker (the
 * observability subsystem's core).
 *
 * One Tracer is owned by the Machine when tracing is enabled; every
 * instrumented component holds a null-checked pointer, so the cost
 * with tracing off is one branch per hook. Two kinds of state are
 * kept:
 *
 *  - aggregates (per-request-class latency histograms, per-engine
 *    occupancy/stall/queue statistics, handler and sub-op occupancy
 *    attribution) — fed by EVERY request, so exported means are exact
 *    regardless of sampling;
 *
 *  - the event record (a bounded ring of TraceEvents feeding the
 *    Chrome trace sink) — Miss/BusTxn/NetMsg events are subject to
 *    deterministic 1-in-N sampling, engine/queue events are always
 *    recorded (they ARE the occupancy timeline), and overflow drops
 *    are counted, never silent.
 *
 * Request classification is observational: the tracer watches message
 * deliveries at the machine's router and flags each open miss with
 * what the protocol actually did (home involvement, third-party
 * owner), then bins the miss into the paper's Table 1/3 breakdown
 * categories when the processor restarts.
 */

#ifndef CCNUMA_OBS_TRACER_HH
#define CCNUMA_OBS_TRACER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs_config.hh"
#include "obs/ring.hh"
#include "obs/trace_event.hh"
#include "protocol/handlers.hh"
#include "protocol/messages.hh"
#include "protocol/occupancy.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ccnuma
{
namespace obs
{

class TraceSink;

/** Machine shape the tracer needs (set once by the Machine). */
struct TracerContext
{
    unsigned numNodes = 1;
    unsigned procsPerNode = 1;
    unsigned enginesPerCc = 1;
    unsigned lineBytes = 128; ///< miss addrs normalize to lines
    EngineType engineType = EngineType::HWC;
    /** Home-node lookup for classification (the address map). */
    std::function<NodeId(Addr)> homeOf;
};

/** Per-engine occupancy-timeline aggregates. */
struct EngineAgg
{
    Tick busyTicks = 0;
    Tick stallTicks = 0;
    std::uint64_t handlers = 0;     ///< incl. dispatch-only releases
    std::uint64_t stalls = 0;
    stats::Distribution queueWait{"queue_wait",
        "dispatch-queue wait (ticks)", 10.0, 64};
    stats::Distribution queueDepth{"queue_depth",
        "dispatch-queue depth at enqueue", 1.0, 32};

    void
    reset()
    {
        busyTicks = 0;
        stallTicks = 0;
        handlers = 0;
        stalls = 0;
        queueWait.reset();
        queueDepth.reset();
    }
};

/** The tracker. All hooks are cheap; none allocates after setup. */
class Tracer
{
  public:
    Tracer(const ObsConfig &cfg, const TracerContext &ctx);
    ~Tracer();

    const ObsConfig &config() const { return cfg_; }
    const TracerContext &context() const { return ctx_; }

    // ---- processor miss lifecycle ----

    /** A processor stalled on a miss. One outstanding miss per CPU. */
    void missBegin(ProcId p, Addr addr, bool write, Tick now);

    /** The miss's restart arrived; classify and account it. */
    void missEnd(ProcId p, Tick restart);

    /** Observe a delivered protocol message (classification). */
    void noteDeliver(const Msg &msg);

    // ---- coherence-controller hooks ----

    /**
     * A protocol engine released after executing @p handler
     * (0xff = dispatch-only release with no handler body).
     */
    void engineSpan(NodeId node, unsigned engine, std::uint8_t handler,
                    int extra_targets, Tick start, Tick end);

    /** An injected engine stall interval. */
    void engineStall(NodeId node, unsigned engine, Tick start,
                     Tick dur);

    /** A dispatch item waited in queue @p q from enqueue to grant. */
    void queueWait(NodeId node, unsigned engine, unsigned q,
                   Tick enqueued, Tick granted);

    /** Queue depth observed at an enqueue (all queues, one engine). */
    void queueDepth(NodeId node, unsigned engine, std::size_t depth);

    // ---- bus / network / transport hooks ----

    /** A completed SMP bus transaction. @p cmd_name is static. */
    void busSpan(NodeId node, const char *cmd_name, std::uint8_t cmd,
                 Addr line_addr, Tick start, Tick end);

    /** A network message in flight from @p src to @p dst. */
    void netSpan(NodeId src, NodeId dst, unsigned bytes, Tick sent,
                 Tick delivered);

    /** A reliable-transport retransmission or timeout (instant). */
    void xportEvent(SpanKind kind, NodeId src, NodeId dst, Tick now);

    // ---- fault / recovery / integrity lifecycle hooks ----

    /**
     * A fault-lifecycle instant on @p node (crash, rebuild wave,
     * scrub correction, poison, ...). Always recorded — these are
     * rare and each one matters to a post-mortem.
     */
    void faultEvent(FaultKind kind, NodeId node, Addr line, Tick now);

    // ---- lifecycle ----

    /**
     * Discard everything recorded so far (warm-up exclusion): the
     * event ring, all aggregates, and any open miss spans. Events
     * that started before the reset never appear in the export.
     */
    void reset(Tick now);

    /** Tick the current measurement interval started at. */
    Tick measureStart() const { return measureStart_; }

    /** Feed the buffered events and aggregates through @p sink. */
    void exportTo(TraceSink &sink, Tick now) const;

    /**
     * Write the configured outputs (Chrome trace and/or metrics
     * file); called by the Machine at the end of run().
     */
    void exportAll(Tick now) const;

    // ---- aggregate access (metrics sink, stats dump, tests) ----

    const EventRing &ring() const { return ring_; }

    template <typename F>
    void
    forEachEvent(F &&f) const
    {
        ring_.forEach(std::forward<F>(f));
    }

    const stats::Distribution &classLatency(ReqClass c) const
    {
        return *classHist_[static_cast<unsigned>(c)];
    }

    std::uint64_t misses() const { return missSeq_; }

    const EngineAgg &engineAgg(NodeId node, unsigned engine) const
    {
        return engines_[node * ctx_.enginesPerCc + engine];
    }

    std::uint64_t handlerCount(HandlerId h) const
    {
        return handlerCount_[static_cast<unsigned>(h)];
    }
    Tick handlerTicks(HandlerId h) const
    {
        return handlerTicks_[static_cast<unsigned>(h)];
    }
    std::uint64_t dispatchOnlyCount() const { return dispatchOnly_; }

    /** Engine ticks attributed to Table 2 sub-op class @p op. */
    Tick subOpTicks(SubOp op) const
    {
        return subOpTicks_[static_cast<unsigned>(op)];
    }
    /** Engine ticks beyond the static sub-op costs (bus/mem waits). */
    Tick busMemWaitTicks() const { return busMemWait_; }

    std::uint64_t busTxns() const { return busSeq_; }
    double busMeanTicks() const { return busLat_.mean(); }
    std::uint64_t netMsgs() const { return netSeq_; }
    double netMeanTicks() const { return netLat_.mean(); }
    std::uint64_t netBytes() const { return netBytes_; }
    std::uint64_t xportRetransmits() const { return xportRetx_; }
    std::uint64_t xportTimeouts() const { return xportTo_; }
    std::uint64_t faultEvents() const { return faultEvents_; }
    std::uint64_t faultEvents(FaultKind k) const
    {
        return faultKindCount_[static_cast<unsigned>(k)];
    }

    stats::Group &statGroup() { return statGroup_; }
    const stats::Group &statGroup() const { return statGroup_; }

  private:
    /** Record @p ev unless it began before the measured interval. */
    void record(const TraceEvent &ev);

    /** Deterministic 1-in-N decision over a per-kind sequence. */
    bool
    sampled(std::uint64_t seq) const
    {
        return (seq + cfg_.sampleSeed) % cfg_.sampleEvery == 0;
    }

    /** One outstanding miss per processor. */
    struct MissSlot
    {
        bool open = false;
        Addr line = 0;
        Tick start = 0;
        bool write = false;
        bool homeLocal = false;
        bool sawNetReq = false;     ///< home was involved
        bool sawThreeHop = false;   ///< data came from a third party
        bool sawOwnerAction = false;///< remote owner acted for home
        bool record = false;        ///< passed the sampling gate
    };

    ReqClass classify(const MissSlot &s) const;

    ObsConfig cfg_;
    TracerContext ctx_;
    EventRing ring_;
    Tick measureStart_ = 0;

    std::vector<MissSlot> slots_;  ///< indexed by global ProcId
    std::vector<EngineAgg> engines_;
    OccupancyModel model_;

    std::array<std::unique_ptr<stats::Distribution>,
               numReqClasses> classHist_;
    std::array<std::uint64_t, numHandlers> handlerCount_{};
    std::array<Tick, numHandlers> handlerTicks_{};
    std::array<Tick, numSubOps> subOpTicks_{};
    Tick busMemWait_ = 0;
    std::uint64_t dispatchOnly_ = 0;

    stats::Average busLat_{"bus_latency", "bus txn latency (ticks)"};
    stats::Average netLat_{"net_latency", "msg flight time (ticks)"};
    std::uint64_t netBytes_ = 0;
    std::uint64_t xportRetx_ = 0;
    std::uint64_t xportTo_ = 0;
    std::uint64_t faultEvents_ = 0;
    std::array<std::uint64_t, numFaultKinds> faultKindCount_{};

    // per-kind sampling sequences
    std::uint64_t missSeq_ = 0;
    std::uint64_t busSeq_ = 0;
    std::uint64_t netSeq_ = 0;
    std::uint64_t engineSeq_ = 0;

    stats::Group statGroup_{"obs"};
};

} // namespace obs
} // namespace ccnuma

#endif // CCNUMA_OBS_TRACER_HH
