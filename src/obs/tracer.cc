#include "obs/tracer.hh"

#include <algorithm>
#include <fstream>

#include "obs/sinks.hh"
#include "sim/logging.hh"

namespace ccnuma
{
namespace obs
{

Tracer::Tracer(const ObsConfig &cfg, const TracerContext &ctx)
    : cfg_(cfg), ctx_(ctx), ring_(cfg.ringCapacity),
      slots_(static_cast<std::size_t>(ctx.numNodes) *
             ctx.procsPerNode),
      engines_(static_cast<std::size_t>(ctx.numNodes) *
               ctx.enginesPerCc),
      model_(ctx.engineType)
{
    if (cfg_.sampleEvery == 0)
        cfg_.sampleEvery = 1;
    for (unsigned c = 0; c < numReqClasses; ++c) {
        classHist_[c] = std::make_unique<stats::Distribution>(
            std::string("lat_") +
                reqClassName(static_cast<ReqClass>(c)),
            "miss latency (ticks)", 50.0, 80);
        statGroup_.add(classHist_[c].get());
    }
    statGroup_.add(&busLat_);
    statGroup_.add(&netLat_);
}

Tracer::~Tracer() = default;

void
Tracer::record(const TraceEvent &ev)
{
    // Events that began before the measured interval belong to the
    // discarded warm-up; keep the export consistent with the
    // aggregates by dropping them outright.
    if (ev.start < measureStart_)
        return;
    ring_.push(ev);
}

void
Tracer::missBegin(ProcId p, Addr addr, bool write, Tick now)
{
    MissSlot &s = slots_.at(p);
    s = MissSlot{};
    s.open = true;
    s.line = addr & ~static_cast<Addr>(ctx_.lineBytes - 1);
    s.start = now;
    s.write = write;
    NodeId node = p / ctx_.procsPerNode;
    s.homeLocal = ctx_.homeOf && ctx_.homeOf(s.line) == node;
    s.record = sampled(missSeq_);
    ++missSeq_;
}

void
Tracer::missEnd(ProcId p, Tick restart)
{
    MissSlot &s = slots_.at(p);
    if (!s.open)
        return; // opened before a reset; dropped
    s.open = false;
    ReqClass c = classify(s);
    if (s.start >= measureStart_)
        classHist_[static_cast<unsigned>(c)]->sample(
            static_cast<double>(restart - s.start));
    if (!s.record)
        return;
    TraceEvent ev;
    ev.kind = SpanKind::Miss;
    ev.start = s.start;
    ev.dur = restart - s.start;
    ev.lineAddr = s.line;
    ev.id = static_cast<std::uint32_t>(p);
    ev.node = static_cast<std::uint16_t>(p / ctx_.procsPerNode);
    ev.lane = static_cast<std::uint16_t>(p % ctx_.procsPerNode);
    ev.a = static_cast<std::uint8_t>(c);
    record(ev);
}

void
Tracer::noteDeliver(const Msg &msg)
{
    NodeId home = ctx_.homeOf ? ctx_.homeOf(msg.lineAddr) : 0;
    for (MissSlot &s : slots_) {
        if (!s.open || s.line != msg.lineAddr)
            continue;
        // Which processor owns this slot is positional; recompute.
        NodeId node = static_cast<NodeId>(
            (&s - slots_.data()) / ctx_.procsPerNode);
        switch (msg.type) {
          case MsgType::ReadReq:
          case MsgType::ReadExclReq:
            // Our node asked the home: the home is involved, so the
            // miss was not satisfied node-internally.
            if (msg.src == node)
                s.sawNetReq = true;
            break;
          case MsgType::DataReply:
          case MsgType::DataExclReply:
            // Data delivered to us from somewhere other than the
            // home: a dirty third-party owner supplied it (3-hop).
            if (msg.dst == node && msg.src != home)
                s.sawThreeHop = true;
            break;
          case MsgType::OwnerDataToHome:
          case MsgType::OwnerDataExclToHome:
          case MsgType::SharingWB:
          case MsgType::OwnershipAck:
            // A remote owner responded to the home on behalf of a
            // local-line request: the local miss needed remote action.
            if (s.homeLocal && msg.requester == node)
                s.sawOwnerAction = true;
            break;
          case MsgType::InvalAck:
            // Remote copies of a local line were recalled for a
            // local write.
            if (s.homeLocal && s.write && msg.dst == node)
                s.sawOwnerAction = true;
            break;
          default:
            break;
        }
    }
}

ReqClass
Tracer::classify(const MissSlot &s) const
{
    if (s.homeLocal) {
        if (s.write)
            return s.sawOwnerAction ? ReqClass::LocalWriteRemote
                                    : ReqClass::LocalWrite;
        return s.sawOwnerAction ? ReqClass::LocalReadRemote
                                : ReqClass::LocalRead;
    }
    if (!s.sawNetReq)
        return s.write ? ReqClass::RemoteWriteNear
                       : ReqClass::RemoteReadNear;
    if (s.sawThreeHop)
        return s.write ? ReqClass::RemoteWriteDirty
                       : ReqClass::RemoteReadDirty;
    return s.write ? ReqClass::RemoteWriteClean
                   : ReqClass::RemoteReadClean;
}

void
Tracer::engineSpan(NodeId node, unsigned engine, std::uint8_t handler,
                   int extra_targets, Tick start, Tick end)
{
    EngineAgg &agg = engines_.at(node * ctx_.enginesPerCc + engine);
    Tick begin = std::max(start, measureStart_);
    if (end > begin) {
        agg.busyTicks += end - begin;
        ++agg.handlers;
    }

    Tick dur = end - start;
    if (handler != 0xff &&
        handler < static_cast<std::uint8_t>(HandlerId::NumHandlers)) {
        auto h = static_cast<HandlerId>(handler);
        if (start >= measureStart_) {
            ++handlerCount_[handler];
            handlerTicks_[handler] += dur;
            // Attribute the span to Table 2 sub-op classes: the
            // static pre/post/per-target costs come from the spec;
            // whatever remains is dynamic bus/memory/transfer wait.
            const HandlerSpec &spec = handlerSpec(h);
            Tick fixed = 0;
            auto walk = [&](const std::vector<SubOpCount> &ops,
                            int times) {
                for (const auto &[op, n] : ops) {
                    Tick t = static_cast<Tick>(n) * times *
                             model_.cost(op);
                    subOpTicks_[static_cast<unsigned>(op)] += t;
                    fixed += t;
                }
            };
            walk(spec.pre, 1);
            walk(spec.post, 1);
            if (extra_targets > 0)
                walk(spec.perTarget, extra_targets);
            busMemWait_ += dur > fixed ? dur - fixed : 0;
        }
    } else if (start >= measureStart_) {
        ++dispatchOnly_;
        Tick dispatch =
            std::min(dur, model_.cost(SubOp::DispatchHandler));
        subOpTicks_[static_cast<unsigned>(SubOp::DispatchHandler)] +=
            dispatch;
        busMemWait_ += dur - dispatch;
    }

    TraceEvent ev;
    ev.kind = SpanKind::EngineHandler;
    ev.start = start;
    ev.dur = dur;
    ev.id = static_cast<std::uint32_t>(engineSeq_++);
    ev.node = static_cast<std::uint16_t>(node);
    ev.lane = static_cast<std::uint16_t>(engine);
    ev.a = handler;
    ev.b = static_cast<std::uint16_t>(
        extra_targets > 0 ? extra_targets : 0);
    record(ev);
}

void
Tracer::engineStall(NodeId node, unsigned engine, Tick start,
                    Tick dur)
{
    EngineAgg &agg = engines_.at(node * ctx_.enginesPerCc + engine);
    if (start >= measureStart_) {
        agg.stallTicks += dur;
        ++agg.stalls;
    }
    TraceEvent ev;
    ev.kind = SpanKind::EngineStall;
    ev.start = start;
    ev.dur = dur;
    ev.node = static_cast<std::uint16_t>(node);
    ev.lane = static_cast<std::uint16_t>(engine);
    record(ev);
}

void
Tracer::queueWait(NodeId node, unsigned engine, unsigned q,
                  Tick enqueued, Tick granted)
{
    EngineAgg &agg = engines_.at(node * ctx_.enginesPerCc + engine);
    if (enqueued >= measureStart_)
        agg.queueWait.sample(static_cast<double>(granted - enqueued));
    if (granted == enqueued)
        return; // zero-wait grants would only bloat the trace
    TraceEvent ev;
    ev.kind = SpanKind::QueueWait;
    ev.start = enqueued;
    ev.dur = granted - enqueued;
    ev.node = static_cast<std::uint16_t>(node);
    ev.lane = static_cast<std::uint16_t>(engine);
    ev.a = static_cast<std::uint8_t>(q);
    record(ev);
}

void
Tracer::queueDepth(NodeId node, unsigned engine, std::size_t depth)
{
    EngineAgg &agg = engines_.at(node * ctx_.enginesPerCc + engine);
    agg.queueDepth.sample(static_cast<double>(depth));
}

void
Tracer::busSpan(NodeId node, const char *cmd_name, std::uint8_t cmd,
                Addr line_addr, Tick start, Tick end)
{
    if (start >= measureStart_)
        busLat_.sample(static_cast<double>(end - start));
    bool rec = sampled(busSeq_);
    ++busSeq_;
    if (!rec)
        return;
    TraceEvent ev;
    ev.kind = SpanKind::BusTxn;
    ev.start = start;
    ev.dur = end - start;
    ev.lineAddr = line_addr;
    ev.label = cmd_name;
    ev.node = static_cast<std::uint16_t>(node);
    ev.a = cmd;
    record(ev);
}

void
Tracer::netSpan(NodeId src, NodeId dst, unsigned bytes, Tick sent,
                Tick delivered)
{
    if (sent >= measureStart_) {
        netLat_.sample(static_cast<double>(delivered - sent));
        netBytes_ += bytes;
    }
    bool rec = sampled(netSeq_);
    ++netSeq_;
    if (!rec)
        return;
    TraceEvent ev;
    ev.kind = SpanKind::NetMsg;
    ev.start = sent;
    ev.dur = delivered - sent;
    ev.node = static_cast<std::uint16_t>(src);
    ev.lane = static_cast<std::uint16_t>(dst);
    ev.b = static_cast<std::uint16_t>(bytes);
    record(ev);
}

void
Tracer::xportEvent(SpanKind kind, NodeId src, NodeId dst, Tick now)
{
    if (now >= measureStart_) {
        if (kind == SpanKind::XportRetransmit)
            ++xportRetx_;
        else if (kind == SpanKind::XportTimeout)
            ++xportTo_;
    }
    TraceEvent ev;
    ev.kind = kind;
    ev.start = now;
    ev.node = static_cast<std::uint16_t>(src);
    ev.lane = static_cast<std::uint16_t>(dst);
    record(ev);
}

void
Tracer::faultEvent(FaultKind kind, NodeId node, Addr line, Tick now)
{
    if (now >= measureStart_) {
        ++faultEvents_;
        ++faultKindCount_[static_cast<unsigned>(kind)];
    }
    TraceEvent ev;
    ev.kind = SpanKind::FaultEvent;
    ev.start = now;
    ev.lineAddr = line;
    ev.node = static_cast<std::uint16_t>(node);
    ev.a = static_cast<std::uint8_t>(kind);
    record(ev);
}

void
Tracer::reset(Tick now)
{
    measureStart_ = now;
    ring_.clear();
    for (MissSlot &s : slots_)
        s = MissSlot{}; // in-flight misses are warm-up; drop them
    for (EngineAgg &e : engines_)
        e.reset();
    statGroup_.resetAll();
    handlerCount_.fill(0);
    handlerTicks_.fill(0);
    subOpTicks_.fill(0);
    busMemWait_ = 0;
    dispatchOnly_ = 0;
    netBytes_ = 0;
    xportRetx_ = 0;
    xportTo_ = 0;
    faultEvents_ = 0;
    faultKindCount_.fill(0);
    missSeq_ = 0;
    busSeq_ = 0;
    netSeq_ = 0;
    engineSeq_ = 0;
}

void
Tracer::exportTo(TraceSink &sink, Tick now) const
{
    sink.begin(*this, now);
    ring_.forEach([&](const TraceEvent &ev) { sink.consume(ev); });
    sink.end(*this, now);
}

void
Tracer::exportAll(Tick now) const
{
    if (!cfg_.chromeTraceFile.empty()) {
        std::ofstream os(cfg_.chromeTraceFile);
        if (!os) {
            warn("obs: cannot open trace file '%s'",
                 cfg_.chromeTraceFile.c_str());
        } else {
            ChromeTraceSink sink(os);
            exportTo(sink, now);
        }
    }
    if (!cfg_.metricsFile.empty()) {
        std::ofstream os(cfg_.metricsFile);
        if (!os) {
            warn("obs: cannot open metrics file '%s'",
                 cfg_.metricsFile.c_str());
        } else {
            auto n = cfg_.metricsFile.size();
            bool csv = n >= 4 &&
                       cfg_.metricsFile.compare(n - 4, 4, ".csv") == 0;
            MetricsSink sink(os, csv ? MetricsSink::Format::Csv
                                     : MetricsSink::Format::Json);
            exportTo(sink, now);
        }
    }
}

} // namespace obs
} // namespace ccnuma
