#include "system/machine.hh"

#include <algorithm>
#include <iostream>

#include "net/reliable.hh"
#include "obs/tracer.hh"
#include "recovery/recovery_manager.hh"
#include "verify/checker.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity_manager.hh"
#include "verify/watchdog.hh"

namespace ccnuma
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), map_(cfg.numNodes, cfg.pageBytes)
{
    // The CCNUMA_* environment knobs. Must happen before planning
    // and node construction: the nodes copy their controller retry
    // policy and recovery knobs out of cfg_.
    cfg_.withEnvOverrides();
    // Recovery knobs reach the node components through the config:
    // the controllers copy their CcParams and the cache units their
    // per-miss timer out of cfg_.node at construction.
    if (cfg_.recovery.enabled) {
        cfg_.node.cc.recoveryEnabled = true;
        cfg_.node.cc.repairTicks = cfg_.recovery.repairTicks;
        cfg_.node.cc.timeoutRetries = cfg_.recovery.timeoutRetries;
        cfg_.node.cc.probeRetries = cfg_.recovery.probeRetries;
        cfg_.node.cc.probeFanout = cfg_.recovery.probeFanout;
        cfg_.node.cache.missTimeoutTicks =
            cfg_.recovery.missTimeoutTicks;
    }
    cfg_.validate();
    shardsRequested_ = cfg_.shards;

    const VerifyConfig &vc = cfg_.verify;
    if (vc.faults.anyEnabled())
        injector_ = std::make_unique<FaultInjector>(vc.faults,
                                                    cfg_.numNodes);

    // Decide the scheduler before anything queue-dependent is built.
    // Falling back to serial is never silent: the reason is warned,
    // recorded, and reported in every RunResult.
    const ShardPlan plan = cfg_.shardPlan();
    if (plan.fallback) {
        warn("sharded scheduling (%u shards) disabled: %s; using the "
             "serial scheduler", cfg_.shards, plan.fallback);
        fallbackReason_ = plan.fallback;
    }
    cfg_.shards = plan.shards;
    lookahead_ = plan.lookahead;

    for (unsigned s = 0; s < cfg_.shards; ++s)
        queues_.push_back(std::make_unique<EventQueue>());
    std::vector<EventQueue *> qs;
    for (auto &q : queues_)
        qs.push_back(q.get());
    shardMap_ = ShardMap::partition(qs, cfg_.numNodes);
    for (auto &q : queues_)
        q->setNumContexts(shardMap_.numContexts());
    if (cfg_.shards > 1)
        team_ = std::make_unique<ShardTeam>(cfg_.shards);

    map_.setPolicy(cfg_.placement);
    net_ = std::make_unique<Network>("net", shardMap_, cfg_.net);
    if (injector_)
        net_->setTap(injector_.get());
    sync_ = std::make_unique<SyncManager>(
        "sync", shardMap_, cfg_.syncBase, cfg_.node.bus.lineBytes);
    sync_->setHandoffTicks(cfg_.syncHandoffTicks);
    sync_->setForceDefer(plan.deferredGrants);
    if (cfg_.reliable.enabled) {
        xport_ = std::make_unique<ReliableTransport>(
            "xport", shardMap_, *net_, cfg_.reliable,
            [this](const Msg &m) { deliverMsg(m); });
        if (injector_) {
            xport_->setCorruptHook(
                [this](NodeId src, wire::FrameImage &f) {
                    return injector_->corruptFrame(src, f);
                });
        }
    }
    std::function<std::uint64_t()> next_version;
    if (shardMap_.sharded()) {
        next_version = [this] {
            return std::atomic_ref<std::uint64_t>(versionCounter_)
                       .fetch_add(1, std::memory_order_relaxed) +
                   1;
        };
    } else {
        next_version = [this] { return ++versionCounter_; };
    }
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        nodes_.push_back(std::make_unique<SmpNode>(
            "node" + std::to_string(n), shardMap_.of(n), n, cfg_.node,
            *net_, map_, *sync_, next_version));
        nodes_.back()->cc().setRouter(this);
        if (xport_)
            nodes_.back()->cc().setTransport(xport_.get());
    }
    sync_->setBarrierParticipants(totalProcs());

    if (injector_ && vc.faults.engineStallProb > 0.0) {
        for (auto &nd : nodes_) {
            NodeId id = nd->id();
            nd->cc().setStallHook(
                [this, id] { return injector_->engineStall(id); });
        }
    }
    if (vc.checker) {
        std::vector<SmpNode *> ns;
        ns.reserve(nodes_.size());
        for (auto &nd : nodes_)
            ns.push_back(nd.get());
        // With corrupting faults armed, the checker reports
        // violations as injected-fault detections and halts the run
        // instead of panicking -- unless the reliable transport is
        // active, in which case every corruption must be healed
        // before delivery and the checker stays strict: a violation
        // is then a real bug (in the transport or the protocol).
        const bool tolerate = injector_ &&
                              injector_->config().corrupting() &&
                              !xport_;
        checker_ = std::make_unique<CoherenceChecker>(
            *queues_[0], map_, std::move(ns), tolerate);
        for (auto &nd : nodes_) {
            NodeId id = nd->id();
            nd->bus().setCompletionTap(
                [this, id](const BusTxn &txn) {
                    checker_->noteBusComplete(id, txn);
                });
        }
    }
    if (cfg_.recovery.enabled) {
        std::vector<SmpNode *> ns;
        ns.reserve(nodes_.size());
        for (auto &nd : nodes_)
            ns.push_back(nd.get());
        recovery_ = std::make_unique<RecoveryManager>(
            *queues_[0], map_, std::move(ns), xport_.get(),
            injector_.get(), checker_.get(), cfg_.recovery);
        recovery_->arm();
    }
    // Observability subsystem (off by default; see DESIGN.md). The
    // plan keeps a traced machine on one queue, so one tracer sees
    // every hook.
    if (cfg_.obs.enabled) {
        obs::TracerContext tc;
        tc.numNodes = cfg_.numNodes;
        tc.procsPerNode = cfg_.node.procsPerNode;
        tc.enginesPerCc = cfg_.node.cc.numEngines;
        tc.lineBytes = cfg_.node.bus.lineBytes;
        tc.engineType = cfg_.node.cc.engineType;
        tc.homeOf = [this](Addr a) { return map_.homeOf(a); };
        tracer_ = std::make_unique<obs::Tracer>(cfg_.obs, tc);
        obs::Tracer *t = tracer_.get();
        net_->setTracer(t);
        if (xport_)
            xport_->setTracer(t);
        for (auto &nd : nodes_) {
            nd->cc().setTracer(t);
            nd->bus().setTracer(t, nd->id());
            for (unsigned i = 0; i < nd->numProcs(); ++i)
                nd->proc(i).setTracer(t);
        }
    }

    if (cfg_.integrity.enabled) {
        std::vector<SmpNode *> ns;
        ns.reserve(nodes_.size());
        for (auto &nd : nodes_)
            ns.push_back(nd.get());
        integrity_ = std::make_unique<IntegrityManager>(
            *queues_[0], map_, std::move(ns), injector_.get(),
            cfg_.integrity, cfg_.recovery.repairTicks);
        integrity_->setTracer(tracer());
        integrity_->arm();
        // The poison fence: when a requester bounces off a dead
        // line, every local processor whose miss targets it is
        // killed and every local copy discarded — the corruption is
        // contained to the processors that asked for the lost data.
        for (auto &nd : nodes_) {
            SmpNode *np = nd.get();
            np->cc().setPoisonFence([this, np](Addr line) {
                for (unsigned i = 0; i < np->numProcs(); ++i) {
                    CacheUnit &cu = np->cacheUnit(i);
                    if (cu.missPendingOn(line)) {
                        cu.poisonAbort(line);
                        np->proc(i).kill();
                        integrity_->notePoisonKill();
                        if (obs::Tracer *t = tracer()) {
                            t->faultEvent(obs::FaultKind::ProcKill,
                                          np->id(), line,
                                          queues_[0]->curTick());
                        }
                    }
                    cu.discardLine(line);
                }
            });
        }
    }

    if (vc.watchdog) {
        watchdog_ = std::make_unique<HangWatchdog>(
            *queues_[0], vc.watchdogBudget,
            [this] {
                std::uint64_t retired = 0;
                for (auto &nd : nodes_) {
                    for (unsigned i = 0; i < nd->numProcs(); ++i)
                        retired += nd->proc(i).instructions();
                }
                return retired;
            },
            [this](std::ostream &os) { dumpDiagnostics(os); });
    }

    if (shardMap_.sharded()) {
        // A widened shard's clock may only outrun a peer when that
        // peer provably cannot act; its own sends and sync posts are
        // the loopholes, closed by self-clamps (DESIGN.md §19). The
        // sync manager clamps every sharded post by itself.
        net_->setSendClampMargin(lookahead_);
    }
}

Machine::~Machine() = default;

Processor &
Machine::proc(unsigned global)
{
    unsigned ppn = cfg_.node.procsPerNode;
    return nodes_.at(global / ppn)->proc(global % ppn);
}

void
Machine::deliverMsg(const Msg &msg)
{
    if (checker_ && !checker_->noteDeliver(msg))
        return; // detected injected fault; delivery swallowed
    if (tracer_)
        tracer_->noteDeliver(msg);
    nodes_.at(msg.dst)->cc().netReceive(msg);
}

void
Machine::onNetSend(Msg &msg)
{
    if (checker_)
        checker_->stampSend(msg);
}

Tick
Machine::now() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->curTick());
    return t;
}

void
Machine::dumpDiagnostics(std::ostream &os)
{
    os << "=== machine diagnostics at tick " << now() << " ===\n";
    std::uint64_t pending = 0;
    for (const auto &q : queues_)
        pending += q->numPending();
    os << "pending events: " << pending << "\n";
    // Shard-aware scheduler state: when a sharded run hangs, the
    // per-shard clocks and event horizons show which queue stalled
    // the window barrier.
    os << "scheduler: " << shardMap_.numShards << " shard(s)";
    if (shardsRequested_ != shardMap_.numShards) {
        os << " (requested " << shardsRequested_ << "; fallback: "
           << fallbackReason_ << ")";
    }
    if (shardMap_.sharded())
        os << ", lookahead window " << lookahead_ << " ticks";
    os << "\n";
    for (unsigned s = 0; s < queues_.size(); ++s) {
        os << "  shard " << s << ": tick " << queues_[s]->curTick()
           << ", pending " << queues_[s]->numPending()
           << ", next event ";
        Tick nw = queues_[s]->nextWhen();
        if (nw == maxTick)
            os << "(none)";
        else
            os << "at " << nw;
        os << ", nodes";
        for (NodeId n = 0; n < static_cast<NodeId>(numNodes()); ++n) {
            if (shardMap_.shardOf(n) == s)
                os << " " << static_cast<unsigned>(n);
        }
        os << "\n";
    }
    os << "unfinished procs:";
    for (unsigned i = 0; i < totalProcs(); ++i) {
        if (!proc(i).finished())
            os << " " << i;
    }
    os << "\n";
    if (xport_)
        xport_->dumpState(os);
    for (auto &nd : nodes_)
        nd->cc().dumpState(os);
}

void
Machine::fillRecoveryStats(RunResult &r)
{
    if (injector_) {
        r.faultsInjected = injector_->injectedDrops() +
                           injector_->injectedDuplicates() +
                           injector_->injectedReorders();
    }
    if (xport_) {
        r.xportRetransmits = xport_->retransmits();
        r.xportTimeouts = xport_->timeouts();
        r.xportDupsDropped = xport_->dupsDropped();
        r.xportReordersHealed = xport_->reordersHealed();
        r.xportAcks = xport_->acksSent();
    }
    for (auto &nd : nodes_) {
        CoherenceController &cc = nd->cc();
        r.nackRetries += cc.nackRetries();
        r.retryBackoffTicks += cc.retryBackoffTicks();
        r.dirRebuilds += cc.dirRebuilds();
        r.rebuildLines += cc.rebuildLines();
        r.reconstructionTicksMax = std::max(
            r.reconstructionTicksMax, cc.reconstructionTicksMax());
        r.recoveryNacks += cc.recoveryNacks();
        r.missTimeouts += cc.missTimeouts();
        r.timeoutResends += cc.timeoutResends();
        r.recoveryProbes += cc.recoveryProbes();
        r.degradedEntries += cc.degradedEntries();
        r.strayDrops += cc.strayDrops();
    }
    if (recovery_) {
        r.crashesInjected = recovery_->crashesFired();
        r.migrations = recovery_->migrations();
    }
    if (xport_) {
        r.crcChecked = xport_->crcChecked();
        r.crcDetected = xport_->crcDetected();
    }
    for (auto &nd : nodes_) {
        r.eccCorrected += nd->directory().eccCorrected();
        r.eccPendingDropped += nd->directory().pendingDropped();
        r.poisonNacks += nd->cc().poisonNacks();
        for (unsigned i = 0; i < nd->numProcs(); ++i)
            r.eccCorrected += nd->cacheUnit(i).eccCorrected();
    }
    if (integrity_) {
        std::uint64_t frames =
            injector_ ? injector_->framesCorrupted() : 0;
        r.flipsInjected = integrity_->flipsApplied() + frames;
        r.flipsSkipped =
            integrity_->flipsSkipped() +
            (integrity_->messageFlipsArmed() - frames);
        r.scrubCorrections = integrity_->scrubCorrections();
        r.containedDiscards = integrity_->containedDiscards();
        r.linesPoisoned = integrity_->linesDead();
        r.procsKilledPoison = integrity_->procsKilled();
        r.integrityEscalations = integrity_->escalations();
        // Every applied corruption must be answered by exactly one
        // defense; anything left over escaped detection.
        r.escapedCorruptions =
            static_cast<std::int64_t>(r.flipsInjected) -
            static_cast<std::int64_t>(
                r.crcDetected + r.eccCorrected +
                r.eccPendingDropped + r.containedDiscards +
                r.linesPoisoned + r.integrityEscalations);
    }
}

bool
Machine::runWindows(const std::function<bool()> &done, Tick limit)
{
    const unsigned S = static_cast<unsigned>(queues_.size());
    std::vector<Tick> ends(S);
    std::vector<Tick> nws(S);
    while (!done()) {
        // GVT skip-ahead: the window starts at the globally earliest
        // pending event, so fully idle stretches cost nothing.
        Tick t0 = maxTick;
        for (auto &q : queues_)
            t0 = std::min(t0, q->nextWhen());
        if (t0 == maxTick || t0 > limit)
            return false;
        Tick end = limit < maxTick - 1 ? limit + 1 : maxTick;
        Tick cons = end - t0 > lookahead_ ? t0 + lookahead_ : end;
        ++windowsRun_;
        // Per-shard window ends: shard s may not outrun the earliest
        // event of any *other non-empty* shard — the only peers able
        // to originate cross-shard traffic this window — nor the
        // earliest deferred sync operation, by more than the
        // conservative lookahead. An empty peer is provably quiet:
        // mailboxes drain only at barriers, so it cannot act before
        // the next planning step sees whatever woke it, and the
        // sender's own self-clamps (network send, sync post) keep this
        // shard's clock below any reply such a wake could produce. A
        // shard whose peers are all empty therefore saturates to the
        // run limit and executes at full serial speed until traffic
        // appears.
        bool widened = false;
        Tick sync_min = sync_->pendingMinWhen();
        for (unsigned s = 0; s < S; ++s)
            nws[s] = queues_[s]->nextWhen();
        for (unsigned s = 0; s < S; ++s) {
            Tick bound = sync_min;
            for (unsigned o = 0; o < S; ++o) {
                if (o != s && nws[o] != maxTick)
                    bound = std::min(bound, nws[o]);
            }
            // No clamp up to the conservative end: a deferred sync
            // operation older than t0 must keep every window at or
            // below its grant tick.
            Tick t1 = bound >= end || end - bound <= lookahead_
                          ? end
                          : bound + lookahead_;
            if (t1 > cons)
                widened = true;
            ends[s] = t1;
        }
        if (widened)
            ++windowsWidened_;
        else
            ++windowFallbacks_;
        team_->run(
            [this, &ends](unsigned s) { queues_[s]->runWindow(ends[s]); });
        windowBarrier();
    }
    return true;
}

void
Machine::windowBarrier()
{
    // All shard threads are quiescent here; injection order is
    // irrelevant because arrivals and grants carry explicit keys.
    net_->drainMailboxes();
    // Windows ran different spans per shard, so only sync operations
    // every shard has provably passed may be processed now; the rest
    // stay deferred (they bound the next windows).
    Tick safe = maxTick;
    for (auto &q : queues_)
        safe = std::min(safe, q->nextWhen());
    sync_->processPending(safe);
}

RunResult
Machine::run(Workload &w, bool check)
{
    if (w.numThreads() != totalProcs()) {
        fatal("workload %s has %u threads but the machine has %u "
              "processors", w.name().c_str(), w.numThreads(),
              totalProcs());
    }
    w.place(map_);

    unsigned n = totalProcs();
    unsigned ppn = cfg_.node.procsPerNode;
    finishedProcs_.store(0, std::memory_order_relaxed);
    finishedSerial_ = 0;
    for (unsigned i = 0; i < n; ++i) {
        Processor &p = proc(i);
        p.setProgram(w.thread(i));
        // Serial runs count completions through a plain variable: the
        // single-queue fast loop polls it every event, and an atomic
        // there is pure overhead.
        if (shardMap_.sharded()) {
            p.setFinishedCallback([this] {
                finishedProcs_.fetch_add(1,
                                         std::memory_order_release);
            });
        } else {
            p.setFinishedCallback([this] { ++finishedSerial_; });
        }
        // Attribute the start event to the processor's node context
        // so its key is identical under any queue layout.
        NodeId node = i / ppn;
        EventQueue &q = shardMap_.of(node);
        q.setContext(shardMap_.nodeCtx(node));
        p.start(0);
    }
    for (auto &q : queues_)
        q->setContext(shardMap_.externalCtx());

    const Tick limit = cfg_.maxTicks;
    bool done;
    if (shardMap_.sharded()) {
        done = runWindows(
            [this, n] {
                return finishedProcs_.load(
                           std::memory_order_acquire) == n;
            },
            limit);
    } else {
        // The watchdog schedules its checks on this one queue; the
        // plan never shards a watched machine.
        if (watchdog_)
            watchdog_->arm();
        if (checker_) {
            done = queues_[0]->runUntil(
                [this, n] {
                    return finishedSerial_ == n ||
                           checker_->shouldHalt();
                },
                limit);
        } else {
            // Single-queue fast loop: an inlined completion check
            // with no std::function dispatch per event (PR 9; this is
            // the PR 4 serial hot loop).
            done = queues_[0]->runUntilFast(
                [this, n] { return finishedSerial_ == n; }, limit);
        }
    }
    if (watchdog_)
        watchdog_->disarm();
    if (checker_ && checker_->shouldHalt()) {
        // An injected fault was detected; the protocol state is no
        // longer trustworthy, so skip the drain and the idle checks
        // and return a partial result.
        warn("run of %s halted after %llu injected-fault "
             "detection(s)", w.name().c_str(),
             (unsigned long long)checker_->violations());
        RunResult r;
        r.workload = w.name();
        r.arch =
            std::string(engineTypeName(cfg_.node.cc.engineType));
        r.execTicks = now();
        r.shardsRequested = shardsRequested_;
        r.shardsUsed = shardMap_.numShards;
        r.shardFallback = fallbackReason_;
        fillRecoveryStats(r);
        if (tracer_)
            tracer_->exportAll(now());
        return r;
    }
    if (!done) {
        // Diagnose: which processors are stuck, and what protocol
        // state is outstanding?
        dumpDiagnostics(std::cerr);
        std::string stuck;
        for (unsigned i = 0; i < n; ++i) {
            if (!proc(i).finished())
                stuck += " " + std::to_string(i);
        }
        std::uint64_t pending = 0;
        for (auto &q : queues_)
            pending += q->numPending();
        panic("workload %s wedged at tick %llu (pending events: %llu;"
              " unfinished procs:%s)", w.name().c_str(),
              (unsigned long long)now(),
              (unsigned long long)pending, stuck.c_str());
    }

    Tick exec = 0;
    for (unsigned i = 0; i < n; ++i)
        exec = std::max(exec, proc(i).finishTick());

    // Drain in-flight protocol traffic (writeback acks etc.).
    if (shardMap_.sharded()) {
        runWindows(
            [this] {
                for (auto &q : queues_) {
                    if (!q->empty())
                        return false;
                }
                return true;
            },
            now() + 10'000'000);
    } else {
        queues_[0]->run(queues_[0]->curTick() + 10'000'000);
    }
    for (auto &nd : nodes_) {
        if (!nd->cc().idle()) {
            nd->cc().dumpState(std::cerr);
            panic("controller %u not idle after drain",
                  nd->id());
        }
    }
    if (xport_ && !xport_->idle()) {
        xport_->dumpState(std::cerr);
        panic("reliable transport not idle after drain");
    }
    // Close the integrity ledger: a flip landing after the last
    // access and the last periodic pass would otherwise stay latent.
    if (integrity_)
        integrity_->finalScrub();

    if (check)
        checkInvariants();

    RunResult r;
    r.workload = w.name();
    r.arch = std::string(engineTypeName(cfg_.node.cc.engineType));
    if (cfg_.node.cc.numEngines > 1)
        r.arch += "x" + std::to_string(cfg_.node.cc.numEngines);
    r.execTicks = exec;
    for (unsigned i = 0; i < n; ++i) {
        Processor &p = proc(i);
        r.instructions += p.instructions();
        r.memRefs += p.memRefs();
        r.misses += p.misses();
    }
    double util_sum = 0.0;
    double qd_sum = 0.0;
    for (auto &nd : nodes_) {
        CoherenceController &cc = nd->cc();
        r.ccRequests += cc.totalArrivals();
        r.ccOccupancy += cc.totalOccupancy();
        util_sum += exec ? static_cast<double>(cc.totalOccupancy()) /
                               (static_cast<double>(exec) *
                                cc.numEngines())
                         : 0.0;
        qd_sum += cc.meanQueueDelay();
    }
    r.avgUtilization = util_sum / static_cast<double>(numNodes());
    r.avgQueueDelayTicks = qd_sum / static_cast<double>(numNodes());
    double exec_us = ticksToNs(exec) / 1000.0;
    r.arrivalsPerUs =
        exec_us > 0.0
            ? static_cast<double>(r.ccRequests) /
                  static_cast<double>(numNodes()) / exec_us
            : 0.0;
    fillRecoveryStats(r);
    r.completed = true;
    r.shardsRequested = shardsRequested_;
    r.shardsUsed = shardMap_.numShards;
    r.shardFallback = fallbackReason_;
    r.windowsRun = windowsRun_;
    r.windowsWidened = windowsWidened_;
    r.windowFallbacks = windowFallbacks_;
    for (auto &q : queues_)
        r.syncWindowStops += q->windowClamps();
    if (tracer_)
        tracer_->exportAll(now());
    return r;
}

void
Machine::resetStats()
{
    net_->resetStats();
    if (xport_)
        xport_->resetStats();
    sync_->statGroup().resetAll();
    for (auto &nd : nodes_) {
        nd->bus().statGroup().resetAll();
        nd->memory().statGroup().resetAll();
        nd->directory().statGroup().resetAll();
        nd->cc().statGroup().resetAll();
        nd->cc().resetStats();
        for (unsigned i = 0; i < nd->numProcs(); ++i) {
            nd->proc(i).statGroup().resetAll();
            nd->cacheUnit(i).statGroup().resetAll();
        }
    }
    if (tracer_)
        tracer_->reset(now());
}

void
Machine::checkInvariants()
{
    struct Holder
    {
        NodeId node;
        LineState state;
        std::uint64_t version;
    };
    std::unordered_map<Addr, std::vector<Holder>> holders;
    for (auto &nd : nodes_) {
        for (unsigned i = 0; i < nd->numProcs(); ++i) {
            nd->cacheUnit(i).l2().forEachLine(
                [&](const CacheLine &l) {
                    holders[l.lineAddr].push_back(
                        {nd->id(), l.state, l.version});
                });
        }
    }
    for (const auto &[line, hs] : holders) {
        // A poisoned (dead) line is outside the coherence domain:
        // its only up-to-date copy was lost to an uncorrectable
        // error and every cached copy was discarded by the fence, so
        // nothing about it can be checked against memory.
        if (nodes_.at(map_.homeOf(line))->cc().isLineDead(line))
            continue;
        unsigned modified = 0;
        for (const auto &h : hs) {
            if (h.state == LineState::Modified)
                ++modified;
        }
        if (modified > 1) {
            panic("line %#llx has %u Modified copies",
                  (unsigned long long)line, modified);
        }
        if (modified == 1 && hs.size() > 1) {
            panic("line %#llx has a Modified copy alongside %zu "
                  "other copies", (unsigned long long)line,
                  hs.size() - 1);
        }
        // Directory must cover every remote holder.
        NodeId home = map_.homeOf(line);
        const DirEntry *e = nodes_.at(home)->directory().peek(line);
        for (const auto &h : hs) {
            if (h.node == home)
                continue;
            if (!e) {
                panic("line %#llx cached at node %u but never "
                      "entered the home directory",
                      (unsigned long long)line, h.node);
            }
            if (h.state == LineState::Modified) {
                if (e->state != DirState::DirtyRemote ||
                    e->owner != h.node) {
                    panic("line %#llx Modified at node %u but "
                          "directory says %s owner %u",
                          (unsigned long long)line, h.node,
                          dirStateName(e->state), e->owner);
                }
            } else if (e->state == DirState::SharedRemote) {
                if (!e->isSharer(h.node)) {
                    panic("line %#llx Shared at node %u but not in "
                          "the sharer bitmap",
                          (unsigned long long)line, h.node);
                }
            } else if (e->state == DirState::Home) {
                panic("line %#llx cached at remote node %u but "
                      "directory says Home",
                      (unsigned long long)line, h.node);
            } else if (e->state == DirState::DirtyRemote &&
                       e->owner != h.node) {
                panic("line %#llx Shared at node %u under foreign "
                      "owner %u", (unsigned long long)line, h.node,
                      e->owner);
            }
        }
        // All non-modified copies must agree with memory.
        if (modified == 0) {
            std::uint64_t mem_version =
                nodes_.at(home)->memory().version(line);
            for (const auto &h : hs) {
                if (h.version != mem_version) {
                    panic("line %#llx: node %u holds version %llu "
                          "but memory has %llu",
                          (unsigned long long)line, h.node,
                          (unsigned long long)h.version,
                          (unsigned long long)mem_version);
                }
            }
        }
    }
}

void
Machine::printStats(std::ostream &os)
{
    net_->syncStats();
    net_->statGroup().print(os);
    if (xport_) {
        xport_->syncStats();
        xport_->statGroup().print(os);
    }
    if (tracer_)
        tracer_->statGroup().print(os);
    sync_->statGroup().print(os);
    for (auto &nd : nodes_) {
        nd->bus().statGroup().print(os);
        nd->memory().statGroup().print(os);
        nd->directory().statGroup().print(os);
        nd->cc().statGroup().print(os);
        for (unsigned i = 0; i < nd->numProcs(); ++i) {
            nd->proc(i).statGroup().print(os);
            nd->cacheUnit(i).statGroup().print(os);
        }
    }
}

} // namespace ccnuma
