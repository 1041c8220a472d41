#include "cc/coherence_controller.hh"

#include "obs/tracer.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace ccnuma
{

CoherenceController::CoherenceController(const std::string &name,
                                         EventQueue &eq, NodeId node,
                                         const CcParams &params,
                                         Bus &bus, Network &net,
                                         AddressMap &map,
                                         DirectoryStore &dir)
    : name_(name), eq_(eq), node_(node), params_(params), bus_(bus),
      net_(net), map_(map), dir_(dir), retries_(params.retry),
      model_(params.engineType), statGroup_(name)
{
    if (params.numEngines != 1 && params.numEngines != 2 &&
        params.numEngines != 4) {
        fatal("cc %s: numEngines must be 1, 2 or 4", name.c_str());
    }
    engines_.resize(params.numEngines);
    for (unsigned i = 0; i < params.numEngines; ++i)
        engines_[i].idx = i;
    busAgentId_ = bus_.addAgent(this);
    bus_.setCoherenceHook(this);

    statGroup_.add(&statBusRequests);
    statGroup_.add(&statNetRequests);
    statGroup_.add(&statNetResponses);
    statGroup_.add(&statMerged);
    statGroup_.add(&statParked);
    statGroup_.add(&statNacks);
    statGroup_.add(&statLivelockPromotions);
    statGroup_.add(&statDirectWBs);
    statGroup_.add(&statWbStalls);
    statGroup_.add(&statNackRetries);
    statGroup_.add(&statRetryBackoffTicks);
    statGroup_.add(&statCrashes);
    statGroup_.add(&statCrashDropped);
    statGroup_.add(&statRecoveryNacks);
    statGroup_.add(&statDirRebuilds);
    statGroup_.add(&statRebuildLines);
    statGroup_.add(&statMissTimeouts);
    statGroup_.add(&statTimeoutResends);
    statGroup_.add(&statRecoveryProbes);
    statGroup_.add(&statDegradedEntries);
    statGroup_.add(&statStrayDrops);
    statGroup_.add(&statPoisonNacks);
}

// ---------------------------------------------------------------------
// Line poisoning (PR 7)
// ---------------------------------------------------------------------

void
CoherenceController::markLineDead(Addr line_addr)
{
    deadLines_.insert(line_addr);
    // Reset the directory view: no holder anywhere. The checker's
    // coverage invariant exempts dead lines explicitly; the Home
    // state keeps the bus-side directory logic self-consistent
    // (requests are intercepted before it is consulted anyway).
    DirEntry &e = dir_.entry(line_addr);
    e.state = DirState::Home;
    e.sharers = 0;
    ccnuma_trace(line_addr, "%8llu %s LINE DEAD %#llx",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 (unsigned long long)line_addr);
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::LineDead, node_,
                            line_addr, eq_.curTick());
    }
}

// ---------------------------------------------------------------------
// Bus-side logic (the bus-side directory / dispatch front end)
// ---------------------------------------------------------------------

void
CoherenceController::writeHomeMemory(Addr line_addr,
                                     std::uint64_t version, Tick t)
{
    if (!memory_)
        return;
    memory_->scheduleWrite(line_addr, t);
    memory_->setVersion(line_addr, version);
}

bool
CoherenceController::lineAvailableLocally(Addr line_addr) const
{
    if (wbBuffer_.count(line_addr))
        return true;
    return probe_ != nullptr && probe_->lineCachedLocally(line_addr);
}

SupplyDecision
CoherenceController::busObserve(BusTxn &txn, SnoopResult combined)
{
    const Addr line = txn.lineAddr;
    const bool local = map_.homeOf(line) == node_;

    if (txn.fromCC) {
        // One of our own fetch/invalidate operations.
        switch (txn.cmd) {
          case BusCmd::Read:
          case BusCmd::ReadExcl:
            if (combined == SnoopResult::DirtySupply ||
                combined == SnoopResult::SharedSupply) {
                // A local line read out of a Modified local cache
                // demotes the copy to Shared; memory must absorb the
                // dirty data in the same transfer, or later readers
                // would see the stale memory image.
                if (txn.cmd == BusCmd::Read && local &&
                    combined == SnoopResult::DirtySupply) {
                    return SupplyDecision::CacheReflect;
                }
                return SupplyDecision::Cache;
            }
            if (auto it = wbBuffer_.find(line); it != wbBuffer_.end()) {
                txn.dataVersion = it->second.version;
                return SupplyDecision::Cache;
            }
            if (local)
                return SupplyDecision::Memory;
            return SupplyDecision::NoData; // stale owner; nack
          case BusCmd::Inval:
            return SupplyDecision::NoData;
          case BusCmd::WriteBack:
            panic("cc %s: controller-issued writeback", name_.c_str());
        }
    }

    // Processor-issued transaction.
    if (state_ != CcState::Normal) {
        // The controller card is dark or rebuilding its directory.
        // Transactions the snooping bus completes within the node
        // (cache-to-cache supplies, writebacks into local memory)
        // proceed as usual — the bus-side data path survives a
        // controller crash. Anything that needs the controller's
        // dispatch logic or a trustworthy directory parks until the
        // restart replays it.
        switch (txn.cmd) {
          case BusCmd::Inval:
            return SupplyDecision::NoData;
          case BusCmd::WriteBack:
            if (local)
                return SupplyDecision::Memory;
            wbBuffer_[line] = WbEntry{txn.dataVersion};
            return SupplyDecision::NoData;
          case BusCmd::Read:
          case BusCmd::ReadExcl:
            if (combined == SnoopResult::DirtySupply) {
                if (local) {
                    return txn.cmd == BusCmd::Read
                               ? SupplyDecision::CacheReflect
                               : SupplyDecision::Cache;
                }
                if (txn.cmd == BusCmd::Read) {
                    // The demotion already happened in the snoop;
                    // the dirty data must travel home now. The
                    // direct data path needs no protocol engine.
                    Tick data_time =
                        eq_.curTick() + bus_.params().c2cDataLatency +
                        static_cast<Tick>(
                            bus_.params().lineBytes /
                            bus_.params().busWidthBytes) *
                            bus_.params().beatTicks;
                    wbBuffer_[line] = WbEntry{txn.dataVersion};
                    ++statDirectWBs;
                    sendMsg(MsgType::SharingWB, line,
                            map_.homeOf(line), node_, txn.dataVersion,
                            /*retains=*/true, data_time);
                }
                return SupplyDecision::Cache;
            }
            // Only a plain Read may complete off a Shared copy: an
            // upgrade needs the home to invalidate remote sharers
            // and record ownership, so it parks like any other
            // controller-dependent transaction.
            if (combined == SnoopResult::SharedSupply && !local &&
                txn.cmd == BusCmd::Read) {
                return SupplyDecision::Cache;
            }
            break;
        }
        DispatchItem item;
        item.isBus = true;
        item.busTxnId = txn.id;
        item.lineAddr = line;
        item.busCmd = txn.cmd;
        item.crashResend = true;
        crashReplay_.push_back(item);
        ++statParked;
        return SupplyDecision::Deferred;
    }
    const auto hw = homeWaiting_.find(line);
    const bool busy = homeBusy_.count(line) != 0 ||
                      deferredLocal_.count(line) != 0 ||
                      (hw != homeWaiting_.end() && !hw->second.empty());

    switch (txn.cmd) {
      case BusCmd::Read:
        if (local) {
            if (combined == SnoopResult::DirtySupply) {
                // Locally modified local line: cache-to-cache with
                // memory reflection on the M->S downgrade. This must
                // take precedence over parking — the snoop has
                // already demoted the owner, so the data must move
                // now. (A local Modified copy implies the directory
                // records no remote owner, so the supply is safe
                // even while another home transaction is active.)
                return SupplyDecision::CacheReflect;
            }
            if (busy) {
                // Serialize behind the in-progress home transaction.
                DispatchItem item;
                item.isBus = true;
                item.busTxnId = txn.id;
                item.lineAddr = line;
                item.busCmd = txn.cmd;
                homeWaiting_[line].push_back(item);
                ++statParked;
                return SupplyDecision::Deferred;
            }
            BusSideDirState bs = dir_.busSideState(line);
            if (bs == BusSideDirState::DirtyRemote ||
                isLineDead(line)) {
                // A poisoned line must never fill from the stale
                // memory image; the engine bounces it instead.
                DispatchItem item;
                item.isBus = true;
                item.busTxnId = txn.id;
                item.lineAddr = line;
                item.busCmd = txn.cmd;
                enqueue(QBusRequest, item);
                return SupplyDecision::Deferred;
            }
            // An Exclusive fill is only safe when no remote node
            // holds a copy; the bus-side directory answers this at
            // bus rate.
            txn.exclusiveOk = bs == BusSideDirState::NoRemote;
            return SupplyDecision::Memory;
        }
        // Remote line.
        if (combined == SnoopResult::DirtySupply) {
            // Within-node supply; the downgrading owner's data also
            // travels home as a sharing writeback on the direct data
            // path so the directory stays truthful.
            Tick data_time = eq_.curTick() +
                             bus_.params().c2cDataLatency +
                             static_cast<Tick>(
                                 bus_.params().lineBytes /
                                 bus_.params().busWidthBytes) *
                                 bus_.params().beatTicks;
            wbBuffer_[line] = WbEntry{txn.dataVersion};
            std::uint64_t version = txn.dataVersion;
            if (params_.directDataPath) {
                ++statDirectWBs;
                sendMsg(MsgType::SharingWB, line, map_.homeOf(line),
                        node_, version, /*retains=*/true, data_time);
            } else {
                DispatchItem item;
                item.isBus = true;
                item.busTxnId = 0;
                item.lineAddr = line;
                item.busCmd = BusCmd::WriteBack;
                item.msg.type = MsgType::SharingWB;
                item.msg.lineAddr = line;
                item.msg.dst = map_.homeOf(line);
                item.msg.version = version;
                item.msg.ownerRetains = true;
                eq_.scheduleFunction(
                    [this, item] { enqueue(QBusRequest, item); },
                    data_time);
            }
            return SupplyDecision::Cache;
        }
        if (combined == SnoopResult::SharedSupply)
            return SupplyDecision::Cache;
        break; // miss within the node: go remote

      case BusCmd::ReadExcl:
        if (local) {
            if (combined == SnoopResult::DirtySupply) {
                // Ownership migrates between local caches; the
                // demotion already happened in the snoop, so the
                // transfer must complete regardless of parking.
                return SupplyDecision::Cache;
            }
            if (busy) {
                DispatchItem item;
                item.isBus = true;
                item.busTxnId = txn.id;
                item.lineAddr = line;
                item.busCmd = txn.cmd;
                homeWaiting_[line].push_back(item);
                ++statParked;
                return SupplyDecision::Deferred;
            }
            BusSideDirState bs = dir_.busSideState(line);
            if (bs == BusSideDirState::NoRemote &&
                !isLineDead(line)) {
                return SupplyDecision::Memory;
            }
            DispatchItem item;
            item.isBus = true;
            item.busTxnId = txn.id;
            item.lineAddr = line;
            item.busCmd = txn.cmd;
            enqueue(QBusRequest, item);
            return SupplyDecision::Deferred;
        }
        // Remote line.
        if (combined == SnoopResult::DirtySupply) {
            // The node owns the line; ownership migrates within the
            // node without involving the home.
            return SupplyDecision::Cache;
        }
        break; // need exclusive permission from the home

      case BusCmd::Inval:
        return SupplyDecision::NoData;

      case BusCmd::WriteBack:
        if (local)
            return SupplyDecision::Memory;
        // Reserve the writeback buffer entry immediately so that
        // requests racing with the writeback stall behind it.
        wbBuffer_[line] = WbEntry{txn.dataVersion};
        return SupplyDecision::NoData; // captured; see below
    }

    // Remote-line miss: defer and hand to a protocol engine, merging
    // with an existing pending transaction for the same line when the
    // request kinds are compatible.
    DispatchItem item;
    item.isBus = true;
    item.busTxnId = txn.id;
    item.lineAddr = line;
    item.busCmd = txn.cmd;
    auto it = reqPending_.find(line);
    if (it != reqPending_.end()) {
        if (!it->second.excl && txn.cmd == BusCmd::Read) {
            it->second.busTxns.push_back(txn.id);
            ++statMerged;
        } else {
            it->second.conflicting.push_back(item);
        }
        return SupplyDecision::Deferred;
    }
    enqueue(QBusRequest, item);
    return SupplyDecision::Deferred;
}

void
CoherenceController::busCaptureWriteBack(BusTxn &txn, Tick data_ready)
{
    const Addr line = txn.lineAddr;
    const NodeId home = map_.homeOf(line);
    ccnuma_assert(home != node_);
    ccnuma_assert(wbBuffer_.count(line));
    if (params_.directDataPath) {
        ++statDirectWBs;
        sendMsg(MsgType::WriteBack, line, home, node_,
                txn.dataVersion, false, data_ready);
    } else {
        DispatchItem item;
        item.isBus = true;
        item.busTxnId = 0;
        item.lineAddr = line;
        item.busCmd = BusCmd::WriteBack;
        item.msg.type = MsgType::WriteBack;
        item.msg.lineAddr = line;
        item.msg.dst = home;
        item.msg.version = txn.dataVersion;
        eq_.scheduleFunction(
            [this, item] { enqueue(QBusRequest, item); }, data_ready);
    }
}

SnoopResult
CoherenceController::busSnoop(BusTxn &)
{
    // The controller holds no cache lines of its own; its writeback
    // buffer is consulted in busObserve for its own fetches only.
    return SnoopResult::None;
}

void
CoherenceController::busDone(BusTxn &txn)
{
    Exec *ex = nullptr;
    for (Engine &e : engines_) {
        if (e.exec.fetchId == txn.id) {
            ex = &e.exec;
            break;
        }
    }
    if (ex == nullptr && params_.recoveryEnabled) {
        // The handler that issued this fetch died in a crash (which
        // cleared every pending fetch id); its originating request
        // was collected for replay and will fetch again from scratch.
        ++statStrayDrops;
        return;
    }
    ccnuma_assert(ex != nullptr);
    ex->fetchId = 0;
    ex->fetchFailed = txn.supply == SupplyDecision::NoData;
    ex->fetchShared = txn.sharedSeen;
    ex->fetchDirty = txn.dirtySupplied;
    if (!ex->fetchFailed && txn.cmd != BusCmd::Inval)
        ex->version = txn.dataVersion;
    respondPhase(ex->engine, eq_.curTick());
}

// ---------------------------------------------------------------------
// Network interface
// ---------------------------------------------------------------------

void
CoherenceController::sendMsg(MsgType type, Addr line_addr, NodeId dst,
                             NodeId requester, std::uint64_t version,
                             bool retains, Tick t,
                             bool recovery_resend)
{
    Msg m;
    m.type = type;
    m.lineAddr = line_addr;
    m.src = node_;
    m.dst = dst;
    m.requester = requester;
    m.version = version;
    m.ownerRetains = retains;
    m.recoveryResend = recovery_resend;
    ccnuma_trace(line_addr,
                 "%8llu %s send %s -> node%u req=%u ver=%llu ret=%d",
                 (unsigned long long)t, name_.c_str(),
                 msgTypeName(type), dst, requester,
                 (unsigned long long)version, (int)retains);
    unsigned bytes = msgBytes(type, bus_.params().lineBytes);
    Tick depart = t + params_.niDelay;
    eq_.scheduleFunction(
        [this, m, bytes]() mutable {
            ccnuma_assert(router_ != nullptr);
            // Stamp at the true network-entry instant so the
            // checker's sequence numbers reflect wire order.
            router_->onNetSend(m);
            if (xport_ != nullptr) {
                // Reliable mode: the transport owns delivery (it
                // retransmits lost frames, discards duplicates, and
                // re-establishes per-pair order before handing the
                // message back to the router).
                xport_->send(m, bytes);
                return;
            }
            Msg delivered = m;
            net_.send(node_, m.dst, bytes,
                      [this, delivered] {
                          router_->deliverMsg(delivered);
                      });
        },
        depart);
}

Tick
CoherenceController::retryDelay(Addr line, const char *what)
{
    RetryTracker::Attempt a = retries_.next(line);
    if (a.exhausted) {
        // Escalation path: the transient condition never cleared.
        // A clean diagnostic beats livelocking the machine.
        fatal("cc %s: %s for line %#llx abandoned after %u retries "
              "(policy: base %llu ticks, cap %llu ticks); the line "
              "never left its transient state", name_.c_str(), what,
              (unsigned long long)line, a.count - 1,
              (unsigned long long)params_.retry.backoffBase,
              (unsigned long long)params_.retry.backoffMax);
    }
    ++statNackRetries;
    statRetryBackoffTicks += static_cast<double>(a.delay);
    return a.delay;
}

void
CoherenceController::netReceive(const Msg &msg)
{
    if (state_ == CcState::Crashed || deadForever_) {
        // Dark. The reliable transport's receive fence normally
        // drops frames before they reach us (unacknowledged, so the
        // sender re-delivers after the restart); anything already in
        // flight past the fence is dropped here the same way.
        ++statCrashDropped;
        return;
    }

    // Home-liveness probes are answered at the network interface,
    // below the dispatch queues: a probe must tell the requester
    // whether the card is alive even when its engines are saturated
    // or busy rebuilding the directory.
    if (msg.type == MsgType::RecoveryProbe) {
        sendMsg(MsgType::RecoveryProbeAck, msg.lineAddr, msg.src,
                msg.requester, 0, false, eq_.curTick());
        return;
    }
    if (msg.type == MsgType::RecoveryProbeAck) {
        // The home is alive, just slow: give it a fresh ladder.
        missLadders_.erase(msg.lineAddr);
        return;
    }

    // Writeback acknowledgements retire writeback-buffer entries;
    // that is network-interface bookkeeping, not protocol handler
    // work — no engine dispatch, no occupancy.
    if (msg.type == MsgType::WriteBackAck) {
        const Addr line = msg.lineAddr;
        wbBuffer_.erase(line);
        auto wit = wbWaiting_.find(line);
        if (wit == wbWaiting_.end())
            return;
        // enqueue() never touches wbWaiting_, so the list can be
        // replayed in place before its node is recycled.
        const ItemList &waiting = wit->second;
        for (auto rit = waiting.rbegin(); rit != waiting.rend();
             ++rit) {
            enqueue(QBusRequest, *rit, /*to_front=*/true);
        }
        wbWaiting_.erase(wit);
        return;
    }

    DispatchItem item;
    item.msg = msg;
    item.lineAddr = msg.lineAddr;
    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::ReadExclReq:
      case MsgType::FwdRead:
      case MsgType::FwdReadExcl:
      case MsgType::InvalReq:
      case MsgType::WriteBack:
      case MsgType::DirProbe:
        enqueue(QNetRequest, item);
        break;
      default:
        enqueue(QNetResponse, item);
        break;
    }
}

// ---------------------------------------------------------------------
// Dispatch machinery
// ---------------------------------------------------------------------

unsigned
CoherenceController::engineFor(Addr line_addr) const
{
    if (engines_.size() == 1)
        return 0;
    if (params_.dynamicSplit) {
        unsigned best = 0;
        std::size_t best_load = ~std::size_t(0);
        for (unsigned e = 0; e < engines_.size(); ++e) {
            std::size_t load = engines_[e].busy ? 1 : 0;
            for (unsigned q = 0; q < NumQueues; ++q)
                load += engines_[e].queues[q].size();
            if (load < best_load) {
                best_load = load;
                best = e;
            }
        }
        return best;
    }
    // The S3.mp-style split: local addresses to the LPE(s), remote
    // addresses to the RPE(s). With more than two engines (the
    // paper's "more protocol engines for different regions of
    // memory"), each half is further interleaved by line region.
    const unsigned half =
        static_cast<unsigned>(engines_.size()) / 2;
    const unsigned region = static_cast<unsigned>(
        (line_addr / bus_.params().lineBytes) % half);
    return map_.homeOf(line_addr) == node_ ? region : half + region;
}

void
CoherenceController::enqueue(unsigned queue, DispatchItem item,
                             bool to_front)
{
    if (state_ == CcState::Crashed || deadForever_) {
        // A pre-crash continuation (direct-path fallback, replay
        // drain) landed after the card went dark: park it with the
        // rest of the outage's work.
        crashReplay_.push_back(item);
        return;
    }
    item.enqueueTick = eq_.curTick();
    item.srcQueue = queue;
    unsigned e = engineFor(item.lineAddr);
    if (!item.counted) {
        item.counted = true;
        switch (queue) {
          case QBusRequest: ++statBusRequests; break;
          case QNetRequest: ++statNetRequests; break;
          case QNetResponse: ++statNetResponses; break;
        }
        ++engines_[e].arrivals;
    }
    // Track deferred local-line bus requests so that the bus-side
    // logic serializes newcomers behind them (see busObserve).
    if (item.isBus && item.busCmd != BusCmd::WriteBack &&
        map_.homeOf(item.lineAddr) == node_) {
        ++deferredLocal_[item.lineAddr];
    }
    if (to_front)
        engines_[e].queues[queue].push_front(item);
    else
        engines_[e].queues[queue].push_back(item);
    if (tracer_) {
        tracer_->queueDepth(node_, e,
                            engines_[e].queues[0].size() +
                                engines_[e].queues[1].size() +
                                engines_[e].queues[2].size());
    }
    if (!engines_[e].busy) {
        eq_.scheduleFunctionIn([this, e] { tryDispatch(e); }, 0);
    }
}

bool
CoherenceController::pickItem(Engine &e, DispatchItem &out)
{
    bool bus_waiting = !e.queues[QBusRequest].empty();
    if (params_.priorityArbitration) {
        if (bus_waiting && e.netBypass >= params_.livelockThreshold) {
            out = e.queues[QBusRequest].front();
            e.queues[QBusRequest].pop_front();
            e.netBypass = 0;
            ++statLivelockPromotions;
            return true;
        }
        for (unsigned q = 0; q < NumQueues; ++q) {
            if (e.queues[q].empty())
                continue;
            out = e.queues[q].front();
            e.queues[q].pop_front();
            if (q == QNetRequest && bus_waiting)
                ++e.netBypass;
            if (q == QBusRequest)
                e.netBypass = 0;
            return true;
        }
        return false;
    }
    // Plain FIFO across all three queues (ablation).
    int best = -1;
    Tick best_tick = maxTick;
    for (unsigned q = 0; q < NumQueues; ++q) {
        if (!e.queues[q].empty() &&
            e.queues[q].front().enqueueTick < best_tick) {
            best = static_cast<int>(q);
            best_tick = e.queues[q].front().enqueueTick;
        }
    }
    if (best < 0)
        return false;
    out = e.queues[best].front();
    e.queues[best].pop_front();
    return true;
}

void
CoherenceController::tryDispatch(unsigned engine_idx)
{
    Engine &e = engines_[engine_idx];
    if (e.busy || state_ == CcState::Crashed || deadForever_)
        return;
    if (stallHook_ &&
        (!e.queues[0].empty() || !e.queues[1].empty() ||
         !e.queues[2].empty())) {
        Tick stall = stallHook_();
        if (stall > 0) {
            // Injected engine stall: hold the engine busy without
            // dispatching, then re-attempt. Under a bounded retry
            // policy an endless stall streak escalates instead of
            // silently starving the queues.
            ++e.stallStreak;
            if (params_.retry.bounded() &&
                e.stallStreak > params_.retry.maxRetries) {
                fatal("cc %s: engine %u starved by %u consecutive "
                      "injected stalls (retry budget %u); queues "
                      "%zu/%zu/%zu", name_.c_str(), engine_idx,
                      e.stallStreak, params_.retry.maxRetries,
                      e.queues[0].size(), e.queues[1].size(),
                      e.queues[2].size());
            }
            e.busy = true;
            e.busyStart = eq_.curTick();
            eq_.scheduleFunctionIn(
                [this, engine_idx, ep = epoch_] {
                    if (ep != epoch_)
                        return; // engine died in a crash
                    Engine &en = engines_[engine_idx];
                    ccnuma_assert(en.busy);
                    en.busy = false;
                    en.occupancyTicks +=
                        eq_.curTick() - en.busyStart;
                    if (tracer_) {
                        tracer_->engineStall(
                            node_, engine_idx, en.busyStart,
                            eq_.curTick() - en.busyStart);
                    }
                    tryDispatch(engine_idx);
                },
                stall);
            return;
        }
    }
    e.stallStreak = 0;
    DispatchItem item;
    if (!pickItem(e, item))
        return;
    e.busy = true;
    e.busyStart = eq_.curTick();
    e.curHandler = 0xff;
    e.curExtraTargets = 0;
    e.queueDelaySum +=
        static_cast<double>(eq_.curTick() - item.enqueueTick);
    ++e.queueDelayCount;
    if (tracer_) {
        tracer_->queueWait(node_, engine_idx, item.srcQueue,
                           item.enqueueTick, eq_.curTick());
    }
    startItem(engine_idx, item);
}

void
CoherenceController::startItem(unsigned engine_idx, DispatchItem item)
{
    engines_[engine_idx].curLine = item.lineAddr;
    engines_[engine_idx].curLineValid = true;
    engines_[engine_idx].curItem = item;
    engines_[engine_idx].curItemValid = true;
    if (item.isBus && item.busCmd != BusCmd::WriteBack &&
        map_.homeOf(item.lineAddr) == node_) {
        auto it = deferredLocal_.find(item.lineAddr);
        ccnuma_assert(it != deferredLocal_.end());
        if (--it->second == 0)
            deferredLocal_.erase(it);
    }
    if (item.isBus)
        executeBusItem(engine_idx, item);
    else
        executeNetItem(engine_idx, item);
}

void
CoherenceController::parkAtHome(unsigned engine_idx,
                                DispatchItem &item)
{
    homeWaiting_[item.lineAddr].push_back(item);
    ++statParked;
    // The engine spent a dispatch-and-check on this; release it.
    finishHandler(engine_idx,
                  eq_.curTick() + params_.dispatchLatency +
                      model_.cost(SubOp::DispatchHandler) +
                      model_.cost(SubOp::ReadAssocRegs));
}

void
CoherenceController::closeHomeTxn(Addr line_addr, Tick t)
{
    homeBusy_.erase(line_addr);
    drainHomeWaiting(line_addr, t);
}

void
CoherenceController::drainHomeWaiting(Addr line_addr, Tick t)
{
    auto it = homeWaiting_.find(line_addr);
    if (it == homeWaiting_.end())
        return;
    ItemList waiting = takeList();
    waiting.swap(it->second);
    homeWaiting_.erase(it);
    replayToFront(std::move(waiting), t);
}

CoherenceController::ItemList
CoherenceController::takeList()
{
    if (spareLists_.empty())
        return {};
    ItemList list = std::move(spareLists_.back());
    spareLists_.pop_back();
    return list;
}

void
CoherenceController::recycleList(ItemList &&list)
{
    list.clear();
    spareLists_.push_back(std::move(list));
}

void
CoherenceController::replayToFront(ItemList &&list, Tick t)
{
    // Replay in arrival order; push_front in reverse order. (No
    // epoch guard: if a crash lands first, enqueue parks the items
    // with the rest of the outage's replay work.)
    eq_.scheduleFunction(
        [this, list = std::move(list)]() mutable {
            for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
                enqueue(rit->isBus ? QBusRequest : QNetRequest, *rit,
                        /*to_front=*/true);
            }
            recycleList(std::move(list));
        },
        t);
}

// ---------------------------------------------------------------------
// Handler execution
// ---------------------------------------------------------------------

void
CoherenceController::beginHandler(unsigned engine_idx, HandlerId h,
                                  Addr line, int extra_targets,
                                  CcBusOp bus_op, HandlerAction action)
{
    const HandlerSpec &spec = handlerSpec(h);
    Engine &en = engines_[engine_idx];
    en.curHandler = static_cast<std::uint8_t>(h);
    en.curExtraTargets = extra_targets;
    Exec &ex = en.exec;
    ex.engine = engine_idx;
    ex.handler = h;
    ex.lineAddr = line;
    ex.extraTargets = extra_targets;
    ex.busOp = bus_op;
    ex.version = 0;
    ex.fetchFailed = false;
    ex.fetchShared = false;
    ex.fetchDirty = false;
    ex.fetchId = 0;
    ex.action = std::move(action);

    Tick now = eq_.curTick();
    Tick pre_done = now + params_.dispatchLatency +
                    spec.preCost(model_, extra_targets);
    if (spec.readsDirectory)
        pre_done = dir_.scheduleRead(line, pre_done, nullptr);

    if (bus_op != CcBusOp::None) {
        eq_.scheduleFunction(
            [this, engine_idx, ep = epoch_] {
                if (ep != epoch_) {
                    // The handler died in a crash before its bus
                    // operation issued; its request replays fresh.
                    return;
                }
                Exec &e = engines_[engine_idx].exec;
                BusCmd bc = BusCmd::Read;
                switch (e.busOp) {
                  case CcBusOp::FetchRead: bc = BusCmd::Read; break;
                  case CcBusOp::FetchReadExcl:
                    bc = BusCmd::ReadExcl;
                    break;
                  case CcBusOp::InvalOnly: bc = BusCmd::Inval; break;
                  case CcBusOp::None: break;
                }
                e.fetchId = bus_.request(bc, e.lineAddr, busAgentId_,
                                         0, /*from_cc=*/true);
            },
            pre_done);
    } else {
        respondPhase(engine_idx, pre_done);
    }
}

void
CoherenceController::respondPhase(unsigned engine_idx, Tick t)
{
    eq_.scheduleFunction(
        [this, engine_idx, ep = epoch_] {
            if (ep != epoch_)
                return; // handler died in a crash
            Exec &e = engines_[engine_idx].exec;
            Tick now = eq_.curTick();
            if (e.action) {
                e.action(e, now);
                e.action.reset(); // release its captures now
            }
            const HandlerSpec &spec = handlerSpec(e.handler);
            Tick post = spec.postCost(model_);
            if (spec.movesData) {
                // Remainder of the line transfer after the critical
                // beat keeps the engine occupied (but the response
                // is already on its way). A protocol processor
                // additionally polls off-chip registers to confirm
                // the transfer completed.
                const BusParams &bp = bus_.params();
                post += (bp.lineBytes / bp.busWidthBytes - 1) *
                        bp.beatTicks;
                if (params_.engineType == EngineType::PP)
                    post += params_.ppTransferPoll;
            }
            finishHandler(engine_idx, now + post);
        },
        t);
}

void
CoherenceController::finishHandler(unsigned engine_idx, Tick free_at)
{
    eq_.scheduleFunction(
        [this, engine_idx, ep = epoch_] {
            if (ep != epoch_)
                return; // engine died in a crash
            Engine &e = engines_[engine_idx];
            ccnuma_assert(e.busy);
            e.busy = false;
            e.curLineValid = false;
            e.curItemValid = false;
            e.occupancyTicks += eq_.curTick() - e.busyStart;
            if (tracer_) {
                tracer_->engineSpan(node_, engine_idx, e.curHandler,
                                    e.curExtraTargets, e.busyStart,
                                    eq_.curTick());
                e.curHandler = 0xff;
                e.curExtraTargets = 0;
            }
            tryDispatch(engine_idx);
        },
        free_at);
}

// ---------------------------------------------------------------------
// Protocol decisions: local bus requests
// ---------------------------------------------------------------------

void
CoherenceController::executeBusItem(unsigned engine_idx,
                                    DispatchItem &item)
{
    const Addr line = item.lineAddr;

    // Slow-path (ablation) writeback / sharing-writeback send: the
    // engine spends a send handler where the direct data path would
    // have forwarded the data for free.
    if (item.busCmd == BusCmd::WriteBack) {
        beginHandler(engine_idx, HandlerId::BusReadRemote, line, 0,
                     CcBusOp::None, [this](Exec &ex, Tick t) {
                         const Msg &m = engines_[ex.engine].curItem.msg;
                         sendMsg(m.type, m.lineAddr, m.dst, node_,
                                 m.version, m.ownerRetains, t);
                     });
        return;
    }

    const NodeId home = map_.homeOf(line);
    const bool excl = item.busCmd == BusCmd::ReadExcl;

    if (home == node_) {
        if (homeBusy_.count(line)) {
            parkAtHome(engine_idx, item);
            return;
        }
        if (isLineDead(line)) {
            // Local processor request for a poisoned local line: the
            // machine's poison fence kills the blocked processors
            // and aborts their misses, then the deferred bus
            // transaction drains without installing anything (the
            // cache unit drops it via its poison-abort list).
            std::uint64_t bus_txn = item.busTxnId;
            ++statPoisonNacks;
            if (tracer_) {
                tracer_->faultEvent(obs::FaultKind::Poison, node_,
                                    line, eq_.curTick());
            }
            beginHandler(
                engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                CcBusOp::None,
                [this, line, bus_txn](Exec &, Tick t) {
                    if (poisonFence_)
                        poisonFence_(line);
                    bus_.deferredRespond(bus_txn, 0, t);
                    drainHomeWaiting(line, t);
                });
            return;
        }
        DirEntry &d = dir_.entry(line);
        switch (d.state) {
          case DirState::DirtyRemote: {
            NodeId owner = d.owner;
            HomeTxn txn;
            txn.requester = node_;
            txn.excl = excl;
            txn.localRequest = true;
            txn.busTxnId = item.busTxnId;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx, HandlerId::BusReadLocalDirtyRemote, line,
                0, CcBusOp::None,
                [this, line, owner, excl](Exec &, Tick t) {
                    sendMsg(excl ? MsgType::FwdReadExcl
                                 : MsgType::FwdRead,
                            line, owner, node_, 0, false, t);
                });
            return;
          }
          case DirState::SharedRemote:
            if (excl) {
                std::uint64_t targets = 0;
                for (NodeId n = 0; n < map_.numNodes(); ++n) {
                    if (d.isSharer(n))
                        targets |= 1ull << n;
                }
                ccnuma_assert(targets != 0);
                const int ntargets = std::popcount(targets);
                HomeTxn txn;
                txn.requester = node_;
                txn.excl = true;
                txn.localRequest = true;
                txn.busTxnId = item.busTxnId;
                txn.acksExpected = static_cast<unsigned>(ntargets);
                txn.original = item;
                homeBusy_[line] = txn;
                beginHandler(
                    engine_idx,
                    HandlerId::BusReadExclLocalCachedRemote, line,
                    ntargets,
                    // Fetch-exclusive: local copies acquired since
                    // the original bus snoop must die with the rest.
                    CcBusOp::FetchReadExcl,
                    [this, line, targets](Exec &ex, Tick t) {
                        auto hb = homeBusy_.find(line);
                        ccnuma_assert(hb != homeBusy_.end());
                        hb->second.dataVersion = ex.version;
                        hb->second.haveData = true;
                        sendInvals(line, targets, t);
                    });
                return;
            }
            // Local read of a shared-remote line should have been
            // supplied by memory; it reaches an engine only as a
            // replay after parking. Supply it from memory now.
            [[fallthrough]];
          case DirState::Home: {
            std::uint64_t bus_txn = item.busTxnId;
            // Hold a home transaction across the fetch: once this
            // engine dispatched, the deferredLocal_ guard is gone,
            // and without homeBusy_ a fresh local ReadExcl would
            // sail past busObserve and fill Modified straight from
            // memory while the fetch below carries the same line's
            // data to the parked requester — two Modified copies.
            HomeTxn txn;
            txn.requester = node_;
            txn.excl = excl;
            txn.localRequest = true;
            txn.busTxnId = item.busTxnId;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx,
                excl ? HandlerId::ReadExclFromOwnerForHome
                     : HandlerId::ReadFromOwnerForHome,
                line, 0,
                excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
                [this, line, bus_txn](Exec &ex, Tick t) {
                    ccnuma_assert(!ex.fetchFailed);
                    bus_.deferredRespond(bus_txn, ex.version, t);
                    closeHomeTxn(line, t);
                });
            return;
          }
        }
        return;
    }

    // A request for a line whose writeback we have not yet seen
    // acknowledged must wait: the home has to absorb the writeback
    // before it can serve us, and sending the request early would
    // present the home with a request from its recorded owner.
    if (wbBuffer_.count(line)) {
        wbWaiting_[line].push_back(item);
        ++statWbStalls;
        finishHandler(engine_idx,
                      eq_.curTick() + params_.dispatchLatency);
        return;
    }

    // Remote line: open (or join) a requester-side transaction.
    auto it = reqPending_.find(line);
    if (it != reqPending_.end()) {
        if (!it->second.excl && !excl) {
            it->second.busTxns.push_back(item.busTxnId);
            ++statMerged;
        } else {
            it->second.conflicting.push_back(item);
        }
        // Nothing further for the engine to do.
        finishHandler(engine_idx,
                      eq_.curTick() + params_.dispatchLatency);
        return;
    }

    // A request deferred earlier may find the line present in the
    // node by now (a concurrent transaction filled it, or the node
    // still owns it): serve it within the node instead of bothering
    // the home. Ownership migrates inside the node without a home
    // transaction, exactly as it would have on the snooping bus.
    const bool mod_local =
        probe_ != nullptr && probe_->lineModifiedLocally(line);
    const bool cached_local =
        mod_local ||
        (probe_ != nullptr && probe_->lineCachedLocally(line));
    if ((excl && mod_local) || (!excl && cached_local)) {
        std::uint64_t bus_txn = item.busTxnId;
        beginHandler(
            engine_idx,
            excl ? HandlerId::ReadExclFromOwnerForHome
                 : HandlerId::ReadFromOwnerForHome,
            line, 0,
            excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
            [this, line, home, bus_txn, excl](Exec &ex, Tick t) {
                if (ex.fetchFailed) {
                    // The copy evaporated between the probe and the
                    // fetch; try again from the top (the retry will
                    // stall on the writeback buffer or go remote).
                    ItemList retry = takeList();
                    retry.push_back(engines_[ex.engine].curItem);
                    replayToFront(std::move(retry), t);
                    return;
                }
                if (!excl && ex.fetchDirty) {
                    // The fetch demoted our Modified copy of a
                    // remote line; the dirty data travels home as a
                    // sharing writeback on the direct data path so
                    // the directory and memory stay truthful.
                    wbBuffer_[line] = WbEntry{ex.version};
                    ++statDirectWBs;
                    sendMsg(MsgType::SharingWB, line, home, node_,
                            ex.version, /*retains=*/true, t);
                }
                bus_.deferredRespond(bus_txn, ex.version, t);
            });
        return;
    }

    ReqPending &rp = reqPending_[line];
    rp.excl = excl;
    rp.busTxns.push_back(item.busTxnId);
    const bool resend = item.crashResend;
    beginHandler(engine_idx,
                 excl ? HandlerId::BusReadExclRemote
                      : HandlerId::BusReadRemote,
                 line, 0, CcBusOp::None,
                 [this, line, home, excl, resend](Exec &, Tick t) {
                     sendMsg(excl ? MsgType::ReadExclReq
                                  : MsgType::ReadReq,
                             line, home, node_, 0, false, t,
                             /*recovery_resend=*/resend);
                 });
}

// ---------------------------------------------------------------------
// Protocol decisions: network messages
// ---------------------------------------------------------------------

void
CoherenceController::completeRequesterFill(Addr line_addr,
                                           std::uint64_t version,
                                           Tick t)
{
    auto it = reqPending_.find(line_addr);
    ccnuma_assert(it != reqPending_.end());
    // The fill succeeded; any home-nack retry streak on the line is
    // over.
    retries_.clear(line_addr);
    for (std::uint64_t txn_id : it->second.busTxns)
        bus_.deferredRespond(txn_id, version, t);
    if (it->second.conflicting.empty()) {
        reqPending_.erase(it);
        return;
    }
    // Conflicting requests are all bus requests.
    ItemList conflicting = takeList();
    conflicting.swap(it->second.conflicting);
    reqPending_.erase(it);
    replayToFront(std::move(conflicting), t);
}

void
CoherenceController::sendInvals(Addr line, std::uint64_t targets,
                                Tick t)
{
    for (; targets != 0; targets &= targets - 1) {
        sendMsg(MsgType::InvalReq, line,
                static_cast<NodeId>(std::countr_zero(targets)), node_,
                0, false, t);
    }
}

void
CoherenceController::executeNetItem(unsigned engine_idx,
                                    DispatchItem &item)
{
    const Msg msg = item.msg;
    const Addr line = msg.lineAddr;
    ccnuma_trace(line,
                 "%8llu %s dispatch %s from node%u req=%u ver=%llu",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 msgTypeName(msg.type), msg.src, msg.requester,
                 (unsigned long long)msg.version);

    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::ReadExclReq: {
        // We are the home node.
        if (state_ == CcState::Recovering) {
            // The directory is being rebuilt; nothing it says about
            // this line can be trusted yet. Bounce the request with
            // a distinct nack so the requester's bounded-retry
            // policy re-presents it after the rebuild.
            const NodeId req = msg.requester;
            ++statRecoveryNacks;
            beginHandler(
                engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                CcBusOp::None,
                [this, line, req](Exec &, Tick t) {
                    sendMsg(MsgType::RecoveryNack, line, req, req, 0,
                            false, t);
                });
            return;
        }
        if (isLineDead(line)) {
            // The line's only up-to-date copy was consumed by an
            // uncorrectable error: fence the requester off the dead
            // data with a terminal nack (no retry will ever help).
            const NodeId req = msg.requester;
            ++statPoisonNacks;
            if (tracer_) {
                tracer_->faultEvent(obs::FaultKind::Poison, node_,
                                    line, eq_.curTick());
            }
            beginHandler(
                engine_idx, HandlerId::OwnerNackAtHome, line, 0,
                CcBusOp::None,
                [this, line, req](Exec &, Tick t) {
                    sendMsg(MsgType::PoisonNack, line, req, req, 0,
                            false, t);
                });
            return;
        }
        if (homeBusy_.count(line)) {
            parkAtHome(engine_idx, item);
            return;
        }
        const bool excl = msg.type == MsgType::ReadExclReq;
        const NodeId req = msg.requester;
        DirEntry &d = dir_.entry(line);

        if (d.state == DirState::DirtyRemote && d.owner == req &&
            msg.recoveryResend) {
            // The recorded owner lost its grant (a crash killed its
            // in-flight fill, or the reply died with our own card)
            // and is asking again: re-grant from memory, which still
            // holds the last version the owner ever confirmed.
            HomeTxn txn;
            txn.requester = req;
            txn.excl = excl;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx,
                excl ? HandlerId::RemoteReadExclToHomeUncached
                     : HandlerId::RemoteReadToHomeClean,
                line, 0,
                excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
                [this, line, req, excl](Exec &ex, Tick t) {
                    ccnuma_assert(!ex.fetchFailed);
                    sendMsg(excl ? MsgType::DataExclReply
                                 : MsgType::DataReply,
                            line, req, req, ex.version, false, t);
                    DirEntry &e = dir_.entry(line);
                    if (excl) {
                        e.state = DirState::DirtyRemote;
                        e.owner = req;
                        e.sharers = 0;
                    } else {
                        e.state = DirState::SharedRemote;
                        e.sharers = 0;
                        e.addSharer(req);
                    }
                    dir_.scheduleWrite(line, t);
                    closeHomeTxn(line, t);
                });
            return;
        }

        if (d.state == DirState::DirtyRemote && d.owner != req) {
            NodeId owner = d.owner;
            HomeTxn txn;
            txn.requester = req;
            txn.excl = excl;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx,
                excl ? HandlerId::RemoteReadExclToHomeDirty
                     : HandlerId::RemoteReadToHomeDirtyRemote,
                line, 0, CcBusOp::None,
                [this, line, owner, req, excl](Exec &, Tick t) {
                    sendMsg(excl ? MsgType::FwdReadExcl
                                 : MsgType::FwdRead,
                            line, owner, req, 0, false, t);
                });
            return;
        }
        if (d.state == DirState::DirtyRemote) {
            // The requester is the recorded owner: its request raced
            // ahead of the fill that made it the owner. Bounce it
            // back; the requester serves it within its node.
            beginHandler(engine_idx, HandlerId::OwnerNackAtHome,
                         line, 0, CcBusOp::None,
                         [this, line, req](Exec &, Tick t) {
                             sendMsg(MsgType::HomeNack, line, req,
                                     req, 0, false, t);
                             drainHomeWaiting(line, t);
                         });
            return;
        }

        if (!excl) {
            // Clean at home (possibly with remote sharers).
            HomeTxn txn;
            txn.requester = req;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx, HandlerId::RemoteReadToHomeClean, line, 0,
                CcBusOp::FetchRead,
                [this, line, req](Exec &ex, Tick t) {
                    ccnuma_assert(!ex.fetchFailed);
                    sendMsg(MsgType::DataReply, line, req, req,
                            ex.version, false, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::SharedRemote;
                    e.addSharer(req);
                    dir_.scheduleWrite(line, t);
                    closeHomeTxn(line, t);
                });
            return;
        }

        // Read-exclusive at home.
        std::uint64_t targets = 0;
        if (d.state == DirState::SharedRemote) {
            for (NodeId n = 0; n < map_.numNodes(); ++n) {
                if (d.isSharer(n) && n != req)
                    targets |= 1ull << n;
            }
        }
        if (targets == 0) {
            HomeTxn txn;
            txn.requester = req;
            txn.excl = true;
            txn.original = item;
            homeBusy_[line] = txn;
            beginHandler(
                engine_idx, HandlerId::RemoteReadExclToHomeUncached,
                line, 0, CcBusOp::FetchReadExcl,
                [this, line, req](Exec &ex, Tick t) {
                    ccnuma_assert(!ex.fetchFailed);
                    sendMsg(MsgType::DataExclReply, line, req, req,
                            ex.version, false, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::DirtyRemote;
                    e.owner = req;
                    e.sharers = 0;
                    dir_.scheduleWrite(line, t);
                    closeHomeTxn(line, t);
                });
            return;
        }
        const int ntargets = std::popcount(targets);
        HomeTxn txn;
        txn.requester = req;
        txn.excl = true;
        txn.acksExpected = static_cast<unsigned>(ntargets);
        txn.original = item;
        homeBusy_[line] = txn;
        beginHandler(
            engine_idx, HandlerId::RemoteReadExclToHomeShared, line,
            ntargets, CcBusOp::FetchReadExcl,
            [this, line, targets](Exec &ex, Tick t) {
                auto hb = homeBusy_.find(line);
                ccnuma_assert(hb != homeBusy_.end());
                hb->second.dataVersion = ex.version;
                hb->second.haveData = true;
                sendInvals(line, targets, t);
            });
        return;
      }

      case MsgType::FwdRead:
      case MsgType::FwdReadExcl: {
        // We are (or were) the owner of a remote line.
        const bool excl = msg.type == MsgType::FwdReadExcl;
        const NodeId home = msg.src;
        const NodeId req = msg.requester;
        const bool to_home = req == home;

        const bool cached =
            probe_ != nullptr && probe_->lineCachedLocally(line);
        if (!cached) {
            if (auto wb = wbBuffer_.find(line);
                wb != wbBuffer_.end()) {
                // The line left our caches entirely; its data is
                // still in the controller's writeback buffer.
                // Supply from there (no local copy is retained).
                std::uint64_t version = wb->second.version;
                beginHandler(
                    engine_idx,
                    excl ? (to_home
                                ? HandlerId::ReadExclFromOwnerForHome
                                : HandlerId::
                                      ReadExclFromOwnerForRemote)
                         : (to_home
                                ? HandlerId::ReadFromOwnerForHome
                                : HandlerId::ReadFromOwnerForRemote),
                    line, 0, CcBusOp::None,
                    [this, line, home, req, excl, to_home,
                     version](Exec &, Tick t) {
                        if (excl) {
                            if (to_home) {
                                sendMsg(
                                    MsgType::OwnerDataExclToHome,
                                    line, home, req, version, false,
                                    t);
                            } else {
                                sendMsg(MsgType::DataExclReply,
                                        line, req, req, version,
                                        false, t);
                                sendMsg(MsgType::OwnershipAck, line,
                                        home, req, 0, false, t);
                            }
                        } else {
                            if (to_home) {
                                sendMsg(MsgType::OwnerDataToHome,
                                        line, home, req, version,
                                        false, t);
                            } else {
                                sendMsg(MsgType::DataReply, line,
                                        req, req, version, false,
                                        t);
                                sendMsg(MsgType::SharingWB, line,
                                        home, req, version, false,
                                        t);
                            }
                        }
                    });
                return;
            }
            // Neither cached nor buffered: stale forward; the home
            // retries after our writeback lands.
            beginHandler(engine_idx,
                         excl ? HandlerId::ReadExclFromOwnerForHome
                              : HandlerId::ReadFromOwnerForHome,
                         line, 0, CcBusOp::None,
                         [this, line, home](Exec &, Tick t) {
                             sendMsg(MsgType::OwnerNack, line, home,
                                     node_, 0, false, t);
                         });
            return;
        }

        beginHandler(
            engine_idx,
            excl ? (to_home ? HandlerId::ReadExclFromOwnerForHome
                            : HandlerId::ReadExclFromOwnerForRemote)
                 : (to_home ? HandlerId::ReadFromOwnerForHome
                            : HandlerId::ReadFromOwnerForRemote),
            line, 0,
            excl ? CcBusOp::FetchReadExcl : CcBusOp::FetchRead,
            [this, line, home, req, excl, to_home](Exec &ex, Tick t) {
                if (ex.fetchFailed) {
                    // Lost a race with a local eviction; the home
                    // retries once the writeback lands.
                    sendMsg(MsgType::OwnerNack, line, home, node_, 0,
                            false, t);
                    return;
                }
                if (excl) {
                    if (to_home) {
                        sendMsg(MsgType::OwnerDataExclToHome, line,
                                home, req, ex.version, false, t);
                    } else {
                        sendMsg(MsgType::DataExclReply, line, req,
                                req, ex.version, false, t);
                        sendMsg(MsgType::OwnershipAck, line, home,
                                req, 0, false, t);
                    }
                } else {
                    bool retains = ex.fetchShared;
                    if (to_home) {
                        sendMsg(MsgType::OwnerDataToHome, line, home,
                                req, ex.version, retains, t);
                    } else {
                        sendMsg(MsgType::DataReply, line, req, req,
                                ex.version, false, t);
                        sendMsg(MsgType::SharingWB, line, home, req,
                                ex.version, retains, t);
                    }
                }
            });
        return;
      }

      case MsgType::InvalReq: {
        const NodeId home = msg.src;
        beginHandler(engine_idx, HandlerId::InvalRequestAtSharer,
                     line, 0, CcBusOp::InvalOnly,
                     [this, line, home](Exec &, Tick t) {
                         sendMsg(MsgType::InvalAck, line, home,
                                 node_, 0, false, t);
                     });
        return;
      }

      case MsgType::InvalAck: {
        auto hb = homeBusy_.find(line);
        if (hb == homeBusy_.end() && strayDrop("InvalAck")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(hb != homeBusy_.end());
        ccnuma_assert(hb->second.acksExpected > 0);
        if (--hb->second.acksExpected > 0) {
            beginHandler(engine_idx, HandlerId::InvalAckMoreExpected,
                         line, 0, CcBusOp::None, nullptr);
            return;
        }
        const HomeTxn &txn = hb->second;
        const bool have_data = txn.haveData;
        const std::uint64_t data_version = txn.dataVersion;
        if (txn.localRequest) {
            const std::uint64_t bus_txn = txn.busTxnId;
            beginHandler(
                engine_idx, HandlerId::InvalAckLastLocal, line, 0,
                CcBusOp::None,
                [this, line, have_data, data_version,
                 bus_txn](Exec &, Tick t) {
                    ccnuma_assert(have_data);
                    bus_.deferredRespond(bus_txn, data_version, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::Home;
                    e.sharers = 0;
                    dir_.scheduleWrite(line, t);
                    closeHomeTxn(line, t);
                });
        } else {
            const NodeId requester = txn.requester;
            beginHandler(
                engine_idx, HandlerId::InvalAckLastRemote, line, 0,
                CcBusOp::None,
                [this, line, have_data, data_version,
                 requester](Exec &, Tick t) {
                    ccnuma_assert(have_data);
                    sendMsg(MsgType::DataExclReply, line, requester,
                            requester, data_version, false, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::DirtyRemote;
                    e.owner = requester;
                    e.sharers = 0;
                    dir_.scheduleWrite(line, t);
                    closeHomeTxn(line, t);
                });
        }
        return;
      }

      case MsgType::DataReply:
      case MsgType::DataExclReply: {
        if (!reqPending_.count(line) && strayDrop("data reply")) {
            // The requester state died in a crash; the replayed
            // request will be re-granted (Msg::recoveryResend).
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        const bool excl = msg.type == MsgType::DataExclReply;
        std::uint64_t version = msg.version;
        // An exclusive grant whose request was parked behind an
        // earlier read transaction may find Shared copies that local
        // fills re-established after the upgrade's original bus
        // snoop; they must die before the Modified fill (the home
        // only invalidates REMOTE sharers). In the unconflicted path
        // no local copy can exist here — the requester dropped its
        // own copy at miss issue and the snoop killed the rest — so
        // the extra bus invalidation never fires.
        const bool stale_local = excl && probe_ != nullptr &&
                                 probe_->lineCachedLocally(line);
        beginHandler(
            engine_idx,
            excl ? HandlerId::DataReplyForRemoteReadExcl
                 : HandlerId::DataReplyForRemoteRead,
            line, 0,
            stale_local ? CcBusOp::InvalOnly : CcBusOp::None,
            [this, line, version](Exec &, Tick t) {
                completeRequesterFill(line, version, t);
            });
        return;
      }

      case MsgType::OwnerDataToHome: {
        auto hb = homeBusy_.find(line);
        if (hb == homeBusy_.end() && strayDrop("OwnerDataToHome")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(hb != homeBusy_.end());
        ccnuma_assert(hb->second.localRequest && !hb->second.excl);
        const std::uint64_t bus_txn = hb->second.busTxnId;
        retries_.clear(line); // forward finally answered

        NodeId owner = msg.src;
        bool retains = msg.ownerRetains;
        std::uint64_t version = msg.version;
        beginHandler(
            engine_idx, HandlerId::OwnerDataToHomeRead, line, 0,
            CcBusOp::None,
            [this, line, bus_txn, owner, retains, version](Exec &,
                                                          Tick t) {
                bus_.deferredRespond(bus_txn, version, t);
                // Memory reflects the owner's data (posted write
                // riding the same transfer).
                writeHomeMemory(line, version, t);
                DirEntry &e = dir_.entry(line);
                if (retains) {
                    e.state = DirState::SharedRemote;
                    e.sharers = 0;
                    e.addSharer(owner);
                } else {
                    e.state = DirState::Home;
                    e.sharers = 0;
                }
                dir_.scheduleWrite(line, t);
                closeHomeTxn(line, t);
            });
        return;
      }

      case MsgType::OwnerDataExclToHome: {
        auto hb = homeBusy_.find(line);
        if (hb == homeBusy_.end() &&
            strayDrop("OwnerDataExclToHome")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(hb != homeBusy_.end());
        ccnuma_assert(hb->second.localRequest && hb->second.excl);
        const std::uint64_t bus_txn = hb->second.busTxnId;
        retries_.clear(line); // forward finally answered

        std::uint64_t version = msg.version;
        beginHandler(
            engine_idx, HandlerId::OwnerDataToHomeReadExcl, line, 0,
            CcBusOp::None,
            [this, line, bus_txn, version](Exec &, Tick t) {
                bus_.deferredRespond(bus_txn, version, t);
                DirEntry &e = dir_.entry(line);
                e.state = DirState::Home;
                e.sharers = 0;
                dir_.scheduleWrite(line, t);
                closeHomeTxn(line, t);
            });
        return;
      }

      case MsgType::SharingWB: {
        if (state_ == CcState::Recovering) {
            // The owner/sharer picture is still being rebuilt; hold
            // the writeback until the directory can judge whether it
            // applies. The sender's buffer entry stays reserved
            // until we ack, preserving request-follows-writeback
            // ordering across the outage.
            rebuildParkedWb_.push_back(msg);
            finishHandler(engine_idx,
                          eq_.curTick() + params_.dispatchLatency);
            return;
        }
        auto hb = homeBusy_.find(line);
        DirEntry &d = dir_.entry(line);
        const NodeId owner = msg.src;
        // A sharing writeback closing a forwarded read carries the
        // remote requester's id; a spontaneous demotion writeback
        // carries the sender's own id. Only the former completes the
        // active home transaction.
        const bool closes = hb != homeBusy_.end() &&
                            !hb->second.excl &&
                            !hb->second.localRequest &&
                            msg.requester != msg.src &&
                            msg.requester == hb->second.requester;
        if (closes) {
            const NodeId requester = hb->second.requester;
            bool retains = msg.ownerRetains;
            std::uint64_t version = msg.version;
            retries_.clear(line); // forward finally answered
            beginHandler(
                engine_idx,
                HandlerId::OwnerWriteBackToHomeRemoteRead, line, 0,
                CcBusOp::None,
                [this, line, requester, owner, retains,
                 version](Exec &, Tick t) {
                    writeHomeMemory(line, version, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::SharedRemote;
                    e.sharers = 0;
                    e.addSharer(requester);
                    if (retains)
                        e.addSharer(owner);
                    dir_.scheduleWrite(line, t);
                    sendMsg(MsgType::WriteBackAck, line, owner,
                            owner, 0, false, t);
                    closeHomeTxn(line, t);
                });
            return;
        }
        // Spontaneous demotion (local read of a dirty line at the
        // owner). Apply only when the directory still records the
        // sender as owner; otherwise the writeback is stale.
        bool applies = d.state == DirState::DirtyRemote &&
                       d.owner == owner;
        bool retains = msg.ownerRetains;
        std::uint64_t version = msg.version;
        beginHandler(
            engine_idx, HandlerId::SharingWriteBackAtHome, line, 0,
            CcBusOp::None,
            [this, line, owner, applies, retains, version](Exec &,
                                                           Tick t) {
                if (applies) {
                    writeHomeMemory(line, version, t);
                    DirEntry &e = dir_.entry(line);
                    if (retains) {
                        e.state = DirState::SharedRemote;
                        e.sharers = 0;
                        e.addSharer(owner);
                    } else {
                        e.state = DirState::Home;
                        e.sharers = 0;
                    }
                    dir_.scheduleWrite(line, t);
                }
                sendMsg(MsgType::WriteBackAck, line, owner, owner, 0,
                        false, t);
            });
        return;
      }

      case MsgType::OwnershipAck: {
        auto hb = homeBusy_.find(line);
        if (hb == homeBusy_.end() && strayDrop("OwnershipAck")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(hb != homeBusy_.end());
        ccnuma_assert(hb->second.excl && !hb->second.localRequest);
        const NodeId requester = hb->second.requester;
        retries_.clear(line); // forward finally answered

        beginHandler(
            engine_idx, HandlerId::OwnerAckToHomeRemoteReadExcl, line,
            0, CcBusOp::None,
            [this, line, requester](Exec &, Tick t) {
                DirEntry &e = dir_.entry(line);
                e.state = DirState::DirtyRemote;
                e.owner = requester;
                e.sharers = 0;
                dir_.scheduleWrite(line, t);
                closeHomeTxn(line, t);
            });
        return;
      }

      case MsgType::WriteBack: {
        if (state_ == CcState::Recovering) {
            rebuildParkedWb_.push_back(msg);
            finishHandler(engine_idx,
                          eq_.curTick() + params_.dispatchLatency);
            return;
        }
        DirEntry &d = dir_.entry(line);
        const NodeId owner = msg.src;
        bool applies = d.state == DirState::DirtyRemote &&
                       d.owner == owner;
        std::uint64_t version = msg.version;
        beginHandler(
            engine_idx, HandlerId::WriteBackAtHome, line, 0,
            CcBusOp::None,
            [this, line, owner, applies, version](Exec &, Tick t) {
                if (applies) {
                    writeHomeMemory(line, version, t);
                    DirEntry &e = dir_.entry(line);
                    e.state = DirState::Home;
                    e.sharers = 0;
                    dir_.scheduleWrite(line, t);
                }
                sendMsg(MsgType::WriteBackAck, line, owner, owner, 0,
                        false, t);
            });
        return;
      }

      case MsgType::WriteBackAck:
        // Handled without dispatch in netReceive.
        panic("cc %s: WriteBackAck reached the dispatch path",
              name_.c_str());

      case MsgType::HomeNack:
      case MsgType::RecoveryNack: {
        // HomeNack: our request raced ahead of our own ownership
        // fill; redo it from the top (the local probe will now find
        // the copy, or the retry will stall behind the writeback
        // buffer). RecoveryNack: the home fenced us out while it
        // rebuilds its directory; same teardown-and-retry, so the
        // bounded backoff naturally rides out the rebuild. Under a
        // bounded retry policy the re-attempt backs off
        // exponentially and eventually escalates.
        if (!reqPending_.count(line) && strayDrop("nack")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(reqPending_.count(line));
        const Tick backoff = retryDelay(
            line, msg.type == MsgType::RecoveryNack
                      ? "request nacked by a recovering home"
                      : "home-nacked request");
        beginHandler(
            engine_idx, HandlerId::OwnerNackAtHome, line, 0,
            CcBusOp::None,
            [this, line, backoff](Exec &, Tick t) {
                auto it = reqPending_.find(line);
                ccnuma_assert(it != reqPending_.end());
                const ReqPending &rp = it->second;
                // Re-present every request from the top: merged
                // reads first, then the conflicting requests, each
                // pushed to the queue front (so listed last first).
                ItemList retry = takeList();
                for (std::uint64_t txn : rp.busTxns) {
                    DispatchItem item;
                    item.isBus = true;
                    item.busTxnId = txn;
                    item.lineAddr = line;
                    item.busCmd =
                        rp.excl ? BusCmd::ReadExcl : BusCmd::Read;
                    retry.push_back(item);
                }
                retry.insert(retry.end(), rp.conflicting.begin(),
                             rp.conflicting.end());
                reqPending_.erase(it);
                replayToFront(std::move(retry), t + backoff);
            });
        return;
      }

      case MsgType::PoisonNack: {
        // The home fenced us off a dead line: the data is gone for
        // good and no retry will resurrect it. Tear down everything
        // pending on the line, let the machine's poison fence kill
        // the processors blocked on it, and complete the deferred
        // bus transactions with a dummy response so the bus drains
        // (the cache units drop them via their poison-abort lists).
        auto it = reqPending_.find(line);
        if (it == reqPending_.end() && strayDrop("PoisonNack")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ccnuma_assert(it != reqPending_.end());
        // Every deferred bus transaction on the line, merged reads
        // first, then the conflicting requests.
        ItemList dead = takeList();
        for (std::uint64_t txn : it->second.busTxns) {
            DispatchItem di;
            di.isBus = true;
            di.busTxnId = txn;
            dead.push_back(di);
        }
        dead.insert(dead.end(), it->second.conflicting.begin(),
                    it->second.conflicting.end());
        reqPending_.erase(it);
        missLadders_.erase(line);
        retries_.clear(line);
        beginHandler(
            engine_idx, HandlerId::OwnerNackAtHome, line, 0,
            CcBusOp::None,
            [this, line, dead = std::move(dead)](Exec &,
                                                 Tick t) mutable {
                if (poisonFence_)
                    poisonFence_(line);
                for (const auto &c : dead) {
                    if (c.busTxnId != 0)
                        bus_.deferredRespond(c.busTxnId, 0, t);
                }
                recycleList(std::move(dead));
            });
        return;
      }

      case MsgType::OwnerNack: {
        auto hb = homeBusy_.find(line);
        if (hb == homeBusy_.end() && strayDrop("OwnerNack")) {
            finishHandler(engine_idx, eq_.curTick());
            return;
        }
        ++statNacks;
        ccnuma_assert(hb != homeBusy_.end());
        const Tick backoff = retryDelay(line, "owner-nacked forward");
        beginHandler(
            engine_idx, HandlerId::OwnerNackAtHome, line, 0,
            CcBusOp::None,
            [this, line, backoff](Exec &, Tick t) {
                auto open = homeBusy_.find(line);
                ccnuma_assert(open != homeBusy_.end());
                ItemList retry = takeList();
                retry.push_back(open->second.original);
                closeHomeTxn(line, t);
                replayToFront(std::move(retry), t + backoff);
            });
        return;
      }

      // The recovery handlers below read their message from the
      // engine's item in flight rather than capturing it.
      case MsgType::DirProbe: {
        // A restarted home is rebuilding its directory: report every
        // local copy of a line homed there.
        beginHandler(engine_idx, HandlerId::DirProbeAtSharer, line, 0,
                     CcBusOp::None, [this](Exec &ex, Tick t) {
                         answerDirProbe(
                             engines_[ex.engine].curItem.msg, t);
                     });
        return;
      }

      case MsgType::DirProbeResp: {
        beginHandler(engine_idx, HandlerId::DirProbeRespAtHome, line,
                     0, CcBusOp::None, [this](Exec &ex, Tick t) {
                         const Msg &m = engines_[ex.engine].curItem.msg;
                         applyProbeResp(m);
                         dir_.scheduleWrite(m.lineAddr, t);
                         maybeAdvanceRebuild(t);
                     });
        return;
      }

      case MsgType::DirProbeDone: {
        beginHandler(
            engine_idx, HandlerId::DirProbeRespAtHome, line, 0,
            CcBusOp::None, [this](Exec &ex, Tick t) {
                ccnuma_assert(state_ == CcState::Recovering);
                ccnuma_assert(probeDonesOutstanding_ > 0);
                --probeDonesOutstanding_;
                probeRespsExpected_ +=
                    engines_[ex.engine].curItem.msg.version;
                maybeAdvanceRebuild(t);
            });
        return;
      }

      case MsgType::RecoveryProbe:
      case MsgType::RecoveryProbeAck:
        // Answered below dispatch in netReceive.
        panic("cc %s: %s reached the dispatch path", name_.c_str(),
              msgTypeName(msg.type));
    }
    panic("cc %s: unhandled message type %s", name_.c_str(),
          msgTypeName(msg.type));
}

// ---------------------------------------------------------------------
// Fail-stop crash recovery (PR 6)
// ---------------------------------------------------------------------

void
CoherenceController::crash(bool lose_directory)
{
    ccnuma_assert(params_.recoveryEnabled);
    ccnuma_assert(state_ == CcState::Normal && !deadForever_);
    ++statCrashes;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Crash, node_, 0,
                            eq_.curTick());
    }
    // Invalidate every scheduled continuation of in-flight handlers:
    // their lambdas captured the old epoch and now no-op (the one
    // holding a raw Exec deletes it). Pre-crash sendMsg events are
    // deliberately not guarded — those messages already left the
    // card's protocol logic for the network interface.
    ++epoch_;
    state_ = CcState::Crashed;
    dirLost_ = lose_directory;
    if (xport_ != nullptr)
        xport_->fenceNode(node_, true);

    // Collect everything this controller still owes an answer for:
    // local processor transactions awaiting a deferred response and
    // home-side requests it accepted responsibility for. Network
    // items are dropped — the transport re-delivers them after the
    // fence lifts. Bus transaction ids dedup the sweep (one request
    // can appear both in a transient map and in an engine).
    std::unordered_set<std::uint64_t> seen;
    auto keep = [&](const DispatchItem &it) {
        if (!it.isBus) {
            // A frame the transport already delivered (and
            // acknowledged) is never re-delivered, so anything whose
            // sender waits indefinitely must be parked for replay:
            // writebacks (the sender's buffer entry stays reserved
            // until we ack) and home-issued forwards/invalidations
            // (the home transaction blocks until we answer; homes
            // run no retry timer). Plain requests are re-sent by the
            // requester's miss ladder and stale responses by the
            // recovery-resend path, so those are safely dropped.
            switch (it.msg.type) {
              case MsgType::WriteBack:
              case MsgType::SharingWB:
              case MsgType::FwdRead:
              case MsgType::FwdReadExcl:
              case MsgType::InvalReq:
                crashReplay_.push_back(it);
                break;
              default:
                ++statCrashDropped;
            }
            return;
        }
        if (it.busTxnId != 0 && !seen.insert(it.busTxnId).second)
            return;
        DispatchItem r = it;
        r.crashResend = true;
        crashReplay_.push_back(r);
    };

    for (auto &e : engines_) {
        if (e.curItemValid)
            keep(e.curItem);
        // A completion for this fetch now finds no engine and counts
        // as a stray drop.
        e.exec.fetchId = 0;
        e.exec.action.reset();
        e.busy = false;
        e.curItemValid = false;
        e.curLineValid = false;
        e.curHandler = 0xff;
        e.curExtraTargets = 0;
        e.netBypass = 0;
        e.stallStreak = 0;
        for (auto &q : e.queues) {
            for (auto &it : q)
                keep(it);
            q.clear();
        }
    }
    for (auto &[line, hb] : homeBusy_) {
        // A local request still needs its bus response. A remote
        // requester's transaction is simply dropped: the requester's
        // miss timer resends it with Msg::recoveryResend set.
        if (hb.localRequest)
            keep(hb.original);
        else
            ++statCrashDropped;
    }
    homeBusy_.clear();
    for (auto &[line, q] : homeWaiting_) {
        for (auto &it : q)
            keep(it);
    }
    homeWaiting_.clear();
    for (auto &[line, q] : wbWaiting_) {
        for (auto &it : q)
            keep(it);
    }
    wbWaiting_.clear();
    for (auto &[line, rp] : reqPending_) {
        for (std::uint64_t txn : rp.busTxns) {
            DispatchItem it;
            it.isBus = true;
            it.busTxnId = txn;
            it.lineAddr = line;
            it.busCmd = rp.excl ? BusCmd::ReadExcl : BusCmd::Read;
            keep(it);
        }
        for (auto &c : rp.conflicting)
            keep(c);
    }
    reqPending_.clear();
    deferredLocal_.clear();
    missLadders_.clear();
    // All in-flight operations died with the card; their per-line
    // retry streaks are meaningless now.
    retries_.clearAll();
    // The writeback buffer survives: it is bus-side data-path SRAM,
    // and its entries are the only copy of evicted dirty lines.

    if (lose_directory)
        dir_.invalidateAll();

    ccnuma_trace(0, "%8llu %s CRASH (directory %s), %zu items parked",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 lose_directory ? "lost" : "intact",
                 crashReplay_.size());
}

void
CoherenceController::restart()
{
    ccnuma_assert(state_ == CcState::Crashed && !deadForever_);
    restartTick_ = eq_.curTick();
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::Restart, node_, 0,
                            eq_.curTick());
    }
    if (xport_ != nullptr)
        xport_->fenceNode(node_, false);
    if (!dirLost_) {
        state_ = CcState::Normal;
        replayAfterRestart(eq_.curTick());
        return;
    }
    dirLost_ = false;
    state_ = CcState::Recovering;
    probePendingPeers_.clear();
    probeDonesOutstanding_ = 0;
    probeRespsExpected_ = 0;
    probeRespsApplied_ = 0;
    for (NodeId n = 0; n < map_.numNodes(); ++n) {
        if (n != node_)
            probePendingPeers_.push_back(n);
    }
    ccnuma_trace(0, "%8llu %s RESTART: rebuilding directory from %zu "
                 "peers", (unsigned long long)eq_.curTick(),
                 name_.c_str(), probePendingPeers_.size());
    if (probePendingPeers_.empty())
        finishRebuild(eq_.curTick());
    else
        sendNextProbeWave(eq_.curTick());
}

void
CoherenceController::sendNextProbeWave(Tick t)
{
    ccnuma_assert(state_ == CcState::Recovering);
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::RebuildWave, node_, 0,
                            t);
    }
    unsigned wave =
        params_.probeFanout == 0
            ? static_cast<unsigned>(probePendingPeers_.size())
            : params_.probeFanout;
    while (wave-- > 0 && !probePendingPeers_.empty()) {
        NodeId peer = probePendingPeers_.front();
        probePendingPeers_.pop_front();
        ++probeDonesOutstanding_;
        sendMsg(MsgType::DirProbe, 0, peer, node_, 0, false, t);
    }
}

void
CoherenceController::answerDirProbe(const Msg &msg, Tick t)
{
    const NodeId home = msg.src;
    std::uint64_t count = 0;
    // Msg::ownerRetains doubles as the dirty flag in a probe
    // response: true means this node holds the only valid data.
    if (cacheScan_) {
        cacheScan_(home, [&](Addr l, bool modified,
                             std::uint64_t ver) {
            sendMsg(MsgType::DirProbeResp, l, home, node_, ver,
                    /*retains=*/modified, t);
            ++count;
        });
    }
    // The writeback buffer holds evicted dirty lines whose WriteBack
    // message the crashed home never absorbed; report them as owned
    // here so the rebuilt directory accepts the parked writeback.
    for (const auto &[l, wb] : wbBuffer_) {
        if (map_.homeOf(l) == home) {
            sendMsg(MsgType::DirProbeResp, l, home, node_,
                    wb.version, /*retains=*/true, t);
            ++count;
        }
    }
    sendMsg(MsgType::DirProbeDone, 0, home, node_, count, false, t);
}

void
CoherenceController::applyProbeResp(const Msg &msg)
{
    ccnuma_assert(state_ == CcState::Recovering);
    DirEntry &e = dir_.entry(msg.lineAddr);
    if (msg.ownerRetains) {
        // Dirty at the responder: it is the owner.
        e.state = DirState::DirtyRemote;
        e.owner = msg.src;
        e.sharers = 0;
    } else if (e.state != DirState::DirtyRemote) {
        e.state = DirState::SharedRemote;
        e.addSharer(msg.src);
    }
    ++probeRespsApplied_;
    ++statRebuildLines;
}

void
CoherenceController::maybeAdvanceRebuild(Tick t)
{
    if (state_ != CcState::Recovering)
        return;
    if (probeDonesOutstanding_ > 0 ||
        probeRespsApplied_ < probeRespsExpected_)
        return;
    if (!probePendingPeers_.empty())
        sendNextProbeWave(t);
    else
        finishRebuild(t);
}

void
CoherenceController::finishRebuild(Tick t)
{
    ccnuma_assert(state_ == CcState::Recovering);
    ++statDirRebuilds;
    if (tracer_) {
        tracer_->faultEvent(obs::FaultKind::RebuildDone, node_, 0,
                            t);
    }
    const Tick latency = t - restartTick_;
    reconstructionTicksMax_ =
        std::max(reconstructionTicksMax_, latency);
    ccnuma_trace(0, "%8llu %s REBUILD complete in %llu ticks",
                 (unsigned long long)t, name_.c_str(),
                 (unsigned long long)latency);
    // Cross-check the rebuilt map against the checker's shadow
    // directory before trusting it with live traffic.
    if (rebuildCheckHook_)
        rebuildCheckHook_(node_);
    state_ = CcState::Normal;
    replayAfterRestart(t);
}

void
CoherenceController::replayAfterRestart(Tick t)
{
    ccnuma_assert(state_ == CcState::Normal);
    std::deque<DispatchItem> items = std::move(crashReplay_);
    crashReplay_.clear();
    std::deque<Msg> wbs = std::move(rebuildParkedWb_);
    rebuildParkedWb_.clear();
    if (items.empty() && wbs.empty())
        return;
    eq_.scheduleFunction(
        [this, items, wbs] {
            // Writebacks first: they carry data the rebuilt
            // directory already expects from their senders.
            for (const auto &m : wbs) {
                DispatchItem it;
                it.msg = m;
                it.lineAddr = m.lineAddr;
                enqueue(m.type == MsgType::WriteBack ? QNetRequest
                                                     : QNetResponse,
                        it);
            }
            for (const auto &it : items) {
                // A deferred read the card answered in its final
                // ticks before the crash (response issued, engine
                // not yet released) needs nothing more: the data
                // phase completes on the bus regardless. Replaying
                // it would answer the transaction twice. WriteBack
                // and Inval items keep their network obligations
                // even though their address phases closed long ago.
                if (it.isBus && it.busTxnId != 0 &&
                    (it.busCmd == BusCmd::Read ||
                     it.busCmd == BusCmd::ReadExcl) &&
                    (!bus_.isOpen(it.busTxnId) ||
                     bus_.fillScheduled(it.busTxnId))) {
                    ccnuma_trace(it.lineAddr,
                                 "%8llu %s replay elides answered "
                                 "bus txn %llu",
                                 (unsigned long long)eq_.curTick(),
                                 name_.c_str(),
                                 (unsigned long long)it.busTxnId);
                    continue;
                }
                unsigned q = QBusRequest;
                if (!it.isBus) {
                    q = it.msg.type == MsgType::SharingWB
                            ? QNetResponse
                            : QNetRequest;
                }
                enqueue(q, it);
            }
        },
        t);
}

void
CoherenceController::missTimeout(Addr line_addr)
{
    if (!params_.recoveryEnabled || state_ != CcState::Normal ||
        deadForever_) {
        return;
    }
    auto it = reqPending_.find(line_addr);
    if (it == reqPending_.end())
        return; // the timer raced with the fill
    ++statMissTimeouts;
    MissLadder &lad = missLadders_[line_addr];
    const NodeId home = map_.homeOf(line_addr);
    const bool excl = it->second.excl;
    if (lad.resends < params_.timeoutRetries) {
        ++lad.resends;
        ++statTimeoutResends;
        sendMsg(excl ? MsgType::ReadExclReq : MsgType::ReadReq,
                line_addr, home, node_, 0, false, eq_.curTick(),
                /*recovery_resend=*/true);
        return;
    }
    if (lad.probes < params_.probeRetries) {
        ++lad.probes;
        ++statRecoveryProbes;
        sendMsg(MsgType::RecoveryProbe, line_addr, home, node_, 0,
                false, eq_.curTick());
        return;
    }
    // The home answered neither resends nor liveness probes: it is
    // gone. Degraded mode fences it and migrates its pages.
    ++statDegradedEntries;
    missLadders_.erase(line_addr);
    ccnuma_trace(line_addr,
                 "%8llu %s DEGRADED: home node%u presumed dead",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 home);
    if (degradedHook_)
        degradedHook_(home);
}

bool
CoherenceController::strayDrop(const char *what)
{
    if (!params_.recoveryEnabled)
        return false;
    ++statStrayDrops;
    ccnuma_trace(0, "%8llu %s stray %s dropped",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 what);
    return true;
}

std::vector<std::pair<Addr, std::uint64_t>>
CoherenceController::drainWbHomedAt(NodeId home)
{
    std::vector<std::pair<Addr, std::uint64_t>> out;
    for (auto it = wbBuffer_.begin(); it != wbBuffer_.end();) {
        const Addr line = it->first;
        if (map_.homeOf(line) != home) {
            ++it;
            continue;
        }
        out.emplace_back(line, it->second.version);
        it = wbBuffer_.erase(it);
        // The writeback is as absorbed as it will ever be; release
        // requests stalled behind it.
        auto wit = wbWaiting_.find(line);
        if (wit == wbWaiting_.end())
            continue;
        const ItemList &waiting = wit->second;
        for (auto rit = waiting.rbegin(); rit != waiting.rend();
             ++rit) {
            enqueue(QBusRequest, *rit, /*to_front=*/true);
        }
        wbWaiting_.erase(wit);
    }
    return out;
}

void
CoherenceController::replayPendingHomedAt(NodeId home)
{
    std::deque<DispatchItem> items;
    for (auto it = reqPending_.begin(); it != reqPending_.end();) {
        const Addr line = it->first;
        if (map_.homeOf(line) != home) {
            ++it;
            continue;
        }
        for (std::uint64_t txn : it->second.busTxns) {
            DispatchItem di;
            di.isBus = true;
            di.busTxnId = txn;
            di.lineAddr = line;
            di.busCmd =
                it->second.excl ? BusCmd::ReadExcl : BusCmd::Read;
            items.push_back(di);
        }
        for (auto &c : it->second.conflicting)
            items.push_back(c);
        missLadders_.erase(line);
        retries_.clear(line);
        it = reqPending_.erase(it);
    }
    if (items.empty())
        return;
    // Deferred so the caller can flip the address-map remap first;
    // the replays then route to the successor home.
    eq_.scheduleFunction(
        [this, items] {
            for (const auto &di : items)
                enqueue(QBusRequest, di);
        },
        eq_.curTick());
}

void
CoherenceController::shutdownPermanently()
{
    ++epoch_;
    deadForever_ = true;
    state_ = CcState::Crashed;
    for (auto &e : engines_) {
        e.busy = false;
        e.curItemValid = false;
        e.curLineValid = false;
        e.curHandler = 0xff;
        e.curExtraTargets = 0;
        e.exec.fetchId = 0;
        e.exec.action.reset();
        for (auto &q : e.queues)
            q.clear();
    }
    homeBusy_.clear();
    homeWaiting_.clear();
    reqPending_.clear();
    wbBuffer_.clear();
    wbWaiting_.clear();
    deferredLocal_.clear();
    crashReplay_.clear();
    rebuildParkedWb_.clear();
    missLadders_.clear();
    probePendingPeers_.clear();
    probeDonesOutstanding_ = 0;
    probeRespsExpected_ = 0;
    probeRespsApplied_ = 0;
    retries_.clearAll();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

bool
CoherenceController::idle() const
{
    if (deadForever_)
        return true; // permanently retired: nothing will ever move
    if (state_ != CcState::Normal || !crashReplay_.empty() ||
        !rebuildParkedWb_.empty()) {
        return false;
    }
    if (!homeBusy_.empty() || !reqPending_.empty() ||
        !wbBuffer_.empty() || !deferredLocal_.empty()) {
        return false;
    }
    for (const auto &kv : homeWaiting_) {
        if (!kv.second.empty())
            return false;
    }
    for (const auto &kv : wbWaiting_) {
        if (!kv.second.empty())
            return false;
    }
    for (const auto &e : engines_) {
        if (e.busy)
            return false;
        for (const auto &q : e.queues) {
            if (!q.empty())
                return false;
        }
    }
    return true;
}

bool
CoherenceController::lineQuiet(Addr line_addr) const
{
    if (state_ != CcState::Normal && !deadForever_)
        return false;
    for (const auto &it : crashReplay_) {
        if (it.lineAddr == line_addr)
            return false;
    }
    for (const auto &m : rebuildParkedWb_) {
        if (m.lineAddr == line_addr)
            return false;
    }
    if (homeBusy_.count(line_addr) || reqPending_.count(line_addr) ||
        wbBuffer_.count(line_addr) ||
        deferredLocal_.count(line_addr)) {
        return false;
    }
    if (auto it = homeWaiting_.find(line_addr);
        it != homeWaiting_.end() && !it->second.empty()) {
        return false;
    }
    if (auto it = wbWaiting_.find(line_addr);
        it != wbWaiting_.end() && !it->second.empty()) {
        return false;
    }
    for (const auto &e : engines_) {
        if (e.exec.fetchId != 0 && e.exec.lineAddr == line_addr)
            return false;
        if (e.busy && e.curLineValid && e.curLine == line_addr)
            return false;
        for (const auto &q : e.queues) {
            for (const auto &item : q) {
                if (item.lineAddr == line_addr)
                    return false;
            }
        }
    }
    return true;
}

std::uint64_t
CoherenceController::totalArrivals() const
{
    std::uint64_t n = 0;
    for (const auto &e : engines_)
        n += e.arrivals;
    return n;
}

Tick
CoherenceController::totalOccupancy() const
{
    Tick n = 0;
    for (const auto &e : engines_)
        n += e.occupancyTicks;
    return n;
}

Tick
CoherenceController::engineOccupancy(unsigned e) const
{
    return engines_.at(e).occupancyTicks;
}

std::uint64_t
CoherenceController::engineArrivals(unsigned e) const
{
    return engines_.at(e).arrivals;
}

double
CoherenceController::engineQueueDelay(unsigned e) const
{
    const Engine &en = engines_.at(e);
    return en.queueDelayCount
               ? en.queueDelaySum /
                     static_cast<double>(en.queueDelayCount)
               : 0.0;
}

double
CoherenceController::meanQueueDelay() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &e : engines_) {
        sum += e.queueDelaySum;
        n += e.queueDelayCount;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
CoherenceController::dumpState(std::ostream &os) const
{
    os << name_ << ":";
    if (deadForever_) {
        os << " DEAD(degraded-mode fence)";
    } else if (state_ == CcState::Crashed) {
        os << " CRASHED(parked=" << crashReplay_.size() << ")";
    } else if (state_ == CcState::Recovering) {
        os << " RECOVERING(donesPending=" << probeDonesOutstanding_
           << ",peersLeft=" << probePendingPeers_.size()
           << ",resps=" << probeRespsApplied_ << "/"
           << probeRespsExpected_
           << ",parkedWb=" << rebuildParkedWb_.size() << ")";
    }
    for (const auto &[line, hb] : homeBusy_) {
        os << " homeBusy(" << std::hex << line << std::dec
           << ",req=" << hb.requester << ",excl=" << hb.excl
           << ",acks=" << hb.acksExpected << ")";
    }
    for (const auto &[line, rp] : reqPending_) {
        os << " reqPending(" << std::hex << line << std::dec
           << ",excl=" << rp.excl << ",txns=" << rp.busTxns.size()
           << ",confl=" << rp.conflicting.size() << ")";
    }
    for (const auto &[line, wb] : wbBuffer_) {
        os << " wb(" << std::hex << line << std::dec << ")";
    }
    for (const auto &[line, q] : wbWaiting_) {
        if (!q.empty())
            os << " wbWait(" << std::hex << line << std::dec << ","
               << q.size() << ")";
    }
    for (const auto &[line, q] : homeWaiting_) {
        if (!q.empty())
            os << " homeWait(" << std::hex << line << std::dec
               << "," << q.size() << ")";
    }
    for (const auto &e : engines_) {
        os << " engine" << e.idx << "(busy=" << e.busy << ",q="
           << e.queues[0].size() << "/" << e.queues[1].size() << "/"
           << e.queues[2].size() << ")";
    }
    os << "\n";
}

void
CoherenceController::resetStats()
{
    for (auto &e : engines_) {
        e.occupancyTicks = 0;
        e.arrivals = 0;
        e.queueDelaySum = 0.0;
        e.queueDelayCount = 0;
    }
    statGroup_.resetAll();
}

} // namespace ccnuma
