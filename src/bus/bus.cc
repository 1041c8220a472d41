#include "bus/bus.hh"

#include <algorithm>

#include "obs/tracer.hh"
#include "sim/logging.hh"

namespace ccnuma
{

const char *
busCmdName(BusCmd cmd)
{
    switch (cmd) {
      case BusCmd::Read: return "Read";
      case BusCmd::ReadExcl: return "ReadExcl";
      case BusCmd::Inval: return "Inval";
      case BusCmd::WriteBack: return "WriteBack";
    }
    return "?";
}

Bus::Bus(const std::string &name, EventQueue &eq, const BusParams &p)
    : name_(name), eq_(eq), params_(p), statGroup_(name)
{
    std::size_t slots = 16;
    while (slots < 2 * static_cast<std::size_t>(p.maxOutstanding))
        slots *= 2;
    slots_.resize(slots);
    slotMask_ = slots - 1;
    statGroup_.add(&statTxns);
    statGroup_.add(&statDeferred);
    statGroup_.add(&statC2C);
    statGroup_.add(&statRetries);
    statGroup_.add(&statArbWait);
    statGroup_.add(&statAddrBusy);
    statGroup_.add(&statDataBusy);
}

Bus::~Bus()
{
    if (kickEvent_.scheduled())
        eq_.deschedule(&kickEvent_);
}

int
Bus::addAgent(BusAgent *agent)
{
    agents_.push_back(agent);
    return static_cast<int>(agents_.size()) - 1;
}

std::uint64_t
Bus::request(BusCmd cmd, Addr line_addr, int requester,
             std::uint64_t data_version, bool from_cc)
{
    ccnuma_assert(requester >= 0 &&
                  requester < static_cast<int>(agents_.size()));
    std::uint64_t id = nextId_++;
    if (slots_[id & slotMask_].id != 0)
        growSlots(id);
    BusTxn &txn = slots_[id & slotMask_];
    txn = BusTxn{};
    txn.id = id;
    txn.cmd = cmd;
    txn.lineAddr = line_addr;
    txn.requester = requester;
    txn.fromCC = from_cc;
    txn.dataVersion = data_version;
    txn.issueTick = eq_.curTick();
    ccnuma_trace(line_addr,
                 "%8llu %s open txn=%llu %s req=%d fromCC=%d",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 (unsigned long long)id, busCmdName(cmd), requester,
                 (int)from_cc);
    ++numOpen_;
    pendingGrants_.push_back(id);
    if (!kickEvent_.scheduled())
        eq_.scheduleIn(&kickEvent_, 0);
    return id;
}

void
Bus::growSlots(std::uint64_t new_id)
{
    // Open ids are distinct modulo the ring size, and a transaction
    // still open one lap later forces a doubling right then, so the
    // clash here is always with new_id - size: one doubling separates
    // them and keeps every other open id in its own slot.
    const std::uint64_t mask = 2 * slots_.size() - 1;
    std::vector<BusTxn> next(mask + 1);
    for (const BusTxn &t : slots_) {
        if (t.id != 0)
            next[t.id & mask] = t;
    }
    ccnuma_assert(next[new_id & mask].id == 0);
    slots_ = std::move(next);
    slotMask_ = mask;
}

void
Bus::kick()
{
    while (!pendingGrants_.empty() && granted_ < params_.maxOutstanding) {
        std::uint64_t id = pendingGrants_.front();
        pendingGrants_.pop_front();
        Tick strobe = std::max(eq_.curTick() + params_.arbLatency,
                               nextStrobeAllowed_);
        nextStrobeAllowed_ = strobe + params_.strobeSpacing;
        ++granted_;
        eq_.scheduleFunction([this, id] { addressPhase(id); }, strobe);
    }
}

void
Bus::addressPhase(std::uint64_t txn_id)
{
    BusTxn *open = find(txn_id);
    ccnuma_assert(open != nullptr);
    // Agents and the hook only schedule further bus requests, never
    // issue them from inside an address phase, so the slot ring
    // cannot grow (and move this entry) before the phase ends.
    BusTxn &txn = *open;

    // First pass: a conflicting in-flight exclusive fill forces a
    // retry before anyone changes state.
    for (int i = 0; i < static_cast<int>(agents_.size()); ++i) {
        if (i == txn.requester)
            continue;
        if (agents_[i]->busRetryCheck(txn)) {
            ++statRetries;
            eq_.scheduleFunction(
                [this, txn_id] { addressPhase(txn_id); },
                eq_.curTick() + 2 * params_.strobeSpacing);
            return;
        }
    }

    txn.strobeTick = eq_.curTick();
    ++statTxns;
    statAddrBusy += static_cast<double>(params_.strobeSpacing);
    statArbWait.sample(
        static_cast<double>(txn.strobeTick - txn.issueTick));

    // Snoop every other agent; remember the strongest response.
    SnoopResult combined = SnoopResult::None;
    for (int i = 0; i < static_cast<int>(agents_.size()); ++i) {
        if (i == txn.requester)
            continue;
        SnoopResult r = agents_[i]->busSnoop(txn);
        if (static_cast<int>(r) > static_cast<int>(combined))
            combined = r;
    }
    txn.sharedSeen = combined != SnoopResult::None;
    txn.dirtySupplied = combined == SnoopResult::DirtySupply;

    ccnuma_assert(hook_ != nullptr);
    SupplyDecision decision = hook_->busObserve(txn, combined);
    txn.supply = decision;

    Tick snoop_done = txn.strobeTick + params_.snoopLatency;

    switch (txn.cmd) {
      case BusCmd::Read:
      case BusCmd::ReadExcl:
        switch (decision) {
          case SupplyDecision::Memory: {
            ccnuma_assert(memory_ != nullptr);
            Tick ready = memory_->scheduleRead(txn.lineAddr,
                                               txn.strobeTick);
            txn.dataVersion = memory_->version(txn.lineAddr);
            Tick first_beat = scheduleData(txn, ready);
            deliver(txn_id, first_beat);
            break;
          }
          case SupplyDecision::Cache:
          case SupplyDecision::CacheReflect: {
            ++statC2C;
            Tick ready = txn.strobeTick + params_.c2cDataLatency;
            Tick first_beat = scheduleData(txn, ready);
            if (decision == SupplyDecision::CacheReflect &&
                memory_ != nullptr) {
                memory_->scheduleWrite(txn.lineAddr, first_beat);
                memory_->setVersion(txn.lineAddr, txn.dataVersion);
            }
            deliver(txn_id, first_beat);
            break;
          }
          case SupplyDecision::Deferred:
            ++statDeferred;
            ccnuma_trace(txn.lineAddr,
                         "%8llu %s defer txn=%llu req=%d fromCC=%d",
                         (unsigned long long)eq_.curTick(),
                         name_.c_str(), (unsigned long long)txn_id,
                         txn.requester, (int)txn.fromCC);
            // The coherence controller calls deferredRespond later.
            break;
          case SupplyDecision::NoData:
            // A controller-issued fetch may fail (stale owner); the
            // controller handles it. For anyone else it is a bug.
            if (txn.fromCC) {
                deliver(txn_id, snoop_done);
            } else {
                panic("bus %s: NoData decision for %s of line %#llx",
                      name_.c_str(), busCmdName(txn.cmd),
                      (unsigned long long)txn.lineAddr);
            }
        }
        break;

      case BusCmd::Inval:
        // Address-only transaction; complete after the snoop phase.
        deliver(txn_id, snoop_done);
        break;

      case BusCmd::WriteBack: {
        // Data rides the data bus to memory or to the coherence
        // controller's direct network data path.
        Tick first_beat = scheduleData(txn, snoop_done);
        Tick data_end = first_beat - params_.beatTicks +
                        beatsPerLine() * params_.beatTicks;
        if (decision == SupplyDecision::Memory && memory_ != nullptr) {
            memory_->scheduleWrite(txn.lineAddr, data_end);
            memory_->setVersion(txn.lineAddr, txn.dataVersion);
        }
        if (decision == SupplyDecision::NoData)
            hook_->busCaptureWriteBack(txn, data_end);
        deliver(txn_id, first_beat);
        break;
      }
    }
}

Tick
Bus::scheduleData(BusTxn &txn, Tick earliest)
{
    txn.fillScheduled = true;
    Tick start = std::max({earliest, dataBusFreeAt_, eq_.curTick()});
    Tick occupancy =
        static_cast<Tick>(beatsPerLine()) * params_.beatTicks;
    dataBusFreeAt_ = start + occupancy;
    statDataBusy += static_cast<double>(occupancy);
    txn.dataTick = start + params_.beatTicks;
    return txn.dataTick;
}

void
Bus::deliver(std::uint64_t txn_id, Tick when)
{
    eq_.scheduleFunction(
        [this, txn_id] {
            BusTxn *open = find(txn_id);
            ccnuma_assert(open != nullptr);
            BusTxn txn = *open;
            ccnuma_trace(txn.lineAddr,
                         "%8llu %s done txn=%llu %s req=%d",
                         (unsigned long long)eq_.curTick(),
                         name_.c_str(), (unsigned long long)txn_id,
                         busCmdName(txn.cmd), txn.requester);
            open->id = 0;
            --numOpen_;
            --granted_;
            agents_[txn.requester]->busDone(txn);
            if (completionTap_)
                completionTap_(txn);
            if (tracer_) {
                tracer_->busSpan(tracerNode_, busCmdName(txn.cmd),
                                 static_cast<std::uint8_t>(txn.cmd),
                                 txn.lineAddr, txn.issueTick,
                                 eq_.curTick());
            }
            if (!pendingGrants_.empty() && !kickEvent_.scheduled())
                eq_.scheduleIn(&kickEvent_, 0);
        },
        when);
}

void
Bus::deferredRespond(std::uint64_t txn_id, std::uint64_t data_version,
                     Tick earliest)
{
    BusTxn *open = find(txn_id);
    if (open == nullptr)
        panic("bus %s: deferred response for unknown txn %llu",
              name_.c_str(), (unsigned long long)txn_id);
    BusTxn &txn = *open;
    ccnuma_trace(txn.lineAddr,
                 "%8llu %s defresp txn=%llu req=%d",
                 (unsigned long long)eq_.curTick(), name_.c_str(),
                 (unsigned long long)txn_id, txn.requester);
    txn.dataVersion = data_version;
    Tick first_beat = scheduleData(txn, earliest);
    deliver(txn_id, first_beat);
}

} // namespace ccnuma
