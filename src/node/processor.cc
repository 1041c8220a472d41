#include "node/processor.hh"

#include "obs/tracer.hh"

namespace ccnuma
{

Processor::Processor(const std::string &name, EventQueue &eq,
                     ProcId id, NodeId node, CacheUnit &cache,
                     SyncManager &sync, const ProcessorParams &p)
    : name_(name), eq_(eq), id_(id), node_(node), cache_(cache),
      sync_(sync), params_(p), statGroup_(name)
{
    statGroup_.add(&statInstructions);
    statGroup_.add(&statMisses);
    statGroup_.add(&statStallTicks);
    statGroup_.add(&statSyncWaitTicks);
}

Processor::~Processor()
{
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
}

void
Processor::start(Tick when)
{
    eq_.schedule(&runEvent_, when);
}

void
Processor::resumeAt(Tick when)
{
    if (killed_)
        return;
    eq_.schedule(&runEvent_, when);
}

void
Processor::kill()
{
    if (killed_)
        return;
    killed_ = true;
    if (runEvent_.scheduled())
        eq_.deschedule(&runEvent_);
    if (!finished_)
        finish();
}

void
Processor::checkRead(Addr addr, std::uint64_t version)
{
    if (!params_.checkMonotonic)
        return;
    Addr line = cache_.l2().lineAlign(addr);
    std::uint64_t &last = lastSeen_[line];
    if (version < last) {
        panic("%s: non-monotonic read of line %#llx "
              "(saw version %llu after %llu)", name_.c_str(),
              (unsigned long long)line, (unsigned long long)version,
              (unsigned long long)last);
    }
    last = version;
}

void
Processor::run()
{
    if (killed_)
        return;
    Tick delta = 0;
    ThreadOp op;
    while (true) {
        if (!stream_.next(op))
            op = ThreadOp{}; // Kind::End

        switch (op.kind) {
          case ThreadOp::Kind::Compute:
            delta += op.count;
            instructions_ += op.count;
            continue;

          case ThreadOp::Kind::Load:
          case ThreadOp::Kind::Store: {
            bool write = op.kind == ThreadOp::Kind::Store;
            ++instructions_;
            if (write)
                ++stores_;
            else
                ++loads_;
            auto r = cache_.access(op.addr, write);
            if (r.hit) {
                delta += r.latency;
                if (!write)
                    checkRead(op.addr, r.version);
                continue;
            }
            // Miss: issue at the accumulated local time.
            if (delta == 0) {
                issueMiss(op);
            } else {
                eq_.scheduleFunctionIn(
                    [this, op] { issueMiss(op); }, delta);
            }
            return;
          }

          case ThreadOp::Kind::Barrier:
          case ThreadOp::Kind::Lock:
          case ThreadOp::Kind::Unlock:
            if (delta == 0) {
                doSync(op);
            } else {
                eq_.scheduleFunctionIn([this, op] { doSync(op); },
                                       delta);
            }
            return;

          case ThreadOp::Kind::End:
            if (delta == 0) {
                finish();
            } else {
                eq_.scheduleFunctionIn([this] { finish(); }, delta);
            }
            return;
        }
    }
}

void
Processor::issueMiss(ThreadOp op)
{
    if (killed_)
        return;
    ++misses_;
    missAddr_ = op.addr;
    missWrite_ = op.kind == ThreadOp::Kind::Store;
    missIssue_ = eq_.curTick();
    if (tracer_)
        tracer_->missBegin(id_, missAddr_, missWrite_, missIssue_);
    eq_.scheduleFunctionIn([this] { startMiss(); }, params_.missDetect);
}

void
Processor::startMiss()
{
    cache_.startMiss(missAddr_, missWrite_,
                     [this](Tick restart, std::uint64_t version) {
                         missRestart(restart, version);
                     });
}

void
Processor::missRestart(Tick restart, std::uint64_t version)
{
    stallTicks_ += restart - missIssue_;
    if (syncThen_) {
        // A sync-variable miss: untraced, no monotonic-read check;
        // the sync protocol continues at the restart tick.
        std::function<void()> then = std::move(syncThen_);
        syncThen_ = nullptr;
        eq_.scheduleFunction(std::move(then), restart);
        return;
    }
    if (tracer_)
        tracer_->missEnd(id_, restart);
    if (!missWrite_)
        checkRead(missAddr_, version);
    resumeAt(restart);
}

void
Processor::syncRef(Addr addr, bool write, std::function<void()> then)
{
    if (killed_)
        return;
    ++instructions_;
    if (write)
        ++stores_;
    else
        ++loads_;
    auto r = cache_.access(addr, write);
    if (r.hit) {
        eq_.scheduleFunctionIn(std::move(then), r.latency);
        return;
    }
    ++misses_;
    missAddr_ = addr;
    missWrite_ = write;
    missIssue_ = eq_.curTick();
    syncThen_ = std::move(then);
    eq_.scheduleFunctionIn([this] { startMiss(); }, params_.missDetect);
}

void
Processor::doSync(ThreadOp op)
{
    std::uint32_t id = op.count;
    switch (op.kind) {
      case ThreadOp::Kind::Barrier:
        // Flag-barrier traffic: arrivals read the (shared) barrier
        // line; the releasing arrival writes the flag, invalidating
        // the spinners, who each re-read it on wake-up. Every
        // arriver — including the releasing one — sleeps until the
        // sync manager's deferred grant arrives.
        syncRef(sync_.barrierAddr(id), /*write=*/false, [this, id] {
            syncWaitStart_ = eq_.curTick();
            sync_.arrive(id, node_, [this, id](bool released) {
                syncWaitTicks_ += eq_.curTick() - syncWaitStart_;
                syncRef(sync_.barrierAddr(id), /*write=*/released,
                        [this] { run(); });
            });
        });
        return;
      case ThreadOp::Kind::Lock:
        syncRef(sync_.lockAddr(id), /*write=*/true, [this, id] {
            syncWaitStart_ = eq_.curTick();
            sync_.lockAcquire(id, node_, [this] {
                syncWaitTicks_ += eq_.curTick() - syncWaitStart_;
                run();
            });
        });
        return;
      case ThreadOp::Kind::Unlock:
        syncRef(sync_.lockAddr(id), /*write=*/true, [this, id] {
            sync_.lockRelease(id, node_);
            run();
        });
        return;
      default:
        panic("%s: doSync with non-sync op", name_.c_str());
    }
}

void
Processor::finish()
{
    finished_ = true;
    finishTick_ = eq_.curTick();
    statInstructions.set(static_cast<double>(instructions_));
    statMisses.set(static_cast<double>(misses_));
    statStallTicks.set(static_cast<double>(stallTicks_));
    statSyncWaitTicks.set(static_cast<double>(syncWaitTicks_));
    if (onFinished_)
        onFinished_();
}

} // namespace ccnuma
