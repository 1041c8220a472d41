/**
 * @file
 * In-order, blocking compute processor model.
 *
 * Matches the paper's 200 MHz compute processors: one instruction per
 * cycle, stall-on-miss, one outstanding miss, sequentially consistent
 * (a store does not complete until exclusive ownership is obtained).
 * Cache hits and compute gaps are batched between global events for
 * speed; only misses and synchronization interact with the rest of
 * the machine.
 */

#ifndef CCNUMA_NODE_PROCESSOR_HH
#define CCNUMA_NODE_PROCESSOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "node/cache_unit.hh"
#include "node/sync.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/op_stream.hh"

namespace ccnuma
{

namespace obs
{
class Tracer;
} // namespace obs

/** Processor timing/behavior parameters. */
struct ProcessorParams
{
    /** L2 miss detection latency before the bus request (Table 3). */
    Tick missDetect = 8;
    /**
     * Enable per-processor monotonic-read checking (the invariant
     * checker's dynamic component); costs memory, used in tests.
     */
    bool checkMonotonic = false;
};

/** One compute processor executing a ThreadOp stream. */
class Processor
{
  public:
    Processor(const std::string &name, EventQueue &eq, ProcId id,
              NodeId node, CacheUnit &cache, SyncManager &sync,
              const ProcessorParams &p);
    ~Processor();

    /** Install the thread program (before start()). */
    void setProgram(OpStream stream) { stream_ = std::move(stream); }

    /** Invoked once when the program ends. */
    void setFinishedCallback(std::function<void()> cb)
    {
        onFinished_ = std::move(cb);
    }

    /** Begin executing at tick @p when. */
    void start(Tick when);

    /**
     * Fail-stop node death (PR 6 degraded mode): stop executing
     * immediately and count as finished so the run can complete with
     * the survivors. Instructions retired so far are kept; any
     * in-flight miss or sync continuation becomes a no-op.
     */
    void kill();

    /**
     * Record data-miss spans with the tracer (set by the machine;
     * null = off). Sync-variable misses stay untraced — the paper's
     * latency breakdowns cover data references only.
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    bool finished() const { return finished_; }
    ProcId id() const { return id_; }
    Tick finishTick() const { return finishTick_; }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t memRefs() const { return loads_ + stores_; }
    std::uint64_t misses() const { return misses_; }
    Tick stallTicks() const { return stallTicks_; }
    Tick syncWaitTicks() const { return syncWaitTicks_; }

    stats::Group &statGroup() { return statGroup_; }

  private:
    void run();
    void issueMiss(ThreadOp op);
    /** Hand the outstanding miss to the cache unit's MSHR. */
    void startMiss();
    /** The outstanding miss's fill arrived: restart at @p restart. */
    void missRestart(Tick restart, std::uint64_t version);
    void doSync(ThreadOp op);
    /** Access a sync variable, then continue with @p then. */
    void syncRef(Addr addr, bool write, std::function<void()> then);
    void resumeAt(Tick when);
    void checkRead(Addr addr, std::uint64_t version);
    void finish();

    std::string name_;
    EventQueue &eq_;
    ProcId id_;
    NodeId node_;
    CacheUnit &cache_;
    SyncManager &sync_;
    ProcessorParams params_;
    OpStream stream_;
    std::function<void()> onFinished_;
    obs::Tracer *tracer_ = nullptr;

    bool finished_ = false;
    bool killed_ = false;
    Tick finishTick_ = 0;
    Tick syncWaitStart_ = 0;

    std::uint64_t instructions_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t misses_ = 0;
    Tick stallTicks_ = 0;
    Tick syncWaitTicks_ = 0;

    std::unordered_map<Addr, std::uint64_t> lastSeen_;

    /**
     * The one outstanding miss (the processor blocks on it), kept
     * here so the cache unit's restart callback captures only this.
     */
    Addr missAddr_ = 0;
    bool missWrite_ = false;
    Tick missIssue_ = 0;
    /** Continuation of an outstanding sync-variable miss, if any. */
    std::function<void()> syncThen_;

    /**
     * Reusable execute event: one instance serves every start/resume
     * of this processor's instruction loop (at most one is ever
     * outstanding), so the hottest scheduling edge in the simulator
     * never touches the one-shot pool.
     */
    class RunEvent : public Event
    {
      public:
        explicit RunEvent(Processor &p) : proc_(p) {}
        void process() override { proc_.run(); }
        const char *name() const override { return "proc run"; }

      private:
        Processor &proc_;
    };
    RunEvent runEvent_{*this};

    stats::Group statGroup_;
    stats::Scalar statInstructions{"instructions",
        "instructions executed (compute + memory references)"};
    stats::Scalar statMisses{"misses", "L2 misses"};
    stats::Scalar statStallTicks{"stall_ticks",
        "ticks stalled on cache misses"};
    stats::Scalar statSyncWaitTicks{"sync_wait_ticks",
        "ticks waiting at barriers and locks"};
};

} // namespace ccnuma

#endif // CCNUMA_NODE_PROCESSOR_HH
