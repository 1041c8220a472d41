/**
 * @file
 * The whole CC-NUMA machine: nodes, interconnect, synchronization,
 * and the run loop that executes a workload to completion and
 * collects the paper's measurement set (execution time, RCCPI,
 * occupancy, utilization, queuing delay, arrival rates).
 */

#ifndef CCNUMA_SYSTEM_MACHINE_HH
#define CCNUMA_SYSTEM_MACHINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "system/config.hh"
#include "workload/workload.hh"

namespace ccnuma
{

class CoherenceChecker;
class FaultInjector;
class HangWatchdog;
class IntegrityManager;
class RecoveryManager;
class ReliableTransport;

namespace obs
{
class Tracer;
} // namespace obs

/** Measurements from one workload run (Table 6 inputs). */
struct RunResult
{
    std::string workload;
    std::string arch;
    Tick execTicks = 0;          ///< parallel-phase execution time
    std::uint64_t instructions = 0;
    std::uint64_t memRefs = 0;
    std::uint64_t misses = 0;
    std::uint64_t ccRequests = 0; ///< requests to all controllers
    Tick ccOccupancy = 0;         ///< engine-busy ticks, all ctrls
    double avgUtilization = 0.0;  ///< mean per-ctrl occupancy/time
    double avgQueueDelayTicks = 0.0;
    double arrivalsPerUs = 0.0;   ///< per controller per microsecond

    // --- recovery scorecard inputs (PR 2); zero unless faults
    // and/or the reliable transport are armed ---
    std::uint64_t faultsInjected = 0;   ///< drops + dups + reorders
    std::uint64_t xportRetransmits = 0;
    std::uint64_t xportTimeouts = 0;
    std::uint64_t xportDupsDropped = 0;
    std::uint64_t xportReordersHealed = 0;
    std::uint64_t xportAcks = 0;
    std::uint64_t nackRetries = 0;      ///< bounded-policy re-attempts
    Tick retryBackoffTicks = 0;         ///< ticks spent backing off
    bool completed = false;             ///< retired the full workload

    // --- crash-recovery scorecard inputs (PR 6); zero unless the
    // recovery subsystem and/or crash faults are armed ---
    std::uint64_t crashesInjected = 0; ///< fail-stop controller kills
    std::uint64_t dirRebuilds = 0;     ///< DirProbe reconstructions
    std::uint64_t rebuildLines = 0;    ///< directory lines rebuilt
    Tick reconstructionTicksMax = 0;   ///< worst restart-to-rebuilt
    std::uint64_t recoveryNacks = 0;   ///< requests fenced off while
                                       ///< a home was rebuilding
    std::uint64_t missTimeouts = 0;    ///< per-miss timer expiries
    std::uint64_t timeoutResends = 0;  ///< ladder rung 1: re-sends
    std::uint64_t recoveryProbes = 0;  ///< ladder rung 2: probes
    std::uint64_t degradedEntries = 0; ///< ladder exhaustions
    std::uint64_t strayDrops = 0;      ///< stale responses dropped
    std::uint64_t migrations = 0;      ///< dead homes remapped

    // --- data-integrity scorecard inputs (PR 7); zero unless the
    // integrity subsystem and/or flip faults are armed. The ledger
    // must close: every applied corruption is accounted for by
    // exactly one defense, so escapedCorruptions stays zero. ---
    std::uint64_t flipsInjected = 0;   ///< corruptions applied
    std::uint64_t flipsSkipped = 0;    ///< armed, found no victim
    std::uint64_t crcChecked = 0;      ///< frames CRC-verified
    std::uint64_t crcDetected = 0;     ///< frames dropped by CRC
    std::uint64_t eccCorrected = 0;    ///< words fixed (access+scrub)
    std::uint64_t scrubCorrections = 0;///< subset fixed by scrubber
    std::uint64_t eccPendingDropped = 0;///< latent CEs voided by crash
    std::uint64_t poisonNacks = 0;     ///< bounces off dead lines
    std::uint64_t containedDiscards = 0;///< clean-UE silent discards
    std::uint64_t linesPoisoned = 0;   ///< dirty-UE dead lines
    std::uint64_t procsKilledPoison = 0;///< processors fenced dead
    std::uint64_t integrityEscalations = 0;///< directory-UE rebuilds
    /** applied − detected − corrected − contained − escalated. */
    std::int64_t escapedCorruptions = 0;

    // --- sharded-scheduler accounting (PR 5) ---
    unsigned shardsRequested = 1; ///< config (or CCNUMA_SHARDS) value
    unsigned shardsUsed = 1;      ///< after any serial fallback
    /** Non-empty iff the machine fell back to the serial scheduler. */
    std::string shardFallback;

    // --- window accounting (PR 9); like the shard counts,
    // execution-strategy metadata excluded from resultsIdentical().
    // Counters are zero when shardsUsed == 1. ---
    std::uint64_t windowsRun = 0;     ///< scheduler windows executed
    /** Windows where at least one shard ran past the conservative
     *  end, t0 + lookahead (counted, never silent — same rule as
     *  shard fallbacks). */
    std::uint64_t windowsWidened = 0;
    /** Windows held to the conservative end by cross-shard traffic
     *  or deferred sync operations. */
    std::uint64_t windowFallbacks = 0;
    /** Windows cut short early by a sync post's self-grant clamp. */
    std::uint64_t syncWindowStops = 0;

    double
    rccpi() const
    {
        return instructions
                   ? static_cast<double>(ccRequests) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    double execNs() const { return ticksToNs(execTicks); }
};

/** The simulated machine. */
class Machine : public MsgRouter
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine() override;

    /** Shard 0's queue: THE queue when running serially. */
    EventQueue &eq() { return *queues_[0]; }
    AddressMap &map() { return map_; }
    Network &network() { return *net_; }
    SyncManager &sync() { return *sync_; }
    const MachineConfig &config() const { return cfg_; }

    /** Node-to-queue routing and context numbering. */
    const ShardMap &shardMap() const { return shardMap_; }

    /** Shards actually in use (1 after a serial fallback). */
    unsigned shardsUsed() const { return shardMap_.numShards; }

    /** Why the machine fell back to serial ("" if it did not). */
    const std::string &shardFallbackReason() const
    {
        return fallbackReason_;
    }

    /** The lookahead window (ticks; 0 when serial). */
    Tick lookahead() const { return lookahead_; }

    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }
    SmpNode &node(unsigned i) { return *nodes_.at(i); }

    unsigned totalProcs() const { return cfg_.totalProcs(); }
    Processor &proc(unsigned global);

    // --- MsgRouter ---
    void deliverMsg(const Msg &msg) override;
    void onNetSend(Msg &msg) override;

    /** The online invariant checker (null unless enabled). */
    CoherenceChecker *checker() { return checker_.get(); }

    /** The fault injector (null unless faults are armed). */
    FaultInjector *injector() { return injector_.get(); }

    /** The reliable transport (null unless recovery is enabled). */
    ReliableTransport *transport() { return xport_.get(); }

    /** The crash-recovery manager (null unless crash recovery is on). */
    RecoveryManager *recoveryManager() { return recovery_.get(); }

    /** The data-integrity manager (null unless integrity is on). */
    IntegrityManager *integrityManager() { return integrity_.get(); }

    /**
     * The observability tracer (null unless tracing is enabled). One
     * per machine: tracing keeps a run on one queue (shardPlan()).
     */
    obs::Tracer *tracer() { return tracer_.get(); }

    /** Write diagnostic state (controllers, queues, procs) to @p os. */
    void dumpDiagnostics(std::ostream &os);

    /**
     * Run @p w to completion (its thread count must equal
     * totalProcs()), drain in-flight protocol traffic, and collect
     * measurements.
     * @param check run the coherence invariant checker afterwards
     */
    RunResult run(Workload &w, bool check = false);

    /** Verify global coherence invariants; panics on violation. */
    void checkInvariants();

    /**
     * Discard all measurements collected so far (warm-up exclusion):
     * controller occupancy/arrival counters, component stat groups,
     * and — when tracing is enabled — the tracer's histograms, event
     * ring, and any open spans. Call between a warm-up run() phase
     * and the measured phase (e.g. via eq().scheduleFunction).
     */
    void resetStats();

    /** Dump all registered statistics. */
    void printStats(std::ostream &os);

  private:
    /** Fill the RunResult recovery counters from the live stats. */
    void fillRecoveryStats(RunResult &r);

    /** Max curTick over the shard queues (diagnostics/exports). */
    Tick now() const;

    /**
     * Advance scheduler windows until @p done holds at a barrier,
     * every queue drains, or the earliest pending event lies beyond
     * @p limit. Each shard's end is bounded by the other shards'
     * earliest events and any deferred sync operations, widening up
     * to the limit when peers are provably quiet (see DESIGN.md §19
     * for the proof sketch).
     * @return true iff @p done became true.
     */
    bool runWindows(const std::function<bool()> &done, Tick limit);

    /** Window-barrier bookkeeping (mailboxes, sync operations). */
    void windowBarrier();

    MachineConfig cfg_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    ShardMap shardMap_;
    std::unique_ptr<ShardTeam> team_;
    AddressMap map_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<SyncManager> sync_;
    std::unique_ptr<ReliableTransport> xport_;
    std::vector<std::unique_ptr<SmpNode>> nodes_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<CoherenceChecker> checker_;
    std::unique_ptr<RecoveryManager> recovery_;
    std::unique_ptr<IntegrityManager> integrity_;
    std::unique_ptr<HangWatchdog> watchdog_;
    std::unique_ptr<obs::Tracer> tracer_;
    /**
     * Monotonic data-version source for the invariant checker,
     * stamped on every store hit and fill. Sharded runs stamp from
     * several threads and bump it atomically; serial runs use plain
     * increments. Values are not part of any deterministic output;
     * per-line monotonicity still holds under sharding because
     * successive writers of one line are separated by at least a
     * network flight, hence by a window barrier.
     */
    alignas(std::atomic_ref<std::uint64_t>::required_alignment)
        std::uint64_t versionCounter_ = 0;
    std::atomic<unsigned> finishedProcs_{0};
    /** Serial-mode finished count: plain, no atomic traffic in the
     *  single-queue fast loop. */
    unsigned finishedSerial_ = 0;
    Tick lookahead_ = 0;
    unsigned shardsRequested_ = 1;
    std::string fallbackReason_;
    std::uint64_t windowsRun_ = 0;
    std::uint64_t windowsWidened_ = 0;
    std::uint64_t windowFallbacks_ = 0;
};

} // namespace ccnuma

#endif // CCNUMA_SYSTEM_MACHINE_HH
