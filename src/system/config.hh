/**
 * @file
 * Whole-machine configuration, with named presets for the paper's
 * experimental configurations.
 */

#ifndef CCNUMA_SYSTEM_CONFIG_HH
#define CCNUMA_SYSTEM_CONFIG_HH

#include <string>

#include "net/network.hh"
#include "net/reliable.hh"
#include "node/smp_node.hh"
#include "obs/obs_config.hh"
#include "recovery/recovery_config.hh"
#include "verify/integrity_config.hh"
#include "verify/verify_config.hh"

namespace ccnuma
{

/** The four coherence controller architectures under study. */
enum class Arch
{
    HWC,    ///< one custom-hardware FSM
    PPC,    ///< one commodity protocol processor
    TwoHWC, ///< two FSMs (LPE/RPE)
    TwoPPC, ///< two protocol processors (LPE/RPE)
};

const char *archName(Arch a);

/**
 * The scheduler a configuration runs under, decided once by
 * MachineConfig::shardPlan(). Machine builds its queues and sets its
 * sync manager's grant deferral from it, and the result-cache key
 * reads the same deferral, so the two can never disagree about which
 * scheduler ran.
 */
struct ShardPlan
{
    unsigned shards = 1; ///< shards in effect, after any fallback
    /** Lookahead window (ticks): the earliest cross-shard interaction;
     *  0 when serial. */
    Tick lookahead = 0;
    /** Why a sharded request runs serially; null when it does not. */
    const char *fallback = nullptr;
    /** Sync grants take the deferred (sharded) path. */
    bool deferredGrants = false;
};

/** Full machine configuration. */
struct MachineConfig
{
    unsigned numNodes = 16;
    NodeParams node;
    NetworkParams net;
    unsigned pageBytes = 4096;
    /**
     * Page placement: the paper's round-robin default, or the
     * first-touch-after-initialization policy it reports as slightly
     * inferior (load imbalance, memory/controller contention).
     */
    PlacementPolicy placement = PlacementPolicy::RoundRobin;
    Addr syncBase = 0x4000'0000;
    /**
     * Barrier/lock grant hand-off latency (ticks): every sync grant
     * reaches its processor this long after the triggering
     * operation, modeling the flag-propagation delay of a real
     * flag-based barrier. Also the ceiling of the sharded
     * scheduler's lookahead window, so it must stay at or below the
     * network's minimum latency for sharding to pay off.
     */
    Tick syncHandoffTicks = 16;
    /**
     * Event-queue shards requested for intra-machine parallel
     * simulation. 1 = the classic serial scheduler; k > 1 partitions
     * the nodes over k queues advanced in adaptive windows, with
     * results bit-identical to serial. numNodes must divide evenly.
     * Some configurations cannot shard and run serially instead;
     * traced and watchdog-armed ones keep the sharded grant timing
     * while doing so (see shardPlan()). The CCNUMA_SHARDS environment
     * variable overrides without a config change.
     */
    unsigned shards = 1;
    /**
     * Force the deferred (sharded-style) sync grant path in serial
     * runs, so a serial run can serve as a bit-identity oracle for
     * the sharded modes. CCNUMA_SYNC_DEFER overrides. Normal serial
     * runs keep the seed's zero-delay wakes.
     */
    bool forceSyncDefer = false;
    /**
     * Simulation watchdog: abort if a run exceeds this many ticks.
     * CCNUMA_MAX_TICKS (a positive integer) overrides.
     */
    Tick maxTicks = 4'000'000'000ull;
    /**
     * Verification subsystem (invariant checker, fault injector,
     * hang watchdog); everything off by default. The CCNUMA_VERIFY
     * environment variable (checker|watchdog|all|1) force-enables
     * the checker and/or watchdog without a config change. Either
     * one makes a sharded request run serially (see shardPlan()).
     */
    VerifyConfig verify;

    /**
     * End-to-end message recovery (PR 2): reliable transport under
     * the protocol plus a bounded NACK-retry policy in the
     * controllers. Off by default so paper-fidelity timing is
     * unchanged; the CCNUMA_RELIABLE environment variable (1|on)
     * force-enables it without a config change.
     */
    ReliableParams reliable;

    /**
     * Fail-stop crash recovery (PR 6): controller restart, directory
     * reconstruction, the miss-timeout escalation ladder, and
     * degraded-mode page remapping. Off by default; crash faults are
     * listed in verify.faults.crashes and rejected by validate()
     * unless this is enabled together with the reliable transport.
     * The CCNUMA_RECOVERY environment variable (1|on) force-enables
     * it (implying the reliable transport) without a config change.
     */
    RecoveryConfig recovery;

    /**
     * End-to-end data integrity (PR 7): CRC-32 on transport frames,
     * SECDED ECC on directory entries and cache lines with a
     * background scrubber, and line poisoning for uncorrectable
     * errors. Off by default; bit flips are listed in
     * verify.faults.flips and rejected by validate() unless this is
     * enabled. The CCNUMA_INTEGRITY environment variable (1|on)
     * force-enables it (implying the reliable transport) without a
     * config change.
     */
    IntegrityConfig integrity;

    /**
     * Observability subsystem (per-request tracing, occupancy
     * timelines, Chrome-trace and metrics export); off by default so
     * paper-fidelity timing and output are untouched. One tracer
     * watches the whole machine, so a traced sharded request runs
     * serially with deferred grants (see shardPlan()). The
     * CCNUMA_TRACE environment variable (1|on) force-enables it
     * without a config change; see obs/obs_config.hh for the
     * companion CCNUMA_TRACE_* tuning knobs.
     */
    ObsConfig obs;

    /**
     * The paper's base system: 16 nodes x 4 x 200 MHz processors,
     * 128-byte lines, 100 MHz 16-byte bus, 70 ns network.
     */
    static MachineConfig base();

    /**
     * Enable the reliable transport sublayer and switch the
     * controllers from the paper's immediate unbounded NACK retry to
     * a capped-exponential-backoff bounded policy (escalating to a
     * FatalError diagnostic instead of livelocking).
     */
    MachineConfig &withReliableTransport();

    /**
     * Enable the fail-stop crash-recovery subsystem. Implies
     * withReliableTransport(): a crashed controller fences its
     * receive side and relies on sender retransmission to re-deliver
     * what it dropped, so recovery without the transport is rejected
     * by validate().
     */
    MachineConfig &withCrashRecovery();

    /**
     * Enable the data-integrity subsystem: per-frame CRC-32 on the
     * reliable transport (implies withReliableTransport(): a
     * corrupted frame is discarded as a loss and re-delivered by
     * retransmission), SECDED ECC + scrubbing on directories and
     * caches, and line poisoning. Directory-UE escalation rebuilds
     * through the crash-recovery subsystem, so this implies
     * withCrashRecovery() too.
     */
    MachineConfig &withIntegrity();

    /**
     * Apply the CCNUMA_* environment overrides: CCNUMA_RELIABLE,
     * _RECOVERY, _INTEGRITY, _SHARDS, _MAX_TICKS, _SYNC_DEFER and
     * _VERIFY, which change what a run computes, and CCNUMA_TRACE
     * with its _FILE, _METRICS, _SAMPLE and _RING companions, which
     * change how it is scheduled. Idempotent. Machine's constructor
     * applies them, and so does serve::makeSimPoint, so that a
     * point's result-cache key and shard plan are taken from the
     * configuration that actually runs.
     */
    MachineConfig &withEnvOverrides();

    /**
     * Sanity-check the configuration, raising FatalError with an
     * actionable message on nonsense (zero nodes, non-power-of-two
     * line/page sizes, zero port width/cycle, ...). Machine's
     * constructor calls this before building anything.
     */
    void validate() const;

    /**
     * The scheduler this configuration runs under. A sharded request
     * falls back to serial for one of two kinds of reason:
     *  - result-changing: the invariant checker is on, placement is
     *    first-touch, crashes or bit flips are scheduled, or the
     *    lookahead window, min(network minimum latency, sync
     *    hand-off), is empty. The run is the plain serial run, with
     *    undeferred grants unless forceSyncDefer is set.
     *  - diagnostic: tracing or the hang watchdog is on. The run keeps
     *    deferred grants, so it is the forceSyncDefer serial oracle
     *    and computes exactly what the sharded run would.
     * A result-changing reason wins when both apply. Grants are
     * deferred when shards remain, a diagnostic fallback applies, or
     * forceSyncDefer is set.
     */
    ShardPlan shardPlan() const;

    /** Apply a coherence controller architecture. */
    MachineConfig &withArch(Arch a);

    /** Use @p bytes cache lines everywhere (Figure 7 uses 32). */
    MachineConfig &withLineBytes(unsigned bytes);

    /** Use a slow network (Figure 8 uses 1 us = 200 ticks). */
    MachineConfig &withNetworkLatency(Tick ticks);

    /**
     * Keep 64 processors total but change processors per node
     * (Figure 10: 1, 2, 4, 8).
     */
    MachineConfig &withProcsPerNode(unsigned ppn,
                                    unsigned total_procs = 64);

    unsigned totalProcs() const
    {
        return numNodes * node.procsPerNode;
    }
};

} // namespace ccnuma

#endif // CCNUMA_SYSTEM_CONFIG_HH
