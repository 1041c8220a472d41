#include "system/config.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "sim/logging.hh"

namespace ccnuma
{

const char *
archName(Arch a)
{
    switch (a) {
      case Arch::HWC: return "HWC";
      case Arch::PPC: return "PPC";
      case Arch::TwoHWC: return "2HWC";
      case Arch::TwoPPC: return "2PPC";
    }
    return "?";
}

MachineConfig
MachineConfig::base()
{
    MachineConfig c;
    c.numNodes = 16;
    c.node.procsPerNode = 4;
    // Table 1 defaults are encoded in the substructures' field
    // initializers (bus, memory, network, directory, caches).
    return c;
}

MachineConfig &
MachineConfig::withReliableTransport()
{
    reliable.enabled = true;
    // Bounded protocol retry: first re-attempt after 32 ticks,
    // doubling up to 8192, giving up (with a diagnostic) after 64
    // tries. 64 doublings capped at 8K ticks is far beyond any
    // transient condition the protocol can produce, so escalation
    // only fires on genuine livelock.
    node.cc.retry.backoffBase = 32;
    node.cc.retry.backoffMax = 8192;
    node.cc.retry.maxRetries = 64;
    return *this;
}

MachineConfig &
MachineConfig::withCrashRecovery()
{
    recovery.enabled = true;
    // A crashed controller drops undelivered frames on the floor and
    // relies on sender retransmission to replay them after restart.
    return withReliableTransport();
}

MachineConfig &
MachineConfig::withIntegrity()
{
    integrity.enabled = true;
    // Corruption-as-loss needs the CRC check on every frame, and a
    // directory UE escalates through the crash-recovery machinery.
    reliable.crc = true;
    return withCrashRecovery();
}

namespace
{

/**
 * The on/off environment switch @p name: true for "1" or "on", false
 * for "0" or "off", nullopt when unset or anything else (warned
 * about; the setting stays @p current).
 */
std::optional<bool>
envSwitch(const char *name, bool current)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return std::nullopt;
    if (!std::strcmp(env, "1") || !std::strcmp(env, "on"))
        return true;
    if (!std::strcmp(env, "0") || !std::strcmp(env, "off"))
        return false;
    warn("%s=%s not recognized (use 1|on|0|off); it stays %s", name,
         env, current ? "on" : "off");
    return std::nullopt;
}

} // namespace

MachineConfig &
MachineConfig::withEnvOverrides()
{
    // CCNUMA_RELIABLE, _RECOVERY and _INTEGRITY force-enable end-to-end
    // message recovery, fail-stop crash recovery and data integrity
    // (each implying the ones before it); "0" leaves the config alone.
    if (envSwitch("CCNUMA_RELIABLE", reliable.enabled).value_or(false))
        withReliableTransport();
    if (envSwitch("CCNUMA_RECOVERY", recovery.enabled).value_or(false))
        withCrashRecovery();
    if (envSwitch("CCNUMA_INTEGRITY", integrity.enabled).value_or(false))
        withIntegrity();
    // CCNUMA_SHARDS overrides the configured shard count. Only a
    // positive integer that fits the count is taken; "-5" must not
    // wrap to a huge shard count.
    std::uint64_t env_shards = shards;
    if (envPositiveInt("CCNUMA_SHARDS", env_shards)) {
        if (env_shards <= std::numeric_limits<unsigned>::max()) {
            shards = static_cast<unsigned>(env_shards);
        } else {
            warn("CCNUMA_SHARDS=%llu is too large; shard count stays "
                 "%u", (unsigned long long)env_shards, shards);
        }
    }
    // CCNUMA_MAX_TICKS overrides the run's tick limit. A zero or
    // unparsable limit would stop the run at tick 0 and report a
    // wedge, so only a positive integer is taken.
    envPositiveInt("CCNUMA_MAX_TICKS", maxTicks);
    // CCNUMA_SYNC_DEFER forces the deferred (sharded-style) sync
    // grant path in serial runs, making a serial run a bit-identity
    // oracle for the sharded modes.
    if (auto on = envSwitch("CCNUMA_SYNC_DEFER", forceSyncDefer))
        forceSyncDefer = *on;
    // CCNUMA_VERIFY force-enables the checker and/or watchdog. The
    // checker forces the serial scheduler (see Machine).
    if (const char *env = std::getenv("CCNUMA_VERIFY")) {
        if (!std::strcmp(env, "1") || !std::strcmp(env, "checker") ||
            !std::strcmp(env, "all")) {
            verify.checker = true;
        }
        if (!std::strcmp(env, "watchdog") ||
            !std::strcmp(env, "all")) {
            verify.watchdog = true;
        }
        if (!verify.checker && !verify.watchdog) {
            warn("CCNUMA_VERIFY=%s not recognized (use "
                 "checker|watchdog|all|1); verification stays off",
                 env);
        }
    }
    // CCNUMA_TRACE force-enables the observability subsystem and the
    // CCNUMA_TRACE_* knobs tune it. Tracing never changes a result,
    // but it does pick the scheduler (see shardPlan()), so it is read
    // here, before anyone plans.
    if (const char *env = std::getenv("CCNUMA_TRACE")) {
        if (!std::strcmp(env, "1") || !std::strcmp(env, "on")) {
            obs.enabled = true;
        } else if (std::strcmp(env, "0") && std::strcmp(env, "off")) {
            warn("CCNUMA_TRACE=%s not recognized (use 1|on|0|off); "
                 "tracing stays off", env);
        }
    }
    if (obs.enabled) {
        if (const char *env = std::getenv("CCNUMA_TRACE_FILE"))
            obs.chromeTraceFile = env;
        if (const char *env = std::getenv("CCNUMA_TRACE_METRICS"))
            obs.metricsFile = env;
        envPositiveInt("CCNUMA_TRACE_SAMPLE", obs.sampleEvery);
        std::uint64_t ring = obs.ringCapacity;
        if (envPositiveInt("CCNUMA_TRACE_RING", ring))
            obs.ringCapacity = static_cast<std::size_t>(ring);
    }
    return *this;
}

ShardPlan
MachineConfig::shardPlan() const
{
    // No shard may outrun another by more than the earliest possible
    // cross-node interaction: the network's minimum send-to-arrival
    // gap or a sync grant hand-off, whichever is smaller.
    const Tick lookahead = std::min<Tick>(
        2 * net.portCycle + net.flightLatency, syncHandoffTicks);
    ShardPlan p;
    if (shards > 1) {
        if (verify.checker) {
            p.fallback = "the coherence invariant checker reads global "
                         "machine state at every delivery";
        } else if (placement == PlacementPolicy::FirstTouch) {
            p.fallback = "first-touch placement resolves page homes at "
                         "miss time, a cross-shard race";
        } else if (!verify.faults.crashes.empty()) {
            p.fallback = "crash recovery mutates cross-node state "
                         "(receive fences, directory rebuilds, page "
                         "remaps) synchronously at the crash and repair "
                         "events";
        } else if (!verify.faults.flips.empty()) {
            p.fallback = "integrity fault injection mutates cross-node "
                         "state (ECC words, line poisoning, processor "
                         "kills) synchronously at each flip event";
        } else if (lookahead == 0) {
            p.fallback = "the lookahead window is empty (network "
                         "minimum latency and sync hand-off leave no "
                         "safe slack)";
        } else if (obs.enabled) {
            // Diagnostic fallbacks (this and the next): one tracer and
            // one watchdog see the whole machine from one queue.
            // Deferred grants keep the run the sharded run's serial
            // oracle, so only the wall clock changes.
            p.fallback = "tracing records the whole machine in one "
                         "tracer (grants stay deferred: results are "
                         "the sharded run's)";
            p.deferredGrants = true;
        } else if (verify.watchdog) {
            p.fallback = "the hang watchdog checks progress from one "
                         "queue (grants stay deferred: results are "
                         "the sharded run's)";
            p.deferredGrants = true;
        } else {
            p.shards = shards;
            p.lookahead = lookahead;
        }
    }
    p.deferredGrants = p.deferredGrants || p.shards > 1 || forceSyncDefer;
    return p;
}

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
MachineConfig::validate() const
{
    if (numNodes == 0)
        fatal("config: numNodes is zero; a machine needs at least "
              "one node");
    if (node.procsPerNode == 0)
        fatal("config: procsPerNode is zero; each SMP node needs at "
              "least one processor");
    if (!isPow2(node.cache.lineBytes))
        fatal("config: cache line size %u is not a power of two",
              node.cache.lineBytes);
    if (node.bus.lineBytes != node.cache.lineBytes ||
        node.mem.lineBytes != node.cache.lineBytes ||
        node.dir.lineBytes != node.cache.lineBytes) {
        fatal("config: inconsistent line sizes (cache %u, bus %u, "
              "mem %u, dir %u); use withLineBytes() to change them "
              "together",
              node.cache.lineBytes, node.bus.lineBytes,
              node.mem.lineBytes, node.dir.lineBytes);
    }
    if (!isPow2(pageBytes))
        fatal("config: page size %u is not a power of two",
              pageBytes);
    if (pageBytes < node.cache.lineBytes)
        fatal("config: page size %u is smaller than the %u-byte "
              "cache line",
              pageBytes, node.cache.lineBytes);
    if (net.portWidthBytes == 0)
        fatal("config: network port width is zero bytes; nothing "
              "could ever be transferred");
    if (net.portCycle == 0)
        fatal("config: network port cycle is zero ticks");
    if (maxTicks == 0)
        fatal("config: maxTicks is zero; the watchdog would abort "
              "every run immediately");
    if (shards == 0)
        fatal("config: shards is zero; use 1 for the serial "
              "scheduler");
    if (numNodes % shards != 0)
        fatal("config: %u nodes cannot be split evenly over %u "
              "shards",
              numNodes, shards);
    if (reliable.enabled) {
        if (reliable.retransmitTimeout == 0)
            fatal("config: reliable transport enabled with a zero "
                  "retransmit timeout; every frame would retransmit "
                  "instantly");
        if (reliable.retransmitTimeoutMax < reliable.retransmitTimeout)
            fatal("config: reliable transport retransmit timeout cap "
                  "%llu is below the base timeout %llu",
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeoutMax),
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeout));
        if (reliable.reorderBufCap == 0)
            fatal("config: reliable transport reorder buffer capacity "
                  "is zero; no out-of-order frame could ever be held");
    }
    if (node.cc.retry.backoffBase != 0 &&
        node.cc.retry.backoffMax != 0 &&
        node.cc.retry.backoffMax < node.cc.retry.backoffBase) {
        fatal("config: retry backoff cap %llu is below the base "
              "delay %llu",
              static_cast<unsigned long long>(node.cc.retry.backoffMax),
              static_cast<unsigned long long>(
                  node.cc.retry.backoffBase));
    }
    if (!verify.faults.crashes.empty()) {
        if (!recovery.enabled)
            fatal("config: crash faults are listed but recovery is "
                  "disabled; call withCrashRecovery() (or set "
                  "CCNUMA_RECOVERY=1) so the machine can survive "
                  "them");
        if (!reliable.enabled)
            fatal("config: crash faults require the reliable "
                  "transport: a crashed controller fences its "
                  "receive side and depends on sender retransmission "
                  "to re-deliver dropped frames; use "
                  "withCrashRecovery() which enables both");
        for (const CrashFault &c : verify.faults.crashes) {
            if (c.node >= numNodes)
                fatal("config: crash fault targets node %u but the "
                      "machine has only %u nodes",
                      c.node, numNodes);
        }
    }
    if (integrity.enabled) {
        if (!reliable.enabled || !reliable.crc)
            fatal("config: integrity is enabled but the reliable "
                  "transport's CRC check is not; a corrupted frame "
                  "could only be detected as a loss, so use "
                  "withIntegrity() (or CCNUMA_INTEGRITY=1) which "
                  "enables both");
        if (integrity.scrubIntervalTicks == 0)
            fatal("config: integrity.scrubIntervalTicks is zero; a "
                  "latent correctable error would never be scrubbed");
    }
    if (!verify.faults.flips.empty()) {
        if (!integrity.enabled)
            fatal("config: bit-flip faults are listed but the "
                  "integrity subsystem is disabled; an injected flip "
                  "would be a guaranteed silent corruption, so call "
                  "withIntegrity() (or set CCNUMA_INTEGRITY=1) "
                  "first");
        for (const FlipFault &f : verify.faults.flips) {
            if (f.node >= numNodes)
                fatal("config: flip fault targets node %u but the "
                      "machine has only %u nodes",
                      f.node, numNodes);
            if (f.bits != 1 && f.bits != 2)
                fatal("config: flip fault flips %u bits; the SECDED "
                      "fault model covers 1 (correctable) or 2 "
                      "(uncorrectable)",
                      f.bits);
            if (f.bits == 2 && f.domain != FlipDomain::Message &&
                !recovery.enabled)
                fatal("config: an uncorrectable directory or cache "
                      "flip escalates through the crash-recovery "
                      "subsystem, which is disabled; use "
                      "withIntegrity() which enables it");
        }
    }
    if (recovery.enabled) {
        if (recovery.repairTicks == 0)
            fatal("config: recovery.repairTicks is zero; a crashed "
                  "controller would restart in the same tick it "
                  "died, making the crash a no-op");
        if (recovery.missTimeoutTicks != 0 && reliable.enabled &&
            recovery.missTimeoutTicks <= reliable.retransmitTimeoutMax)
            fatal("config: recovery.missTimeoutTicks %llu must exceed "
                  "the reliable transport's maximum retransmission "
                  "timeout %llu, or a slow-but-healthy home would be "
                  "escalated as dead while the transport is still "
                  "retrying",
                  static_cast<unsigned long long>(
                      recovery.missTimeoutTicks),
                  static_cast<unsigned long long>(
                      reliable.retransmitTimeoutMax));
        if (recovery.probeFanout > numNodes - 1)
            fatal("config: recovery.probeFanout %u exceeds the %u "
                  "peer nodes a recovering home could probe; use 0 "
                  "to probe all peers at once",
                  recovery.probeFanout, numNodes - 1);
    }
}

MachineConfig &
MachineConfig::withArch(Arch a)
{
    switch (a) {
      case Arch::HWC:
        node.cc.engineType = EngineType::HWC;
        node.cc.numEngines = 1;
        break;
      case Arch::PPC:
        node.cc.engineType = EngineType::PP;
        node.cc.numEngines = 1;
        break;
      case Arch::TwoHWC:
        node.cc.engineType = EngineType::HWC;
        node.cc.numEngines = 2;
        break;
      case Arch::TwoPPC:
        node.cc.engineType = EngineType::PP;
        node.cc.numEngines = 2;
        break;
    }
    return *this;
}

MachineConfig &
MachineConfig::withLineBytes(unsigned bytes)
{
    node.bus.lineBytes = bytes;
    node.mem.lineBytes = bytes;
    node.dir.lineBytes = bytes;
    node.cache.lineBytes = bytes;
    return *this;
}

MachineConfig &
MachineConfig::withNetworkLatency(Tick ticks)
{
    net.flightLatency = ticks;
    return *this;
}

MachineConfig &
MachineConfig::withProcsPerNode(unsigned ppn, unsigned total_procs)
{
    if (ppn == 0 || total_procs % ppn != 0)
        fatal("cannot split %u processors into nodes of %u",
              total_procs, ppn);
    node.procsPerNode = ppn;
    numNodes = total_procs / ppn;
    return *this;
}

} // namespace ccnuma
