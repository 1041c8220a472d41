/**
 * @file
 * Observability subsystem configuration. Everything is off by
 * default so paper-fidelity runs pay nothing; the CCNUMA_TRACE
 * environment variable force-enables tracing without a config change
 * (mirroring CCNUMA_VERIFY / CCNUMA_RELIABLE). All the CCNUMA_TRACE*
 * knobs are read by MachineConfig::withEnvOverrides, before the shard
 * plan is made: a machine keeps exactly one tracer, so a traced
 * sharded request runs serially with deferred grants. See DESIGN.md
 * ("Observability subsystem") for the span taxonomy and the sink
 * interface.
 */

#ifndef CCNUMA_OBS_OBS_CONFIG_HH
#define CCNUMA_OBS_OBS_CONFIG_HH

#include <cstdint>
#include <string>

namespace ccnuma
{

/** Machine-level observability knobs. */
struct ObsConfig
{
    /**
     * Master switch; everything below is inert when false. When true,
     * a sharded request runs on one queue (see
     * MachineConfig::shardPlan()); its results do not change.
     */
    bool enabled = false;

    /**
     * Chrome trace-event JSON output path (loadable in Perfetto /
     * chrome://tracing); empty disables the trace sink while keeping
     * the aggregate histograms live. (CCNUMA_TRACE_FILE overrides.)
     */
    std::string chromeTraceFile = "ccnuma_trace.json";

    /**
     * Machine-readable metrics output path. A ".json" suffix emits a
     * structured JSON document; ".csv" emits flat metric,value rows.
     * Empty disables the metrics sink. (CCNUMA_TRACE_METRICS
     * overrides.)
     */
    std::string metricsFile = "ccnuma_metrics.json";

    /**
     * Record span events for 1 request in every @c sampleEvery
     * (deterministic under @c sampleSeed); 1 traces everything.
     * Aggregate histograms always see every request — sampling only
     * bounds the event record. (CCNUMA_TRACE_SAMPLE overrides.)
     */
    std::uint64_t sampleEvery = 1;

    /** Offsets which 1-in-N residue class gets sampled. */
    std::uint64_t sampleSeed = 0;

    /**
     * Bounded event-ring capacity (entries, rounded up to a power of
     * two). When full, new events are dropped and counted — never
     * silently. (CCNUMA_TRACE_RING overrides.)
     */
    std::size_t ringCapacity = 1u << 18;
};

} // namespace ccnuma

#endif // CCNUMA_OBS_OBS_CONFIG_HH
