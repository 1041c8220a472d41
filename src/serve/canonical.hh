/**
 * @file
 * Canonical serialization and stable hashing of a simulation point.
 *
 * The campaign service deduplicates work by content: two requests
 * that describe the same (MachineConfig, workload, seed) point must
 * map to the same cache key, and two requests that differ in ANY
 * result-bearing field must not. The canonical form is a fixed-order
 * `key=value` text rendering of every result-bearing configuration
 * field; the key is a stable 64-bit FNV-1a hash of that text, with
 * the full text kept alongside to disarm hash collisions (a collision
 * bypasses the cache, it never merges two points).
 *
 * Two groups of fields are deliberately EXCLUDED because the repo's
 * identity test suites prove them result-invariant:
 *   - MachineConfig::shards (tests/integration/test_sharded_identity):
 *     a sharded run is bit-identical to a serial run with deferred
 *     sync grants, so a point simulated with 4 shards can serve a
 *     request for the same point at 1 (the key carries the grant
 *     deferral of the scheduler that runs, from
 *     MachineConfig::shardPlan());
 *   - MachineConfig::obs (tests/obs traced-vs-untraced identity):
 *     tracing writes side files but never changes a RunResult.
 * Everything else — including the verify/reliable/recovery/integrity
 * subsystems, which do change timing or behavior — is included.
 *
 * New-field guard: canonicalMachineConfig() sits behind sizeof
 * static_asserts on every struct it flattens. Landing a new config
 * field without extending the canonical form (and the perturbation
 * test in tests/serve/test_canonical.cc) fails the build instead of
 * silently serving stale cached results.
 */

#ifndef CCNUMA_SERVE_CANONICAL_HH
#define CCNUMA_SERVE_CANONICAL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "system/config.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace serve
{

/** Stable 64-bit FNV-1a. Never changes across platforms/versions. */
constexpr std::uint64_t
hash64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Fixed-order `key=value` rendering of every result-bearing
 * MachineConfig field (see file comment for the exclusions).
 */
std::string canonicalMachineConfig(const MachineConfig &cfg);

/** Canonical rendering of a workload identity (name + params). */
std::string canonicalWorkload(const std::string &app,
                              const WorkloadParams &wp);

/** Content-address of one simulation point. */
struct PointKey
{
    std::uint64_t hash = 0;
    /** The full canonical text (collision guard, persisted). */
    std::string canonical;
};

/** Key of the point (cfg, app, wp). wp.seed is part of the key. */
PointKey makePointKey(const MachineConfig &cfg,
                      const std::string &app,
                      const WorkloadParams &wp);

} // namespace serve
} // namespace ccnuma

#endif // CCNUMA_SERVE_CANONICAL_HH
