#include "serve/result_io.hh"

#include <sstream>

#include "report/json.hh"

namespace ccnuma
{
namespace serve
{

// New-field tripwire, same convention as canonical.cc: a RunResult
// field added without extending the round-trip below (and the
// round-trip test in tests/serve/test_result_cache.cc) fails the
// build instead of silently dropping data from cached results.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(RunResult) == 472,
              "RunResult changed: update result_io round-trip");
#endif

// Every uint64-valued field (Tick fields included; Tick is uint64).
#define CCNUMA_RUNRESULT_U64_FIELDS(X)                                \
    X(execTicks)                                                      \
    X(instructions)                                                   \
    X(memRefs)                                                        \
    X(misses)                                                         \
    X(ccRequests)                                                     \
    X(ccOccupancy)                                                    \
    X(faultsInjected)                                                 \
    X(xportRetransmits)                                               \
    X(xportTimeouts)                                                  \
    X(xportDupsDropped)                                               \
    X(xportReordersHealed)                                            \
    X(xportAcks)                                                      \
    X(nackRetries)                                                    \
    X(retryBackoffTicks)                                              \
    X(crashesInjected)                                                \
    X(dirRebuilds)                                                    \
    X(rebuildLines)                                                   \
    X(reconstructionTicksMax)                                         \
    X(recoveryNacks)                                                  \
    X(missTimeouts)                                                   \
    X(timeoutResends)                                                 \
    X(recoveryProbes)                                                 \
    X(degradedEntries)                                                \
    X(strayDrops)                                                     \
    X(migrations)                                                     \
    X(flipsInjected)                                                  \
    X(flipsSkipped)                                                   \
    X(crcChecked)                                                     \
    X(crcDetected)                                                    \
    X(eccCorrected)                                                   \
    X(scrubCorrections)                                               \
    X(eccPendingDropped)                                              \
    X(poisonNacks)                                                    \
    X(containedDiscards)                                              \
    X(linesPoisoned)                                                  \
    X(procsKilledPoison)                                              \
    X(integrityEscalations)

#define CCNUMA_RUNRESULT_DOUBLE_FIELDS(X)                             \
    X(avgUtilization)                                                 \
    X(avgQueueDelayTicks)                                             \
    X(arrivalsPerUs)

void
writeRunResult(report::JsonWriter &j, const RunResult &r)
{
    j.beginObject();
    j.key("workload").value(r.workload);
    j.key("arch").value(r.arch);
#define W_U64(f) j.key(#f).value(static_cast<std::uint64_t>(r.f));
    CCNUMA_RUNRESULT_U64_FIELDS(W_U64)
#undef W_U64
#define W_DBL(f) j.key(#f).valueFull(r.f);
    CCNUMA_RUNRESULT_DOUBLE_FIELDS(W_DBL)
#undef W_DBL
    j.key("escapedCorruptions")
        .value(static_cast<std::int64_t>(r.escapedCorruptions));
    j.key("completed").value(r.completed);
    j.key("shardsRequested")
        .value(static_cast<std::uint64_t>(r.shardsRequested));
    j.key("shardsUsed")
        .value(static_cast<std::uint64_t>(r.shardsUsed));
    j.key("shardFallback").value(r.shardFallback);
    j.key("windowsRun").value(r.windowsRun);
    j.key("windowsWidened").value(r.windowsWidened);
    j.key("windowFallbacks").value(r.windowFallbacks);
    j.key("syncWindowStops").value(r.syncWindowStops);
    j.endObject();
}

std::string
resultToJson(const RunResult &r)
{
    std::ostringstream os;
    report::JsonWriter j(os);
    writeRunResult(j, r);
    return os.str();
}

RunResult
resultFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw JsonError("result: expected a JSON object");
    RunResult r;
    r.workload = v.getString("workload", "");
    r.arch = v.getString("arch", "");
#define R_U64(f) r.f = v.getU64(#f, 0);
    CCNUMA_RUNRESULT_U64_FIELDS(R_U64)
#undef R_U64
#define R_DBL(f) r.f = v.getDouble(#f, 0.0);
    CCNUMA_RUNRESULT_DOUBLE_FIELDS(R_DBL)
#undef R_DBL
    r.escapedCorruptions = v.getI64("escapedCorruptions", 0);
    r.completed = v.getBool("completed", false);
    r.shardsRequested = v.getU32("shardsRequested", 1);
    r.shardsUsed = v.getU32("shardsUsed", 1);
    r.shardFallback = v.getString("shardFallback", "");
    r.windowsRun = v.getU64("windowsRun", 0);
    r.windowsWidened = v.getU64("windowsWidened", 0);
    r.windowFallbacks = v.getU64("windowFallbacks", 0);
    r.syncWindowStops = v.getU64("syncWindowStops", 0);
    return r;
}

RunResult
resultFromJson(const std::string &text)
{
    return resultFromJson(parseJson(text));
}

bool
resultsIdentical(const RunResult &a, const RunResult &b)
{
    // Execution-strategy metadata (shardsRequested/shardsUsed/
    // shardFallback and the window counters) is excluded: the cache
    // key deliberately ignores the shard count (sharded runs are
    // bit-identical to serial), so a hit may legitimately report the
    // scheduler layout of the run that populated it.
    if (a.workload != b.workload || a.arch != b.arch)
        return false;
#define C_U64(f)                                                      \
    if (a.f != b.f)                                                   \
        return false;
    CCNUMA_RUNRESULT_U64_FIELDS(C_U64)
#undef C_U64
#define C_DBL(f)                                                      \
    if (a.f != b.f)                                                   \
        return false;
    CCNUMA_RUNRESULT_DOUBLE_FIELDS(C_DBL)
#undef C_DBL
    return a.escapedCorruptions == b.escapedCorruptions &&
           a.completed == b.completed;
}

} // namespace serve
} // namespace ccnuma
