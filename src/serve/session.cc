#include "serve/session.hh"

#include <algorithm>
#include <numeric>

#include "sim/parallel.hh"
#include "workload/replay.hh"

namespace ccnuma
{
namespace serve
{

unsigned
procsForApp(const std::string &app, unsigned default_procs)
{
    if (app == "LU" || app == "Cholesky")
        return std::min(32u, default_procs);
    return default_procs;
}

SimPoint
makeSimPoint(const std::string &app, Arch arch, unsigned procs,
             double scale, double data_factor,
             const std::function<void(MachineConfig &)> &tweak,
             unsigned shards, std::uint64_t seed)
{
    SimPoint pt;
    pt.app = app;

    MachineConfig &cfg = pt.cfg;
    cfg = MachineConfig::base();
    unsigned ppn = cfg.node.procsPerNode;
    cfg.withProcsPerNode(ppn, procs);
    cfg.withArch(arch);
    if (tweak)
        tweak(cfg);
    if (shards > 1 && cfg.shards <= 1) {
        // Shard counts must divide the node count; fold the request
        // down to the nearest divisor rather than rejecting the run.
        cfg.shards = std::gcd(shards, cfg.numNodes);
    }
    // Machine applies these too; applying them here makes key() the
    // key of the configuration that actually runs.
    cfg.withEnvOverrides();

    pt.wp.numThreads = procs;
    pt.wp.scale = scale;
    pt.wp.dataFactor = data_factor;
    pt.wp.lineBytes = cfg.node.cache.lineBytes;
    pt.wp.seed = seed;
    return pt;
}

RunResult
SimSession::run(const SimPoint &pt) const
{
    auto w = makeWorkload(pt.app, pt.wp);
    // Trace-replay fast path: a sweep revisiting this workload
    // identity (kernel + every WorkloadParams field, rendered by the
    // same canonical text the result cache keys on) replays the
    // captured reference stream allocation-free instead of running
    // the data-computing coroutines again. Machine parameters are
    // deliberately absent from the key — they shape timing, never
    // the op sequence. CCNUMA_REPLAY=0 restores always-generate.
    if (ReplayCache *rc = globalReplayCache()) {
        auto buf = rc->acquire(canonicalWorkload(pt.app, pt.wp),
                               [&] {
                                   return makeWorkload(pt.app,
                                                       pt.wp);
                               });
        ReplayWorkload rw(std::move(w), std::move(buf));
        Machine m(pt.cfg);
        return m.run(rw);
    }
    Machine m(pt.cfg);
    return m.run(*w);
}

std::vector<PointOutcome>
CampaignRunner::run(
    const std::vector<SimPoint> &points,
    const std::function<void(std::size_t, const PointOutcome &)>
        &progress) const
{
    SimSession session;
    auto run_one = [&](const SimPoint &pt) {
        PointOutcome out;
        if (cache_) {
            ResultCache::Outcome o =
                cache_->fetch(pt.key(), [&] {
                    return session.run(pt);
                });
            out.result = std::move(o.result);
            out.fromCache = o.fromCache();
            out.deduped = o.deduped();
        } else {
            out.result = session.run(pt);
        }
        return out;
    };

    std::vector<PointOutcome> results(points.size());
    parallelForIndex(jobs_, points.size(), [&](std::size_t i) {
        results[i] = run_one(points[i]);
        if (progress)
            progress(i, results[i]);
    });
    return results;
}

} // namespace serve
} // namespace ccnuma
