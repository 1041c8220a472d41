/**
 * @file
 * Corruption campaign: inject a seeded bit flip into each kernel on
 * all four controller architectures, across the three fault domains
 * (a transport frame in flight, a directory entry at rest, a cache
 * line at rest) and both severities (single-bit correctable,
 * double-bit uncorrectable), and verify the integrity defenses leave
 * ZERO escaped corruptions: every applied flip is answered by the
 * frame CRC, the SECDED ECC (at access or by the scrubber), a
 * contained discard, or a crash-and-rebuild escalation — with the
 * coherence invariant checker strict throughout and every run
 * retiring the baseline's exact instruction count.
 *
 * Per (kernel, architecture) pair the bench first runs a clean
 * baseline (integrity off), then replays the run once per
 * (domain, bits) combination with one flip at ~40% of the baseline's
 * execution time. Cache-domain UEs keep preferClean, so containment
 * never has to kill a processor and instruction counts stay
 * comparable (the poisoning path is exercised by the unit tests).
 *
 * Extra options on top of bench_common:
 *   --flip-node=<n>   node to corrupt (default 1)
 */

#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "report/integrity.hh"

namespace ccnuma
{
namespace bench
{
namespace
{

constexpr const char *kKernels[] = {"LU",       "Cholesky",
                                    "Water-Nsq", "Water-Sp",
                                    "Barnes",   "FFT",
                                    "Radix",    "Ocean"};

constexpr FlipDomain kDomains[] = {FlipDomain::Message,
                                   FlipDomain::Directory,
                                   FlipDomain::Cache};

const char *
domainName(FlipDomain d)
{
    switch (d) {
      case FlipDomain::Message: return "message";
      case FlipDomain::Directory: return "directory";
      case FlipDomain::Cache: return "cache";
    }
    return "?";
}

struct Point
{
    std::string app;
    Arch arch = Arch::HWC;
};

struct CampaignRun
{
    FlipDomain domain = FlipDomain::Message;
    unsigned bits = 1;
    RunResult result;
};

struct PointResult
{
    RunResult ref; ///< clean baseline
    std::vector<CampaignRun> runs;
};

RunResult
runOne(const std::string &app, const MachineConfig &cfg,
       const Options &o)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = o.scale;
    p.lineBytes = cfg.node.cache.lineBytes;
    auto w = makeWorkload(app, p);
    Machine m(cfg);
    return m.run(*w);
}

MachineConfig
baseConfig(const Point &pt, const Options &o)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.withProcsPerNode(cfg.node.procsPerNode,
                         procsForApp(pt.app, o.procs));
    cfg.withArch(pt.arch);
    return cfg;
}

PointResult
runPoint(const Point &pt, const Options &o, NodeId flip_node)
{
    PointResult res;
    res.ref = runOne(pt.app, baseConfig(pt, o), o);

    Tick at = static_cast<Tick>(
        static_cast<double>(res.ref.execTicks) * 0.4);
    if (at == 0)
        at = 1;

    for (FlipDomain d : kDomains) {
        for (unsigned bits = 1; bits <= 2; ++bits) {
            MachineConfig cfg = baseConfig(pt, o).withIntegrity();
            cfg.verify.checker = true;
            FlipFault f;
            f.domain = d;
            f.node = flip_node;
            f.atTick = at;
            f.bits = bits;
            // Seed varies per campaign point so victim selection
            // covers different words/lines across the sweep.
            f.seed = 0x9e3779b9u ^ (static_cast<std::uint64_t>(d)
                                    << 8) ^ bits ^
                     static_cast<std::uint64_t>(pt.arch);
            f.preferClean = true;
            cfg.verify.faults.flips.push_back(f);

            res.runs.push_back({d, bits, runOne(pt.app, cfg, o)});
        }
    }
    return res;
}

} // namespace
} // namespace bench
} // namespace ccnuma

int
main(int argc, char **argv)
{
    using namespace ccnuma;
    using namespace ccnuma::bench;

    NodeId flip_node = 1;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--flip-node=", 0) == 0)
            flip_node = static_cast<NodeId>(integerFlag(
                arg, 0, std::numeric_limits<NodeId>::max()));
        else
            rest.push_back(argv[i]);
    }
    Options o = parseOptions(static_cast<int>(rest.size()),
                             rest.data());

    printHeader("Corruption campaign: seeded bit flips vs CRC, "
                "SECDED ECC, scrubbing, and containment (flip node " +
                    std::to_string(flip_node) + ")",
                o);

    std::vector<Point> points;
    for (const char *app : kKernels) {
        if (!o.wantsApp(app))
            continue;
        for (Arch arch : allArchs)
            points.push_back({app, arch});
    }

    std::vector<PointResult> results =
        parallelMap(o.effectiveJobs(), points, [&](const Point &pt) {
            return runPoint(pt, o, flip_node);
        });

    JsonReport session("corruption_campaign", o);
    report::CorruptionScorecard card;
    bool all_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &pr = results[i];
        for (const CampaignRun &cr : pr.runs) {
            const RunResult &r = cr.result;
            report::CorruptionRow row;
            row.workload = r.workload;
            row.arch = r.arch;
            row.domain = domainName(cr.domain);
            row.bits = cr.bits;
            row.instructions = r.instructions;
            row.flipsInjected = r.flipsInjected;
            row.flipsSkipped = r.flipsSkipped;
            row.crcDetected = r.crcDetected;
            row.eccCorrected = r.eccCorrected;
            row.scrubCorrections = r.scrubCorrections;
            row.containedDiscards = r.containedDiscards;
            row.linesPoisoned = r.linesPoisoned;
            row.escalations = r.integrityEscalations;
            row.escaped = r.escapedCorruptions;
            row.instructionsMatch =
                r.instructions == pr.ref.instructions;
            row.completed = r.completed;
            card.addRow(row);

            if (row.escaped != 0 || !row.instructionsMatch ||
                !row.completed) {
                all_ok = false;
                std::cout << points[i].app << "/"
                          << archName(points[i].arch) << " "
                          << row.domain << " x" << row.bits
                          << ": escaped=" << row.escaped
                          << ", retired " << r.instructions << " vs "
                          << pr.ref.instructions << " clean"
                          << (r.completed ? "" : " (INCOMPLETE)")
                          << " -- FAILURE\n";
            }
        }
    }

    session.table("corruption campaign", card.toTable());
    std::cout << (all_ok
                      ? "all campaign runs completed checker-clean "
                        "with zero escaped corruptions\n"
                      : "CAMPAIGN FAILURE (see above)\n");
    return all_ok ? 0 : 1;
}
