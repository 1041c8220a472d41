/**
 * @file
 * Crash campaign: fail-stop a coherence controller at several points
 * in each kernel's execution, on all four controller architectures,
 * and verify the recovery subsystem heals every run back to the exact
 * clean-run instruction count with the invariant checker enabled.
 *
 * Per (kernel, architecture) pair the bench first runs a clean
 * baseline (no faults, recovery off), then replays the run three
 * times with a transient controller crash at ~25%, ~50%, and ~75% of
 * the baseline's execution time; the two later points also lose the
 * directory SRAM, forcing a full DirProbe reconstruction on restart.
 * Every campaign run must complete, stay checker-clean (violations
 * panic), and retire the same instruction count as its baseline.
 *
 * Extra options on top of bench_common:
 *   --crash-node=<n>   controller to kill (default 1)
 */

#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "report/recovery.hh"

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

/** Crash points as fractions of the baseline execution time. */
constexpr double kCrashFractions[] = {0.25, 0.50, 0.75};

struct Point
{
    std::string app;
    Arch arch = Arch::HWC;
};

struct PointResult
{
    RunResult ref;                ///< clean baseline
    std::vector<Tick> crashTicks; ///< one per campaign run
    std::vector<bool> loseDir;
    std::vector<RunResult> runs;
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
runPoint(const Point &pt, const Options &o, NodeId crash_node)
{
    PointResult res;
    res.ref = runOne(pt.app, baseConfig(pt, o), o);

    for (std::size_t i = 0; i < std::size(kCrashFractions); ++i) {
        Tick at = static_cast<Tick>(
            static_cast<double>(res.ref.execTicks) *
            kCrashFractions[i]);
        if (at == 0)
            at = 1;
        bool lose = i > 0; // later points also lose the SRAM

        MachineConfig cfg = baseConfig(pt, o).withCrashRecovery();
        cfg.verify.checker = true;
        CrashFault f;
        f.node = crash_node;
        f.atTick = at;
        f.loseDirectory = lose;
        cfg.verify.faults.crashes.push_back(f);

        res.crashTicks.push_back(at);
        res.loseDir.push_back(lose);
        res.runs.push_back(runOne(pt.app, cfg, o));
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

    NodeId crash_node = 1;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--crash-node=", 0) == 0)
            crash_node = static_cast<NodeId>(integerFlag(
                arg, 0, std::numeric_limits<NodeId>::max()));
        else
            rest.push_back(argv[i]);
    }
    Options o = parseOptions(static_cast<int>(rest.size()),
                             rest.data());

    printHeader("Crash campaign: fail-stop controller faults with "
                "directory reconstruction (crash node " +
                    std::to_string(crash_node) + ")",
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
            return runPoint(pt, o, crash_node);
        });

    JsonReport session("crash_campaign", o);
    report::CrashScorecard card;
    bool all_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &pr = results[i];
        for (std::size_t k = 0; k < pr.runs.size(); ++k) {
            const RunResult &r = pr.runs[k];
            report::CrashRow row;
            row.workload = r.workload;
            row.arch = r.arch;
            row.crashTick = pr.crashTicks[k];
            row.instructions = r.instructions;
            row.crashes = r.crashesInjected;
            row.dirRebuilds = r.dirRebuilds;
            row.rebuildLines = r.rebuildLines;
            row.reconstructionTicksMax = r.reconstructionTicksMax;
            row.recoveryNacks = r.recoveryNacks;
            row.missTimeouts = r.missTimeouts;
            row.timeoutResends = r.timeoutResends;
            row.recoveryProbes = r.recoveryProbes;
            row.degradedEntries = r.degradedEntries;
            row.migrations = r.migrations;
            row.instructionsMatch =
                r.instructions == pr.ref.instructions;
            row.completed = r.completed;
            card.addRow(row);

            if (!row.instructionsMatch || !row.completed) {
                all_ok = false;
                std::cout << points[i].app << "/"
                          << archName(points[i].arch) << " crash@"
                          << pr.crashTicks[k] << ": retired "
                          << r.instructions << " vs "
                          << pr.ref.instructions << " clean"
                          << (r.completed ? "" : " (INCOMPLETE)")
                          << " -- MISMATCH\n";
            }
        }
    }

    session.table("crash campaign", card.toTable());
    std::cout << (all_ok
                      ? "all campaign runs completed checker-clean "
                        "with identical instruction counts\n"
                      : "CAMPAIGN FAILURE (see above)\n");
    return all_ok ? 0 : 1;
}
