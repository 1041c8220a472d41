/**
 * @file
 * Recovery scorecard: run every SPLASH-2 kernel under a seeded
 * drop/duplicate/reorder fault campaign with end-to-end message
 * recovery enabled, and print what the reliable transport and the
 * bounded NACK-retry policy had to do to finish each run. A clean
 * (fault-free, recovery-off) reference run per kernel confirms that
 * recovery preserved the retired-instruction results exactly.
 *
 * Extra options on top of bench_common:
 *   --seed=<n>   fault-injector seed (default 11)
 */

#include <cstdint>

#include "bench_common.hh"
#include "report/recovery.hh"
#include "verify/checker.hh"

namespace ccnuma
{
namespace bench
{
namespace
{

constexpr const char *kKernels[] = {"LU",     "Cholesky", "Water-Nsq",
                                    "Water-Sp", "Barnes", "FFT",
                                    "Radix",  "Ocean"};

MachineConfig
campaignConfig(const std::string &app, const Options &o,
               std::uint64_t seed)
{
    unsigned procs = procsForApp(app, o.procs);
    MachineConfig cfg = MachineConfig::base();
    cfg.withProcsPerNode(cfg.node.procsPerNode, procs);
    cfg.withArch(Arch::PPC);
    cfg.verify.checker = true;
    cfg.verify.faults.seed = seed;
    cfg.verify.faults.dropEveryN = 97;
    cfg.verify.faults.duplicateProb = 0.02;
    cfg.verify.faults.reorderProb = 0.02;
    cfg.verify.faults.reorderDelayMax = 300;
    return cfg;
}

RunResult
run(const std::string &app, const MachineConfig &cfg, const Options &o)
{
    WorkloadParams p;
    p.numThreads = cfg.totalProcs();
    p.scale = o.scale;
    p.lineBytes = cfg.node.cache.lineBytes;
    auto w = makeWorkload(app, p);
    Machine m(cfg);
    return m.run(*w);
}

} // namespace
} // namespace bench
} // namespace ccnuma

int
main(int argc, char **argv)
{
    using namespace ccnuma;
    using namespace ccnuma::bench;

    std::uint64_t seed = 11;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0)
            seed = integerFlag(
                arg, 0, std::numeric_limits<std::uint64_t>::max());
        else
            rest.push_back(argv[i]);
    }
    Options o = parseOptions(static_cast<int>(rest.size()),
                             rest.data());

    printHeader("Recovery scorecard: seeded fault campaign with "
                "end-to-end message recovery (seed " +
                    std::to_string(seed) + ")",
                o);

    report::RecoveryScorecard card;
    bool all_exact = true;
    for (const char *app : kKernels) {
        if (!o.wantsApp(app))
            continue;

        // Clean reference: no faults, no recovery.
        MachineConfig clean = MachineConfig::base();
        clean.withProcsPerNode(clean.node.procsPerNode,
                               procsForApp(app, o.procs));
        clean.withArch(Arch::PPC);
        RunResult ref = run(app, clean, o);

        MachineConfig cfg =
            campaignConfig(app, o, seed).withReliableTransport();
        RunResult r = run(app, cfg, o);

        report::RecoveryRow row;
        row.workload = r.workload;
        row.instructions = r.instructions;
        row.faultsInjected = r.faultsInjected;
        row.retransmits = r.xportRetransmits;
        row.timeouts = r.xportTimeouts;
        row.dupsDropped = r.xportDupsDropped;
        row.reordersHealed = r.xportReordersHealed;
        row.nackRetries = r.nackRetries;
        row.backoffTicks =
            r.retryBackoffTicks; // protocol-level backoff waits
        row.completed = r.completed;
        card.addRow(row);

        if (r.instructions != ref.instructions) {
            all_exact = false;
            std::cout << app << ": retired " << r.instructions
                      << " under recovery vs " << ref.instructions
                      << " clean -- MISMATCH\n";
        }
    }
    card.print(std::cout);
    std::cout << (all_exact
                      ? "all kernels retired identical instruction "
                        "counts with recovery enabled\n"
                      : "RESULT MISMATCH under recovery (see above)\n");
    return all_exact ? 0 : 1;
}
