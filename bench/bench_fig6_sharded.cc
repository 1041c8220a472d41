/**
 * @file
 * Sharded-scheduler speedup on the Figure 6 sweep: every point of the
 * base-configuration grid is run twice — serial (shards=1, with the
 * sharded grant timing forced so it stays the bit-identity oracle)
 * and sharded — with the wall clock of each timed and both results
 * required to be bit-identical (same retired instructions and
 * execution ticks).
 *
 * The speedup rows feed tools/bench_gate.py --sharded, which enforces
 * the minimum sharded speedup on CI; on hosts with fewer hardware
 * threads than shards the bench still proves identity but records
 * the thread count so the gate can skip the (meaningless) timing
 * checks.
 *
 * The adaptive planner's behavior is exported in full: windows run,
 * windows widened past the conservative end, fallbacks to it, and
 * sync-induced window stops are summed into the summary table — the
 * gate refuses a run where the counters are missing, so the planner
 * can never silently degrade into always-conservative windows.
 *
 * Each application's reference trace is pre-captured into the replay
 * cache before its first timed run, so one-time trace generation
 * never pollutes the serial-vs-sharded comparison.
 *
 * Unlike the other benches this one ignores --jobs: points run one at
 * a time so each Machine gets the whole host and the serial and
 * sharded wall clocks are comparable.
 */

#include <chrono>

#include "bench_common.hh"
#include "serve/canonical.hh"
#include "workload/replay.hh"

namespace ccnuma
{
namespace
{

using namespace bench;

struct TimedRun
{
    RunResult result;
    double ms = 0.0;
};

TimedRun
timedRun(const std::string &app, Arch arch, const Options &o,
         bool force_defer = false)
{
    auto t0 = std::chrono::steady_clock::now();
    TimedRun t;
    t.result = runApp(app, arch, o, 1.0, [force_defer](MachineConfig &cfg) {
        cfg.forceSyncDefer = force_defer;
    });
    t.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
    return t;
}

/** Capture @p app's trace outside the timed region (idempotent). */
void
warmReplay(const std::string &app, const Options &o)
{
    ReplayCache *rc = globalReplayCache();
    if (rc == nullptr)
        return;
    serve::SimPoint pt = makeBenchPoint(app, Arch::HWC, o);
    rc->acquire(serve::canonicalWorkload(pt.app, pt.wp),
                [&] { return makeWorkload(pt.app, pt.wp); });
}

int
run(int argc, char **argv)
{
    bench::Options o = bench::parseOptions(argc, argv);
    unsigned hw = ThreadPool::hardwareJobs();
    if (o.shards <= 1)
        o.shards = std::min(8u, std::max(2u, hw));
    bench::Options serial_o = o;
    serial_o.shards = 1;

    bench::printHeader(
        report::fmt("Figure 6 sweep, serial vs %u-sharded scheduler",
                    o.shards),
        o);
    std::cout << "hardware threads: " << hw << "\n";
    bench::JsonReport session("fig6_sharded", o);

    report::Table t({"application", "arch", "serial ms", "sharded ms",
                     "speedup", "shards used", "windows", "widened",
                     "fallbacks"});
    double serial_total = 0.0, sharded_total = 0.0;
    unsigned points = 0, identical = 0, sharded_points = 0;
    std::uint64_t windows_run = 0, windows_widened = 0;
    std::uint64_t window_fallbacks = 0, sync_window_stops = 0;

    for (const std::string &app : splashNames()) {
        if (!o.wantsApp(app))
            continue;
        warmReplay(app, serial_o);
        for (Arch arch : allArchs) {
            // The serial oracle forces the deferred grant path so
            // serial and sharded runs share one timing model.
            TimedRun s = timedRun(app, arch, serial_o, true);
            TimedRun sh = timedRun(app, arch, o);
            ++points;
            serial_total += s.ms;
            sharded_total += sh.ms;
            bool same =
                s.result.instructions == sh.result.instructions &&
                s.result.execTicks == sh.result.execTicks;
            if (same)
                ++identical;
            if (sh.result.shardsUsed > 1)
                ++sharded_points;
            windows_run += sh.result.windowsRun;
            windows_widened += sh.result.windowsWidened;
            window_fallbacks += sh.result.windowFallbacks;
            sync_window_stops += sh.result.syncWindowStops;
            t.addRow({app, std::string(archName(arch)),
                      report::fmt("%.1f", s.ms),
                      report::fmt("%.1f", sh.ms),
                      report::fmt("%.2f",
                                  s.ms / std::max(sh.ms, 1e-9)),
                      report::fmt("%u", sh.result.shardsUsed),
                      report::fmt("%llu", (unsigned long long)
                                              sh.result.windowsRun),
                      report::fmt("%llu",
                                  (unsigned long long)
                                      sh.result.windowsWidened),
                      report::fmt("%llu",
                                  (unsigned long long)
                                      sh.result.windowFallbacks)});
            if (!same) {
                std::fprintf(
                    stderr,
                    "FAIL: %s/%s diverged: serial %llu insn / %llu "
                    "ticks, sharded %llu / %llu (%s)\n",
                    app.c_str(), archName(arch),
                    (unsigned long long)s.result.instructions,
                    (unsigned long long)s.result.execTicks,
                    (unsigned long long)sh.result.instructions,
                    (unsigned long long)sh.result.execTicks,
                    sh.result.shardFallback.empty()
                        ? "no fallback"
                        : sh.result.shardFallback.c_str());
            }
            std::cout << "  finished " << app << "/" << archName(arch)
                      << "\n"
                      << std::flush;
        }
    }

    double speedup = serial_total / std::max(sharded_total, 1e-9);
    report::Table summary({"metric", "value"});
    summary.addRow({"shards requested", report::fmt("%u", o.shards)});
    summary.addRow({"hardware threads", report::fmt("%u", hw)});
    summary.addRow(
        {"points", report::fmt("%u", points)});
    summary.addRow(
        {"points bit-identical", report::fmt("%u", identical)});
    summary.addRow(
        {"points actually sharded", report::fmt("%u", sharded_points)});
    summary.addRow(
        {"serial total ms", report::fmt("%.1f", serial_total)});
    summary.addRow(
        {"sharded total ms", report::fmt("%.1f", sharded_total)});
    summary.addRow({"overall speedup", report::fmt("%.3f", speedup)});
    summary.addRow({"windows run",
                    report::fmt("%llu",
                                (unsigned long long)windows_run)});
    summary.addRow({"windows widened",
                    report::fmt("%llu",
                                (unsigned long long)windows_widened)});
    summary.addRow(
        {"window fallbacks",
         report::fmt("%llu", (unsigned long long)window_fallbacks)});
    summary.addRow(
        {"sync window stops",
         report::fmt("%llu", (unsigned long long)sync_window_stops)});

    std::cout << "\nFigure 6 sweep: serial vs sharded wall clock\n";
    session.table("Figure 6 sweep: serial vs sharded wall clock", t);
    std::cout << "\nSharded speedup summary\n";
    session.table("Sharded speedup summary", summary);

    if (identical != points) {
        std::fprintf(stderr,
                     "FAIL: %u of %u points were not bit-identical\n",
                     points - identical, points);
        return 1;
    }
    return 0;
}

} // namespace
} // namespace ccnuma

int
main(int argc, char **argv)
{
    return ccnuma::run(argc, argv);
}
