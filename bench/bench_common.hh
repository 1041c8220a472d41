/**
 * @file
 * Shared harness for the table/figure reproduction benches.
 *
 * Every bench accepts:
 *   --scale=<f>   linear problem-scale factor (default 0.5)
 *   --full        paper-size data sets (scale 1.0)
 *   --procs=<n>   total processors (default: paper's 64; LU and
 *                 Cholesky always run on 32, as in the paper)
 *   --apps=a,b,c  restrict the application set
 *   --jobs=<n>    run independent sweep points on n worker threads
 *                 (--jobs alone = all hardware threads; default 1).
 *                 Each point is its own Machine, so results are
 *                 bit-identical to a serial run; only the wall clock
 *                 changes.
 *   --shards=<n>  intra-machine shards per Machine (default 1 =
 *                 serial scheduler). Results stay bit-identical; the
 *                 sweep caps its effective --jobs at
 *                 hardware/shards so the two levels of parallelism
 *                 compose instead of oversubscribing.
 *
 * Benches print the measured rows next to the paper's readable
 * values; EXPERIMENTS.md records the comparison for the committed
 * run.
 */

#ifndef CCNUMA_BENCH_BENCH_COMMON_HH
#define CCNUMA_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hh"
#include "report/table.hh"
#include "serve/session.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "system/machine.hh"
#include "workload/replay.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ccnuma
{
namespace bench
{

struct Options
{
    double scale = 0.5;
    unsigned procs = 64;
    unsigned jobs = 1; ///< worker threads for independent sweep points
    unsigned shards = 1; ///< intra-machine shards per Machine
    std::vector<std::string> apps;

    /**
     * Sweep-level worker count after accounting for the threads each
     * sharded Machine spins up itself: jobs * shards never exceeds
     * the hardware thread count.
     */
    unsigned
    effectiveJobs() const
    {
        if (shards <= 1)
            return jobs;
        unsigned cap =
            std::max(1u, ThreadPool::hardwareJobs() / shards);
        return std::max(1u, std::min(jobs, cap));
    }

    bool
    wantsApp(const std::string &name) const
    {
        if (apps.empty())
            return true;
        for (const auto &a : apps) {
            if (name.rfind(a, 0) == 0)
                return true;
        }
        return false;
    }
};

/**
 * The integer value of the flag @p arg ("--name=value"), which must
 * lie in [@p lo, @p hi]; anything else exits 2 with a one-line reason.
 */
inline std::uint64_t
integerFlag(const std::string &arg, std::uint64_t lo,
            std::uint64_t hi = std::numeric_limits<unsigned>::max())
{
    const std::size_t eq = arg.find('=');
    if (auto v = parseDecimal(std::string_view(arg).substr(eq + 1), lo,
                              hi))
        return *v;
    std::fprintf(stderr, "%s: expected an integer from %llu to %llu\n",
                 arg.c_str(), (unsigned long long)lo,
                 (unsigned long long)hi);
    std::exit(2);
}

inline Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            auto v = parsePositiveReal(std::string_view(arg).substr(8));
            if (!v) {
                std::fprintf(stderr, "%s: expected a finite number "
                             "above 0\n", arg.c_str());
                std::exit(2);
            }
            o.scale = *v;
        } else if (arg == "--full") {
            o.scale = 1.0;
        } else if (arg.rfind("--procs=", 0) == 0) {
            o.procs = static_cast<unsigned>(integerFlag(arg, 1));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            // 0, like --jobs alone, means every hardware thread.
            o.jobs = static_cast<unsigned>(integerFlag(arg, 0));
            if (o.jobs == 0)
                o.jobs = ThreadPool::hardwareJobs();
        } else if (arg == "--jobs") {
            o.jobs = ThreadPool::hardwareJobs();
        } else if (arg.rfind("--shards=", 0) == 0) {
            o.shards = static_cast<unsigned>(integerFlag(arg, 1));
        } else if (arg.rfind("--apps=", 0) == 0) {
            std::string list = arg.substr(7);
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                std::size_t comma = list.find(',', pos);
                o.apps.push_back(list.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return o;
}

/** Paper convention: LU and Cholesky run on 32 processors. */
inline unsigned
procsForApp(const std::string &app, unsigned default_procs)
{
    return serve::procsForApp(app, default_procs);
}

/**
 * Resolve one (app, arch) bench request into the point the shared
 * serve backend executes. One resolution path — the campaign daemon
 * expands its specs through the same makeSimPoint(), which is what
 * keeps served results bit-identical to these benches.
 */
inline serve::SimPoint
makeBenchPoint(const std::string &app, Arch arch, const Options &o,
               double data_factor = 1.0,
               const std::function<void(MachineConfig &)> &tweak =
                   nullptr)
{
    return serve::makeSimPoint(app, arch,
                               procsForApp(app, o.procs), o.scale,
                               data_factor, tweak, o.shards);
}

/** Run one application on one architecture. */
inline RunResult
runApp(const std::string &app, Arch arch, const Options &o,
       double data_factor = 1.0,
       const std::function<void(MachineConfig &)> &tweak = nullptr)
{
    return serve::SimSession{}.run(
        makeBenchPoint(app, arch, o, data_factor, tweak));
}

constexpr Arch allArchs[] = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                             Arch::TwoPPC};

/** One (application × architecture) point of a bench sweep. */
struct SweepPoint
{
    std::string app;
    Arch arch = Arch::HWC;
    double dataFactor = 1.0;
    std::function<void(MachineConfig &)> tweak;
};

/**
 * Run every sweep point, using o.jobs worker threads when asked, and
 * return the results in input order. Each point builds an isolated
 * Machine, so the per-point numbers are identical whether the sweep
 * runs serial or parallel; with --jobs=1 (the default) no thread is
 * ever created. @p progress (optional) is invoked from the collection
 * loop — serially, in input order — as each result becomes available.
 */
inline std::vector<RunResult>
runSweep(const Options &o, const std::vector<SweepPoint> &points,
         const std::function<void(const SweepPoint &,
                                  const RunResult &)> &progress =
             nullptr)
{
    std::vector<serve::SimPoint> sim_points;
    sim_points.reserve(points.size());
    for (const SweepPoint &pt : points)
        sim_points.push_back(makeBenchPoint(pt.app, pt.arch, o,
                                            pt.dataFactor,
                                            pt.tweak));

    serve::CampaignRunner runner(o.effectiveJobs());
    std::vector<serve::PointOutcome> outcomes =
        runner.run(sim_points);

    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (serve::PointOutcome &out : outcomes)
        results.push_back(std::move(out.result));
    if (progress) {
        for (std::size_t i = 0; i < points.size(); ++i)
            progress(points[i], results[i]);
    }
    return results;
}

/**
 * The common full-grid sweep: every wanted application on all four
 * architectures, in (app-major, arch-minor) order.
 */
inline std::vector<SweepPoint>
appArchGrid(const Options &o, const std::vector<std::string> &apps,
            double data_factor = 1.0,
            const std::function<void(MachineConfig &)> &tweak =
                nullptr)
{
    std::vector<SweepPoint> points;
    for (const std::string &app : apps) {
        if (!o.wantsApp(app))
            continue;
        for (Arch arch : allArchs)
            points.push_back({app, arch, data_factor, tweak});
    }
    return points;
}

inline std::string
fmtTicks(Tick t)
{
    return report::fmt("%llu", (unsigned long long)t);
}

/**
 * Machine-readable companion to the text tables: captures every
 * table a bench emits and, on destruction, writes them to
 * bench/out/BENCH_<name>.json (CCNUMA_BENCH_OUT overrides the
 * directory) so the paper-fidelity numbers (and hence the perf
 * trajectory) can be tracked run-over-run by scripts instead of
 * eyeballs. The output directory is a git-ignored artifact drop:
 * committed history stays free of machine-generated numbers.
 *
 * Use session.table(title, t) wherever the bench would have called
 * t.print(std::cout) — it prints AND captures.
 */
class JsonReport
{
  public:
    JsonReport(std::string bench_name, const Options &o)
        : name_(std::move(bench_name)), scale_(o.scale),
          procs_(o.procs)
    {}

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /** Print @p t to stdout and capture it for the JSON export. */
    void
    table(const std::string &title, const report::Table &t)
    {
        t.print(std::cout);
        tables_.emplace_back(title, t);
    }

    ~JsonReport()
    {
        appendReplayStats();
        namespace fs = std::filesystem;
        fs::path dir = "bench/out";
        if (const char *env = std::getenv("CCNUMA_BENCH_OUT"))
            dir = env;
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "warning: cannot create %s (%s); writing "
                         "to the working directory\n",
                         dir.string().c_str(),
                         ec.message().c_str());
            dir = ".";
        }
        std::string file =
            (dir / ("BENCH_" + name_ + ".json")).string();
        std::ofstream os(file);
        if (!os) {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         file.c_str());
            return;
        }
        report::JsonWriter j(os);
        j.beginObject();
        j.key("bench").value(name_);
        j.key("scale").value(scale_);
        j.key("procs").value(static_cast<std::uint64_t>(procs_));
        j.key("tables").beginArray();
        for (const auto &[title, t] : tables_) {
            j.beginObject();
            j.key("title").value(title);
            j.key("columns").beginArray();
            for (const auto &h : t.headers())
                j.value(h);
            j.endArray();
            j.key("rows").beginArray();
            for (const auto &row : t.rows()) {
                j.beginObject();
                for (std::size_t c = 0;
                     c < row.size() && c < t.headers().size(); ++c)
                    j.key(t.headers()[c]).value(row[c]);
                j.endObject();
            }
            j.endArray();
            j.endObject();
        }
        j.endArray();
        j.endObject();
        os << "\n";
        std::cout << "\nwrote " << file << "\n";
    }

  private:
    /**
     * Every bench JSON carries the process-wide replay-cache counters
     * so scripts can verify that sweeps were replay-served rather
     * than regenerated — cache behavior is counted, never silent.
     * Memory hits and dedup waits are printed as one "replayed" row:
     * with --jobs above 1, how the total splits between them depends
     * on thread timing, and the text must not. Off (CCNUMA_REPLAY=0)
     * is reported as a one-row table rather than omitted.
     */
    void
    appendReplayStats()
    {
        report::Table t({"metric", "value"});
        if (ReplayCache *rc = globalReplayCache()) {
            ReplayStats s = rc->stats();
            auto u64 = [](std::uint64_t v) {
                return report::fmt("%llu", (unsigned long long)v);
            };
            t.addRow({"captures", u64(s.captures)});
            t.addRow({"replayed", u64(s.hits + s.dedupWaits)});
            t.addRow({"evictions", u64(s.evictions)});
            t.addRow({"resident bytes", u64(s.bytes)});
            t.addRow({"resident traces", u64(s.entries)});
            t.addRow({"hit rate", report::fmt("%.4f", s.hitRate())});
        } else {
            t.addRow({"disabled", "CCNUMA_REPLAY=0"});
        }
        std::cout << "\nWorkload replay cache\n";
        table("Workload replay cache", t);
    }

    std::string name_;
    double scale_;
    unsigned procs_;
    std::vector<std::pair<std::string, report::Table>> tables_;
};

inline void
printHeader(const std::string &what, const Options &o)
{
    std::cout << "==================================================="
                 "=========\n"
              << what << "\n"
              << "scale=" << o.scale << " (1.0 = paper data sets)"
              << ", base procs=" << o.procs << "\n"
              << "==================================================="
                 "=========\n";
}

} // namespace bench
} // namespace ccnuma

#endif // CCNUMA_BENCH_BENCH_COMMON_HH
