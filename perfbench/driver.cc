/**
 * @file
 * Benchmark driver: runs one workload of the repository benchmark in
 * its own process and writes the raw measurements as one JSON file.
 * perfbench/run.py builds this binary, runs it, and turns the file
 * into named metrics.
 *
 *   perfbench_driver <workload> --seed N --seconds S --trace 0|1
 *                    --out FILE
 *
 * Workloads: fig6_grid, ppn8_bus, ppn1_net (simulation sweeps) and
 * served_mix (an in-process CampaignService driven over loopback
 * HTTP). The simulator is reached only through its public entry
 * points: serve::makeSimPoint, makeWorkload + ReplayCache::acquire,
 * Machine::Machine / run / printStats / eq().numProcessed(), and
 * serve::CampaignService.
 *
 * Tracing (--trace 1) adds two things and changes nothing else:
 *  - spans: already recorded around every call into those entry
 *    points (they cost a clock read); a traced run also writes them;
 *  - a statistical PC sampler: ITIMER_PROF/SIGPROF, the leaf PC read
 *    from the signal's ucontext. The driver writes raw PCs and the
 *    process's executable mappings; run.py symbolises them.
 * A traced run first runs the workload untraced, then traced, so
 * run.py can report the overhead and compare the simulated-output
 * digests of the two.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/json.hh"
#include "serve/campaign.hh"
#include "serve/canonical.hh"
#include "serve/http.hh"
#include "serve/json_in.hh"
#include "serve/result_io.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "sim/parallel.hh"
#include "system/machine.hh"
#include "workload/replay.hh"
#include "workload/workload.hh"

extern char **environ;

namespace
{

using namespace ccnuma;

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kStart)
        .count();
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------- spans

/** One timed call into a simulator entry point. */
struct Span
{
    std::uint64_t id; ///< shared by the spans of one point/campaign
    std::string name;
    double t0;
    double t1;
};

class SpanLog
{
  public:
    std::uint64_t
    newId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Run @p fn, record its interval, return its duration. */
    template <typename Fn>
    double
    time(std::uint64_t id, const char *name, Fn &&fn)
    {
        double t0 = nowS();
        fn();
        double t1 = nowS();
        std::lock_guard<std::mutex> g(mutex_);
        spans_.push_back({id, name, t0, t1});
        return t1 - t0;
    }

    void
    add(std::uint64_t id, const char *name, double t0, double t1)
    {
        std::lock_guard<std::mutex> g(mutex_);
        spans_.push_back({id, name, t0, t1});
    }

    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> g(mutex_);
        return std::move(spans_);
    }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> nextId_{1};
};

// -------------------------------------------------------------- sampler

constexpr std::size_t kMaxSamples = 1u << 19;
constexpr long kSampleIntervalUs = 1000;
std::uintptr_t gPcs[kMaxSamples];
std::atomic<std::size_t> gNumSamples{0};
std::atomic<bool> gSampling{false};

void
onProf(int, siginfo_t *, void *ctx)
{
    if (!gSampling.load(std::memory_order_relaxed))
        return;
    const auto *uc = static_cast<const ucontext_t *>(ctx);
#if defined(__x86_64__)
    auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "the PC sampler supports x86-64 and AArch64"
#endif
    std::size_t i = gNumSamples.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        gPcs[i] = pc;
}

void
setProfTimer(long interval_us)
{
    itimerval it{};
    it.it_interval.tv_usec = interval_us;
    it.it_value.tv_usec = interval_us;
    setitimer(ITIMER_PROF, &it, nullptr);
}

void
startSampler()
{
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    gSampling = true;
    setProfTimer(kSampleIntervalUs);
}

void
stopSampler()
{
    setProfTimer(0);
    gSampling = false;
}

// ------------------------------------------------------- stats folding

/**
 * Fold one printStats() dump into machine-wide sums keyed by the
 * stat name with its node/cpu instance prefixes removed
 * ("node3.cpu1.cache.l1_hits" -> "cache.l1_hits"). An Average line
 * ("x.mean m ... (n=k, ...)") adds m*k to "x.sum" and k to "x.n".
 */
std::map<std::string, double>
foldStats(const std::string &dump)
{
    std::map<std::string, double> out;
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        double v = 0.0;
        if (!(ls >> key >> v))
            continue;
        std::string norm;
        std::size_t pos = 0;
        while (pos <= key.size()) {
            std::size_t dot = key.find('.', pos);
            std::string part = key.substr(
                pos, dot == std::string::npos ? dot : dot - pos);
            bool instance =
                (part.rfind("node", 0) == 0 && part.size() > 4 &&
                 std::isdigit(static_cast<unsigned char>(part[4]))) ||
                (part.rfind("cpu", 0) == 0 && part.size() > 3 &&
                 std::isdigit(static_cast<unsigned char>(part[3])));
            if (!instance)
                norm += (norm.empty() ? "" : ".") + part;
            if (dot == std::string::npos)
                break;
            pos = dot + 1;
        }
        const std::string mean = ".mean";
        if (norm.size() > mean.size() &&
            norm.compare(norm.size() - mean.size(), mean.size(),
                         mean) == 0) {
            std::size_t n_at = line.find("(n=");
            double n = n_at == std::string::npos
                           ? 0.0
                           : std::strtod(line.c_str() + n_at + 3,
                                         nullptr);
            std::string base = norm.substr(0, norm.size() - mean.size());
            out[base + ".sum"] += v * n;
            out[base + ".n"] += n;
        } else {
            out[norm] += v;
        }
    }
    return out;
}

// ------------------------------------------------ simulation workloads

struct Shape
{
    std::vector<std::string> apps;
    std::vector<Arch> archs;
    unsigned ppn = 0; ///< 0 = the base machine's 4 per node
    unsigned jobs = 1;
    /** About the host seconds of one pass on the 4-core development
     *  host; sets how many passes a run of --seconds makes. */
    double nominalPassS = 10;
};

Shape
shapeFor(const std::string &workload)
{
    if (workload == "fig6_grid")
        return {splashNames(),
                {Arch::HWC, Arch::PPC, Arch::TwoHWC, Arch::TwoPPC},
                0,
                2,
                20};
    if (workload == "ppn8_bus")
        return {{"Radix", "Barnes"}, {Arch::HWC, Arch::PPC}, 8, 1, 10};
    return {{"Radix", "Barnes"}, {Arch::HWC, Arch::PPC}, 1, 1, 10};
}

std::vector<serve::SimPoint>
pointsFor(const Shape &s, std::uint64_t seed)
{
    std::vector<serve::SimPoint> pts;
    for (const std::string &app : s.apps) {
        unsigned procs = serve::procsForApp(app, 64);
        for (Arch arch : s.archs) {
            std::function<void(MachineConfig &)> tweak;
            if (s.ppn)
                tweak = [ppn = s.ppn, procs](MachineConfig &cfg) {
                    cfg.withProcsPerNode(ppn, procs);
                };
            pts.push_back(serve::makeSimPoint(app, arch, procs, 1.0,
                                              1.0, tweak, 1, seed));
        }
    }
    return pts;
}

/** Measurements of one simulated point. */
struct PointRec
{
    std::uint64_t spanId = 0;
    double makeS = 0, captureS = 0, ctorS = 0, runS = 0, statsS = 0;
    double t0 = 0, t1 = 0;
    RunResult result;
    std::uint64_t events = 0;
    std::uint64_t ops = 0;
    std::uint64_t digest = 0;
    std::map<std::string, double> stats;
};

PointRec
runPoint(const serve::SimPoint &pt, ReplayCache &rc, SpanLog &spans)
{
    PointRec rec;
    rec.spanId = spans.newId();
    const std::uint64_t id = rec.spanId;
    rec.t0 = nowS();

    std::unique_ptr<Workload> w;
    rec.makeS = spans.time(id, "makeWorkload",
                           [&] { w = makeWorkload(pt.app, pt.wp); });
    std::shared_ptr<const ReplayBuffer> buf;
    rec.captureS = spans.time(id, "replay.acquire", [&] {
        buf = rc.acquire(serve::canonicalWorkload(pt.app, pt.wp), [&] {
            return makeWorkload(pt.app, pt.wp);
        });
    });
    rec.ops = buf->ops();
    ReplayWorkload rw(std::move(w), std::move(buf));

    std::unique_ptr<Machine> m;
    rec.ctorS = spans.time(id, "Machine::Machine",
                           [&] { m = std::make_unique<Machine>(pt.cfg); });
    rec.runS = spans.time(id, "Machine::run",
                          [&] { rec.result = m->run(rw); });
    std::string dump;
    rec.statsS = spans.time(id, "Machine::printStats", [&] {
        std::ostringstream os;
        m->printStats(os);
        dump = os.str();
    });
    rec.events = m->eq().numProcessed();
    rec.stats = foldStats(dump);
    rec.digest = serve::hash64(serve::resultToJson(rec.result) + "\n" +
                               dump);
    rec.t1 = nowS();
    return rec;
}

struct PassRec
{
    bool traced = false;
    double wallS = 0;
    double cpuS = 0;
    std::vector<PointRec> points;
    ReplayStats replay;
};

/** The in-memory replay cap users get by default (CCNUMA_REPLAY_BYTES). */
constexpr std::uint64_t kReplayBytes = 256ull << 20;

/** One pass over every point, on a fresh replay cache. */
PassRec
runPass(const std::vector<serve::SimPoint> &pts, unsigned jobs,
        bool traced, SpanLog &spans)
{
    PassRec pass;
    pass.traced = traced;
    pass.points.resize(pts.size());
    ReplayCache rc(kReplayBytes, "");
    if (traced)
        startSampler();
    double c0 = cpuS();
    double t0 = nowS();
    parallelForIndex(jobs, pts.size(), [&](std::size_t i) {
        pass.points[i] = runPoint(pts[i], rc, spans);
    });
    pass.wallS = nowS() - t0;
    pass.cpuS = cpuS() - c0;
    if (traced)
        stopSampler();
    pass.replay = rc.stats();
    return pass;
}

void
writePoint(report::JsonWriter &j, const PointRec &p,
           const serve::SimPoint &pt, bool with_config)
{
    j.beginObject();
    j.key("span_id").value(p.spanId);
    j.key("app").value(pt.app);
    j.key("procs").value(pt.wp.numThreads);
    j.key("procs_per_node").value(pt.cfg.node.procsPerNode);
    j.key("nodes").value(pt.cfg.numNodes);
    j.key("seed").value(static_cast<std::uint64_t>(pt.wp.seed));
    if (with_config)
        j.key("canonical").value(pt.key().canonical);
    j.key("start_s").valueFull(p.t0);
    j.key("end_s").valueFull(p.t1);
    j.key("make_s").valueFull(p.makeS);
    j.key("capture_s").valueFull(p.captureS);
    j.key("ctor_s").valueFull(p.ctorS);
    j.key("run_s").valueFull(p.runS);
    j.key("stats_s").valueFull(p.statsS);
    j.key("events").value(p.events);
    j.key("ops").value(p.ops);
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(p.digest));
    j.key("digest").value(digest);
    j.key("result");
    serve::writeRunResult(j, p.result);
    j.key("stats").beginObject();
    for (const auto &[k, v] : p.stats)
        j.key(k).valueFull(v);
    j.endObject();
    j.endObject();
}

void
writePass(report::JsonWriter &j, const PassRec &pass,
          const std::vector<serve::SimPoint> &pts, bool with_config)
{
    j.beginObject();
    j.key("traced").value(pass.traced);
    j.key("wall_s").valueFull(pass.wallS);
    j.key("cpu_s").valueFull(pass.cpuS);
    j.key("replay").beginObject();
    j.key("captures").value(pass.replay.captures);
    j.key("hits").value(pass.replay.hits);
    j.key("dedup_waits").value(pass.replay.dedupWaits);
    j.key("hit_rate").valueFull(pass.replay.hitRate());
    j.key("resident_bytes").value(pass.replay.bytes);
    j.endObject();
    j.key("points").beginArray();
    for (std::size_t i = 0; i < pass.points.size(); ++i)
        writePoint(j, pass.points[i], pts[i], with_config);
    j.endArray();
    j.endObject();
}

void
runSimWorkload(const std::string &workload, std::uint64_t seed,
               double seconds, bool trace, SpanLog &spans,
               report::JsonWriter &j)
{
    Shape shape = shapeFor(workload);
    std::vector<serve::SimPoint> pts = pointsFor(shape, seed);
    std::vector<PassRec> passes;
    // Every run of a workload does the same work: the pass count
    // follows from --seconds and the nominal pass time alone, never
    // from how fast this run happens to go. A traced run splits its
    // passes into untraced ones and traced ones (at least one each).
    auto total = static_cast<unsigned>(
        std::max(1.0, std::round(seconds / shape.nominalPassS)));
    unsigned untraced = trace ? std::max(1u, total / 2) : total;
    unsigned traced = trace ? std::max(1u, total - total / 2) : 0;
    for (unsigned i = 0; i < untraced + traced; ++i)
        passes.push_back(runPass(pts, shape.jobs, i >= untraced, spans));

    // Reference points on the base 16x4 shape: per kernel,
    // instructions and memRefs must not depend on the node shape.
    std::vector<serve::SimPoint> refs;
    std::vector<PointRec> ref_recs;
    if (shape.ppn) {
        for (const std::string &app : shape.apps)
            refs.push_back(serve::makeSimPoint(
                app, Arch::HWC, serve::procsForApp(app, 64), 1.0, 1.0,
                nullptr, 1, seed));
        ReplayCache rc(kReplayBytes, "");
        for (const serve::SimPoint &pt : refs)
            ref_recs.push_back(runPoint(pt, rc, spans));
    }

    j.key("jobs").value(shape.jobs);
    j.key("reference").beginArray();
    for (std::size_t i = 0; i < refs.size(); ++i)
        writePoint(j, ref_recs[i], refs[i], true);
    j.endArray();
    j.key("passes").beginArray();
    for (std::size_t i = 0; i < passes.size(); ++i)
        writePass(j, passes[i], pts, i == 0);
    j.endArray();
}

// ------------------------------------------------------ served workload

/** One campaign request of the closed loop. */
struct CampaignRec
{
    std::uint64_t spanId = 0;
    unsigned client = 0;
    std::size_t spec = 0; ///< index into the spec table
    bool fresh = false;
    int submitStatus = 0;
    std::string id;
    std::string status; ///< summary line status ("done", ...)
    double t0 = 0, t1 = 0;
    std::size_t points = 0;
    std::size_t cachedPoints = 0;
    std::size_t dedupedPoints = 0;
    std::string error;
};

/** The served workload's specs: a small pool plus fresh-seed ones. */
struct SpecTable
{
    std::vector<std::string> apps;
    std::vector<std::uint64_t> seeds;
    std::vector<bool> fresh;

    std::size_t
    add(const std::string &app, std::uint64_t seed, bool is_fresh)
    {
        apps.push_back(app);
        seeds.push_back(seed);
        fresh.push_back(is_fresh);
        return apps.size() - 1;
    }

    std::string
    json(std::size_t i) const
    {
        return "{\"name\":\"served_mix\",\"apps\":[\"" + apps[i] +
               "\"],\"archs\":[\"HWC\",\"PPC\"],\"scale\":" +
               kScale + ",\"procs\":16,\"seeds\":[" +
               std::to_string(seeds[i]) + "]}";
    }

    static constexpr const char *kScale = "0.1";
};

const std::vector<std::string> kServedApps = {"FFT", "Radix", "LU",
                                              "Ocean"};

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::seed_seq ss{static_cast<std::uint32_t>(seed),
                     static_cast<std::uint32_t>(seed >> 32),
                     static_cast<std::uint32_t>(salt)};
    std::uint32_t out[2];
    ss.generate(out, out + 2);
    return ((static_cast<std::uint64_t>(out[0]) << 32) | out[1]) %
           1000000007ull;
}

/** POST a spec, then read its stream to the end. */
void
runCampaign(std::uint16_t port, const std::string &spec_json,
            CampaignRec &rec)
{
    rec.t0 = nowS();
    serve::HttpResponse post =
        serve::httpRequest(port, "POST", "/campaigns", spec_json);
    rec.submitStatus = post.status;
    if (post.status != 202) {
        rec.t1 = nowS();
        rec.error = "submit answered " + std::to_string(post.status);
        return;
    }
    rec.id = serve::parseJson(post.body).getString("id", "");
    serve::HttpResponse stream = serve::httpRequest(
        port, "GET", "/campaigns/" + rec.id + "/stream");
    rec.t1 = nowS();
    std::istringstream is(stream.body);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        serve::JsonValue v = serve::parseJson(line);
        if (v.get("status")) {
            rec.status = v.getString("status", "");
            continue;
        }
        ++rec.points;
        rec.cachedPoints += v.getBool("cached", false);
        rec.dedupedPoints += v.getBool("deduped", false);
    }
    if (stream.status != 200 || rec.status != "done")
        rec.error = "stream ended with status '" + rec.status + "'";
}

/** The full per-point results of a finished campaign, canonicalised. */
std::vector<std::string>
campaignResults(std::uint16_t port, const std::string &id)
{
    serve::HttpResponse r =
        serve::httpRequest(port, "GET", "/campaigns/" + id + "/result");
    std::vector<std::string> out;
    if (r.status != 200)
        return out;
    serve::JsonValue doc = serve::parseJson(r.body);
    if (const serve::JsonValue *res = doc.get("results"))
        for (const serve::JsonValue &v : res->arr)
            out.push_back(serve::resultToJson(serve::resultFromJson(v)));
    return out;
}

serve::ServiceConfig
servedConfig()
{
    serve::ServiceConfig sc;
    sc.port = 0;
    sc.execThreads = 1;
    sc.pointJobs = 2;
    sc.maxQueued = 8;
    sc.persistDir = "";
    return sc;
}

void
runServedWorkload(std::uint64_t seed, double seconds, bool trace,
                  SpanLog &spans, report::JsonWriter &j)
{
    constexpr unsigned kClients = 2;
    constexpr double kFreshShare = 0.1;
    // Campaigns per second of --seconds: about this host's closed-loop
    // rate, so a run measures for about --seconds. Every run makes the
    // same campaigns, at least 1000 (p99 then has 10 samples beyond).
    constexpr double kNominalRate = 100;
    constexpr std::size_t kMinCampaigns = 1000;
    constexpr unsigned kSetupRounds = 5;

    SpecTable specs;
    std::vector<double> setup_s;
    std::unique_ptr<serve::CampaignService> svc;
    std::vector<std::size_t> pool;
    std::vector<CampaignRec> recs;

    // Set-up: bring a service up and fill its result cache with the
    // pool. Each round uses pool seeds of its own, so every round
    // starts cold (replay capture, simulation, cache insert); the
    // measured loop runs on the last round's service.
    for (unsigned round = 0; round < kSetupRounds; ++round) {
        svc.reset();
        pool.clear();
        for (std::size_t a = 0; a < kServedApps.size(); ++a)
            pool.push_back(specs.add(kServedApps[a],
                                     mixSeed(seed, round * 16 + a),
                                     false));
        std::uint64_t id = spans.newId();
        double t0 = nowS();
        svc = std::make_unique<serve::CampaignService>(servedConfig());
        svc->start();
        std::vector<CampaignRec> warm(pool.size());
        for (std::size_t i = 0; i < pool.size(); ++i) {
            warm[i].spec = pool[i];
            warm[i].spanId = id;
            runCampaign(svc->port(), specs.json(pool[i]), warm[i]);
        }
        double t1 = nowS();
        spans.add(id, "served.setup", t0, t1);
        for (const CampaignRec &w : warm)
            if (!w.error.empty())
                throw std::runtime_error("set-up campaign failed: " +
                                         w.error);
        setup_s.push_back(t1 - t0);
        if (round + 1 == kSetupRounds) {
            // The last round's misses filled the cache the loop reads;
            // the hit checks below compare against them.
            recs = std::move(warm);
        }
    }
    const std::uint16_t port = svc->port();

    // The closed loop: each client sends its next campaign only when
    // the previous one has streamed to the end.
    std::mutex mu;
    std::vector<std::size_t> fresh_specs;
    std::uint64_t fresh_counter = 0;
    // Both halves of a traced run replay the same per-client choices
    // (with new fresh seeds), so their hit/miss mixes match and the
    // tracing overhead compares like with like.
    auto client = [&](unsigned c, std::size_t count) {
        std::mt19937_64 rng(mixSeed(seed, 1000 + c));
        std::uniform_real_distribution<double> u(0.0, 1.0);
        for (std::size_t n = 0; n < count; ++n) {
            CampaignRec rec;
            rec.client = c;
            rec.spanId = spans.newId();
            if (u(rng) < kFreshShare) {
                std::lock_guard<std::mutex> g(mu);
                std::uint64_t k = fresh_counter++;
                rec.spec = specs.add(
                    kServedApps[k % kServedApps.size()],
                    mixSeed(seed, 1u << 20 | k), true);
                rec.fresh = true;
                fresh_specs.push_back(rec.spec);
            } else {
                rec.spec = pool[rng() % pool.size()];
            }
            std::string body;
            {
                std::lock_guard<std::mutex> g(mu);
                body = specs.json(rec.spec);
            }
            try {
                runCampaign(port, body, rec);
            } catch (const std::exception &e) {
                rec.t1 = nowS();
                rec.error = e.what();
            }
            spans.add(rec.spanId, "campaign", rec.t0, rec.t1);
            std::lock_guard<std::mutex> g(mu);
            recs.push_back(std::move(rec));
        }
    };

    struct Phase
    {
        bool traced;
        std::size_t first, last;
        double wallS, cpuS;
    };
    auto loop = [&](std::size_t campaigns, bool traced) {
        std::size_t first = recs.size();
        if (traced)
            startSampler();
        double c0 = cpuS();
        double t0 = nowS();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back(client, c, campaigns / kClients);
        for (std::thread &t : threads)
            t.join();
        double wall = nowS() - t0;
        double cpu = cpuS() - c0;
        if (traced)
            stopSampler();
        return Phase{traced, first, recs.size(), wall, cpu};
    };

    const auto total = std::max(
        kMinCampaigns, static_cast<std::size_t>(seconds * kNominalRate));
    std::vector<Phase> phases;
    phases.push_back(loop(trace ? total / 2 : total, false));
    if (trace)
        phases.push_back(loop(total / 2, true));

    // Output checks, outside the measured loop.
    // 1. Every cache hit is byte-identical to the miss that filled it
    //    (the first finished campaign of its spec: a set-up campaign
    //    for the pool, the campaign itself for a fresh spec).
    std::map<std::size_t, std::size_t> first_of_spec;
    std::size_t hit_mismatch = 0, hits_checked = 0;
    std::vector<std::string> check_errors;
    std::vector<std::vector<std::string>> results(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        CampaignRec &rec = recs[i];
        if (!rec.error.empty())
            continue;
        results[i] = campaignResults(port, rec.id);
        if (results[i].size() != rec.points) {
            rec.error = "result download has " +
                        std::to_string(results[i].size()) +
                        " points, stream had " +
                        std::to_string(rec.points);
            continue;
        }
        auto [it, first] = first_of_spec.emplace(rec.spec, i);
        if (first)
            continue;
        ++hits_checked;
        if (results[it->second] != results[i]) {
            ++hit_mismatch;
            rec.error = "cached result differs from the miss that "
                        "filled the cache";
        }
    }
    // 2. Sampled results are byte-identical to a direct
    //    SimSession::run of the same point: one pool spec and the
    //    first fresh spec.
    std::vector<std::size_t> sampled = {pool.front()};
    if (!fresh_specs.empty())
        sampled.push_back(fresh_specs.front());
    std::size_t direct_checked = 0, direct_mismatch = 0;
    for (std::size_t spec : sampled) {
        auto it = first_of_spec.find(spec);
        if (it == first_of_spec.end())
            continue;
        const std::vector<std::string> &served = results[it->second];
        std::vector<serve::SimPoint> pts = serve::expandCampaign(
            serve::parseCampaignSpec(specs.json(spec)));
        for (std::size_t p = 0; p < pts.size(); ++p) {
            ++direct_checked;
            std::string direct =
                serve::resultToJson(serve::SimSession{}.run(pts[p]));
            if (p >= served.size() || served[p] != direct) {
                ++direct_mismatch;
                check_errors.push_back("served result of spec " +
                                       specs.json(spec) +
                                       " differs from a direct run");
            }
        }
    }

    serve::HttpResponse stats =
        serve::httpRequest(port, "GET", "/stats");
    svc->stop();

    j.key("setup_rounds_s").beginArray();
    for (double s : setup_s)
        j.valueFull(s);
    j.endArray();
    j.key("clients").value(kClients);
    j.key("service").beginObject();
    serve::ServiceConfig sc = servedConfig();
    j.key("exec_threads").value(sc.execThreads);
    j.key("point_jobs").value(sc.pointJobs);
    j.key("max_queued").value(sc.maxQueued);
    j.key("stats_json").value(stats.body);
    j.endObject();
    j.key("phases").beginArray();
    for (const Phase &ph : phases) {
        j.beginObject();
        j.key("traced").value(ph.traced);
        j.key("first").value(static_cast<std::uint64_t>(ph.first));
        j.key("last").value(static_cast<std::uint64_t>(ph.last));
        j.key("wall_s").valueFull(ph.wallS);
        j.key("cpu_s").valueFull(ph.cpuS);
        j.endObject();
    }
    j.endArray();
    j.key("checks").beginObject();
    j.key("hits_checked").value(static_cast<std::uint64_t>(hits_checked));
    j.key("hit_mismatches").value(static_cast<std::uint64_t>(hit_mismatch));
    j.key("direct_checked").value(
        static_cast<std::uint64_t>(direct_checked));
    j.key("direct_mismatches").value(
        static_cast<std::uint64_t>(direct_mismatch));
    j.key("errors").beginArray();
    for (const std::string &e : check_errors)
        j.value(e);
    j.endArray();
    j.endObject();
    j.key("specs").beginArray();
    for (std::size_t i = 0; i < specs.apps.size(); ++i) {
        j.beginObject();
        j.key("json").value(specs.json(i));
        j.key("fresh").value(static_cast<bool>(specs.fresh[i]));
        j.key("pool").value(std::find(pool.begin(), pool.end(), i) !=
                            pool.end());
        std::vector<serve::SimPoint> pts = serve::expandCampaign(
            serve::parseCampaignSpec(specs.json(i)));
        j.key("canonical").beginArray();
        for (const serve::SimPoint &pt : pts)
            j.value(pt.key().canonical);
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.key("campaigns").beginArray();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const CampaignRec &r = recs[i];
        j.beginObject();
        j.key("span_id").value(r.spanId);
        j.key("client").value(r.client);
        j.key("spec").value(static_cast<std::uint64_t>(r.spec));
        j.key("fresh").value(r.fresh);
        j.key("submit_status").value(r.submitStatus);
        j.key("start_s").valueFull(r.t0);
        j.key("end_s").valueFull(r.t1);
        j.key("points").value(static_cast<std::uint64_t>(r.points));
        j.key("cached_points").value(
            static_cast<std::uint64_t>(r.cachedPoints));
        j.key("deduped_points").value(
            static_cast<std::uint64_t>(r.dedupedPoints));
        j.key("error").value(r.error);
        j.key("results").beginArray();
        // Only the first result of each spec is written out; every
        // later one was checked byte-identical to it above.
        auto first = first_of_spec.find(r.spec);
        if (first != first_of_spec.end() && first->second == i)
            for (const std::string &res : results[i])
                j.value(res);
        j.endArray();
        j.endObject();
    }
    j.endArray();
}

// ----------------------------------------------------------------- main

std::string
readFile(const char *path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver "
                 "<fig6_grid|ppn8_bus|ppn1_net|served_mix> --seed N "
                 "--seconds S --trace 0|1 --out FILE\n");
    return 2;
}

int
realMain(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string workload = argv[1];
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string a = argv[i], v = argv[i + 1];
        if (a == "--seed")
            seed = std::stoull(v);
        else if (a == "--seconds")
            seconds = std::stod(v);
        else if (a == "--trace")
            trace = v == "1";
        else if (a == "--out")
            out = v;
        else
            return usage();
    }
    if (out.empty() || (argc % 2) != 0)
        return usage();
    const bool sim = workload == "fig6_grid" ||
                     workload == "ppn8_bus" || workload == "ppn1_net";
    if (!sim && workload != "served_mix")
        return usage();

    // Isolation: a CCNUMA_* knob would change what is measured.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "CCNUMA_", 7) == 0) {
            std::fprintf(stderr,
                         "perfbench_driver: refusing to run with %s "
                         "set\n",
                         *e);
            return 2;
        }
    }

    SpanLog spans;
    std::ostringstream body;
    report::JsonWriter j(body);
    j.beginObject();
    j.key("workload").value(workload);
    j.key("seed").value(static_cast<std::uint64_t>(seed));
    j.key("seconds").valueFull(seconds);
    j.key("trace").value(trace);
    j.key("compiler").value(__VERSION__);
    j.key("build_type").value(PERFBENCH_BUILD_TYPE);
    j.key("nproc").value(std::thread::hardware_concurrency());
    if (sim)
        runSimWorkload(workload, seed, seconds, trace, spans, j);
    else
        runServedWorkload(seed, seconds, trace, spans, j);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.key("peak_rss_kb").value(static_cast<std::uint64_t>(ru.ru_maxrss));

    j.key("spans").beginArray();
    if (trace) {
        for (const Span &s : spans.take()) {
            j.beginObject();
            j.key("id").value(s.id);
            j.key("name").value(s.name);
            j.key("start_s").valueFull(s.t0);
            j.key("end_s").valueFull(s.t1);
            j.endObject();
        }
    }
    j.endArray();

    if (trace) {
        std::size_t n = std::min(gNumSamples.load(), kMaxSamples);
        std::map<std::uintptr_t, std::uint64_t> hist;
        for (std::size_t i = 0; i < n; ++i)
            ++hist[gPcs[i]];
        j.key("sampler").beginObject();
        j.key("interval_us").value(static_cast<std::int64_t>(
            kSampleIntervalUs));
        j.key("samples").value(static_cast<std::uint64_t>(n));
        j.key("dropped").value(static_cast<std::uint64_t>(
            gNumSamples.load() - n));
        char buf[PATH_MAX + 1] = {};
        ssize_t len = readlink("/proc/self/exe", buf, PATH_MAX);
        j.key("exe").value(std::string(buf, len > 0 ? len : 0));
        j.key("maps").value(readFile("/proc/self/maps"));
        j.key("pcs").beginArray();
        for (const auto &[pc, count] : hist) {
            j.beginArray();
            j.value(static_cast<std::uint64_t>(pc));
            j.value(count);
            j.endArray();
        }
        j.endArray();
        j.endObject();
    }
    j.endObject();

    std::ofstream os(out);
    os << body.str() << "\n";
    if (!os) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
