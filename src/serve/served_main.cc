/**
 * @file
 * ccnuma-served: the campaign daemon. Binds an HTTP/JSON job API,
 * executes submitted sweep campaigns on the shared CampaignRunner
 * backend through the content-addressed result cache, and runs until
 * POST /shutdown (or SIGINT via normal process kill).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "serve/server.hh"
#include "sim/logging.hh"

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --port N        listen port (default 8920; 0 = ephemeral)\n"
        "  --exec N        concurrent campaigns (default 2)\n"
        "  --jobs N        parallel points per campaign (default 1)\n"
        "  --queue N       admission queue bound (default 8)\n"
        "  --discipline D  fcfs | priority (default fcfs)\n"
        "  --cache-mb N    result cache byte cap in MiB (default 64)\n"
        "  --persist DIR   write-through cache directory (default\n"
        "                  off; bench/out/cache by convention)\n"
        "  --max-points N  per-campaign point limit (default 4096)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ccnuma::serve;

    ServiceConfig cfg;
    cfg.port = 8920;

    // Every numeric flag is a plain decimal integer in [lo, hi];
    // anything else exits 2 with a one-line reason.
    auto num = [&](int &i, std::uint64_t lo,
                   std::uint64_t hi = std::numeric_limits<unsigned>::max())
        -> std::uint64_t {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            std::exit(2);
        }
        const char *flag = argv[i];
        const char *text = argv[++i];
        if (auto v = ccnuma::parseDecimal(text, lo, hi))
            return *v;
        std::fprintf(stderr, "%s %s: expected an integer from %llu to "
                     "%llu\n", flag, text, (unsigned long long)lo,
                     (unsigned long long)hi);
        std::exit(2);
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--port") {
            cfg.port = static_cast<std::uint16_t>(
                num(i, 0, std::numeric_limits<std::uint16_t>::max()));
        } else if (a == "--exec") {
            cfg.execThreads = static_cast<unsigned>(num(i, 1));
        } else if (a == "--jobs") {
            cfg.pointJobs = static_cast<unsigned>(num(i, 1));
        } else if (a == "--queue") {
            cfg.maxQueued = static_cast<unsigned>(num(i, 1));
        } else if (a == "--discipline") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--discipline needs a value\n");
                return 2;
            }
            std::string d = argv[++i];
            if (d == "fcfs") {
                cfg.priorityDiscipline = false;
            } else if (d == "priority") {
                cfg.priorityDiscipline = true;
            } else {
                std::fprintf(stderr,
                             "--discipline must be fcfs or "
                             "priority, not '%s'\n",
                             d.c_str());
                return 2;
            }
        } else if (a == "--cache-mb") {
            cfg.cacheBytes = num(i, 0) << 20;
        } else if (a == "--persist") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--persist needs a value\n");
                return 2;
            }
            cfg.persistDir = argv[++i];
        } else if (a == "--max-points") {
            cfg.maxPointsPerCampaign =
                static_cast<std::size_t>(num(i, 1));
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    try {
        CampaignService service(cfg);
        service.start();
        std::printf("ccnuma-served listening on 127.0.0.1:%u "
                    "(%s, exec=%u jobs=%u queue=%u cache=%lluMiB%s%s)\n",
                    static_cast<unsigned>(service.port()),
                    cfg.priorityDiscipline ? "priority" : "fcfs",
                    cfg.execThreads, cfg.pointJobs, cfg.maxQueued,
                    static_cast<unsigned long long>(
                        cfg.cacheBytes >> 20),
                    cfg.persistDir.empty() ? "" : " persist=",
                    cfg.persistDir.c_str());
        std::fflush(stdout);
        service.waitForShutdown();
        std::printf("ccnuma-served: shut down cleanly\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ccnuma-served: %s\n", e.what());
        return 1;
    }
    return 0;
}
