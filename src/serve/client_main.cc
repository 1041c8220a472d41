/**
 * @file
 * ccnuma-campaign: command-line client for the campaign daemon.
 *
 *   ccnuma-campaign [--port N] submit <spec.json | ->
 *   ccnuma-campaign [--port N] wait <id>
 *   ccnuma-campaign [--port N] result <id> [-o out.json]
 *   ccnuma-campaign [--port N] run <spec.json | -> [-o out.json]
 *   ccnuma-campaign [--port N] stats
 *   ccnuma-campaign [--port N] shutdown
 *
 * "run" is submit + wait (polling snapshots) + result download in one
 * step — what the CI smoke test and the curl quick-start automate.
 * Exit status: 0 success, 1 service-side failure, 2 usage error.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/http.hh"
#include "serve/json_in.hh"
#include "sim/logging.hh"

namespace
{

using namespace ccnuma::serve;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ccnuma-campaign [--port N] <command> ...\n"
        "  submit <spec.json|->       POST a campaign, print the id\n"
        "  wait <id>                  poll until done or failed\n"
        "  result <id> [-o FILE]      download the finished results\n"
        "  run <spec|-> [-o FILE]     submit + wait + result\n"
        "  stats                      cache / admission counters\n"
        "  shutdown                   ask the daemon to exit\n");
}

std::string
readSpec(const std::string &path)
{
    if (path == "-") {
        std::ostringstream os;
        os << std::cin.rdbuf();
        return os.str();
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read spec '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Fail loudly on any non-2xx answer. */
HttpResponse
expectOk(const HttpResponse &resp, const char *what)
{
    if (resp.status < 200 || resp.status >= 300) {
        std::fprintf(stderr, "%s failed: HTTP %d\n%s\n", what,
                     resp.status, resp.body.c_str());
        std::exit(1);
    }
    return resp;
}

std::string
submit(std::uint16_t port, const std::string &spec_text)
{
    HttpResponse resp = expectOk(
        httpRequest(port, "POST", "/campaigns", spec_text),
        "submit");
    JsonValue doc = parseJson(resp.body);
    std::string id = doc.getString("id", "");
    std::printf("%s\n", resp.body.c_str());
    if (id.empty()) {
        std::fprintf(stderr, "submit reply had no id\n");
        std::exit(1);
    }
    return id;
}

int
wait(std::uint16_t port, const std::string &id, bool quiet)
{
    std::size_t last_done = static_cast<std::size_t>(-1);
    while (true) {
        HttpResponse resp = expectOk(
            httpRequest(port, "GET", "/campaigns/" + id), "poll");
        JsonValue doc = parseJson(resp.body);
        std::string status = doc.getString("status", "?");
        std::size_t done =
            static_cast<std::size_t>(doc.getU64("completed", 0));
        std::size_t total =
            static_cast<std::size_t>(doc.getU64("points", 0));
        if (!quiet && done != last_done) {
            std::fprintf(stderr, "%s: %s %zu/%zu\n", id.c_str(),
                         status.c_str(), done, total);
            last_done = done;
        }
        if (status == "done")
            return 0;
        if (status == "failed") {
            std::fprintf(stderr, "%s failed: %s\n", id.c_str(),
                         doc.getString("error", "?").c_str());
            return 1;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
}

int
result(std::uint16_t port, const std::string &id,
       const std::string &out_path)
{
    HttpResponse resp = expectOk(
        httpRequest(port, "GET", "/campaigns/" + id + "/result"),
        "result");
    if (out_path.empty()) {
        std::printf("%s\n", resp.body.c_str());
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
        out << resp.body << "\n";
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint16_t port = 8920;
    int i = 1;
    if (i + 1 < argc && std::strcmp(argv[i], "--port") == 0) {
        auto v = ccnuma::parseDecimal(argv[i + 1], 1, 65535);
        if (!v) {
            std::fprintf(stderr, "--port %s: expected an integer from "
                         "1 to 65535\n", argv[i + 1]);
            return 2;
        }
        port = static_cast<std::uint16_t>(*v);
        i += 2;
    }
    if (i >= argc) {
        usage();
        return 2;
    }
    std::string cmd = argv[i++];

    auto outFlag = [&](std::string &out_path) {
        if (i + 1 < argc && std::strcmp(argv[i], "-o") == 0) {
            out_path = argv[i + 1];
            i += 2;
        }
    };

    try {
        if (cmd == "submit") {
            if (i >= argc) {
                usage();
                return 2;
            }
            submit(port, readSpec(argv[i]));
            return 0;
        }
        if (cmd == "wait") {
            if (i >= argc) {
                usage();
                return 2;
            }
            return wait(port, argv[i], false);
        }
        if (cmd == "result") {
            if (i >= argc) {
                usage();
                return 2;
            }
            std::string id = argv[i++];
            std::string out_path;
            outFlag(out_path);
            return result(port, id, out_path);
        }
        if (cmd == "run") {
            if (i >= argc) {
                usage();
                return 2;
            }
            std::string spec = readSpec(argv[i++]);
            std::string out_path;
            outFlag(out_path);
            std::string id = submit(port, spec);
            int rc = wait(port, id, false);
            if (rc != 0)
                return rc;
            return result(port, id, out_path);
        }
        if (cmd == "stats") {
            HttpResponse resp = expectOk(
                httpRequest(port, "GET", "/stats"), "stats");
            std::printf("%s\n", resp.body.c_str());
            return 0;
        }
        if (cmd == "shutdown") {
            HttpResponse resp = expectOk(
                httpRequest(port, "POST", "/shutdown"), "shutdown");
            std::printf("%s\n", resp.body.c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ccnuma-campaign: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
