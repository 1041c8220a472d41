/**
 * @file
 * The campaign service over real HTTP on a loopback ephemeral port:
 * submit/poll/download round trips, cache-served repeats, bounded
 * admission (deterministic 429s via the pause hook), FCFS vs
 * priority-class scheduling, and the error paths (400/404/405/409).
 */

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "serve/http.hh"
#include "serve/json_in.hh"
#include "serve/result_io.hh"
#include "serve/server.hh"

using namespace ccnuma;
using namespace ccnuma::serve;

namespace
{

constexpr const char *kTinySpec =
    "{\"name\": \"tiny\", \"apps\": [\"FFT\"], "
    "\"archs\": [\"HWC\", \"PPC\"], \"scale\": 0.02, "
    "\"procs\": 8}";

ServiceConfig
testConfig()
{
    ServiceConfig cfg;
    cfg.port = 0; // ephemeral
    cfg.execThreads = 1;
    cfg.pointJobs = 1;
    cfg.maxQueued = 2;
    return cfg;
}

std::string
submitOk(std::uint16_t port, const std::string &spec)
{
    HttpResponse resp = httpRequest(port, "POST", "/campaigns", spec);
    EXPECT_EQ(resp.status, 202) << resp.body;
    return parseJson(resp.body).getString("id", "");
}

JsonValue
awaitDone(std::uint16_t port, const std::string &id)
{
    while (true) {
        HttpResponse resp =
            httpRequest(port, "GET", "/campaigns/" + id);
        EXPECT_EQ(resp.status, 200);
        JsonValue doc = parseJson(resp.body);
        std::string status = doc.getString("status", "?");
        if (status == "done")
            return doc;
        if (status == "failed") {
            ADD_FAILURE() << "campaign failed: " << resp.body;
            return doc;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

TEST(Server, SubmitPollDownloadAndCachedRepeat)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    std::string id = submitOk(port, kTinySpec);
    ASSERT_FALSE(id.empty());
    JsonValue snap = awaitDone(port, id);
    EXPECT_EQ(snap.getU64("points", 0), 2u);
    EXPECT_EQ(snap.getU64("completed", 0), 2u);

    HttpResponse result =
        httpRequest(port, "GET", "/campaigns/" + id + "/result");
    ASSERT_EQ(result.status, 200);
    JsonValue doc = parseJson(result.body);
    EXPECT_EQ(doc.getString("bench", ""), "tiny");
    const JsonValue *results = doc.get("results");
    ASSERT_TRUE(results && results->isArray());
    ASSERT_EQ(results->arr.size(), 2u);
    RunResult r0 = resultFromJson(results->arr[0]);
    EXPECT_TRUE(r0.completed);
    EXPECT_GT(r0.execTicks, 0u);

    // An identical second submission must be served from cache and
    // produce a byte-identical results payload.
    std::string id2 = submitOk(port, kTinySpec);
    awaitDone(port, id2);
    HttpResponse result2 =
        httpRequest(port, "GET", "/campaigns/" + id2 + "/result");
    ASSERT_EQ(result2.status, 200);
    JsonValue doc2 = parseJson(result2.body);
    const JsonValue *rows2 =
        doc2.get("tables")->arr[0].get("rows");
    ASSERT_TRUE(rows2);
    for (const JsonValue &row : rows2->arr)
        EXPECT_EQ(row.getString("cached", ""), "yes");
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(resultsIdentical(
            resultFromJson(results->arr[i]),
            resultFromJson(doc2.get("results")->arr[i])));
    }
    EXPECT_GE(service.cache().stats().hits, 2u);

    service.stop();
}

TEST(Server, ErrorPaths)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    // Invalid spec -> 400, counted.
    HttpResponse bad =
        httpRequest(port, "POST", "/campaigns", "{\"apps\": []}");
    EXPECT_EQ(bad.status, 400);
    EXPECT_EQ(httpRequest(port, "POST", "/campaigns", "not json")
                  .status,
              400);
    // 2^32 + 64 processors must not be narrowed into a 64-processor
    // campaign.
    EXPECT_EQ(httpRequest(port, "POST", "/campaigns",
                          "{\"apps\": [\"FFT\"], "
                          "\"procs\": 4294967360}")
                  .status,
              400);
    // Unknown campaign -> 404; unknown path -> 404; wrong verb -> 405.
    EXPECT_EQ(httpRequest(port, "GET", "/campaigns/nope").status,
              404);
    EXPECT_EQ(httpRequest(port, "GET", "/bogus").status, 404);
    EXPECT_EQ(httpRequest(port, "POST", "/campaigns/nope", "{}")
                  .status,
              405);
    EXPECT_EQ(service.admissionStats().rejectedInvalid, 3u);

    // Result of a queued campaign -> 409 (deterministic: executors
    // are paused, so the job cannot start).
    service.pauseExecutors();
    std::string id = submitOk(port, kTinySpec);
    HttpResponse early =
        httpRequest(port, "GET", "/campaigns/" + id + "/result");
    EXPECT_EQ(early.status, 409);
    service.resumeExecutors();
    awaitDone(port, id);

    service.stop();
}

TEST(Server, DeeplyNestedSpecIs400AndServerKeepsServing)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    // 100 KB of nesting overflows the stack of a parser without a
    // depth cap and takes the daemon down; it must be an ordinary
    // invalid spec.
    const std::string deep = "{\"apps\": " + std::string(100000, '[') +
                             std::string(100000, ']') + "}";
    EXPECT_EQ(httpRequest(port, "POST", "/campaigns", deep).status, 400);
    EXPECT_EQ(service.admissionStats().rejectedInvalid, 1u);

    std::string id = submitOk(port, kTinySpec);
    JsonValue snap = awaitDone(port, id);
    EXPECT_EQ(snap.getU64("completed", 0), 2u);

    service.stop();
}

TEST(Server, BoundedQueueRejectsWith429)
{
    CampaignService service(testConfig()); // maxQueued = 2
    service.start();
    std::uint16_t port = service.port();

    // Stage a burst deterministically: no executor may drain the
    // queue while paused.
    service.pauseExecutors();
    std::string a = submitOk(port, kTinySpec);
    std::string b = submitOk(port, kTinySpec);
    HttpResponse over =
        httpRequest(port, "POST", "/campaigns", kTinySpec);
    EXPECT_EQ(over.status, 429);
    EXPECT_NE(over.body.find("queue"), std::string::npos);

    AdmissionStats as = service.admissionStats();
    EXPECT_EQ(as.accepted, 2u);
    EXPECT_EQ(as.rejectedQueueFull, 1u);

    service.resumeExecutors();
    awaitDone(port, a);
    awaitDone(port, b);
    EXPECT_EQ(service.admissionStats().completed, 2u);

    service.stop();
}

TEST(Server, FcfsRunsInSubmissionOrder)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    service.pauseExecutors();
    // Priorities present in the specs are IGNORED under FCFS.
    std::string low = submitOk(
        port,
        "{\"apps\": [\"FFT\"], \"archs\": [\"HWC\"], "
        "\"scale\": 0.02, \"procs\": 8, \"priority\": 0}");
    std::string high = submitOk(
        port,
        "{\"apps\": [\"LU\"], \"archs\": [\"HWC\"], "
        "\"scale\": 0.02, \"procs\": 8, \"priority\": 2}");
    service.resumeExecutors();
    JsonValue first = awaitDone(port, low);
    JsonValue second = awaitDone(port, high);
    EXPECT_LT(first.getU64("startSeq", 0),
              second.getU64("startSeq", 0));

    service.stop();
}

TEST(Server, PriorityDisciplineServesHigherClassesFirst)
{
    ServiceConfig cfg = testConfig();
    cfg.maxQueued = 4;
    cfg.priorityDiscipline = true;
    CampaignService service(cfg);
    service.start();
    std::uint16_t port = service.port();

    service.pauseExecutors();
    auto spec = [](unsigned priority, const char *app) {
        return std::string("{\"apps\": [\"") + app +
               "\"], \"archs\": [\"HWC\"], \"scale\": 0.02, "
               "\"procs\": 8, \"priority\": " +
               std::to_string(priority) + "}";
    };
    std::string low = submitOk(port, spec(0, "FFT"));
    std::string mid1 = submitOk(port, spec(1, "LU"));
    std::string high = submitOk(port, spec(2, "Radix"));
    std::string mid2 = submitOk(port, spec(1, "Water-Nsq"));
    service.resumeExecutors();

    std::uint64_t seq_low = awaitDone(port, low).getU64("startSeq", 0);
    std::uint64_t seq_mid1 =
        awaitDone(port, mid1).getU64("startSeq", 0);
    std::uint64_t seq_high =
        awaitDone(port, high).getU64("startSeq", 0);
    std::uint64_t seq_mid2 =
        awaitDone(port, mid2).getU64("startSeq", 0);

    // Highest class first; FIFO within a class; lowest class last.
    EXPECT_LT(seq_high, seq_mid1);
    EXPECT_LT(seq_mid1, seq_mid2);
    EXPECT_LT(seq_mid2, seq_low);

    service.stop();
}

TEST(Server, StreamDeliversEveryPointThenASummary)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    std::string id = submitOk(port, kTinySpec);
    // The stream blocks until the campaign finishes, then ends with
    // a status line; the client helper de-chunks it.
    HttpResponse stream = httpRequest(
        port, "GET", "/campaigns/" + id + "/stream");
    EXPECT_EQ(stream.status, 200);

    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < stream.body.size()) {
        std::size_t nl = stream.body.find('\n', pos);
        if (nl == std::string::npos)
            break;
        lines.push_back(stream.body.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_EQ(lines.size(), 3u); // 2 points + 1 summary
    for (std::size_t i = 0; i < 2; ++i) {
        JsonValue line = parseJson(lines[i]);
        EXPECT_GT(line.getU64("execTicks", 0), 0u);
    }
    JsonValue tail = parseJson(lines.back());
    EXPECT_EQ(tail.getString("status", ""), "done");
    EXPECT_EQ(tail.getU64("completed", 0), 2u);

    service.stop();
}

TEST(Server, StatsEndpointCountsEverything)
{
    CampaignService service(testConfig());
    service.start();
    std::uint16_t port = service.port();

    std::string id = submitOk(port, kTinySpec);
    awaitDone(port, id);
    httpRequest(port, "POST", "/campaigns", "nope");

    HttpResponse resp = httpRequest(port, "GET", "/stats");
    ASSERT_EQ(resp.status, 200);
    JsonValue doc = parseJson(resp.body);
    const JsonValue *cache = doc.get("cache");
    const JsonValue *admission = doc.get("admission");
    ASSERT_TRUE(cache && admission);
    EXPECT_EQ(cache->getU64("misses", 99), 2u);
    EXPECT_EQ(admission->getU64("accepted", 0), 1u);
    EXPECT_EQ(admission->getU64("rejectedInvalid", 0), 1u);
    EXPECT_EQ(admission->getU64("completed", 0), 1u);
    EXPECT_EQ(doc.getString("discipline", ""), "fcfs");

    service.stop();
}

} // namespace
