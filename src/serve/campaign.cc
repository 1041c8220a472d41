#include "serve/campaign.hh"

#include <algorithm>
#include <limits>

namespace ccnuma
{
namespace serve
{

namespace
{

/**
 * The unsigned spec field @p key, or @p def when absent; a value that
 * does not fit in unsigned is rejected rather than narrowed.
 */
unsigned
getUnsigned(const JsonValue &doc, const char *key, unsigned def)
{
    const std::uint64_t v = doc.getU64(key, def);
    if (v > std::numeric_limits<unsigned>::max())
        throw CampaignError(std::string("\"") + key +
                            "\" is out of range");
    return static_cast<unsigned>(v);
}

const std::vector<std::string> &
knownApps()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = splashNames();
        v.push_back("Uniform");
        return v;
    }();
    return names;
}

} // namespace

Arch
archFromName(const std::string &name)
{
    for (Arch a :
         {Arch::HWC, Arch::PPC, Arch::TwoHWC, Arch::TwoPPC}) {
        if (name == archName(a))
            return a;
    }
    throw CampaignError("unknown architecture '" + name +
                        "' (expected HWC, PPC, 2HWC, or 2PPC)");
}

CampaignSpec
parseCampaignSpec(const JsonValue &doc)
{
    if (!doc.isObject())
        throw CampaignError("campaign spec must be a JSON object");

    CampaignSpec s;
    try {
        s.name = doc.getString("name", s.name);

        const JsonValue *apps = doc.get("apps");
        if (!apps || !apps->isArray() || apps->arr.empty())
            throw CampaignError(
                "spec needs a non-empty \"apps\" array");
        for (const JsonValue &a : apps->arr) {
            const std::string &app = a.asString();
            if (std::find(knownApps().begin(), knownApps().end(),
                          app) == knownApps().end())
                throw CampaignError("unknown app '" + app + "'");
            s.apps.push_back(app);
        }

        if (const JsonValue *archs = doc.get("archs")) {
            if (!archs->isArray() || archs->arr.empty())
                throw CampaignError(
                    "\"archs\" must be a non-empty array");
            for (const JsonValue &a : archs->arr)
                s.archs.push_back(archFromName(a.asString()));
        } else {
            s.archs = {Arch::HWC, Arch::PPC, Arch::TwoHWC,
                       Arch::TwoPPC};
        }

        s.scale = doc.getDouble("scale", s.scale);
        if (s.scale <= 0.0 || s.scale > 4.0)
            throw CampaignError(
                "\"scale\" must be in (0, 4]");
        s.procs = getUnsigned(doc, "procs", s.procs);
        if (s.procs == 0 || s.procs > 1024)
            throw CampaignError("\"procs\" must be in [1, 1024]");

        if (const JsonValue *seeds = doc.get("seeds")) {
            if (!seeds->isArray() || seeds->arr.empty())
                throw CampaignError(
                    "\"seeds\" must be a non-empty array");
            for (const JsonValue &v : seeds->arr)
                s.seeds.push_back(v.asU64());
        } else {
            s.seeds = {WorkloadParams{}.seed};
        }

        s.dataFactor = doc.getDouble("dataFactor", s.dataFactor);
        if (s.dataFactor <= 0.0)
            throw CampaignError("\"dataFactor\" must be positive");
        s.lineBytes = getUnsigned(doc, "lineBytes", s.lineBytes);
        if (s.lineBytes != 0 &&
            (s.lineBytes & (s.lineBytes - 1)) != 0)
            throw CampaignError(
                "\"lineBytes\" must be a power of two");
        s.netLatencyTicks =
            doc.getU64("netLatencyTicks", s.netLatencyTicks);
        s.shards = getUnsigned(doc, "shards", s.shards);
        if (s.shards == 0)
            s.shards = 1;
        s.priority = getUnsigned(doc, "priority", s.priority);
        if (s.priority > 2)
            throw CampaignError("\"priority\" must be 0, 1, or 2");
    } catch (const JsonError &e) {
        throw CampaignError(std::string("malformed spec: ") +
                            e.what());
    }
    return s;
}

CampaignSpec
parseCampaignSpec(const std::string &json_text)
{
    JsonValue doc;
    try {
        doc = parseJson(json_text);
    } catch (const JsonError &e) {
        throw CampaignError(std::string("bad JSON: ") + e.what());
    }
    return parseCampaignSpec(doc);
}

std::vector<SimPoint>
expandCampaign(const CampaignSpec &spec)
{
    std::function<void(MachineConfig &)> tweak;
    if (spec.lineBytes != 0 || spec.netLatencyTicks != 0) {
        unsigned line = spec.lineBytes;
        Tick lat = spec.netLatencyTicks;
        tweak = [line, lat](MachineConfig &cfg) {
            if (line != 0)
                cfg.withLineBytes(line);
            if (lat != 0)
                cfg.withNetworkLatency(lat);
        };
    }

    std::vector<SimPoint> points;
    points.reserve(spec.numPoints());
    for (const std::string &app : spec.apps) {
        unsigned procs = procsForApp(app, spec.procs);
        for (Arch arch : spec.archs) {
            for (std::uint64_t seed : spec.seeds) {
                points.push_back(makeSimPoint(
                    app, arch, procs, spec.scale, spec.dataFactor,
                    tweak, spec.shards, seed));
            }
        }
    }
    return points;
}

} // namespace serve
} // namespace ccnuma
