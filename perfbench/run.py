#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout. It builds perfbench_driver from the
checkout's sources (RelWithDebInfo, under .bench_build/), runs the
workload in a fresh driver process with every CCNUMA_* variable
cleared, checks the simulated outputs, writes a result file with
provenance under .bench_results/, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. perfbench/README.md describes the workloads
and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("fig6_grid", "ppn8_bus", "ppn1_net", "served_mix")
SIM_WORKLOADS = WORKLOADS[:3]
DRIVER_TIMEOUT_S = 170
SERVED_BATCH = 100  # served_mix wall_s is seconds per this many campaigns


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Set-up: isolation and build

def clean_env():
    """The environment without CCNUMA_* knobs, each one reported."""
    env = dict(os.environ)
    for k in sorted(env):
        if k.startswith("CCNUMA_"):
            log("clearing %s=%s so it cannot change what is measured"
                % (k, env[k]))
            del env[k]
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count()
                                                    or 1))])
    with open(logfile, "a") as lf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(cmd))


# ---------------------------------------------------------------------------
# Provenance

def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the simulator and benchmark sources, so a checkout
    without git history still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics

def sum_stat(points, key):
    return sum(p["stats"].get(key, 0.0) for p in points)


def ratio(num, den):
    return num / den if den else 0.0


def peak_rss_mb(d):
    return d["peak_rss_kb"] / 1024.0


def pp_penalty_mae(results):
    """MAE of the PPC/HWC penalty against the paper's anchors over
    the kernels simulated on both HWC and PPC. `results` is a list of
    (app, RunResult dict)."""
    ticks = {}
    for app, r in results:
        ticks.setdefault(app, {})[r["arch"]] = r["execTicks"]
    pens = {app: 100.0 * (t["PP"] / t["HWC"] - 1.0)
            for app, t in ticks.items() if "HWC" in t and "PP" in t}
    return M.penalty_mae(pens)


def check_sim(d, failures):
    """Output checks of a simulation workload; appends a message per
    failed check to `failures` and returns (points attempted, points
    failed)."""
    failed = set()
    passes = d["passes"] + [{"points": d.get("reference", [])}]
    by_app = {}
    by_point = {}
    for pi, p in enumerate(passes):
        for qi, q in enumerate(p["points"]):
            key = (pi, qi)
            if not q["result"]["completed"]:
                failed.add(key)
                failures.append("%s/%s did not complete"
                                % (q["app"], q["result"]["arch"]))
            by_app.setdefault(q["app"], []).append((key, q))
            if pi < len(d["passes"]):
                by_point.setdefault(qi, []).append((key, q))
    # Per kernel: instructions and memRefs identical across archs,
    # passes and node shapes (the reference points run the base
    # 16x4 shape).
    for app, qs in by_app.items():
        seen = {(q["result"]["instructions"], q["result"]["memRefs"])
                for _, q in qs}
        if len(seen) > 1:
            failed.update(k for k, _ in qs)
            failures.append("%s: instructions/memRefs differ across "
                            "archs or shapes: %s" % (app, sorted(seen)))
    # Per point: the simulated-output digest (RunResult + stats dump)
    # is the same in every pass, traced and untraced alike.
    for qi, qs in by_point.items():
        digests = {q["digest"] for _, q in qs}
        if len(digests) > 1:
            failed.update(k for k, _ in qs)
            failures.append("%s/%s: digest differs between passes "
                            "(traced vs untraced included): %s"
                            % (qs[0][1]["app"], qs[0][1]["result"]["arch"],
                               sorted(digests)))
    attempted = sum(len(p["points"]) for p in passes)
    return attempted, len(failed)


def sim_end_to_end(d):
    untraced = [p for p in d["passes"] if not p["traced"]]
    # The op a sweep user submits and waits for is the whole pass.
    lat = [1e3 * p["wall_s"] for p in untraced]
    tail_label, tail_value = M.tail(lat)
    point_lat = [1e3 * (q["end_s"] - q["start_s"])
                 for p in untraced for q in p["points"]]
    refs_per_s = [sum(q["result"]["memRefs"] for q in p["points"]) /
                  sum(q["run_s"] for q in p["points"]) for p in untraced]
    setup = [sum(q["make_s"] + q["capture_s"] + q["ctor_s"]
                 for q in p["points"]) for p in untraced]
    first = d["passes"][0]["points"]
    mae = pp_penalty_mae([(q["app"], q["result"]) for q in first])
    out = {
        "wall_s": M.median([p["wall_s"] for p in untraced]),
        "setup_s": M.median(setup),
        "sim_refs_per_s": M.median(refs_per_s),
        "op_tail_ms": tail_value,
        "pp_penalty_mae_pct": mae,
    }
    notes = {"peak_rss_mb": peak_rss_mb(d),
             "op": "sweep pass", "op_samples": len(lat),
             "op_p50_ms": M.median(lat),
             "op_tail_percentile": tail_label,
             "point_samples": len(point_lat),
             "point_p50_ms": M.median(point_lat)}
    return out, notes


def host_metrics(d, counts_per_pass, cpu_s):
    """host.<m>.self_share and host.<m>.ns_per_<unit>."""
    s = d["sampler"]
    counts = M.rollup([tuple(x) for x in s["pcs"]], s["maps"], s["exe"],
                      ROOT)
    total = sum(counts.values())
    share = {m: ratio(c, total) for m, c in counts.items()}
    out = {"host.%s.self_share" % m: share[m] for m in M.MODULES}

    def ns_per(module, count):
        return ratio(share[module] * cpu_s * 1e9, count)

    c = counts_per_pass
    out["host.sim.ns_per_event"] = ns_per("sim", c["events"])
    out["host.node.ns_per_bus_txn"] = ns_per("node", c["bus_txns"])
    out["host.bus.ns_per_txn"] = ns_per("bus", c["bus_txns"])
    out["host.cc.ns_per_request"] = ns_per("cc", c["cc_requests"])
    out["host.directory.ns_per_access"] = ns_per("directory",
                                                 c["dir_accesses"])
    out["trace.samples"] = float(s["samples"])
    return out, counts


def sim_per_layer(d):
    untraced = [p for p in d["passes"] if not p["traced"]]
    traced = [p for p in d["passes"] if p["traced"]]
    pts = traced[0]["points"]
    n_traced = len(traced)
    l1 = sum_stat(pts, "cache.l1_hits")
    l2 = sum_stat(pts, "cache.l2_hits")
    l2miss = sum_stat(pts, "cache.misses")
    bus_txns = sum_stat(pts, "bus.transactions")
    cc_req = sum(q["result"]["ccRequests"] for q in pts)
    dir_hits = sum_stat(pts, "dir.cache_hits")
    dir_miss = sum_stat(pts, "dir.cache_misses")
    dir_acc = sum_stat(pts, "dir.reads") + sum_stat(pts, "dir.writes")
    events = sum(q["events"] for q in pts)
    out = {
        "sim.events": float(events),
        "workload.ops": float(sum(q["ops"] for q in pts)),
        "workload.capture_s": M.median(
            [sum(q["capture_s"] for q in p["points"]) for p in traced]),
        "workload.replay_hit_ratio": traced[0]["replay"]["hit_rate"],
        "workload.replay_bytes": float(
            traced[0]["replay"]["resident_bytes"]),
        "node.l1_hit_ratio": ratio(l1, l1 + l2 + l2miss),
        "node.l2_hit_ratio": ratio(l2, l2 + l2miss),
        "node.snoop_probes": float(sum(
            q["stats"].get("bus.transactions", 0.0) * q["procs_per_node"]
            for q in pts)),
        "mem.reads": sum_stat(pts, "mem.reads"),
        "mem.writes": sum_stat(pts, "mem.writes"),
        "bus.transactions": bus_txns,
        "bus.retries": sum_stat(pts, "bus.retries"),
        "bus.cache_to_cache": sum_stat(pts, "bus.cache_to_cache"),
        "bus.arb_wait_mean_ticks": ratio(
            sum_stat(pts, "bus.arb_wait.sum"),
            sum_stat(pts, "bus.arb_wait.n")),
        "cc.requests": float(cc_req),
        "cc.utilization": sum(q["result"]["avgUtilization"]
                              for q in pts) / len(pts),
        "cc.queue_delay_ticks": ratio(
            sum(q["result"]["avgQueueDelayTicks"] *
                q["result"]["ccRequests"] for q in pts), cc_req),
        "cc.nacks": sum_stat(pts, "cc.owner_nacks"),
        "dir.reads": sum_stat(pts, "dir.reads"),
        "dir.writes": sum_stat(pts, "dir.writes"),
        "dir.cache_hit_ratio": ratio(dir_hits, dir_hits + dir_miss),
        "net.messages": sum_stat(pts, "net.messages"),
        "net.bytes": sum_stat(pts, "net.bytes"),
        "net.egress_wait_mean_ticks": ratio(
            sum_stat(pts, "net.egress_wait.sum"),
            sum_stat(pts, "net.egress_wait.n")),
        "peak_rss_mb": peak_rss_mb(d),
        "system.ctor_s": M.median(
            [sum(q["ctor_s"] for q in p["points"]) for p in traced]),
        "trace_overhead_frac":
            M.median([p["wall_s"] for p in traced]) /
            M.median([p["wall_s"] for p in untraced]) - 1.0,
    }
    cpu_per_pass = sum(p["cpu_s"] for p in traced) / n_traced
    host, counts = host_metrics(d, {
        "events": events, "bus_txns": bus_txns, "cc_requests": cc_req,
        "dir_accesses": dir_acc}, cpu_per_pass)
    out.update(host)
    return out, counts


def served_campaigns(d, traced):
    ph = [p for p in d["phases"] if p["traced"] == traced]
    return [c for p in ph for c in d["campaigns"][p["first"]:p["last"]]]


def campaign_ms(c):
    return 1e3 * (c["end_s"] - c["start_s"])


def is_hit(c):
    return c["points"] > 0 and c["cached_points"] == c["points"]


def check_served(d, failures):
    """Output checks of served_mix; returns (campaigns attempted,
    campaigns or checks failed)."""
    camps = d["campaigns"]
    failed = 0
    for c in camps:
        if c["error"]:
            failed += 1
            failures.append("campaign %d: %s" % (c["span_id"], c["error"]))
    ch = d["checks"]
    failed += ch["direct_mismatches"]
    failures.extend(ch["errors"])
    if ch["direct_checked"] == 0:
        failures.append("no served result was compared with a direct run")
        failed += 1
    return len(camps), failed


def served_end_to_end(d):
    camps = served_campaigns(d, traced=False)
    lat = [campaign_ms(c) for c in camps]
    tail_label, tail_value = M.tail(lat)
    # wall_s: closed-loop seconds per SERVED_BATCH campaigns.
    ph = [p for p in d["phases"] if not p["traced"]][0]
    per_batch = ph["wall_s"] / len(camps) * SERVED_BATCH
    misses = [c for c in camps if not is_hit(c) and not c["error"]]
    refs = 0
    for c in misses:
        for r in c["results"]:
            refs += json.loads(r)["memRefs"]
    miss_s = sum(campaign_ms(c) for c in misses) / 1e3
    pool_results = []
    for c in d["campaigns"]:
        spec = d["specs"][c["spec"]]
        if spec["pool"] and c["results"]:
            app = json.loads(spec["json"])["apps"][0]
            pool_results += [(app, json.loads(r)) for r in c["results"]]
    out = {
        "wall_s": per_batch,
        "setup_s": M.median(d["setup_rounds_s"]),
        "sim_refs_per_s": ratio(refs, miss_s),
        "op_tail_ms": tail_value,
        "pp_penalty_mae_pct": pp_penalty_mae(pool_results),
    }
    notes = {"peak_rss_mb": peak_rss_mb(d),
             "op": "campaign", "op_samples": len(lat),
             "op_p50_ms": M.median(lat),
             "op_tail_percentile": tail_label,
             "misses": len(misses)}
    return out, notes


def served_per_layer(d):
    stats = json.loads(d["service"]["stats_json"])
    adm = stats["admission"]
    un = served_campaigns(d, traced=False)
    tr = served_campaigns(d, traced=True)
    hits = [campaign_ms(c) for c in tr if is_hit(c)]
    misses = [campaign_ms(c) for c in tr if not is_hit(c)]
    ph_un = [p for p in d["phases"] if not p["traced"]][0]
    ph_tr = [p for p in d["phases"] if p["traced"]][0]
    per_un = ph_un["wall_s"] / max(1, len(un))
    per_tr = ph_tr["wall_s"] / max(1, len(tr))
    out = {
        "serve.cache_hit_ratio": stats["cache"]["hitRate"],
        "serve.dedup_factor": stats["cache"]["dedupFactor"],
        "serve.rejected": float(adm["rejectedQueueFull"] +
                                adm["rejectedInvalid"] +
                                adm["rejectedDraining"]),
        "serve.hit_campaign_p50_ms": M.median(hits) if hits else 0.0,
        "serve.miss_campaign_p50_ms": M.median(misses) if misses else 0.0,
        "peak_rss_mb": peak_rss_mb(d),
        "trace_overhead_frac": per_tr / per_un - 1.0,
    }
    # Simulation counts come from printStats, which the HTTP API does
    # not expose; on this workload they are reported as 0.
    host, counts = host_metrics(d, {"events": 0, "bus_txns": 0,
                                    "cc_requests": 0, "dir_accesses": 0},
                                ph_tr["cpu_s"])
    out.update(host)
    return out, counts


def not_on_path(name, sim):
    """Per-layer metrics a workload cannot observe, reported as 0: the
    serve layer is not on a simulation workload's path, and the
    printStats counts and span timings of the simulations inside the
    campaign service are not exposed by its HTTP API."""
    if sim:
        return name.startswith("serve.")
    return not name.startswith(("host.", "serve.", "trace"))


# ---------------------------------------------------------------------------
# Driver

def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not (M.valid_metric_name(m["name"]) and
                    M.valid_unit(m["unit"])):
                raise BenchError("bad metric %r in BENCHMARK.json" % m)
    return spec


def run_driver(args, env, out_path):
    cmd = [DRIVER, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d" % proc.returncode)
    with open(out_path) as f:
        return json.load(f)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    env = clean_env()
    t_build = time.monotonic()
    build(env)
    log("build checked in %.1f s" % (time.monotonic() - t_build))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(RESULTS_DIR, stem + ".driver.json")
    d = run_driver(args, env, raw_path)

    failures = []
    sim = args.workload in SIM_WORKLOADS
    if sim:
        attempted, failed = check_sim(d, failures)
    else:
        attempted, failed = check_served(d, failures)

    module_counts = None
    if args.trace:
        values, module_counts = (sim_per_layer if sim else
                                 served_per_layer)(d)
        notes = {}
        wanted = spec["per_layer"]
    else:
        values, notes = (sim_end_to_end if sim else served_end_to_end)(d)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None and not_on_path(m["name"], sim):
            v = 0.0
        if v is None:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}

    if sim:
        configs = [q["canonical"] for q in d["passes"][0]["points"]]
    else:
        configs = [c for s in d["specs"] for c in s["canonical"]]
    result = {
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "build_type": d["build_type"],
            "compiler": d["compiler"],
            "nproc": d["nproc"],
            "seed": args.seed,
            "seconds": args.seconds,
            "workload": args.workload,
            "trace": args.trace,
            "canonical_configs": configs,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": notes,
        "module_samples": module_counts,
        "metrics": metrics,
        "driver_output": os.path.basename(raw_path),
    }
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    for msg in failures:
        log("check failed: " + msg)
    if notes:
        log("notes: " + json.dumps(notes))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError,
            KeyError, ValueError) as e:
        log("error: %s" % e)
        sys.exit(2)
