#!/usr/bin/env python3
"""Benchmark regression gate for bench_micro_simcore.

Compares a fresh google-benchmark JSON export against the checked-in
baseline and fails (exit 1) when any benchmark's items/sec fell more
than the threshold (default 20%) below the baseline.

Accepts two input shapes:
  * raw google-benchmark output (object with a "benchmarks" array);
  * the simplified baseline format checked into bench/baseline/
    (object with an "items_per_second" name->value map).

Besides the baseline comparison, one machine-independent invariant is
enforced so the gate still means something when CI hardware drifts
from the machine that produced the baseline: the timing wheel must
beat the retained legacy-heap oracle by at least 1.5x on the
realistic-delay benchmark pair.

A second machine-independent invariant gates the sharded scheduler:
pass --sharded BENCH_fig6_sharded.json and the grid's overall
serial-vs-sharded speedup must reach --min-speedup (default 1.5x).
The timing checks are skipped (with a note) when the producing host
had fewer hardware threads than requested shards — identity is still
enforced by the bench itself, but the timing comparison is
meaningless there. More checks ride on the same summary table:

  * the adaptive window counters (windows run / widened / fallbacks
    / sync window stops) must be PRESENT — a bench export without
    them means the planner silently stopped counting, which is
    itself a failure;
  * --min-speedup-adaptive N (default 0 = off) requires the overall
    serial-vs-adaptive speedup to reach N on hosts with >= 8
    hardware threads (the fig6 8-core target).

A third machine-independent invariant gates the crash-recovery
subsystem: pass --recovery BENCH_crash_campaign.json and every
campaign run must have completed ("done" == yes) with retired
instructions identical to its clean baseline ("instr-ok" == yes),
and no directory reconstruction may have taken longer than
--max-rebuild-ticks. Correctness checks are host-independent, so
--recovery works standalone (no baseline/fresh pair needed).

A fourth machine-independent invariant gates the data-integrity
subsystem: pass --integrity BENCH_corruption_campaign.json and every
campaign run must have completed ("done" == yes) with instructions
identical to its clean baseline ("instr-ok" == yes) and ZERO escaped
corruptions ("escaped" == 0): every applied bit flip was detected by
the frame CRC, corrected by the SECDED ECC or the scrubber,
contained by a discard, or escalated to a rebuild. Like --recovery
it works standalone.

A fifth machine-independent invariant gates the campaign service:
pass --served BENCH_served_load.json (or a daemon result download —
GET /campaigns/<id>/result emits the same table schema, and this
script reads both identically) and the cached scenarios must show a
dedup factor above --min-dedup (default 1.0: the cache actually
eliminated repeat work) with a nonzero hit rate, and the 429
rejection column must be present (bounded admission is counted,
never silent). The summary line echoes cache-hit-rate and
dedup-factor so CI logs track the serving efficiency run-over-run.

Usage: bench_gate.py [BASELINE.json FRESH.json] [--threshold 0.20]
                     [--sharded BENCH_fig6_sharded.json]
                     [--min-speedup 1.5]
                     [--min-speedup-adaptive 0]
                     [--recovery BENCH_crash_campaign.json]
                     [--max-rebuild-ticks 50000]
                     [--integrity BENCH_corruption_campaign.json]
                     [--served BENCH_served_load.json]
                     [--min-dedup 1.0]

An input that is missing or is not valid JSON is reported as
"bench_gate: cannot read <path>: <reason>" and exits 2.
"""

import argparse
import json
import sys


def load_json(path):
    """Parse the JSON file at `path`, or exit 2 naming the problem."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        reason = e.strerror or str(e)
    except ValueError as e:  # json.JSONDecodeError, UnicodeDecodeError
        reason = str(e)
    print(f"bench_gate: cannot read {path}: {reason}", file=sys.stderr)
    sys.exit(2)


def items_per_second(path):
    data = load_json(path)
    if "items_per_second" in data:
        return dict(data["items_per_second"])
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips:
            out[b["name"]] = float(ips)
    return out


def sharded_summary(path):
    """Return the metric->value map of the sharded bench's summary
    table, or None if the file doesn't contain one."""
    data = load_json(path)
    for table in data.get("tables", []):
        if "speedup summary" not in table.get("title", "").lower():
            continue
        return {row.get("metric"): row.get("value")
                for row in table.get("rows", [])}
    return None


def check_sharded(path, min_speedup, min_speedup_adaptive, failures):
    summary = sharded_summary(path)
    if summary is None:
        failures.append(f"{path}: no 'speedup summary' table")
        return
    points = int(summary.get("points", 0))
    identical = int(summary.get("points bit-identical", -1))
    if identical != points or points == 0:
        failures.append(
            f"sharded identity: {identical}/{points} points "
            "bit-identical")

    # The adaptive planner must count its behavior; a summary without
    # the counters means the policy went silent, which is a failure
    # regardless of timing.
    counters = {}
    for key in ("windows run", "windows widened", "window fallbacks",
                "sync window stops"):
        if key not in summary:
            failures.append(
                f"sharded fig6: summary lacks the '{key}' counter "
                "(adaptive window behavior must be counted, never "
                "silent)")
        else:
            counters[key] = int(summary[key])

    shards = int(summary.get("shards requested", 0))
    hw = int(summary.get("hardware threads", 0))
    speedup = float(summary.get("overall speedup", 0.0))
    print(f"\nsharded fig6: {identical}/{points} bit-identical, "
          f"{shards} shards on {hw} hardware threads, "
          f"speedup {speedup:.2f} (require >= {min_speedup:.2f})")
    if counters:
        print("  adaptive windows: "
              + ", ".join(f"{k} {v}" for k, v in counters.items()))
    if counters.get("windows run", 0) > 0 and \
            counters.get("windows widened", -1) == 0:
        print("  (note: the adaptive planner never widened a window "
              "on this grid)")
    if hw < shards:
        print("  (timing checks skipped: host has fewer hardware "
              "threads than shards)")
        return
    if speedup < min_speedup:
        failures.append(
            f"sharded scheduler only {speedup:.2f}x serial "
            f"(expected >= {min_speedup:.2f}x on {hw} threads)")

    if min_speedup_adaptive > 0:
        if hw >= 8:
            print(f"  adaptive speedup {speedup:.2f} "
                  f"(require >= {min_speedup_adaptive:.2f} on "
                  f"{hw} threads)")
            if speedup < min_speedup_adaptive:
                failures.append(
                    f"adaptive sharded speedup only {speedup:.2f}x "
                    f"serial (expected >= "
                    f"{min_speedup_adaptive:.2f}x on {hw} threads)")
        else:
            print("  (adaptive speedup floor skipped: host has "
                  f"{hw} < 8 hardware threads)")


def check_recovery(path, max_rebuild_ticks, failures):
    rows = table_rows(path, "crash campaign")
    if rows is None:
        failures.append(f"{path}: no 'crash campaign' table")
        return
    if not rows:
        failures.append(f"{path}: crash campaign table is empty")
        return
    worst_rebuild = 0
    bad = 0
    for row in rows:
        tag = (f"{row.get('workload')}/{row.get('arch')}"
               f"@{row.get('crash-tk')}")
        if row.get("done") != "yes":
            failures.append(f"crash campaign {tag}: did not complete")
            bad += 1
        if row.get("instr-ok") != "yes":
            failures.append(
                f"crash campaign {tag}: retired instructions differ "
                "from the clean baseline")
            bad += 1
        worst_rebuild = max(worst_rebuild,
                            int(row.get("rebuild-tk", 0)))
    print(f"\ncrash campaign: {len(rows)} runs, {bad} failures, "
          f"worst directory reconstruction {worst_rebuild} ticks "
          f"(require <= {max_rebuild_ticks})")
    if worst_rebuild > max_rebuild_ticks:
        failures.append(
            f"directory reconstruction took {worst_rebuild} ticks "
            f"(ceiling {max_rebuild_ticks})")


def table_rows(path, title_substr):
    """Return the per-run rows of the named table (the TOTAL row
    excluded), or None if the file doesn't contain one."""
    data = load_json(path)
    for table in data.get("tables", []):
        if title_substr not in table.get("title", "").lower():
            continue
        return [row for row in table.get("rows", [])
                if row.get("workload") != "TOTAL"]
    return None


def check_integrity(path, failures):
    rows = table_rows(path, "corruption campaign")
    if rows is None:
        failures.append(f"{path}: no 'corruption campaign' table")
        return
    if not rows:
        failures.append(f"{path}: corruption campaign table is empty")
        return
    bad = 0
    applied = 0
    for row in rows:
        tag = (f"{row.get('workload')}/{row.get('arch')} "
               f"{row.get('domain')} x{row.get('bits')}")
        if row.get("done") != "yes":
            failures.append(
                f"corruption campaign {tag}: did not complete")
            bad += 1
        if row.get("instr-ok") != "yes":
            failures.append(
                f"corruption campaign {tag}: retired instructions "
                "differ from the clean baseline")
            bad += 1
        if int(row.get("escaped", -1)) != 0:
            failures.append(
                f"corruption campaign {tag}: "
                f"{row.get('escaped')} corruption(s) ESCAPED the "
                "defenses")
            bad += 1
        applied += int(row.get("flips", 0))
    print(f"\ncorruption campaign: {len(rows)} runs, "
          f"{applied} corruptions applied, {bad} failures, "
          "0 escapes required")
    if applied == 0:
        failures.append(
            "corruption campaign applied no corruptions at all; "
            "the sweep is not exercising the defenses")


def served_summary(path):
    """Metric->value map of a daemon download's 'campaign summary'
    table, or None when the file isn't a result download."""
    data = load_json(path)
    for table in data.get("tables", []):
        if "campaign summary" not in table.get("title", "").lower():
            continue
        return {row.get("metric"): row.get("value")
                for row in table.get("rows", [])}
    return None


def check_served(path, min_dedup, failures):
    rows = table_rows(path, "served load")
    if rows is not None:
        # Load-bench shape: one row per service scenario.
        if not rows:
            failures.append(f"{path}: served load table is empty")
            return
        print("\nserved load:")
        for row in rows:
            scenario = row.get("scenario", "?")
            hit = float(row.get("hit_rate", 0.0))
            dedup = float(row.get("dedup_factor", 0.0))
            if "rejected_429" not in row:
                failures.append(
                    f"served load {scenario}: no rejected_429 "
                    "column (admission pushback must be counted)")
            print(f"  {scenario:18s} hit-rate {hit:.4f} "
                  f"dedup-factor {dedup:.2f} "
                  f"p50 {row.get('p50_ms')}ms "
                  f"p99 {row.get('p99_ms')}ms "
                  f"429s {row.get('rejected_429')}")
            if not scenario.startswith("cached"):
                continue
            if dedup <= min_dedup:
                failures.append(
                    f"served load {scenario}: dedup factor "
                    f"{dedup:.2f} <= {min_dedup:.2f}; the cache "
                    "eliminated no repeat work")
            if hit <= 0.0:
                failures.append(
                    f"served load {scenario}: cache hit rate is "
                    "zero under an overlapping load")
        return

    # Daemon download shape: gate on structure, echo the cache
    # efficiency fields (a single campaign may legitimately show no
    # dedup, so no threshold applies here).
    summary = served_summary(path)
    points = table_rows(path, "campaign points")
    if summary is None or points is None:
        failures.append(
            f"{path}: neither a 'served load' bench export nor a "
            "campaign result download")
        return
    if not points:
        failures.append(f"{path}: campaign has no points")
        return
    hit = summary.get("cache hit rate", "MISSING")
    dedup = summary.get("dedup factor", "MISSING")
    if hit == "MISSING" or dedup == "MISSING":
        failures.append(
            f"{path}: campaign summary lacks cache-hit-rate / "
            "dedup-factor fields")
    print(f"\ncampaign download: {len(points)} points, "
          f"cache-hit-rate {hit}, dedup-factor {dedup}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max fractional items/sec regression")
    ap.add_argument("--sharded", metavar="JSON",
                    help="BENCH_fig6_sharded.json to gate on")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="min sharded-vs-serial wall-clock speedup")
    ap.add_argument("--min-speedup-adaptive", type=float, default=0.0,
                    help="min serial-vs-adaptive speedup, enforced "
                         "only on hosts with >= 8 hardware threads "
                         "(0 = off)")
    ap.add_argument("--recovery", metavar="JSON",
                    help="BENCH_crash_campaign.json to gate on")
    ap.add_argument("--max-rebuild-ticks", type=int, default=50000,
                    help="max directory reconstruction time")
    ap.add_argument("--integrity", metavar="JSON",
                    help="BENCH_corruption_campaign.json to gate on")
    ap.add_argument("--served", metavar="JSON",
                    help="BENCH_served_load.json or a daemon result "
                         "download to gate on")
    ap.add_argument("--min-dedup", type=float, default=1.0,
                    help="cached scenarios must dedup above this")
    args = ap.parse_args()

    if bool(args.baseline) != bool(args.fresh):
        ap.error("BASELINE and FRESH must be given together")
    if (not args.baseline and not args.sharded and not args.recovery
            and not args.integrity and not args.served):
        ap.error("nothing to gate: give BASELINE FRESH, --sharded, "
                 "--recovery, --integrity, or --served")

    failures = []
    if args.baseline:
        base = items_per_second(args.baseline)
        fresh = items_per_second(args.fresh)

        print(f"{'benchmark':40s} {'baseline':>12s} {'fresh':>12s} "
              f"{'ratio':>7s}")
        for name in sorted(base):
            if name not in fresh:
                print(f"{name:40s} {base[name]:12.3g} "
                      f"{'MISSING':>12s}")
                failures.append(f"{name}: missing from fresh run")
                continue
            ratio = fresh[name] / base[name]
            flag = ""
            if ratio < 1.0 - args.threshold:
                flag = "  << REGRESSION"
                failures.append(
                    f"{name}: {fresh[name]:.3g} items/s is "
                    f"{(1.0 - ratio) * 100:.1f}% below baseline "
                    f"{base[name]:.3g}")
            print(f"{name:40s} {base[name]:12.3g} "
                  f"{fresh[name]:12.3g} {ratio:7.2f}{flag}")

        small = fresh.get("BM_WheelParkedOverflow/64")
        big = fresh.get("BM_WheelParkedOverflow/4096")
        if small and big:
            ratio = big / small
            print(f"\nparked-overflow 4096/64 throughput ratio: "
                  f"{ratio:.2f} (require >= 0.50)")
            if ratio < 0.50:
                failures.append(
                    f"wheel advance degrades {1 / ratio:.1f}x with a "
                    "64x larger parked overflow population; the "
                    "O(overflow) early-out is not engaging")
        else:
            failures.append(
                "BM_WheelParkedOverflow/{64,4096} pair missing from "
                "run")

        wheel = fresh.get("BM_WheelRealisticDelays")
        heap = fresh.get("BM_LegacyHeapRealisticDelays")
        if wheel and heap:
            ratio = wheel / heap
            print(f"\nwheel/heap realistic-delay ratio: {ratio:.2f} "
                  f"(require >= 1.50)")
            if ratio < 1.50:
                failures.append(
                    f"timing wheel only {ratio:.2f}x the legacy "
                    f"heap (expected >= 1.5x)")
        else:
            failures.append(
                "wheel-vs-heap realistic-delay pair missing from run")

    if args.sharded:
        check_sharded(args.sharded, args.min_speedup,
                      args.min_speedup_adaptive, failures)

    if args.recovery:
        check_recovery(args.recovery, args.max_rebuild_ticks,
                       failures)

    if args.integrity:
        check_integrity(args.integrity, failures)

    if args.served:
        check_served(args.served, args.min_dedup, failures)

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
