#!/usr/bin/env python3
"""Record and check the committed performance trajectory.

bench/trajectory/trajectory.jsonl holds one JSON object per line, one
line per measured state of the code (typically a before/after pair per
change), so the repository carries its own speed history:

  - fig6: wall seconds of bench_fig6_base at --scale=FIG6_SCALE,
    serial (--jobs=1) and at --jobs=4, median of FIG6_REPEATS runs
    each (fixed, so every line measures the same work);
  - refs_per_s: simulated memory references per second of
    Machine::run for each of the eight kernels (the perfbench
    fig6_grid pass: full data sets, all four architectures);
  - bm_protocol_transactions: items/s of bench_micro_simcore's
    BM_ProtocolTransactions (median of its repetitions);
  - provenance: git SHA (plus whether the tree was dirty), a sha256 of
    src/ and perfbench/, build type, compiler and host threads.

Record a line (run from the root of the checkout being measured; it
needs a built tree and the perfbench driver, which
`python3 perfbench/run.py --workload fig6_grid` builds):

  python3 tools/trajectory.py record --label "what changed" \\
      [--build build] [--out bench/trajectory/trajectory.jsonl]

Check the committed file (the unit tests in tools/tests do this):

  python3 tools/trajectory.py check bench/trajectory/trajectory.jsonl
"""

import argparse
import datetime
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEFAULT_OUT = os.path.join(ROOT, "bench", "trajectory", "trajectory.jsonl")

FIG6_SCALE = 0.5
FIG6_REPEATS = 3

KERNELS = ("LU", "Cholesky", "Water-Nsq", "Water-Sp", "Barnes", "FFT",
           "Radix", "Ocean")

# Every key is required, with this type; nested objects are checked
# separately.
TOP_KEYS = {
    "label": str,
    "date": str,
    "git_sha": str,
    "dirty": bool,
    "source_sha256": str,
    "build_type": str,
    "compiler": str,
    "nproc": int,
    "fig6": dict,
    "refs_per_s": dict,
    "bm_protocol_transactions": float,
}
FIG6_KEYS = {
    "serial_wall_s": float,
    "jobs4_wall_s": float,
}


def validate(entry):
    """Return a list of schema problems with one trajectory line."""
    errs = []
    if not isinstance(entry, dict):
        return ["line is not a JSON object"]

    def check(obj, keys, where):
        for k, t in keys.items():
            if k not in obj:
                errs.append("%smissing %r" % (where, k))
            elif t is float:
                if isinstance(obj[k], bool) or \
                        not isinstance(obj[k], (int, float)):
                    errs.append("%s%r is not a number" % (where, k))
                elif not obj[k] > 0:
                    errs.append("%s%r is not positive" % (where, k))
            elif not isinstance(obj[k], t) or \
                    (t is int and isinstance(obj[k], bool)):
                errs.append("%s%r is not %s" % (where, k, t.__name__))
        for k in obj:
            if k not in keys:
                errs.append("%sunknown key %r" % (where, k))

    check(entry, TOP_KEYS, "")
    if isinstance(entry.get("fig6"), dict):
        check(entry["fig6"], FIG6_KEYS, "fig6: ")
    if isinstance(entry.get("refs_per_s"), dict):
        check(entry["refs_per_s"], {k: float for k in KERNELS},
              "refs_per_s: ")
    if isinstance(entry.get("git_sha"), str) and \
            not re.fullmatch(r"[0-9a-f]{40}", entry["git_sha"]):
        errs.append("git_sha is not a 40-digit hex SHA")
    if isinstance(entry.get("source_sha256"), str) and \
            not re.fullmatch(r"[0-9a-f]{64}", entry["source_sha256"]):
        errs.append("source_sha256 is not a 64-digit hex digest")
    if isinstance(entry.get("date"), str):
        try:
            datetime.date.fromisoformat(entry["date"])
        except ValueError:
            errs.append("date is not YYYY-MM-DD")
    if isinstance(entry.get("nproc"), int) and entry["nproc"] < 1:
        errs.append("nproc is not positive")
    if isinstance(entry.get("label"), str) and not entry["label"].strip():
        errs.append("label is empty")
    return errs


def check_file(path):
    """Return a list of "line N: problem" strings for a trajectory."""
    errs = []
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        return ["cannot read %s: %s" % (path, e.strerror)]
    if not lines:
        return ["%s is empty" % path]
    prev_date = ""
    for n, text in enumerate(lines, 1):
        try:
            entry = json.loads(text)
        except ValueError as e:
            errs.append("line %d: not JSON (%s)" % (n, e))
            continue
        errs += ["line %d: %s" % (n, e) for e in validate(entry)]
        date = entry.get("date", "") if isinstance(entry, dict) else ""
        if isinstance(date, str) and date < prev_date:
            errs.append("line %d: date goes backwards" % n)
        prev_date = date if isinstance(date, str) else prev_date
    return errs


# --- recording -------------------------------------------------------


def source_digest(root):
    """sha256 over src/ and perfbench/ (as perfbench/run.py does)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, root).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_state(root):
    sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                            "--", "src", "perfbench", "bench"],
                           capture_output=True, text=True, check=True)
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def build_info(build):
    build_type, compiler = "", ""
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    # An empty cache entry means the top-level CMakeLists default.
    build_type = build_type or "RelWithDebInfo"
    for p in glob.glob(os.path.join(build, "CMakeFiles", "*",
                                    "CMakeCXXCompiler.cmake")):
        with open(p) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            compiler = "%s %s" % (cid.group(1), ver.group(1))
    return build_type, compiler or "unknown"


def fig6_walls(build, cwd):
    exe = os.path.join(build, "bench", "bench_fig6_base")
    walls = {1: [], 4: []}
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, CCNUMA_BENCH_OUT=out)
        for _ in range(FIG6_REPEATS):
            for jobs in (1, 4):
                cmd = [exe, "--scale=%g" % FIG6_SCALE, "--jobs=%d" % jobs]
                t0 = time.monotonic()
                subprocess.run(cmd, cwd=cwd, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                walls[jobs].append(time.monotonic() - t0)
    return statistics.median(walls[1]), statistics.median(walls[4])


def kernel_refs_per_s(driver, cwd):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "fig6.json")
        subprocess.run([driver, "fig6_grid", "--seed", "1", "--seconds",
                        "20", "--trace", "0", "--out", path], cwd=cwd,
                       check=True, stdout=subprocess.DEVNULL)
        with open(path) as f:
            d = json.load(f)
    refs = {k: 0.0 for k in KERNELS}
    secs = {k: 0.0 for k in KERNELS}
    for p in d["passes"]:
        for q in p["points"]:
            refs[q["app"]] += float(q["result"]["memRefs"])
            secs[q["app"]] += float(q["run_s"])
    return {k: refs[k] / secs[k] for k in KERNELS}


def protocol_transactions(build, cwd):
    exe = os.path.join(build, "bench", "bench_micro_simcore")
    r = subprocess.run([exe, "--benchmark_filter=BM_ProtocolTransactions",
                        "--benchmark_repetitions=5",
                        "--benchmark_format=json"], cwd=cwd, check=True,
                       capture_output=True, text=True)
    runs = [b["items_per_second"] for b in json.loads(r.stdout)["benchmarks"]
            if b.get("run_type") == "iteration"]
    return statistics.median(runs)


def record(args):
    root = os.path.abspath(args.root)
    build = os.path.join(root, args.build)
    driver = os.path.join(root, ".bench_build", "perfbench",
                          "perfbench_driver")
    if args.git_sha:
        sha, dirty = args.git_sha, False
    else:
        sha, dirty = git_state(root)
    build_type, compiler = build_info(build)
    serial, jobs4 = fig6_walls(build, root)
    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "git_sha": sha,
        "dirty": dirty,
        "source_sha256": source_digest(root),
        "build_type": build_type,
        "compiler": compiler,
        "nproc": os.cpu_count() or 1,
        "fig6": {"serial_wall_s": round(serial, 3),
                 "jobs4_wall_s": round(jobs4, 3)},
        "refs_per_s": {k: round(v) for k, v in
                       kernel_refs_per_s(driver, root).items()},
        "bm_protocol_transactions": round(
            protocol_transactions(build, root)),
    }
    errs = validate(entry)
    if errs:
        sys.exit("trajectory: refusing to record: " + "; ".join(errs))
    line = json.dumps(entry, sort_keys=True)
    with open(args.out, "a") as f:
        f.write(line + "\n")
    print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="measure and append one line")
    rec.add_argument("--label", required=True)
    rec.add_argument("--root", default=ROOT,
                     help="checkout to measure (default: this one)")
    rec.add_argument("--build", default="build",
                     help="build directory, relative to --root")
    rec.add_argument("--git-sha", default="",
                     help="SHA to record when --root is not a git "
                          "checkout (an exported tree)")
    rec.add_argument("--out", default=DEFAULT_OUT)
    chk = sub.add_parser("check", help="validate a trajectory file")
    chk.add_argument("path", nargs="?", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    if args.cmd == "record":
        record(args)
        return 0
    errs = check_file(args.path)
    for e in errs:
        print("trajectory: %s" % e, file=sys.stderr)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
