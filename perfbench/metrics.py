"""Pure helpers of the benchmark: percentiles, the paper's penalty
anchors, metric-name rules and the PC-to-module rollup.

Kept free of I/O other than the addr2line call so that
perfbench/tests can check each rule on its own.
"""

import math
import re
import subprocess

# A metric name: starts with a letter or digit, then letters, digits,
# '_', '.', '-'; at most 64 characters.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    return bool(METRIC_NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100 * len(s)))
    return s[rank - 1]


def samples_beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


TAIL_LEVELS = (99, 95, 90, 75)


def tail(values, min_beyond=10):
    """The highest percentile in TAIL_LEVELS with at least
    `min_beyond` samples beyond it, as (label, value). When no level
    above the median has that support, the median: ("p50", median)."""
    n = len(values)
    for level in TAIL_LEVELS:
        if samples_beyond(n, level) >= min_beyond:
            return "p%d" % level, percentile(values, level)
    return "p50", median(values)


# Figure 6 PP penalty anchors the paper states in its text, in percent
# (PPC execution time over HWC, minus one). Radix is a range.
PENALTY_ANCHORS = {
    "LU": (4.0, 4.0),
    "Cholesky": (16.0, 16.0),
    "FFT": (46.0, 46.0),
    "Radix": (46.0, 52.0),
    "Ocean": (93.0, 93.0),
}


def penalty_error(kernel, penalty_pct):
    """Distance in percentage points from a simulated penalty to the
    paper's anchor (to the nearest end of an interval); None for a
    kernel without an anchor."""
    if kernel not in PENALTY_ANCHORS:
        return None
    lo, hi = PENALTY_ANCHORS[kernel]
    if penalty_pct < lo:
        return lo - penalty_pct
    if penalty_pct > hi:
        return penalty_pct - hi
    return 0.0


def penalty_mae(penalties):
    """Mean absolute anchor error over the anchored kernels in
    `penalties` (kernel -> penalty in percent); None if none is."""
    errs = [penalty_error(k, v) for k, v in penalties.items()]
    errs = [e for e in errs if e is not None]
    return sum(errs) / len(errs) if errs else None


# ---------------------------------------------------------------------------
# Host-time attribution

# Layers under src/ charged to one off-path bucket: subsystems that are
# off on a clean run and the speculation journaling.
OFFPATH_DIRS = ("verify", "recovery", "obs")
OFFPATH_FILES = ("sim/snapshot",)

MODULES = ("sim", "workload", "node", "mem", "bus", "cc", "protocol",
           "directory", "net", "system", "serve", "report", "offpath",
           "bench", "runtime")


def frame_module(path, root):
    """The bucket of one source location, or None when the location is
    outside the simulator and the benchmark (e.g. a libstdc++ header
    inlined into simulator code: the caller's frame decides)."""
    path = path.split(" (discriminator")[0]
    path = path.rsplit(":", 1)[0]
    root = root.rstrip("/") + "/"
    if not path.startswith(root):
        return None
    rel = path[len(root):]
    if rel.startswith("perfbench/"):
        return "bench"
    if not rel.startswith("src/"):
        return None
    rel = rel[len("src/"):]
    parts = rel.split("/")
    if len(parts) < 2:
        return None
    if parts[0] in OFFPATH_DIRS or any(rel.startswith(f)
                                       for f in OFFPATH_FILES):
        return "offpath"
    return parts[0] if parts[0] in MODULES else None


def pc_module(frames, root):
    """Bucket of one sampled PC from its inline chain (innermost
    first): the innermost frame inside src/ or perfbench/; "runtime"
    when there is none."""
    for f in frames:
        m = frame_module(f, root)
        if m is not None:
            return m
    return "runtime"


def symbolize(exe, addrs):
    """Map file-relative addresses of `exe` to their inline chains of
    "file:line" locations, innermost first, with `addr2line -i`."""
    addrs = sorted(set(addrs))
    if not addrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-i", "-a", "-e", exe],
        input="".join("0x%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True)
    out = {}
    cur = None
    for line in proc.stdout.splitlines():
        if line.startswith("0x"):
            cur = int(line, 16)
            out[cur] = []
        elif cur is not None:
            out[cur].append(line.strip())
    return out


def elf_is_pie(exe):
    with open(exe, "rb") as f:
        head = f.read(18)
    if head[:4] != b"\x7fELF":
        raise ValueError("%s is not an ELF file" % exe)
    order = "little" if head[5] == 1 else "big"
    return int.from_bytes(head[16:18], order) == 3  # ET_DYN


def exe_mappings(maps_text, exe):
    """(start, end, offset) of every mapping of `exe` in a
    /proc/<pid>/maps dump."""
    out = []
    for line in maps_text.splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6 or parts[5].strip() != exe:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        out.append((lo, hi, int(parts[2], 16)))
    return out


def rollup(pcs, maps_text, exe, root):
    """Attribute sampled PCs to modules.

    `pcs` is a list of (pc, count). PCs outside the executable (libc,
    libstdc++, the loader, the vDSO) are charged to "runtime".
    Returns {module: count} over MODULES.
    """
    maps = exe_mappings(maps_text, exe)
    bias = 0
    if elf_is_pie(exe):
        bias = min((lo for lo, _, off in maps if off == 0), default=0)
    counts = {m: 0 for m in MODULES}
    in_exe = []
    for pc, n in pcs:
        if any(lo <= pc < hi for lo, hi, _ in maps):
            in_exe.append((pc - bias, n))
        else:
            counts["runtime"] += n
    chains = symbolize(exe, [a for a, _ in in_exe])
    for addr, n in in_exe:
        counts[pc_module(chains.get(addr, []), root)] += n
    return counts
