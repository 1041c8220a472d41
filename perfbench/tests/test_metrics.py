"""Self-tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench/tests -v

from the root of the repository. The rollup test compiles a small
probe program under .bench_build/selftest/ and skips when g++, nm or
addr2line is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import metrics as M  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(M.samples_beyond(1000, 99), 10)
        self.assertEqual(M.samples_beyond(999, 99), 9)
        self.assertEqual(M.samples_beyond(40, 75), 10)
        self.assertEqual(M.samples_beyond(39, 75), 9)

    def test_tail_picks_highest_supported_level(self):
        self.assertEqual(M.tail(list(range(1000))), ("p99", 989))
        self.assertEqual(M.tail(list(range(999)))[0], "p95")
        self.assertEqual(M.tail(list(range(100)))[0], "p90")
        self.assertEqual(M.tail(list(range(40)))[0], "p75")

    def test_tail_falls_back_to_median(self):
        self.assertEqual(M.tail([5.0, 1.0, 3.0]), ("p50", 3.0))
        self.assertEqual(M.tail(list(range(39))), ("p50", 19))

    def test_percentile_and_median(self):
        self.assertEqual(M.percentile([3, 1, 2], 50), 2)
        self.assertEqual(M.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(M.median([4, 1, 3, 2]), 2.5)


class MetricNames(unittest.TestCase):
    def test_name_rule(self):
        for ok in ("wall_s", "host.mem.self_share", "p99-ms", "9lives"):
            self.assertTrue(M.valid_metric_name(ok), ok)
        for bad in ("", ".x", "_x", "a b", "x/y", "a" * 65, "nsµ"):
            self.assertFalse(M.valid_metric_name(bad), bad)
        self.assertTrue(M.valid_metric_name("a" * 64))

    def test_benchmark_json_follows_the_rules(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                names.append(m["name"])
                self.assertTrue(M.valid_metric_name(m["name"]), m)
                self.assertTrue(M.valid_unit(m["unit"]), m)
                self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class PenaltyError(unittest.TestCase):
    def test_point_anchors(self):
        self.assertEqual(M.penalty_error("LU", 4.0), 0.0)
        self.assertAlmostEqual(M.penalty_error("LU", 23.3), 19.3)
        self.assertAlmostEqual(M.penalty_error("Ocean", 90.5), 2.5)
        self.assertAlmostEqual(M.penalty_error("Cholesky", 8.8), 7.2)

    def test_radix_interval(self):
        for inside in (46.0, 49.0, 52.0):
            self.assertEqual(M.penalty_error("Radix", inside), 0.0)
        self.assertAlmostEqual(M.penalty_error("Radix", 40.0), 6.0)
        self.assertAlmostEqual(M.penalty_error("Radix", 55.0), 3.0)

    def test_unanchored_kernels_are_skipped(self):
        self.assertIsNone(M.penalty_error("Barnes", 60.0))
        self.assertEqual(
            M.penalty_mae({"Radix": 55.0, "LU": 4.0, "Barnes": 60.0}),
            1.5)
        self.assertIsNone(M.penalty_mae({"Water-Sp": 20.0}))


class ModuleRollup(unittest.TestCase):
    def test_frame_module(self):
        root = "/co"
        self.assertEqual(M.frame_module("/co/src/mem/cache.hh:120", root),
                         "mem")
        self.assertEqual(
            M.frame_module("/co/src/bus/bus.cc:7 (discriminator 2)", root),
            "bus")
        self.assertEqual(M.frame_module("/co/src/verify/checker.cc:1",
                                        root), "offpath")
        self.assertEqual(M.frame_module("/co/src/sim/snapshot.hh:40",
                                        root), "offpath")
        self.assertEqual(M.frame_module("/co/perfbench/driver.cc:3",
                                        root), "bench")
        self.assertIsNone(M.frame_module(
            "/usr/include/c++/12/bits/hashtable.h:1", root))
        self.assertIsNone(M.frame_module("??:0", root))

    def test_innermost_simulator_frame_wins(self):
        chain = ["/usr/include/c++/12/bits/hashtable.h:1",
                 "/co/src/directory/directory.cc:10",
                 "/co/src/cc/coherence_controller.cc:99"]
        self.assertEqual(M.pc_module(chain, "/co"), "directory")
        self.assertEqual(M.pc_module(["??:0"], "/co"), "runtime")

    def test_rollup_against_a_known_symbol(self):
        for tool in ("g++", "nm", "addr2line"):
            if shutil.which(tool) is None:
                self.skipTest("%s not found" % tool)
        work = os.path.join(ROOT, ".bench_build", "selftest")
        src_dir = os.path.join(work, "src", "mem")
        os.makedirs(src_dir, exist_ok=True)
        src = os.path.join(src_dir, "probe.cc")
        with open(src, "w") as f:
            f.write('extern "C" __attribute__((noinline)) int\n'
                    "perfbench_probe_find_line(int x)\n"
                    "{\n    return x * 3 + 1;\n}\n"
                    "int main(int argc, char **)\n"
                    "{\n    return perfbench_probe_find_line(argc);\n}\n")
        exe = os.path.join(work, "probe")
        subprocess.run(["g++", "-g", "-O1", "-fPIE", "-pie", src, "-o",
                        exe], check=True)
        nm = subprocess.run(["nm", exe], capture_output=True, text=True,
                            check=True).stdout
        addr = next(int(line.split()[0], 16) for line in nm.splitlines()
                    if line.endswith(" perfbench_probe_find_line"))
        # A PIE mapped at a made-up base, as /proc/self/maps shows it.
        base = 0x555555554000
        maps = ("%x-%x r-xp 00000000 08:01 42 %s\n"
                "7f0000000000-7f0000100000 r-xp 00000000 08:01 7 "
                "/usr/lib/libc.so.6\n" % (base, base + 0x100000, exe))
        counts = M.rollup([(base + addr, 3), (0x7f0000000100, 2)], maps,
                          exe, work)
        self.assertEqual(counts["mem"], 3)
        self.assertEqual(counts["runtime"], 2)
        self.assertEqual(sum(counts.values()), 5)


if __name__ == "__main__":
    unittest.main()
