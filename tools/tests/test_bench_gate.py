#!/usr/bin/env python3
"""Unit tests for tools/bench_gate.py's input handling.

A missing or malformed input must end the gate with exit code 2 and a
one-line "bench_gate: cannot read <path>: <reason>" message, not a
Python traceback.

Run: python3 -m unittest discover -s tools/tests
"""

import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench_gate.py")


def run_gate(*args):
    return subprocess.run([sys.executable, GATE, *args],
                          capture_output=True, text=True, check=False)


class UnreadableInput(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, text=None):
        p = os.path.join(self.dir.name, name)
        if text is not None:
            with open(p, "w") as f:
                f.write(text)
        return p

    def assert_cannot_read(self, proc, path):
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn(f"bench_gate: cannot read {path}: ", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_missing_baseline(self):
        missing = self.path("BENCH_micro_simcore.json")
        fresh = self.path("fresh.json", '{"benchmarks": []}')
        proc = run_gate(missing, fresh)
        self.assert_cannot_read(proc, missing)
        self.assertIn("No such file or directory", proc.stderr)

    def test_malformed_sharded_export(self):
        bad = self.path("BENCH_fig6_sharded.json", '{"tables": [')
        proc = run_gate("--sharded", bad)
        self.assert_cannot_read(proc, bad)

    def test_every_table_input_is_guarded(self):
        bad = self.path("bad.json", "not json")
        for flag in ("--sharded", "--recovery", "--integrity", "--served"):
            with self.subTest(flag=flag):
                self.assert_cannot_read(run_gate(flag, bad), bad)


if __name__ == "__main__":
    unittest.main()
