#!/usr/bin/env python3
"""Schema tests for the committed performance trajectory.

bench/trajectory/trajectory.jsonl must parse and every line must carry
the fields tools/trajectory.py documents (fig6 walls, refs/s per
kernel, BM_ProtocolTransactions, provenance); the checker must reject
lines that do not.

Run: python3 -m unittest discover -s tools/tests
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir))

import trajectory  # noqa: E402

TOOL = os.path.join(HERE, os.pardir, "trajectory.py")

GOOD = {
    "label": "example",
    "date": "2026-01-02",
    "git_sha": "0123456789abcdef0123456789abcdef01234567",
    "dirty": False,
    "source_sha256": "ab" * 32,
    "build_type": "RelWithDebInfo",
    "compiler": "GNU 12.2.0",
    "nproc": 4,
    "fig6": {"serial_wall_s": 30.5, "jobs4_wall_s": 9.25},
    "refs_per_s": {k: 1.5e6 for k in trajectory.KERNELS},
    "bm_protocol_transactions": 480000,
}


class CommittedTrajectory(unittest.TestCase):
    def test_committed_file_passes_the_schema(self):
        self.assertEqual(trajectory.check_file(trajectory.DEFAULT_OUT), [])

    def test_committed_file_has_a_before_and_after_pair(self):
        with open(trajectory.DEFAULT_OUT) as f:
            lines = [json.loads(t) for t in f.read().splitlines()]
        self.assertGreaterEqual(len(lines), 2)

    def test_check_command_exits_zero(self):
        proc = subprocess.run([sys.executable, TOOL, "check"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Schema(unittest.TestCase):
    def bad(self, mutate):
        entry = copy.deepcopy(GOOD)
        mutate(entry)
        return trajectory.validate(entry)

    def test_good_line_passes(self):
        self.assertEqual(trajectory.validate(GOOD), [])

    def test_missing_and_unknown_keys(self):
        self.assertTrue(self.bad(lambda e: e.pop("fig6")))
        self.assertTrue(self.bad(lambda e: e["fig6"].pop("jobs4_wall_s")))
        self.assertTrue(self.bad(lambda e: e["refs_per_s"].pop("Radix")))
        self.assertTrue(self.bad(lambda e: e.update(extra=1)))
        self.assertTrue(self.bad(lambda e: e["fig6"].update(scale=0.5)))

    def test_wrong_types_and_values(self):
        self.assertTrue(self.bad(lambda e: e.update(nproc="4")))
        self.assertTrue(self.bad(lambda e: e.update(nproc=True)))
        self.assertTrue(self.bad(lambda e: e.update(dirty="no")))
        self.assertTrue(self.bad(
            lambda e: e["fig6"].update(serial_wall_s=0)))
        self.assertTrue(self.bad(
            lambda e: e["refs_per_s"].update(LU=None)))
        self.assertTrue(self.bad(
            lambda e: e.update(bm_protocol_transactions=-1)))

    def test_provenance_formats(self):
        self.assertTrue(self.bad(lambda e: e.update(git_sha="8e40fbe")))
        self.assertTrue(self.bad(lambda e: e.update(source_sha256="x")))
        self.assertTrue(self.bad(lambda e: e.update(date="02/01/2026")))
        self.assertTrue(self.bad(lambda e: e.update(label=" ")))

    def test_file_level_checks(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.jsonl")
            later = dict(GOOD, date="2026-02-01")
            with open(path, "w") as f:
                f.write(json.dumps(later) + "\n" + json.dumps(GOOD) + "\n")
                f.write("{not json\n")
            errs = trajectory.check_file(path)
            self.assertTrue(any("date goes backwards" in e for e in errs))
            self.assertTrue(any("line 3: not JSON" in e for e in errs))
            self.assertTrue(trajectory.check_file(
                os.path.join(d, "missing.jsonl")))


if __name__ == "__main__":
    unittest.main()
