"""Self-test of the benchmark harness itself, not of codebounds.

    python3 bench/selftest.py

A tiny workload goes through the same spawn, trace and check machinery
as the real ones, so the whole test takes seconds.
"""
from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
import unittest

import run

TINY = {
    "inputs": {},
    "commands": [
        ["bound", "5", "8", "6"],
        ["enumerate", "4", "5", "4", "16", "--threads", "1", "--out", "."],
        ["verify", "a3_16_11", "--threads", "1", "--out", "."],
    ],
}
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = [m["name"] for m in run.SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in run.SPEC["per_layer"]]


def tiny_reference() -> list[dict]:
    _, seen = run.iterate(TINY, False, time.monotonic() + 60)
    return run.as_reference(seen)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = tiny_reference()
        cls.traced = [run.run(TINY, cls.reference, 0, True) for _ in range(2)]

    def test_clean_run_has_no_failures(self):
        out = run.run(TINY, self.reference, 0, False)
        self.assertEqual(out["failures"], [])
        self.assertEqual(out["attempted"], len(TINY["commands"]))
        self.assertTrue(json.loads(run.result_line(out))["correct"])

    def test_corrupted_reference_hash_counts_in_failed_ops(self):
        ref = copy.deepcopy(self.reference)
        ref[1]["files"]["index.json"] = "0" * 64
        out = run.run(TINY, ref, 0, False)
        self.assertEqual(len(out["failures"]), 1)
        self.assertEqual(out["failures"][0]["problems"], ["index.json differs"])
        line = json.loads(run.result_line(out))
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 3, 1))

    def test_wrong_verdict_counts_in_failed_ops(self):
        ref = copy.deepcopy(self.reference)
        ref[2]["verdict"] = "certificate a3_16_11: REFUTED"
        out = run.run(TINY, ref, 0, False)
        self.assertEqual([f["argv"][0] for f in out["failures"]], ["verify"])

    def test_metric_names(self):
        names = END_TO_END + PER_LAYER + list(self.traced[0]["metrics"])
        for name in names:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)
        self.assertEqual(len(END_TO_END + PER_LAYER), len(set(END_TO_END + PER_LAYER)))

    def test_every_declared_metric_is_emitted(self):
        untraced = run.run(TINY, self.reference, 0, False)
        self.assertEqual(sorted(untraced["metrics"]), sorted(END_TO_END))
        self.assertEqual(sorted(self.traced[0]["metrics"]), sorted(PER_LAYER))
        for metrics in (untraced["metrics"], self.traced[0]["metrics"]):
            line = json.loads(run.result_line({**untraced, "metrics": metrics}))
            for value in line["metrics"].values():
                self.assertIsInstance(value["value"], (int, float))

    def test_counters_repeat_exactly(self):
        first, second = (
            {k: v for k, v in t["metrics"].items() if run.unit(k) != "s"}
            for t in self.traced
        )
        self.assertEqual(first, second)
        self.assertGreater(first["canonical.decide.calls"], 0)
        self.assertGreater(first["canonical.decide.accepted"], 0)

    def test_refuses_without_sources(self):
        with run.scratch_dir() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__")
            )
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "enum-k15-t2",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
