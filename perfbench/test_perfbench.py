"""Smoke test of the benchmark itself, at the smallest seeded size.

Run from the root of a checkout:

  python3 -m unittest perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the exact counts of two traced runs of one seed are identical, that a
corrupted output digest fails the run, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

#: Per-layer metrics that are exact counts: they must repeat bit for bit.
EXACT_SUFFIXES = (".calls", ".misses", ".hit_ratio", "_builds", "_builds_distinct",
                  "side_distinct_ratio", "trivial_frac", "coord_mults", "elem_ops",
                  "scalar_ops", "volkenborn.terms", "cli.output_bytes")


def _run(workload: str, trace: int, seed: int = 0, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BenchmarkSmokeTest(unittest.TestCase):
    def _result(self, workload: str, trace: int) -> dict:
        code, lines = _run(workload, trace)
        self.assertEqual(code, 0, lines[-2:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self._result(workload, trace)["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in declared})
                    for m in declared:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        value = metrics[m["name"]]["value"]
                        self.assertIsInstance(value, (int, float))
                        if trace == 0:
                            self.assertGreater(value, 0, m["name"])

    def test_counts_repeat_across_traced_runs(self):
        for workload in ("sweep-dense", "single-calls"):
            with self.subTest(workload=workload):
                first = self._result(workload, 1)["metrics"]
                second = self._result(workload, 1)["metrics"]
                exact = [n for n in first if n.endswith(EXACT_SUFFIXES)]
                self.assertTrue(exact)
                for name in exact:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_flipped_digest_fails_the_run(self):
        run = _load_run_module()
        real = run.file_digest
        calls = []

        def flipped(path):
            digest = real(path)
            calls.append(path)
            if len(calls) == 2:
                digest = ("0" if digest[0] != "0" else "1") + digest[1:]
            return digest

        run.file_digest = flipped
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "sweep-dense-j2", "--seed", "0", "--seconds", "1",
                             "--trace", "0", "--size", "small"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_package(self):
        scratch = os.path.join(ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = _run("sweep-dense", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
