"""The benchmark's own tests, at the reduced ``small`` size.

    python3 perfbench/selftest.py     (from the repository root)

They check that every workload runs and passes its output check, that the
result line carries every metric BENCHMARK.json names with its unit, that
the traced run reports each layer on the workload that exercises it, that
the output check trips on a wrong reference, and that the benchmark fails
without a result when the gbolab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# A layer metric that must be nonzero on each workload's traced run.
EXERCISED = {
    "growth": ("illposed.v_details.calls", "illposed.rung_s",
               "illposed.refinement_disagreement.max", "cli.artifacts.bytes"),
    "oracle": ("illposed.oracle.time_samples", "illposed.oracle.self_s",
               "illposed.oracle_gap", "fft.points"),
    "flow": ("solver.steps", "solver.step_us", "gauge.residual.slices",
             "spectral.operator.calls", "fft.flop_computed"),
    "estimates": ("norms.xst_components.self_s", "norms.mixed_norm.calls",
                  "linear_ratios.free_evolution_spacetime.slices",
                  "spectral.transform.calls", "packets.self_s"),
}


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def small(workload: str, trace: int, seed: int = 1) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return result_line(done)


class SelfTest(unittest.TestCase):
    def assert_metrics(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            got = result["metrics"][spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(got["value"], (int, float), spec["name"])

    def test_every_workload_runs_and_reports_end_to_end_metrics(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = small(workload, trace=0)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, BENCHMARK["end_to_end"])
                for spec in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][spec["name"]]["value"], 0)

    def test_traced_run_reports_every_layer(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = small(workload, trace=1)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["attempted"], 2)
                self.assert_metrics(result, BENCHMARK["per_layer"])
                for name in EXERCISED[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_check_trips_on_wrong_reference(self):
        self.assertTrue(small("growth", trace=0, seed=0)["correct"])
        out = workloads.outputs("growth", run.WORK / "run0" / "out")
        ref = run.load_reference("small", "growth", 0)["outputs"]
        self.assertEqual(workloads.check("growth", 1, out, ref), [])

        off_slope = dict(ref, slope=ref["slope"] + 0.01)
        self.assertTrue(workloads.check("growth", 1, out, off_slope))
        norms = list(ref["band_norms"])
        norms[2] *= 1.01
        self.assertTrue(workloads.check("growth", 1, out, dict(ref, band_norms=norms)))
        self.assertTrue(workloads.check("growth", 2, out, ref))
        oracle_ref = run.load_reference("small", "oracle", 0)["outputs"]
        self.assertTrue(workloads.check("oracle", 0, {"gap": 0.06}, oracle_ref))

    def test_fails_without_program_sources(self):
        bare = run.ROOT / ".perfbench_selftest"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir()
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "flow", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
