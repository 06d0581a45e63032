"""Smoke-size tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. Each test drives perfbench/run.py (or the
binary it builds) with `--size smoke`, so the whole file takes a minute
or two.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 7


def bench(workload, trace, *extra):
    """Runs run.py at smoke size; returns (exit code, parsed last line, stdout)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


def perfbench(*args):
    """Runs the binary run.py built; returns its parsed JSON line."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    done = subprocess.run([str(target / "release" / "perfbench"), *args, "--size", "smoke"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class DeclaredMetrics(unittest.TestCase):
    def check(self, trace, section):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stdout = bench(workload, trace)
                self.assertEqual(code, 0, stdout)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in DECLARED[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                    # The human-readable table names each metric with its unit.
                    self.assertRegex(stdout, rf"(?m)^{name} +\S+ {metric['unit']}$")

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        self.check(1, "per_layer")


class OutputGate(unittest.TestCase):
    def test_corrupted_record_fails_the_run(self):
        bench(WORKLOADS[0], 0)  # builds the binary
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                common = ["--workload", workload, "--seed", str(SEED)]
                outputs = perfbench("replay", *common)["outputs"]
                run_outputs = perfbench("run", *common, "--seconds", "0.2")["run_outputs"]
                record = {f"{workload}/smoke/{SEED}":
                          {"outputs": outputs, "run_outputs": run_outputs}}
                record_file = ROOT / ".bench_work" / f"test-record-{workload}.json"
                record_file.parent.mkdir(exist_ok=True)
                try:
                    # A correct record for the seed passes...
                    record_file.write_text(json.dumps(record))
                    code, result, stdout = bench(workload, 0, "--expected", str(record_file))
                    self.assertEqual(code, 0, stdout)
                    self.assertTrue(result["correct"])
                    # ...and the same record with one value corrupted fails.
                    field = sorted(outputs)[0]
                    outputs[field] += "0"
                    record_file.write_text(json.dumps(record))
                    code, result, stdout = bench(workload, 0, "--expected", str(record_file))
                    self.assertNotEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertIn(f"MISMATCH record: {field} =", stdout)
                finally:
                    record_file.unlink(missing_ok=True)

    def test_traced_and_untraced_outputs_match(self):
        bench(WORKLOADS[0], 0)  # builds the binary
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2"]
                plain = perfbench("run", *common)
                traced = perfbench("run", *common, "--trace")
                self.assertEqual(plain["outputs"], traced["outputs"])
                self.assertEqual(plain["run_outputs"], traced["run_outputs"])


if __name__ == "__main__":
    unittest.main()
