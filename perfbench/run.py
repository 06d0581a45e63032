#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `perfbench` binary from
source, then:

* `--trace 0`: runs the workload untraced in one process and prints the
  end-to-end metrics declared in BENCHMARK.json;
* `--trace 1`: runs the untraced process and then a traced process, requires
  their simulated outputs to be bit-identical, and prints the per-layer
  metrics declared in BENCHMARK.json, including the tracing overhead.

Either way the simulated outputs are checked before a number is printed:
against the record in perfbench/expected.json when the seed has one, else
against a single-threaded replay in its own process. A mismatch prints
`"correct": false` and exits 1. The last stdout line is the JSON result;
the lines before it are a human-readable table.

Options for the benchmark's own tests: `--size smoke` runs seconds-long
inputs, `--expected FILE` reads the records from FILE. `--record` adds
the seed's outputs to the records once they match the replay.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mcf-full", "sparse-paged", "serve-zipf")
# Every run, build excluded, must end well within 180 seconds.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        raise BenchError("building the perfbench binary failed")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "perfbench"


def child(binary, args, deadline):
    """Runs one perfbench process to completion and parses its JSON line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before " + " ".join(args[:1]))
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {' '.join(args)} ran out of time")
    if done.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def differences(found, expected, what):
    """Names every field where `found` and `expected` disagree."""
    return [f"{what}: {key} = {found.get(key)!r}, expected {expected.get(key)!r}"
            for key in sorted(set(found) | set(expected))
            if found.get(key) != expected.get(key)]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    p.add_argument("--expected", default=str(HERE / "expected.json"))
    p.add_argument("--record", action="store_true",
                   help="add a seed without a record to --expected once it matches the replay")
    return p.parse_args()


def main():
    args = parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    plain = child(binary, ["run", *common, "--seconds", str(args.seconds)], deadline)
    traced = None
    if args.trace:
        traced = child(binary, ["run", *common, "--seconds", str(args.seconds), "--trace"],
                       deadline)

    records = json.loads(Path(args.expected).read_text()) if Path(args.expected).exists() else {}
    record = records.get(f"{args.workload}/{args.size}/{args.seed}")
    if record is not None:
        mismatches = differences(plain["outputs"], record["outputs"], "record")
        mismatches += differences(plain["run_outputs"], record["run_outputs"], "record")
    else:
        replayed = child(binary, ["replay", *common], deadline)
        mismatches = differences(plain["outputs"], replayed["outputs"], "replay")
        if args.record and not mismatches:
            records[f"{args.workload}/{args.size}/{args.seed}"] = {
                "outputs": plain["outputs"], "run_outputs": plain["run_outputs"]}
            Path(args.expected).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    if traced is not None:
        mismatches += differences(traced["outputs"], plain["outputs"], "traced run")
        mismatches += differences(traced["run_outputs"], plain["run_outputs"], "traced run")

    if traced is None:
        spec, measured = declared["end_to_end"], plain["metrics"]
    else:
        spec, measured = declared["per_layer"], dict(traced["metrics"])
        measured["bench.trace_overhead_ratio"] = (
            traced["info"]["wall_s_median"] / plain["info"]["wall_s_median"] - 1.0)
    metrics = {}
    for m in spec:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)):
            raise BenchError(f"{args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<30} {value:>16.6g} {m['unit']}")
    if traced is not None:
        info = traced["info"]
        print(f"largest unattributed remainder: {info['largest_remainder']} "
              f"({info['largest_remainder_ns_per_event']:.1f} ns per event)")
    for line in mismatches:
        print("MISMATCH " + line)

    correct = not mismatches
    attempted = plain["attempted"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
