"""Benchmark of the exact finhopf pipeline: one workload, one run.

    python3 perfbench/run.py --workload cgk-pairh3 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run takes place in a fresh worker process
with the checkout's ``src`` on ``PYTHONPATH``; set-up is also measured in a
few extra fresh processes, and ``setup_s`` is their median.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``,
with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
End-to-end times are in reference seconds: measured seconds scaled by the
run's machine-speed calibration (calibration.py).  The lines before the
JSON repeat each metric with its unit, and give the scale and each job's
measured time.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import END_TO_END_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # fresh processes that only set up; the worker's own set-up makes 7
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def run_worker(args, env, deadline):
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "finhopf" / "__init__.py").is_file():
        print(f"no finhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        # Set-up is not reported on a traced run, so it is not probed there.
        setups = [
            run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        out = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(out["setup_s"])

    failed = len(out["failures"])
    print(f"{args.workload} seed {args.seed}: {out['passes']} untraced pass(es) of "
          f"{out['jobs_per_pass']} job(s); {out['attempted']} jobs attempted, {failed} failed")
    print(f"  calibration scale {out['scale']:.4f} (median over passes): end-to-end "
          f"times are in reference seconds; job times below are measured seconds")
    for failure in out["failures"][:20]:
        print(f"  FAILED {failure}")
    for key, seconds in out["job_medians"].items():
        print(f"  job {key}: {seconds:.4f} s (median over passes)")
    if args.trace:
        metrics = {name: {"value": out["per_layer"][name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
        for key, row in out["stages"].items():
            stages = ", ".join(f"{k} {v:.3f}" for k, v in row.items())
            print(f"  traced {key}: {stages} (s)")
        print(f"  spans written to {out['trace_file']}")
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = f" (median of {len(setups)} set-ups)"
        elif name == "job_s_p50":
            note = f" (over {out['jobs_per_pass']} jobs, each its median over passes)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
