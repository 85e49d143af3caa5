"""One benchmark run in a fresh process: set up, run the jobs, check them.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH``.
It prints one JSON object as the last line of its standard output:
the set-up time, job counts and failures, and either the end-to-end
metrics (untraced) or, with ``--trace 1``, the per-layer metrics of one
extra traced pass.

The workload is run in passes: one pass runs every job once, and passes
repeat until ``--seconds`` have gone by, with at least one.  Each job is
timed from ``load_carrier`` to the returned verdict; its checks run after
the clock stops.  After each untraced job the worker times a fixed
calibration loop, and the times of each pass, set-up included, are scaled
to the loop's reference speed (see calibration.py).  The time metrics are
medians over the passes of these scaled times.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import calibration
import checks
import workloads
from tracer import PIPELINE_STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_BASE = ROOT / ".perfbench"
SETUP_CALIBRATION_S = 0.2  # calibration time of a set-up-only process

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_s_p50": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def setup(workload, seed, strata, workdir):
    """Import finhopf and write the workload's model files; timed as a whole."""
    start = time.perf_counter()
    import finhopf

    docs, jobs = workloads.write_inputs(workload, seed, strata, workdir)
    elapsed = time.perf_counter() - start
    if not Path(finhopf.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"finhopf imported from {finhopf.__file__}, not from {ROOT / 'src'}")
    return docs, jobs, elapsed


def run_entry(entry, carrier):
    # Looked up on the modules at call time, so the tracer's patches apply.
    from finhopf import algebroid, analysis

    kwargs = workloads.ENTRY_DEFAULTS[entry]
    if entry == "cgk":
        return analysis.analyze(carrier, **kwargs)
    if entry == "check-axioms":
        return algebroid.check_axioms(carrier, **kwargs)
    return analysis.roundtrip(carrier, **kwargs)


def run_job(job, workdir, expect, reference_digest, tracer=None):
    """Run and check one job; a failure is recorded, never raised."""
    from finhopf import modelio

    result, problems = None, []
    # Free the previous job's carrier (it sits in reference cycles) before
    # the clock starts, so no job pays for collecting another job's garbage.
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with tracer.job(job.key) if tracer else nullcontext():
            result = run_entry(job.entry, modelio.load_carrier(workdir / f"{job.model}.json"))
    except Exception as exc:  # a failing job counts against ok_share; the run goes on
        problems.append(f"{type(exc).__name__}: {exc}")
    seconds, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if not problems:
        try:
            problems = checks.job_problems(job.entry, result, expect, reference_digest)
        except Exception as exc:  # an output the checks cannot read is wrong too
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    return {"key": job.key, "seconds": seconds, "cpu": cpu, "problems": problems}


def run_pass(jobs, workdir, expects, digests, tracer=None):
    """Run every job once; an untraced job is followed by calibration loops."""
    results = []
    for job in jobs:
        result = run_job(job, workdir, expects[job.model], digests.get(job.key), tracer)
        if tracer is None:
            result["calibration"] = calibration.sample(calibration.SHARE * result["seconds"])
        results.append(result)
    return results


def pass_wall(results):
    return sum(r["seconds"] for r in results)


def pass_scale(results):
    """The calibration scale of a pass, from the loops timed after its jobs."""
    return calibration.scale([t for r in results for t in r["calibration"]])


def job_medians(passes, scaled=True):
    """Each job's median time over the passes, by job key; in reference
    seconds, or with ``scaled=False`` in measured seconds."""
    scales = [pass_scale(p) if scaled else 1 for p in passes]
    return {
        r["key"]: statistics.median(k * p[i]["seconds"] for k, p in zip(scales, passes))
        for i, r in enumerate(passes[0])
    }


def end_to_end(passes):
    """The untraced metrics of a run, times in reference seconds; set-up
    time is added by run.py."""
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])
    scales = [pass_scale(p) for p in passes]
    jobs = job_medians(passes).values()
    return {
        "wall_s": statistics.median(k * pass_wall(p) for k, p in zip(scales, passes)),
        "cpu_s": statistics.median(k * sum(r["cpu"] for r in p) for k, p in zip(scales, passes)),
        "job_s_p50": statistics.median(jobs),
        "slowest_job_s": max(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (len(results) - failed) / len(results),
    }


def measure(args, docs, jobs, workdir, digests):
    expects = {name: checks.expectations(name, doc) for name, doc in docs.items()}
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(jobs, workdir, expects, digests))
    out = {"passes": len(passes), "jobs_per_pass": len(jobs),
           "scale": statistics.median(pass_scale(p) for p in passes)}
    out["end_to_end"] = end_to_end(passes)
    out["job_medians"] = job_medians(passes, scaled=False)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(jobs, workdir, expects, digests, tracer)
        # Both walls in measured seconds: the traced pass is not calibrated.
        untraced_wall = statistics.median(pass_wall(p) for p in passes)
        out["per_layer"] = tracer.metrics(pass_wall(traced), untraced_wall)
        passes.append(traced)
        out["stages"] = tracer.stage_table()
        # One file per workload, so repeated traced runs do not pile up.
        trace_file = WORK_BASE / f"trace-{args.workload}.json.gz"
        tracer.write(trace_file, workload=args.workload, seed=args.seed,
                     pipeline_stages=PIPELINE_STAGES)
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    results = [r for p in passes for r in p]
    out["attempted"] = len(results)
    out["failures"] = [f"{r['key']}: {'; '.join(r['problems'])}" for r in results if r["problems"]]
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE))
    try:
        docs, jobs, setup_s = setup(args.workload, args.seed, reference["corpus_strata"], workdir)
        if args.setup_only:
            out = {"scale": calibration.scale(calibration.sample(SETUP_CALIBRATION_S))}
        else:
            out = measure(args, docs, jobs, workdir, reference["digests"])
        out["setup_s"] = setup_s * out["scale"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
