"""Record reference.json: the digest of every job the benchmark can run, and
the corpus strata.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record_reference.py

It refuses to record when a job misses a known answer or gives different
outputs in different rounds.  The corpus pool is ``random_model`` seeds
0..255.  Their jobs run in three rounds over the whole pool, so a slow spell
of the machine touches every seed alike.  Each seed is ranked by the slower
of its two jobs (check-axioms, roundtrip), median over the rounds.  The
lighter half, 128 seeds, is cut into 16 strata of 8; corpus-mixed draws one
seed per stratum, and only the drawn seeds' digests are kept.  Re-recording
redefines the corpus, so it belongs in a change to the benchmark, not in a
change that claims a gain.  It takes about ten minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from worker import REFERENCE, WORK_BASE, run_entry

POOL_SIZE = 256
POOL_ENTRIES = ("check-axioms", "roundtrip")
STRATA = 16
ROUNDS = 3


def record(job, path, expect):
    from finhopf import modelio

    start = time.perf_counter()
    result = run_entry(job.entry, modelio.load_carrier(path))
    seconds = time.perf_counter() - start
    problems = checks.known_answer_problems(job.entry, result, expect)
    if problems:
        raise SystemExit(f"{job.key}: {'; '.join(problems)}")
    return checks.digest(job.entry, result), seconds


def main():
    from finhopf import modelio, models

    pool = {f"random-{s}": models.random_model(s) for s in range(POOL_SIZE)}
    docs = dict(pool)
    fixed = []
    for workload in workloads.WORKLOADS:
        more, more_jobs = workloads.model_documents(workload, 0, [])
        docs.update(more)
        fixed += more_jobs
    pool_jobs = [workloads.Job(entry, name) for name in pool for entry in POOL_ENTRIES]
    digests, times = {}, {}
    WORK_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_BASE) as tmp:
        workdir = Path(tmp)
        for name, doc in docs.items():
            modelio.save_model(doc, workdir / f"{name}.json")
        schedule = fixed + pool_jobs * ROUNDS
        for i, job in enumerate(schedule):
            expect = checks.expectations(job.model, docs[job.model])
            digest, seconds = record(job, workdir / f"{job.model}.json", expect)
            if digests.setdefault(job.key, digest) != digest:
                raise SystemExit(f"{job.key}: outputs differ between rounds")
            times.setdefault(job.key, []).append(seconds)
            print(f"[{i + 1}/{len(schedule)}] {job.key} {seconds:.3f} s", file=sys.stderr)

    strata = corpus_strata(times)
    keep = [job.key for job in fixed] + [
        f"{entry}:random-{s}" for stratum in strata for s in stratum for entry in POOL_ENTRIES
    ]
    write_reference(strata, {key: digests[key] for key in keep})
    print(f"wrote {REFERENCE}: {len(keep)} digests", file=sys.stderr)


def corpus_strata(times):
    """Rank the pool by the slower of each seed's two jobs, median over the
    rounds, and cut the lighter half into equal strata, lightest first.
    Light models keep a pass short, so every job repeats several times in a
    run, and narrow strata keep the draw from moving the corpus cost."""

    def cost(seed):
        return max(statistics.median(times[f"{entry}:random-{seed}"])
                   for entry in POOL_ENTRIES)

    ranked = sorted(range(POOL_SIZE), key=cost)[:POOL_SIZE // 2]
    size = len(ranked) // STRATA
    return [sorted(ranked[i * size:(i + 1) * size]) for i in range(STRATA)]


def write_reference(strata, digests):
    """One stratum and one digest per line, so a diff shows what changed."""
    lines = ",\n".join(f"  {json.dumps(s)}" for s in strata)
    entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
    REFERENCE.write_text(
        f'{{\n "corpus_strata": [\n{lines}\n ],\n "digests": {{\n{entries}\n }}\n}}\n',
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
