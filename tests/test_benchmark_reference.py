"""The benchmark's reference outputs, checked in the library's own suite.

``perfbench/reference.json`` holds a digest of the exact outputs of every
benchmark job: primitive bases, spectral representatives, action and theta
matrices, ranks and law counts.  This test runs a few of those jobs the way
the benchmark worker does (the model written to a file and loaded back, the
entry point called with the CLI defaults) and compares their digests, so a
change that alters any Fraction, canonical basis or theta matrix fails here
and not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from finhopf import algebroid, analysis, modelio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


checks = load("checks")
workloads = load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

ENTRY_POINTS = {
    "cgk": analysis.analyze,
    "check-axioms": algebroid.check_axioms,
    "roundtrip": analysis.roundtrip,
}


def documents():
    """Model documents by name; with no corpus strata, the corpus holds only
    the presets ``z2line`` and ``funs3``."""
    docs = {}
    for workload in workloads.WORKLOADS:
        docs.update(workloads.model_documents(workload, 0, [])[0])
    return docs


@pytest.mark.parametrize("key", [
    "cgk:funs3", "cgk:pairh3-N4", "roundtrip:z2line", "check-axioms:sl2-N4",
])
def test_job_matches_its_reference_digest(key, tmp_path):
    entry, name = key.split(":")
    doc = documents()[name]
    path = tmp_path / f"{name}.json"
    modelio.save_model(doc, path)
    result = ENTRY_POINTS[entry](modelio.load_carrier(path), **workloads.ENTRY_DEFAULTS[entry])
    expect = checks.expectations(name, doc)
    assert checks.job_problems(entry, result, expect, REFERENCE["digests"][key]) == []


def test_every_corpus_pool_job_matches_its_reference_digest(tmp_path):
    """Every ``check-axioms`` and ``roundtrip`` job on every ``random_model``
    that some bench seed can draw into ``corpus-mixed``: one stratum of one
    seed each gives the whole pool, built as the benchmark builds it."""
    pool = [[s] for stratum in REFERENCE["corpus_strata"] for s in stratum]
    docs, jobs = workloads.model_documents("corpus-mixed", 0, pool)
    jobs = [job for job in jobs if job.model.startswith("random-")]
    assert (len(pool), len(jobs)) == (128, 256)
    problems = {}
    for job in jobs:
        doc = docs[job.model]
        path = tmp_path / f"{job.model}.json"
        modelio.save_model(doc, path)
        result = ENTRY_POINTS[job.entry](modelio.load_carrier(path),
                                         **workloads.ENTRY_DEFAULTS[job.entry])
        found = checks.job_problems(job.entry, result, checks.expectations(job.model, doc),
                                    REFERENCE["digests"][job.key])
        if found:
            problems[job.key] = found
    assert problems == {}
