"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

REFERENCE = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))


def _small_jobs(workdir):
    """funs3 through cgk (table path) and z2line through check-axioms."""
    from finhopf import models, modelio

    docs = {"funs3": models.funs3_model(), "z2line": models.z2line_model()}
    for name, doc in docs.items():
        modelio.save_model(doc, workdir / f"{name}.json")
    expects = {name: checks.expectations(name, doc) for name, doc in docs.items()}
    jobs = [workloads.Job("cgk", "funs3"), workloads.Job("check-axioms", "z2line")]
    return jobs, expects


def _patch_owners():
    from finhopf import algebroid, analysis, enveloping, groupoid, linalg, modelio

    return [
        algebroid, analysis, enveloping, groupoid, linalg, modelio,
        linalg.QMatrix, enveloping.UElement, algebroid.ConvolutionAlgebroid,
        algebroid.TableAlgebroid, algebroid.HopfAlgebroid, algebroid.FiberTensor,
    ]


def _snapshot():
    return [(owner, dict(vars(owner))) for owner in _patch_owners()]


def _changed(snapshot):
    out = []
    for owner, before in snapshot:
        after = dict(vars(owner))
        out += [(owner, k) for k in before.keys() | after.keys() if after.get(k) is not before.get(k)]
    return out


def test_tracer_attributes_layers_and_leaves_no_patch_behind(tmp_path):
    jobs, expects = _small_jobs(tmp_path)
    snapshot = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert len(_changed(snapshot)) >= 30
        results = worker.run_pass(jobs, tmp_path, expects, REFERENCE["digests"], tracer)
    assert _changed(snapshot) == []
    assert [r["problems"] for r in results] == [[], []]

    metrics = tracer.metrics(traced_wall_s=1.0, untraced_wall_s=0.75)
    assert list(metrics) == [name for name, _unit, _better in PER_LAYER]
    assert metrics["algebroid.table_mul.self_s"] > 0
    assert metrics["algebroid.conv_mul.calls"] > 0
    assert metrics["linalg.eigenvalues.self_s"] > 0
    assert metrics["algebroid.axioms.checked"] > 0
    assert metrics["trace.overhead_s"] == 0.25
    stages = tracer.stage_table()
    assert set(stages) == {"cgk:funs3", "check-axioms:z2line"}
    assert stages["cgk:funs3"]["theta"] > 0
    assert stages["check-axioms:z2line"]["pipeline"] == 0


def test_tracer_restores_when_the_run_raises():
    snapshot = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("job crashed")
    assert _changed(snapshot) == []


def test_wrong_verdict_digest_or_crash_counts_as_failed(tmp_path):
    jobs, expects = _small_jobs(tmp_path)
    digests = REFERENCE["digests"]

    def failed_share(results):
        return 1 - worker.end_to_end([results])["ok_share"]

    assert failed_share(worker.run_pass(jobs, tmp_path, expects, digests)) == 0

    wrong_verdict = dict(expects, funs3=dict(expects["funs3"], verdict="ISO"))
    results = worker.run_pass(jobs, tmp_path, wrong_verdict, digests)
    assert failed_share(results) == 0.5
    assert "verdict NOT_ISO, expected ISO" in results[0]["problems"]

    wrong_digest = dict(digests, **{"check-axioms:z2line": "0" * 20})
    results = worker.run_pass(jobs, tmp_path, expects, wrong_digest)
    assert failed_share(results) == 0.5
    assert results[1]["problems"][0].startswith("digest ")

    # A job that raises is counted, and the jobs after it still run.
    crashing = [workloads.Job("cgk", "missing")] + jobs
    results = worker.run_pass(crashing, tmp_path, dict(expects, missing={}), digests)
    assert results[0]["problems"][0].startswith("ModelFormatError")
    assert [r["problems"] for r in results[1:]] == [[], []]
    assert failed_share(results) == pytest.approx(1 / 3)


def _corpus_files(seed, workdir):
    workdir.mkdir()
    _docs, jobs = workloads.write_inputs("corpus-mixed", seed, REFERENCE["corpus_strata"], workdir)
    assert len(jobs) == 36
    return {p.name: p.read_bytes() for p in workdir.iterdir()}


def test_corpus_inputs_are_a_function_of_the_seed(tmp_path):
    first = _corpus_files(5, tmp_path / "a")
    assert _corpus_files(5, tmp_path / "b") == first
    assert _corpus_files(6, tmp_path / "c") != first


def test_corpus_strata_cut_half_the_pool():
    strata = REFERENCE["corpus_strata"]
    assert [len(s) for s in strata] == [8] * 16
    seeds = [s for stratum in strata for s in stratum]
    assert len(set(seeds)) == 128 and set(seeds) <= set(range(256))
    for stratum in strata:
        for seed in stratum:
            assert f"check-axioms:random-{seed}" in REFERENCE["digests"]
            assert f"roundtrip:random-{seed}" in REFERENCE["digests"]


def test_time_metrics_are_scaled_pass_by_pass():
    def job(key, seconds, loop_s):
        return {"key": key, "seconds": seconds, "cpu": seconds, "problems": [],
                "calibration": [loop_s] * 3}

    ref = calibration.REFERENCE_S
    quiet = [job("a", 1.0, ref), job("b", 3.0, ref)]
    slow = [job("a", 2.0, 2 * ref), job("b", 6.0, 2 * ref)]
    metrics = worker.end_to_end([quiet, slow, quiet])
    assert metrics["wall_s"] == pytest.approx(4.0)
    assert metrics["cpu_s"] == pytest.approx(4.0)
    assert metrics["job_s_p50"] == pytest.approx(2.0)
    assert metrics["slowest_job_s"] == pytest.approx(3.0)
    assert calibration.scale(calibration.sample(0.01)) > 0


def test_sl2_model_is_valid(tmp_path):
    docs, jobs = workloads.write_inputs("axioms-sl2", 0, [], tmp_path)
    assert [job.key for job in jobs] == ["check-axioms:sl2-N4", "check-axioms:sl2-N6"]
    assert docs["sl2-N4"]["bundle"][0]["basis"] == ["H", "E", "F"]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
