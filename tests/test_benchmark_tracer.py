"""The benchmark tracer patches library attributes by name.

``perfbench/tracer.py`` wraps methods and functions where their callers look
them up, so a change that renames or deletes one of them breaks the traced
benchmark run.  This test makes that break show in the library's own suite.
"""

import importlib.util
from pathlib import Path

from finhopf.algebroid import ConvolutionAlgebroid, FiberTensor, TableAlgebroid
from finhopf.linalg import QMatrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer = load_tracer().Tracer()
    with tracer.installed():
        patches = list(tracer._patches)
        for owner, attr, raw in patches:
            assert vars(owner)[attr] is not raw, (owner, attr)
    assert tracer._patches == []
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, (owner, attr)
    patched = {(owner, attr) for owner, attr, _raw in patches}
    assert {
        (FiberTensor, "right_mul_leg"),
        (FiberTensor, "collapse"),
        (FiberTensor, "mul_pairwise"),
        (ConvolutionAlgebroid, "mul"),
        (TableAlgebroid, "mul"),
        (QMatrix, "solve"),
    } <= patched
