"""Preset and random model generation."""

import hashlib

import pytest

from finhopf.algebroid import check_axioms
from finhopf.modelio import carrier_from_model, model_to_text, validate_model
from finhopf.models import (
    PRESETS,
    build_model,
    funs3_model,
    pairh3_model,
    random_model,
    z2line_model,
)


def test_presets_are_wired_up():
    assert set(PRESETS) == {"z2line", "pairh3", "funs3"}
    for name in PRESETS:
        validate_model(build_model(name))


def test_build_model_random_and_unknown():
    assert build_model("random", seed=4) == random_model(4)
    with pytest.raises(ValueError):
        build_model("no-such-preset")


def test_preset_shapes():
    z = z2line_model()
    assert z["kind"] == "convolution"
    assert len(z["groupoid"]["arrows"]) == 2
    assert z["truncation"] == 4

    p = pairh3_model()
    assert len(p["groupoid"]["arrows"]) == 4
    assert {b["point"] for b in p["bundle"]} == {"x", "y"}

    f = funs3_model()
    assert f["kind"] == "table"
    assert len(f["table"]["basis"]) == 6


def test_random_models_validate_and_stay_small():
    for seed in range(50):
        model = random_model(seed)
        validate_model(model)
        carrier = carrier_from_model(model)
        assert carrier.validate() == []
        assert len(carrier.groupoid.arrows) <= 8


def test_random_model_is_deterministic():
    assert random_model(17) == random_model(17)
    assert random_model(17) != random_model(18)


def test_editing_a_random_model_leaves_every_other_one_as_it_was():
    # Heisenberg fibers carry a bracket; the robustness suite edits brackets
    # in place, so no document may share them with another or with the
    # generator.
    seeds = [s for s in range(32) if random_model(s)["bundle"][0]["brackets"]]
    assert seeds
    before = {s: model_to_text(random_model(s)) for s in seeds}
    for s in seeds:
        model = random_model(s)
        first, *rest = model["bundle"]
        first["brackets"][0][2]["P"] = 5
        first["brackets"].append(["Q", "Z", {"P": 1}])
        assert all(fiber["brackets"] == [["P", "Q", {"Z": 1}]] for fiber in rest)
    assert {s: model_to_text(random_model(s)) for s in seeds} == before


def test_random_model_documents_are_pinned():
    """The benchmark corpus and its reference digests are built from these documents."""
    text = "".join(model_to_text(random_model(s)) for s in range(256))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "943ae802d86cbceddd10c1cd2b075ffa803c6aa78e7f5d27136e3aa1e7110336"
    )


def test_random_models_pass_the_axiom_suite():
    for seed in (2, 9, 31):
        carrier = carrier_from_model(random_model(seed))
        assert check_axioms(carrier, samples=25, seed=seed).ok
