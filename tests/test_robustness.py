"""Seeded perturbations of valid models through every model command.

Each document is a preset or a ``random_model`` with one to three random
edits: groupoid units, inverses and compose rows remapped or dropped, action
entries changed or negated, brackets added or a bracket coefficient negated,
and the truncation lowered to 0-2 on convolution models; products,
coproducts, counits and antipodes changed, dropped or one coefficient negated
on tables.  Whatever the edits, a command must end with exit code 0,
1 or 2 and let no exception escape; and a convolution document that
``validate`` rejects is decided ``ERROR`` at the axiom stage.
"""

import random
from functools import partial

import pytest

from finhopf.analysis import analyze
from finhopf.cli import EXIT_INPUT_ERROR, EXIT_PROPERTY_FAILS, main
from finhopf.errors import FinhopfError
from finhopf.modelio import carrier_from_model, save_model
from finhopf.models import funs3_model, pairh3_model, random_model, z2line_model
from finhopf.rationals import rat

SOURCES = {
    "z2line": z2line_model,
    "pairh3": pairh3_model,
    "funs3": funs3_model,
    **{f"random{seed}": partial(random_model, seed) for seed in range(8)},
}
COMMANDS = ("validate", "check-axioms", "primitives", "grouplikes", "spectral", "cgk", "roundtrip")
# Fewer samples than the defaults keep the sampled commands quick.
SAMPLED = {"check-axioms", "cgk"}
SCALARS = (0, 1, -1, 2, "1/2", "-5/3", f"{10**30}/7")
DOCUMENTS_PER_SOURCE = 3
# Edited documents per convolution source in the axiom-stage test.
AXIOM_STAGE_DOCUMENTS = 20


def _drop(rng, items):
    """Remove one random entry of a list or a dict, if it has one."""
    if items:
        items.pop(rng.randrange(len(items)) if isinstance(items, list) else rng.choice(sorted(items)))


def _flip(rng, slots):
    """Negate the scalar in one random nonzero ``(container, key)`` slot, if there is one."""
    slots = [(container, key) for container, key in slots if rat(container[key])]
    if slots:
        container, key = rng.choice(slots)
        value = -rat(container[key])
        container[key] = value.numerator if value.denominator == 1 else str(value)


def _arrow(model, rng):
    return rng.choice(model["groupoid"]["arrows"])["id"]


def _label(model, rng):
    return rng.choice(model["table"]["basis"])["id"]


def remap_unit(model, rng):
    units = model["groupoid"]["units"]
    if units:
        units[rng.choice(sorted(units))] = _arrow(model, rng)


def drop_unit(model, rng):
    _drop(rng, model["groupoid"]["units"])


def remap_inverse(model, rng):
    inverse = model["groupoid"]["inverse"]
    if inverse:
        inverse[rng.choice(sorted(inverse))] = _arrow(model, rng)


def drop_inverse(model, rng):
    _drop(rng, model["groupoid"]["inverse"])


def remap_compose(model, rng):
    rows = model["groupoid"]["compose"]
    if rows:
        rng.choice(rows)[rng.randrange(3)] = _arrow(model, rng)


def drop_compose(model, rng):
    _drop(rng, model["groupoid"]["compose"])


def change_action_entry(model, rng):
    matrix = rng.choice(model["action"])["matrix"]
    if matrix and matrix[0]:
        row = rng.choice(matrix)
        row[rng.randrange(len(row))] = rng.choice(SCALARS)


def flip_action_entry(model, rng):
    _flip(rng, [(row, j) for entry in model["action"] for row in entry["matrix"]
                for j in range(len(row))])


def flip_bracket(model, rng):
    _flip(rng, [(coeffs, c) for fiber in model["bundle"] for _a, _b, coeffs in fiber["brackets"]
                for c in coeffs])


def add_bracket(model, rng):
    fiber = rng.choice(model["bundle"])
    if fiber["basis"]:
        a, b, c = (rng.choice(fiber["basis"]) for _ in range(3))
        fiber["brackets"].append([a, b, {c: rng.choice(SCALARS[1:])}])


def lower_truncation(model, rng):
    model["truncation"] = rng.randint(0, 2)


def change_product(model, rng):
    rows = model["table"]["mul"]
    if rows:
        rng.choice(rows)[2] = {_label(model, rng): rng.choice(SCALARS[1:])}


def flip_product(model, rng):
    _flip(rng, [(coeffs, l) for _a, _b, coeffs in model["table"]["mul"] for l in coeffs])


def drop_product(model, rng):
    _drop(rng, model["table"]["mul"])


def change_coproduct(model, rng):
    terms = model["table"]["delta"].get(_label(model, rng))
    if terms:
        k = rng.randrange(3)
        rng.choice(terms)[k] = _label(model, rng) if k < 2 else rng.choice(SCALARS[1:])


def flip_coproduct(model, rng):
    _flip(rng, [(term, 2) for terms in model["table"]["delta"].values() for term in terms])


def drop_coproduct(model, rng):
    _drop(rng, model["table"]["delta"].get(_label(model, rng)))


def change_counit(model, rng):
    model["table"]["counit"][_label(model, rng)] = rng.choice(SCALARS)


def flip_counit(model, rng):
    counit = model["table"]["counit"]
    _flip(rng, [(counit, l) for l in counit])


def drop_counit(model, rng):
    _drop(rng, model["table"]["counit"])


def change_antipode(model, rng):
    model["table"]["antipode"][_label(model, rng)] = {_label(model, rng): rng.choice(SCALARS[1:])}


def flip_antipode(model, rng):
    _flip(rng, [(coeffs, l) for coeffs in model["table"]["antipode"].values() for l in coeffs])


def drop_antipode(model, rng):
    _drop(rng, model["table"]["antipode"])


EDITS = {
    "convolution": (remap_unit, drop_unit, remap_inverse, drop_inverse, remap_compose,
                    drop_compose, change_action_entry, flip_action_entry, add_bracket,
                    flip_bracket, lower_truncation),
    "table": (change_product, flip_product, drop_product, change_coproduct, flip_coproduct,
              drop_coproduct, change_counit, flip_counit, drop_counit, change_antipode,
              flip_antipode, drop_antipode),
}


def perturbed(model, rng):
    """``model`` with one to three random edits made in place, and their names."""
    edits = [rng.choice(EDITS[model["kind"]]) for _ in range(rng.randint(1, 3))]
    for edit in edits:
        edit(model, rng)
    return model, [edit.__name__ for edit in edits]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_perturbed_models_end_every_command_with_an_exit_code(source, tmp_path, capsys):
    rng = random.Random(source)
    for k in range(DOCUMENTS_PER_SOURCE):
        model, edits = perturbed(SOURCES[source](), rng)
        path = tmp_path / f"{source}-{k}.json"
        save_model(model, path)
        for command in COMMANDS:
            args = [command, str(path)] + (["--samples", "10"] if command in SAMPLED else [])
            try:
                code = main(args)
            except Exception as exc:
                raise AssertionError(f"{command} on {source} with {edits} raised") from exc
            capsys.readouterr()
            assert code in (0, 1, 2), (command, source, edits, code)



FLIPS = {
    "pairh3": (flip_action_entry, flip_bracket),
    "funs3": (flip_product, flip_coproduct, flip_counit, flip_antipode),
}


@pytest.mark.parametrize("source", sorted(FLIPS))
def test_each_sign_flip_changes_the_model_and_ends_every_command(source, tmp_path, capsys):
    for flip in FLIPS[source]:
        model = SOURCES[source]()
        flip(model, random.Random(flip.__name__))
        assert model != SOURCES[source](), flip.__name__
        path = tmp_path / f"{source}-{flip.__name__}.json"
        save_model(model, path)
        for command in COMMANDS:
            args = [command, str(path)] + (["--samples", "10"] if command in SAMPLED else [])
            code = main(args)
            capsys.readouterr()
            assert code in (0, 1, 2), (command, flip.__name__, code)
            if (flip, command) == (flip_bracket, "check-axioms"):
                # ``validate`` rejects the flipped bracket, at any sample count.
                assert code == 1


def test_analyze_stops_at_the_axiom_stage_exactly_when_validate_fails(tmp_path, capsys):
    """A convolution model is G ⋉ U(g), a Hopf algebroid, exactly when
    ``validate`` accepts it.  So on every edited convolution document the
    loader accepts, ``analyze`` stops at stage ``axioms`` exactly when
    ``validate`` reports a violation, and then builds nothing later, ``cgk``
    exits 2 and ``roundtrip`` 1.  The documents include z2line with
    [X, X] = X, on which every sampled law passes and only ``validate``
    fails."""
    bracket = z2line_model()
    bracket["bundle"][0]["brackets"].append(["X", "X", {"X": 1}])
    documents = [("z2line", "X-X", bracket, ["[X, X] = X"])]
    for source in sorted(SOURCES):
        if SOURCES[source]()["kind"] == "convolution":
            for k in range(AXIOM_STAGE_DOCUMENTS):
                rng = random.Random(f"{source}-{k}")
                documents.append((source, k, *perturbed(SOURCES[source](), rng)))
    rejected = []
    for source, k, model, edits in documents:
        try:
            carrier = carrier_from_model(model)
        except FinhopfError:
            continue
        violations = carrier.validate()
        analysis = analyze(carrier, samples=10)
        stage = (analysis.decision.stage_error or (None,))[0]
        assert (stage == "axioms") == bool(violations), (source, k, edits, violations)
        if not violations:
            continue
        rejected.append((source, k))
        assert analysis.decision.verdict == "ERROR" and analysis.decision.axioms_ok is False
        artifacts = (analysis.prim, analysis.gsp, analysis.prim_action, analysis.theta)
        assert artifacts == (None,) * 4, (source, k, edits)
        path = tmp_path / f"{source}-{k}.json"
        save_model(model, path)
        for args, expected in ((["cgk", "--samples", "10"], EXIT_INPUT_ERROR),
                               (["roundtrip"], EXIT_PROPERTY_FAILS)):
            assert main([*args, str(path)]) == expected, (args, source, k)
            capsys.readouterr()
    assert ("z2line", "X-X") in rejected and len(rejected) > len(documents) // 3
