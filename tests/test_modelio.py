"""Model document parsing, serialization and error reporting."""

import json
import time
from fractions import Fraction

import pytest

from finhopf import algebroid
from finhopf.algebroid import ConvolutionAlgebroid, TableAlgebroid
from finhopf.cli import EXIT_INPUT_ERROR, main
from finhopf.errors import ModelFormatError
from finhopf.modelio import (
    FORMAT_NAME,
    FORMAT_VERSION,
    carrier_from_model,
    load_carrier,
    load_model,
    model_to_text,
    save_model,
    scalar_to_json,
    validate_model,
)
from finhopf.models import PRESETS, funs3_model, pairh3_model, random_model, z2line_model

from test_benchmark_reference import load


def test_scalar_serialization():
    assert scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(Fraction(3, 2)) == "3/2"
    assert scalar_to_json(Fraction(-1, 3)) == "-1/3"


def test_text_form_is_canonical():
    a = model_to_text(z2line_model())
    b = model_to_text(json.loads(json.dumps(z2line_model())))
    assert a == b
    assert a.endswith("\n")


def test_save_and_load_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    model = pairh3_model()
    save_model(model, path)
    assert load_model(path) == model
    carrier = load_carrier(path)
    assert carrier.dim == 140
    # save -> load -> save writes the same bytes
    models = [build() for build in PRESETS.values()]
    models += [random_model(seed) for seed in range(40)]
    models += [load("workloads").sl2_model(n) for n in range(1, 7)]
    again = tmp_path / "again.json"
    for model in models:
        save_model(model, path)
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()


def test_every_preset_loads_as_a_carrier():
    assert carrier_from_model(z2line_model()).kind == "convolution"
    assert carrier_from_model(funs3_model()).kind == "table"
    assert carrier_from_model(random_model(3)).kind == "convolution"


def test_missing_field_is_reported_with_path():
    model = z2line_model()
    del model["format"]
    with pytest.raises(ModelFormatError) as err:
        validate_model(model)
    assert "model.format" in str(err.value)


def test_wrong_format_or_version_rejected():
    model = z2line_model()
    model["format"] = "something-else"
    with pytest.raises(ModelFormatError):
        validate_model(model)
    model = z2line_model()
    model["version"] = FORMAT_VERSION + 1
    with pytest.raises(ModelFormatError):
        validate_model(model)


def test_unknown_kind_rejected():
    model = z2line_model()
    model["kind"] = "mystery"
    with pytest.raises(ModelFormatError):
        validate_model(model)


def test_float_scalars_rejected():
    model = z2line_model()
    model["action"][1]["matrix"] = [[-1.0]]
    with pytest.raises(ModelFormatError, match="floats are not accepted"):
        validate_model(model)


def test_fraction_strings_accepted():
    model = z2line_model()
    model["action"][1]["matrix"] = [["-2/2"]]
    validate_model(model)


def test_ragged_matrix_rejected():
    model = pairh3_model()
    model["action"][0]["matrix"] = [[1, 0, 0], [0, 1], [0, 0, 1]]
    with pytest.raises(ModelFormatError):
        validate_model(model)


def test_action_on_unknown_arrow_rejected():
    model = z2line_model()
    model["action"].append({"arrow": "ghost", "matrix": [[1]]})
    with pytest.raises(ModelFormatError):
        validate_model(model)


def test_incoherent_table_rejected_as_model_error():
    # the base embedding must hit a local unit; a single indicator is not one
    model = funs3_model()
    model["table"]["baseEmbedding"] = {"pt": {"d012": 1}}
    with pytest.raises(ModelFormatError) as err:
        validate_model(model)
    assert "model.table" in str(err.value)


@pytest.mark.parametrize("table, value", [
    pytest.param("counit", 5, id="counit"),
    pytest.param("antipode", {"d012": 1}, id="antipode"),
    pytest.param("delta", [["d012", "d012", 1]], id="delta"),
])
def test_table_entries_for_unknown_labels_are_model_errors(table, value, tmp_path, capsys):
    model = funs3_model()
    model["table"][table]["bogus"] = value
    with pytest.raises(ModelFormatError) as err:
        carrier_from_model(model)
    assert err.value.path == "model.table"
    assert f"{table} table" in str(err.value) and "'bogus'" in str(err.value)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert main(["check-axioms", str(path)]) == EXIT_INPUT_ERROR
    assert "model error: model.table: " in capsys.readouterr().err


def test_unreadable_file_reports_path(tmp_path):
    path = tmp_path / "missing.json"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for load in (load_model, load_carrier):
        with pytest.raises(ModelFormatError) as err:
            load(path)
        assert err.value.path == str(path)
        with pytest.raises(ModelFormatError) as err:
            load(bad)
        assert err.value.path == str(bad)


@pytest.mark.parametrize("preset, kind", [
    (pairh3_model, ConvolutionAlgebroid),
    (funs3_model, TableAlgebroid),
], ids=["convolution", "table"])
def test_load_carrier_builds_the_carrier_once(preset, kind, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(preset(), path)
    built = []
    init = kind.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kind, "__init__", counting_init)
    carrier = load_carrier(path)
    assert built == [carrier]


def test_load_carrier_reports_what_validate_model_reports(tmp_path):
    model = z2line_model()
    model["truncation"] = -1
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelFormatError) as expected:
        validate_model(model)
    with pytest.raises(ModelFormatError) as err:
        load_carrier(path)
    assert (err.value.path, str(err.value)) == (expected.value.path, str(expected.value))


def test_format_constants():
    model = z2line_model()
    assert model["format"] == FORMAT_NAME
    assert model["version"] == FORMAT_VERSION


def _set(model, keys, value):
    *path, last = keys
    for k in path:
        model = model[k]
    model[last] = value


@pytest.mark.parametrize("preset, keys, value, where", [
    pytest.param(z2line_model, ("groupoid", "compose", 0, 0), ["e"],
                 "model.groupoid.compose[0][0]", id="compose-list"),
    pytest.param(z2line_model, ("groupoid", "units", "x"), ["e"],
                 "model.groupoid.units.x", id="units-list"),
    pytest.param(z2line_model, ("groupoid", "inverse", "e"), {"e": 1},
                 "model.groupoid.inverse.e", id="inverse-dict"),
    pytest.param(funs3_model, ("table", "mul", 0, 0), ["d012"],
                 "model.table.mul[0][0]", id="mul-list"),
    pytest.param(funs3_model, ("table", "delta", "d012", 0, 1), ["d012"],
                 "model.table.delta.d012[0][1]", id="delta-list"),
    pytest.param(pairh3_model, ("bundle", 0, "brackets", 0, 0), ["P"],
                 "model.bundle[0].brackets[0][0]", id="bracket-list"),
    # A slice as the last key inserts entries: each table gets a second entry
    # for a pair it already has, which must not silently replace the first.
    pytest.param(z2line_model, ("groupoid", "compose", slice(3, 3)), [["s", "s", "s"]],
                 "model.groupoid.compose[4]", id="compose-duplicate"),
    pytest.param(pairh3_model, ("bundle", 0, "brackets", slice(0, 0)), [["P", "Q", {"Z": 2}]],
                 "model.bundle[0].brackets[1]", id="bracket-duplicate"),
    pytest.param(funs3_model, ("table", "mul", slice(0, 0)), [["d012", "d012", {"d021": 1}]],
                 "model.table.mul[1]", id="mul-duplicate"),
    pytest.param(funs3_model, ("table", "delta", "d012", slice(0, 0)), [["d012", "d012", 5]],
                 "model.table.delta.d012[1]", id="delta-duplicate"),
    pytest.param(z2line_model, ("truncation",), True, "model.truncation", id="truncation-bool"),
    pytest.param(z2line_model, ("version",), True, "model.version", id="version-bool"),
])
def test_malformed_identifiers_are_model_errors(preset, keys, value, where, tmp_path, capsys):
    model = preset()
    _set(model, keys, value)
    with pytest.raises(ModelFormatError) as err:
        validate_model(model)
    assert err.value.path == where
    path = tmp_path / "model.json"
    save_model(model, path)
    assert main(["validate", str(path)]) == EXIT_INPUT_ERROR
    assert where in capsys.readouterr().err


def test_label_bound_refuses_a_huge_truncation_before_enumerating(tmp_path, capsys, monkeypatch):
    model = pairh3_model()
    model["truncation"] = 100_000  # about 6.7e14 labels
    start = time.perf_counter()
    with pytest.raises(ModelFormatError, match="limited to 100000 labels"):
        carrier_from_model(model)
    assert time.perf_counter() - start < 0.5
    path = tmp_path / "huge.json"
    save_model(model, path)
    assert main(["validate", str(path)]) == EXIT_INPUT_ERROR
    assert "limited to 100000 labels" in capsys.readouterr().err
    # pairh3 at truncation 4 has 4 arrows of 35 monomials each
    monkeypatch.setattr(algebroid, "CONVOLUTION_MAX_LABELS", 140)
    assert carrier_from_model(pairh3_model()).dim == 140
    monkeypatch.setattr(algebroid, "CONVOLUTION_MAX_LABELS", 139)
    with pytest.raises(ModelFormatError, match="got 140 at truncation 4"):
        carrier_from_model(pairh3_model())


def two_point_table_model():
    """Indicators of two isolated units, one at each of two points, as a table."""
    model = {key: z2line_model()[key] for key in ("format", "version")}
    model.update(kind="table", base=["x", "y"], table={
        "basis": [{"id": "ux", "target": "x"}, {"id": "uy", "target": "y"}],
        "baseEmbedding": {"x": {"ux": 1}, "y": {"uy": 1}},
        "mul": [["ux", "ux", {"ux": 1}], ["uy", "uy", {"uy": 1}]],
        "delta": {"ux": [["ux", "ux", 1]], "uy": [["uy", "uy", 1]]},
        "counit": {"ux": 1, "uy": 1},
        "antipode": {"ux": {"ux": 1}, "uy": {"uy": 1}},
    })
    return model


def _add_label_without_right_unit(table):
    # g at x is fixed by the left local unit, but no product g * u is given.
    table["basis"].append({"id": "g", "target": "x"})
    table["mul"].append(["ux", "g", {"g": 1}])


# One edit of the two-point table per coherence check of table import, with
# the exact line ``validate`` prints for it.
TABLE_IMPORT_ERRORS = [
    pytest.param(lambda t: t["basis"][1].update(id="ux"),
                 "duplicate basis names", id="duplicate-name"),
    pytest.param(lambda t: t["basis"][1].update(target="z"),
                 "basis element 'uy' has no valid target point", id="no-target"),
    pytest.param(lambda t: t["baseEmbedding"].pop("y"),
                 "base embedding must cover every point exactly", id="embedding-cover"),
    pytest.param(lambda t: t["baseEmbedding"]["x"].update(ghost=1),
                 "base embedding at 'x' mentions unknown name 'ghost'", id="embedding-name"),
    pytest.param(lambda t: t["baseEmbedding"]["x"].update(uy=1),
                 "base embedding at 'x' touches 'uy' with target 'y'", id="embedding-point"),
    pytest.param(lambda t: t["mul"].append(["ux", "ghost", {"ux": 1}]),
                 "product table uses unknown pair ('ux', 'ghost')", id="product-pair"),
    pytest.param(lambda t: t["mul"][0][2].update(ghost=1),
                 "product ('ux', 'ux') mentions unknown name 'ghost'", id="product-name"),
    pytest.param(lambda t: t["mul"][0][2].update(uy=1),
                 "product ('ux', 'ux') leaves the target grading", id="product-grading"),
    pytest.param(lambda t: t["delta"].update(ghost=[["ux", "ux", 1]]),
                 "delta table has an entry for unknown label 'ghost'", id="delta-label"),
    pytest.param(lambda t: t["counit"].update(ghost=1),
                 "counit table has an entry for unknown label 'ghost'", id="counit-label"),
    pytest.param(lambda t: t["antipode"].update(ghost={"ux": 1}),
                 "antipode table has an entry for unknown label 'ghost'", id="antipode-label"),
    pytest.param(lambda t: t["delta"]["ux"].append(["ux", "ghost", 1]),
                 "coproduct of 'ux' uses unknown names", id="coproduct-name"),
    pytest.param(lambda t: t["delta"]["ux"].append(["ux", "uy", 1]),
                 "coproduct of 'ux' is not fiberwise at its target", id="coproduct-fiber"),
    # Within an entry, every name of the embedding is checked before any
    # placement, but each coproduct term is checked in full as it comes.
    pytest.param(lambda t: t["baseEmbedding"]["x"].update(uy=1, ghost=1),
                 "base embedding at 'x' mentions unknown name 'ghost'", id="embedding-names-first"),
    pytest.param(lambda t: t["delta"]["ux"].extend([["ux", "uy", 1], ["ux", "ghost", 1]]),
                 "coproduct of 'ux' is not fiberwise at its target", id="coproduct-term-order"),
    pytest.param(lambda t: t["antipode"]["uy"].update(ghost=1),
                 "antipode of 'uy' mentions unknown name 'ghost'", id="antipode-name"),
    pytest.param(lambda t: t["mul"][0][2].update(ux=2),
                 "embedded unit at 'x' does not act as the left local unit on 'ux'",
                 id="left-unit"),
    pytest.param(_add_label_without_right_unit,
                 "global unit fails on the right of 'g'", id="right-unit"),
]


@pytest.mark.parametrize("edit, message", TABLE_IMPORT_ERRORS)
def test_each_table_import_error_has_its_own_message(edit, message, tmp_path, capsys):
    model = two_point_table_model()
    edit(model["table"])
    path = tmp_path / "model.json"
    save_model(model, path)
    assert main(["validate", str(path)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"model error: model.table: {message}\n")


def test_the_two_point_table_imports():
    assert carrier_from_model(two_point_table_model()).dim == 2
