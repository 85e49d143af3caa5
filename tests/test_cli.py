"""End-to-end command line behaviour and exit codes."""

import json

import pytest

from finhopf.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROPERTY_FAILS, main
from finhopf.modelio import FORMAT_NAME, save_model
from finhopf.models import funs3_model, pairh3_model, z2line_model


def run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def corrupted_model():
    """A sign action on the whole Heisenberg fiber, which kills the bracket."""
    model = z2line_model()
    model["bundle"] = [{"point": "x", "basis": ["P", "Q", "Z"],
                        "brackets": [["P", "Q", {"Z": 1}]]}]
    model["action"] = [
        {"arrow": "e", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"arrow": "s", "matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]},
    ]
    model["truncation"] = 3
    return model


@pytest.fixture
def model_files(tmp_path):
    paths = {}
    for name, model in (("z2line", z2line_model()), ("pairh3", pairh3_model()),
                        ("funs3", funs3_model()), ("bad", corrupted_model())):
        p = tmp_path / f"{name}.json"
        save_model(model, p)
        paths[name] = str(p)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{\"format\": \"nope\"}", encoding="utf-8")
    paths["garbage"] = str(garbage)
    return paths


def test_validate_exit_codes(model_files, capsys):
    code, out, _ = run(["validate", model_files["z2line"]], capsys)
    assert code == EXIT_OK and "valid" in out
    code, out, _ = run(["validate", model_files["bad"]], capsys)
    assert code == EXIT_PROPERTY_FAILS and "bracket" in out
    code, _, err = run(["validate", model_files["garbage"]], capsys)
    assert code == EXIT_INPUT_ERROR and "model error" in err


def test_check_axioms(model_files, capsys):
    code, out, _ = run(["check-axioms", model_files["z2line"],
                        "--samples", "40"], capsys)
    assert code == EXIT_OK
    assert "PASS overall" in out
    code, out, _ = run(["check-axioms", model_files["bad"],
                        "--samples", "60", "--seed", "5"], capsys)
    assert code == EXIT_PROPERTY_FAILS
    assert "FAIL" in out


def test_zero_samples_are_inconclusive(model_files, capsys):
    code, out, _ = run(["check-axioms", model_files["pairh3"], "--samples", "0",
                        "--json"], capsys)
    assert code == EXIT_PROPERTY_FAILS
    data = json.loads(out)
    assert data["ok"] is False
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["associativity"] == {
        "name": "associativity", "status": "inconclusive", "checked": 0,
    }
    code, out, _ = run(["check-axioms", model_files["pairh3"], "--samples", "0"], capsys)
    assert code == EXIT_PROPERTY_FAILS
    assert out.rstrip().endswith("INCONCLUSIVE overall")


def test_check_axioms_json(model_files, capsys):
    code, out, _ = run(["check-axioms", model_files["funs3"], "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert any(c["name"] == "coassociativity" for c in data["checks"])


def test_primitives(model_files, capsys):
    code, out, _ = run(["primitives", model_files["pairh3"], "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ranks"] == {"x": 3, "y": 3}


def test_grouplikes(model_files, capsys):
    code, out, _ = run(["grouplikes", model_files["z2line"],
                        "--point", "x", "--json"], capsys)
    assert code == EXIT_OK
    assert len(json.loads(out)["x"]) == 2
    code, _, err = run(["grouplikes", model_files["z2line"],
                        "--point", "nowhere"], capsys)
    assert code == EXIT_INPUT_ERROR


def test_spectral(model_files, capsys):
    code, out, _ = run(["spectral", model_files["funs3"], "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["arrows"]) == 2
    assert data["droppedNonInvariant"] == 0


def test_cgk_exit_codes(model_files, capsys):
    code, out, _ = run(["cgk", model_files["z2line"]], capsys)
    assert code == EXIT_OK and "verdict: ISO" in out
    code, out, _ = run(["cgk", model_files["funs3"], "--json"], capsys)
    assert code == EXIT_PROPERTY_FAILS
    data = json.loads(out)
    assert data["verdict"] == "NOT_ISO"
    assert data["theta"]["pt"] == {"rank": 2, "dim": 6}
    code, _, _ = run(["cgk", model_files["bad"], "--samples", "60",
                      "--seed", "5"], capsys)
    assert code == EXIT_INPUT_ERROR


def test_roundtrip(model_files, capsys):
    code, out, _ = run(["roundtrip", model_files["z2line"], "--json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True
    code, _, err = run(["roundtrip", model_files["funs3"]], capsys)
    assert code == EXIT_INPUT_ERROR


def test_gen_writes_deterministic_models(tmp_path, capsys):
    code, out1, _ = run(["gen", "--preset", "random", "--seed", "12"], capsys)
    assert code == EXIT_OK
    code, out2, _ = run(["gen", "--preset", "random", "--seed", "12"], capsys)
    assert out1 == out2
    assert json.loads(out1)["format"] == FORMAT_NAME

    target = tmp_path / "out.json"
    code, _, _ = run(["gen", "--preset", "z2line", "-o", str(target)], capsys)
    assert code == EXIT_OK
    code, _, _ = run(["validate", str(target)], capsys)
    assert code == EXIT_OK


def test_gen_unknown_preset(capsys):
    code, _, err = run(["gen", "--preset", "bogus"], capsys)
    assert code == EXIT_INPUT_ERROR


def test_schema_prints_documentation(capsys):
    code, out, _ = run(["schema"], capsys)
    assert code == EXIT_OK
    assert FORMAT_NAME in out


def test_missing_subcommand_is_an_input_error(capsys):
    code, _, _ = run([], capsys)
    assert code == EXIT_INPUT_ERROR
