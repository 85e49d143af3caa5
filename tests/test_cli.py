"""End-to-end command line behaviour and exit codes."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from finhopf.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROPERTY_FAILS, build_parser, main
from finhopf.modelio import FORMAT_NAME, model_to_text, save_model
from finhopf.models import funs3_model, pairh3_model, random_model, z2line_model

from test_analysis import misplaced_unit_model, rescaled_group_algebra_model


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


def test_primitives_on_a_misplaced_unit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "misplaced-unit.json"
    save_model(misplaced_unit_model(), path)
    for extra in ([], ["--json"]):
        code, out, err = run(["primitives", str(path), *extra], capsys)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: [primitives] the unit at 'x'")
    code, out, _ = run(["cgk", str(path)], capsys)
    assert code == EXIT_INPUT_ERROR and "stage axioms failed" in out


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
    code, out, err = run(["roundtrip", model_files["funs3"]], capsys)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err == "error: [roundtrip] round trip needs a constructed (convolution) model\n"


def test_a_repeated_json_key_is_a_model_error(tmp_path, capsys):
    # Were the last value kept, Fun(S3) would load with counit(d012) = 0: a
    # valid model that only the axiom suite rejects.
    text = model_to_text(funs3_model())
    counit = '"counit": {\n      "d012": 1\n    }'
    assert counit in text
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(counit, '"counit": {"d012": 1, "d012": 0}'), encoding="utf-8")
    for command in ("validate", "check-axioms"):
        code, out, err = run([command, str(path)], capsys)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == f"model error: {path}: duplicate JSON key 'd012'\n"


def unit_arrows_model(dims):
    """Only unit arrows, over one point per entry of ``dims``, each with an
    abelian fiber of that dimension."""
    points = ["x", "y"][:len(dims)]
    model = {key: z2line_model()[key] for key in ("format", "version")}
    model.update(
        kind="convolution",
        base=points,
        groupoid={
            "arrows": [{"id": f"e{p}", "src": p, "tgt": p} for p in points],
            "units": {p: f"e{p}" for p in points},
            "inverse": {f"e{p}": f"e{p}" for p in points},
            "compose": [[f"e{p}"] * 3 for p in points],
        },
        bundle=[{"point": p, "basis": [f"P{i}" for i in range(d)], "brackets": []}
                for p, d in zip(points, dims)],
        action=[{"arrow": f"e{p}", "matrix": [[int(i == j) for j in range(d)] for i in range(d)]}
                for p, d in zip(points, dims)],
        truncation=2,
    )
    return model


def test_non_constant_primitive_rank_is_reported_and_still_decided(tmp_path, capsys):
    path = tmp_path / "ranks-1-0.json"
    save_model(unit_arrows_model([1, 0]), path)
    code, out, _ = run(["cgk", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_OK and data["verdict"] == "ISO"
    assert data["constantRank"] is False and data["primRank"] == {"x": 1, "y": 0}
    assert data["hypothesisFailures"] == [
        "primitive module does not have constant rank (hypothesis i)"]
    assert data["annotations"] == ["decomposition evaluated despite non-constant primitive rank"]
    assert data["spectral"] == {"arrows": 2}
    code, out, _ = run(["roundtrip", str(path)], capsys)
    assert code == EXIT_OK and out.endswith("round trip: ok\n")


def test_a_zero_dimensional_fiber_is_decided_as_its_unit_arrow(tmp_path, capsys):
    path = tmp_path / "point.json"
    save_model(unit_arrows_model([0]), path)
    code, out, _ = run(["cgk", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_OK and data["verdict"] == "ISO"
    assert data["constantRank"] is True and data["primRank"] == {"x": 0}
    assert data["spectral"] == {"arrows": 1}
    assert data["theta"] == {"x": {"dim": 1, "rank": 1}}
    code, out, _ = run(["roundtrip", str(path)], capsys)
    assert code == EXIT_OK and out.endswith("round trip: ok\n")


def readme_commands():
    """Every ``finhopf`` line in the README's code blocks, without the ``$ ``
    prompt or a trailing comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = (line.removeprefix("$ ").split("#")[0].strip()
             for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("finhopf ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert "finhopf cgk s3.json" in commands and len(commands) >= 10
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


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


def pairh3_at(truncation):
    model = pairh3_model()
    model["truncation"] = truncation
    return model


GOLDEN_MODELS = {
    "z2line": z2line_model,
    "funs3": funs3_model,
    "pairh3-N1": lambda: pairh3_at(1),
    "pairh3-N3": lambda: pairh3_at(3),
    "random-0": lambda: random_model(0),
    "random-1": lambda: random_model(1),
    "random-2": lambda: random_model(2),
}

# (exit code, sha256 of the --json stdout).  pairh3 at N=1 pins the text of
# the overflow that stops its primitive stage.
CLI_GOLDENS = {
    ("z2line", "cgk"): (0, "58701062a67a67451e8aad64bcd80bc90a98be0e6533af09fc4fe6deb6e08306"),
    ("z2line", "roundtrip"): (0, "b879ada7446dce6145775d498e9cec47f00740f34d4d883e9247cfc99bdaec11"),
    ("z2line", "check-axioms"): (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    ("funs3", "cgk"): (1, "f5790cf1d5289d6b6c68c0abba359c9efbba53ef8db73780fe86044ab5671400"),
    ("funs3", "roundtrip"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("funs3", "check-axioms"): (0, "84932f89f666975a47f62ff3d4d951eda814db3d8c0d2a41a7e463d57df35a97"),
    ("pairh3-N1", "cgk"): (2, "c4919bf1f4bdcc407fb4fed9e6c5fc6af9fb301df2b6480574e4e5df9bc64d01"),
    ("pairh3-N1", "roundtrip"): (1, "955133d5315b5892cb836dc7a397804c3f0121868832f58517ca5febe96ee0e2"),
    ("pairh3-N1", "check-axioms"): (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    ("pairh3-N3", "cgk"): (0, "9ca3fbe355405472f39937e8126fc3c58d7e7e15a3c754c3e87ee98dcbf11fce"),
    ("pairh3-N3", "roundtrip"): (0, "5dfafbc61d521d5e0dd767c2713b95ccbf70a08246bf8203d4903196527ec93d"),
    ("pairh3-N3", "check-axioms"): (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    ("random-0", "cgk"): (0, "cf3930d4febf882b60a3bab18c5654490f978fc6ba8f1922c14149ce658fa55f"),
    ("random-0", "roundtrip"): (0, "f5849a70b4a1a06147619d15f631a4c17cf593c9b65bfb0a638cd7cd29d71057"),
    ("random-0", "check-axioms"): (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    ("random-1", "cgk"): (0, "8a0fae60c4daf2f13a6958a70b16bf43112910ce27dd2f5a2d1b351aad08f4a7"),
    ("random-1", "roundtrip"): (0, "9f8e023caa06513aeb57ca42b8ec46db16fdc0f881cc1aa1d0fbe3a910562998"),
    ("random-1", "check-axioms"): (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    ("random-2", "cgk"): (0, "b31be6772adee4f9631420f88e0fbd88a7fa87be19c3a744121d84539feab00a"),
    ("random-2", "roundtrip"): (0, "3f849ad36781fb14c63767a855470f96db1a7e201a0dd34958a19db4153e0e63"),
    ("random-2", "check-axioms"): (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_json_output_goldens(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_model(GOLDEN_MODELS[name](), path)
    for command in ("cgk", "roundtrip", "check-axioms"):
        extra = ["--samples", "30"] if command == "check-axioms" else []
        code, out, _ = run([command, str(path), "--json", *extra], capsys)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == CLI_GOLDENS[(name, command)], command


def test_root_search_bound_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "rescaled.json"
    save_model(rescaled_group_algebra_model(10**30), path)
    for command in ("grouplikes", "spectral"):
        code, out, err = run([command, str(path)], capsys)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "rational root search limited" in err
    code, out, _ = run(["cgk", str(path)], capsys)
    assert code == EXIT_INPUT_ERROR and "stage spectral failed" in out
