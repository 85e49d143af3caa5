"""End-to-end command line behaviour and exit codes."""

import hashlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from finhopf.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROPERTY_FAILS, build_parser, main
from finhopf import analysis, models
from finhopf.modelio import FORMAT_NAME, carrier_from_model, model_to_text, save_model
from finhopf.models import funs3_model, pairh3_model, random_model, z2line_model

from test_algebroid import draw_up_to_the_truncation
from test_analysis import (
    dual_numbers_model,
    misplaced_unit_model,
    rescaled_group_algebra_model,
    uneven_orbit_model,
)


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


@pytest.mark.parametrize("command", ["check-axioms", "cgk"])
def test_a_negative_sample_count_is_a_usage_error(model_files, command, capsys):
    code, out, err = run([command, model_files["pairh3"], "--samples", "-3"], capsys)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert "argument --samples: must be nonnegative, got -3" in err


def test_roundtrip_takes_no_sample_count(model_files, capsys):
    """``roundtrip`` samples no axiom law, so it has no ``--samples``."""
    code, out, err = run(["roundtrip", model_files["pairh3"], "--samples", "3"], capsys)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert "unrecognized arguments: --samples 3" in err


def test_an_overflow_in_a_law_is_an_input_error(model_files, monkeypatch, capsys):
    draw_up_to_the_truncation(monkeypatch)
    code, out, err = run(["check-axioms", model_files["z2line"]], capsys)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert err.startswith("error: degree ") and "exceeds truncation bound 4" in err
    code, out, _ = run(["cgk", model_files["z2line"]], capsys)
    assert code == EXIT_INPUT_ERROR and out.startswith("stage axioms failed: degree ")


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


def test_primitives_of_a_table_with_a_primitive(tmp_path, capsys):
    path = tmp_path / "dual-numbers.json"
    save_model(dual_numbers_model(), path)
    code, out, _ = run(["primitives", str(path), "--json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ranks"] == {"pt": 1} and data["basis"] == {"pt": ["1*x"]}
    code, _, _ = run(["check-axioms", str(path)], capsys)
    assert code == EXIT_PROPERTY_FAILS


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


def test_roundtrip_at_truncation_zero_rebuilds_no_fiber(tmp_path, capsys):
    """At N=0 the carrier is the groupoid algebra: it is decided ISO, but it
    has no primitives, so the rebuilt fibers are 0-dimensional and the round
    trip fails on ranks and action matrices, with exit 1."""
    for make, points in ((z2line_model, ["x"]), (pairh3_model, ["x", "y"])):
        path = tmp_path / f"{make.__name__}.json"
        model = make()
        model["truncation"] = 0
        save_model(model, path)
        code, out, _ = run(["roundtrip", str(path), "--json"], capsys)
        data = json.loads(out)
        assert code == EXIT_PROPERTY_FAILS, make
        assert data["decision"]["verdict"] == "ISO"
        assert data["decision"]["primRank"] == dict.fromkeys(points, 0)
        assert data["groupoidIsomorphic"] is True
        assert (data["rankMatches"], data["actionMatches"], data["ok"]) == (False, False, False)


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
    """Hypothesis (i) is read per orbit: ranks 1 and 0 on two one-point
    orbits are constant on each and decided, while ranks 2 and 1 on the two
    points of one orbit are reported by ``primitives``; that model fails
    ``validate``, so ``cgk`` stops at the axiom stage."""
    path = tmp_path / "ranks-1-0.json"
    save_model(unit_arrows_model([1, 0]), path)
    code, out, _ = run(["cgk", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_OK and data["verdict"] == "ISO"
    assert data["constantRank"] is True and data["primRank"] == {"x": 1, "y": 0}
    assert "hypothesisFailures" not in data
    assert data["spectral"] == {"arrows": 2}
    code, out, _ = run(["roundtrip", str(path)], capsys)
    assert code == EXIT_OK and out.endswith("round trip: ok\n")

    path = tmp_path / "ranks-2-1.json"
    save_model(uneven_orbit_model(), path)
    code, out, _ = run(["primitives", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["constantRank"] is False and data["ranks"] == {"x": 2, "y": 1}
    code, out, _ = run(["cgk", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_INPUT_ERROR and data["verdict"] == "ERROR"
    assert data["stageError"] == {"stage": "axioms", "message": "axiom checks failed: validate"}
    assert data["axiomsOk"] is False and data["primRank"] == {}
    assert "hypothesisFailures" not in data and "spectral" not in data


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


def at_truncation(make, truncation):
    model = make()
    model["truncation"] = truncation
    return model


def pairh3_at(truncation):
    return at_truncation(pairh3_model, truncation)


GOLDEN_MODELS = {
    "z2line": z2line_model,
    "z2line-N1": lambda: at_truncation(z2line_model, 1),
    "funs3": funs3_model,
    "pairh3-N1": lambda: pairh3_at(1),
    "pairh3-N3": lambda: pairh3_at(3),
    "random-0": lambda: random_model(0),
    "random-1": lambda: random_model(1),
    "random-2": lambda: random_model(2),
}

# (exit code, sha256 of the --json stdout).  Both truncation-1 models are
# decided: z2line's fiber has one generator and so no commutator to take, and
# the commutators of pairh3's degree-1 primitives are bounded after they cancel.
CLI_GOLDENS = {
    ("z2line", "cgk"): (0, "58701062a67a67451e8aad64bcd80bc90a98be0e6533af09fc4fe6deb6e08306"),
    ("z2line", "roundtrip"): (0, "b879ada7446dce6145775d498e9cec47f00740f34d4d883e9247cfc99bdaec11"),
    ("z2line", "check-axioms"): (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    ("z2line-N1", "cgk"): (0, "59ede36743a22fb17f8a39b7863f7dc57ba4c1fb06d1346d3c59de5cce424c36"),
    ("z2line-N1", "roundtrip"): (0, "dcfded5e5218a4981e3ae15a9f546cd4deef4853e46548d65f9efd6a3e718287"),
    ("z2line-N1", "check-axioms"): (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    ("funs3", "cgk"): (1, "f5790cf1d5289d6b6c68c0abba359c9efbba53ef8db73780fe86044ab5671400"),
    ("funs3", "roundtrip"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("funs3", "check-axioms"): (0, "84932f89f666975a47f62ff3d4d951eda814db3d8c0d2a41a7e463d57df35a97"),
    ("pairh3-N1", "cgk"): (0, "0a6e72ded81469d059a3874fdac53fda840d61fb904dafb8662968786aa907a1"),
    ("pairh3-N1", "roundtrip"): (0, "79b81374e0c1202447806abe40bdb37b4777af99dcd1d97fb89302f488eaebd1"),
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


# (exit code, sha256 of stdout) of each stage command, as text and with --json.
STAGE_GOLDENS = {
    ("funs3", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("funs3", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("funs3", "primitives", "text"): (0, "aae2220b412347dec13c390971b20e070457675945a1eeacdb39febf283f38e9"),
    ("funs3", "primitives", "json"): (0, "0464e0b911d0116812668e4adbb11736fed317dc5d28854042591c1e0ec16cd0"),
    ("funs3", "grouplikes", "text"): (0, "4a8c3082c328f64c824e207542ee66624a3d66abaa6f93d0d187a53b7798e551"),
    ("funs3", "grouplikes", "json"): (0, "526584905f1c795b3cf4b823bcb2685defec727310d93ae8f744cbc238a0ace2"),
    ("funs3", "spectral", "text"): (0, "949b826e05426c2a8b6c5bbbd9a0a7654400ad6a4c462c642d9f8e1011b84b90"),
    ("funs3", "spectral", "json"): (0, "09f7747bb81bfb99a0af164ef3231b484ef1475205a88fe7c27d264874ba65ab"),
    ("pairh3-N1", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("pairh3-N1", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("pairh3-N1", "primitives", "text"): (0, "b3cc5b3c1a6ac0ced027d6304bdc82104308c827f707cda4366f47f6519ca586"),
    ("pairh3-N1", "primitives", "json"): (0, "0c470ee1a984bcc2d3f411c6f5388564e23fa2b2361bf4b83ac8b6ee1c4f1f09"),
    ("pairh3-N1", "grouplikes", "text"): (0, "dc606b4ca8d6ae454c58da62f6cb39b31a30c70c0040d218a5e713949aecd685"),
    ("pairh3-N1", "grouplikes", "json"): (0, "d17ca293cc5a4fdb8b8fde11d3b35ce734315199c112915324c781adcc401375"),
    ("pairh3-N1", "spectral", "text"): (0, "9a9c7d060a6bc3a53cdaf3e6ac5617c267ab5be981dafb4797e792899aeb4f37"),
    ("pairh3-N1", "spectral", "json"): (0, "2c3e7165f1c02989a6c34ae7b74c1f5666ac5d0fdee4a9d0d0b840573273c2c5"),
    ("pairh3-N3", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("pairh3-N3", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("pairh3-N3", "primitives", "text"): (0, "b3cc5b3c1a6ac0ced027d6304bdc82104308c827f707cda4366f47f6519ca586"),
    ("pairh3-N3", "primitives", "json"): (0, "0c470ee1a984bcc2d3f411c6f5388564e23fa2b2361bf4b83ac8b6ee1c4f1f09"),
    ("pairh3-N3", "grouplikes", "text"): (0, "dc606b4ca8d6ae454c58da62f6cb39b31a30c70c0040d218a5e713949aecd685"),
    ("pairh3-N3", "grouplikes", "json"): (0, "d17ca293cc5a4fdb8b8fde11d3b35ce734315199c112915324c781adcc401375"),
    ("pairh3-N3", "spectral", "text"): (0, "9a9c7d060a6bc3a53cdaf3e6ac5617c267ab5be981dafb4797e792899aeb4f37"),
    ("pairh3-N3", "spectral", "json"): (0, "2c3e7165f1c02989a6c34ae7b74c1f5666ac5d0fdee4a9d0d0b840573273c2c5"),
    ("random-0", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("random-0", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("random-0", "primitives", "text"): (0, "09f98bb9eb715aef56904974821dcd82358e498bf416ad5deccd3d8880f3f127"),
    ("random-0", "primitives", "json"): (0, "65bf6c686141844cc1a3c82f956f2e6adb6b2b0763908d9c6f0287649f3d2418"),
    ("random-0", "grouplikes", "text"): (0, "73b081145d7cce00f044ec728f0049e341a848849ed8583a2a30aba72485c6ea"),
    ("random-0", "grouplikes", "json"): (0, "05cac5e0ca572eb8dddf29d922b477e144b8cf3de6e61d3639c460532f3ca533"),
    ("random-0", "spectral", "text"): (0, "3fcd0672937798eaff6d0459ab30de6539791d5445f64269508a9e1d11616434"),
    ("random-0", "spectral", "json"): (0, "068cebc35e13306e3a25daae0cc274f2ae6cafeb172abe19d14d776d5d29a2af"),
    ("random-1", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("random-1", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("random-1", "primitives", "text"): (0, "e9a7ec7d0ae756bf24ed6a09412011f76df8ea0de9741d5421fbf80df65a7518"),
    ("random-1", "primitives", "json"): (0, "6512f3155a4752d113b34202bba347a5f329a2912d8de1cbdacfea97db1a1440"),
    ("random-1", "grouplikes", "text"): (0, "2edb6a80eac155d4288904aaebb48a6ba06142aad42724bc5b19fe87d5cf0610"),
    ("random-1", "grouplikes", "json"): (0, "05af8273c0de7ec3814f0846e6c028e69c0f49f3ace286c9ea3c66d407a8802b"),
    ("random-1", "spectral", "text"): (0, "89b6e730cff9af26460405a4ac92fca474691a79f7fe7019e26cc495be3f1932"),
    ("random-1", "spectral", "json"): (0, "f214c655f6dc37286215b2ab1f8420b8850d5fd7e548858066c07aca91194584"),
    ("random-2", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("random-2", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("random-2", "primitives", "text"): (0, "e9a7ec7d0ae756bf24ed6a09412011f76df8ea0de9741d5421fbf80df65a7518"),
    ("random-2", "primitives", "json"): (0, "6512f3155a4752d113b34202bba347a5f329a2912d8de1cbdacfea97db1a1440"),
    ("random-2", "grouplikes", "text"): (0, "c6215f527603d81cb71f0bc0a03f023b6c62ec1122abd7f10ac6af443a549a49"),
    ("random-2", "grouplikes", "json"): (0, "4658521ea7bbfe0b22d8955aa6ad6bcd2b035c30b0edaf40cf56cacbc487a3d8"),
    ("random-2", "spectral", "text"): (0, "e59d7d6b955e0d1976e718c2e01a49df279649cc3183f5a0abfef8e3defb6f23"),
    ("random-2", "spectral", "json"): (0, "b9bb40f1351b21396c1c5ec60262a88f4c7fbe06d68caf68f17851d6649a64ab"),
    ("z2line", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("z2line", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("z2line", "primitives", "text"): (0, "dba2aea877d218bb1d69ef7b39420be15f7b3313f3d64c11455cd06744f6ef9f"),
    ("z2line", "primitives", "json"): (0, "494b47c33a941180860372dd2801338f4a54b24036ee9cc26396ab09cf5402f1"),
    ("z2line", "grouplikes", "text"): (0, "33dc98af46dee191822459d44526a2fafda4246b028920f44a413de3613edb2d"),
    ("z2line", "grouplikes", "json"): (0, "d6cc356c1c320dbef415e1e9ae8515fd3937431f0f35daf7cce955a1d2ab642c"),
    ("z2line", "spectral", "text"): (0, "5b40e3c856512ed079c352b44a7d549eb52c49120d1b500a1d6f05f9b32ce43c"),
    ("z2line", "spectral", "json"): (0, "e5c21b3e7bcf6945274fa104caad702994fc0350c8f458209a9849a9fa88f967"),
    ("z2line-N1", "validate", "text"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("z2line-N1", "validate", "json"): (0, "7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c"),
    ("z2line-N1", "primitives", "text"): (0, "dba2aea877d218bb1d69ef7b39420be15f7b3313f3d64c11455cd06744f6ef9f"),
    ("z2line-N1", "primitives", "json"): (0, "494b47c33a941180860372dd2801338f4a54b24036ee9cc26396ab09cf5402f1"),
    ("z2line-N1", "grouplikes", "text"): (0, "33dc98af46dee191822459d44526a2fafda4246b028920f44a413de3613edb2d"),
    ("z2line-N1", "grouplikes", "json"): (0, "d6cc356c1c320dbef415e1e9ae8515fd3937431f0f35daf7cce955a1d2ab642c"),
    ("z2line-N1", "spectral", "text"): (0, "5b40e3c856512ed079c352b44a7d549eb52c49120d1b500a1d6f05f9b32ce43c"),
    ("z2line-N1", "spectral", "json"): (0, "e5c21b3e7bcf6945274fa104caad702994fc0350c8f458209a9849a9fa88f967"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_stage_command_goldens(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_model(GOLDEN_MODELS[name](), path)
    for command in ("validate", "primitives", "grouplikes", "spectral"):
        for fmt, extra in (("text", []), ("json", ["--json"])):
            code, out, _ = run([command, str(path), *extra], capsys)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest) == STAGE_GOLDENS[(name, command, fmt)], (command, fmt)


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digests_tool_runs_every_model_command_in_both_formats():
    tool = load_tool("cli_digests")
    docs = {name: GOLDEN_MODELS[name]() for name in ("z2line-N1", "funs3")}
    lines = [line.split() for line in tool.digest_lines(docs)]
    assert [(m, c, f) for m, c, f, *_ in lines] == [
        (m, c, f) for m in docs for c in tool.COMMANDS for f in ("text", "json")]
    # exit code and stdout digest of each run, as the goldens record them
    by_run = {(m, c, f): (code, out) for m, c, f, code, out, _err in lines}
    for (name, command), (code, digest) in CLI_GOLDENS.items():
        if name in docs and command != "check-axioms":  # the golden takes 30 samples
            assert by_run[(name, command, "json")] == (f"exit={code}", f"out={digest}")
    for (name, command, fmt), (code, digest) in STAGE_GOLDENS.items():
        if name in docs:
            assert by_run[(name, command, fmt)] == (f"exit={code}", f"out={digest}")
    # the z2line and pairh3 presets are rungs of their ladders
    names = list(tool.model_set(models, lambda n: {"sl2": n}))
    assert len(names) == 70 and names[-1] == "funs3" and {"pair8-N1", "pair9-N1"} <= set(names)
    invalid = tool.invalid_models(models)
    assert set(invalid) <= set(names)
    assert invalid["uneven-orbit"] == uneven_orbit_model()
    assert invalid["pairh3-misplaced-unit"] == misplaced_unit_model()
    assert all(carrier_from_model(doc).validate() for doc in invalid.values())


def test_roundtrip_stops_at_the_axiom_stage_on_the_invalid_models(monkeypatch):
    """On each model the loader accepts and ``validate`` rejects, the axiom
    report holds only ``validate`` checks, mode ``validate``, and no later
    artifact is built."""
    seen, real = [], analysis._analyze

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(analysis, "_analyze", recorded)
    invalid = load_tool("cli_digests").invalid_models(models)
    for name, model in invalid.items():
        seen.clear()
        report = analysis.roundtrip(carrier_from_model(model))
        decision = report.decision
        assert decision.verdict == "ERROR" and decision.axioms_ok is False, name
        assert decision.stage_error == ("axioms", "axiom checks failed: validate"), name
        assert not report.ok and not report.groupoid_isomorphic
        (run,) = seen
        axioms = run.axiom_report
        assert axioms.mode == "validate" and axioms.checks, name
        assert {c.name for c in axioms.checks} == {"validate"}
        assert [c.witness for c in axioms.checks] == run.carrier.validate()
        assert (run.prim, run.gsp, run.prim_action, run.theta) == (None,) * 4, name


def test_roundtrip_decides_the_pair_groupoid_on_nine_points(tmp_path, capsys):
    """81 arrows in one component: the groupoid comparison is bounded by the
    isotropy order, not by the arrow count."""
    path = tmp_path / "pair9.json"
    save_model(load_tool("cli_digests").pair_model(9), path)
    code, out, _ = run(["roundtrip", str(path)], capsys)
    assert code == EXIT_OK and out.endswith("round trip: ok\n")


def test_pair_models_above_ten_points_load_and_validate():
    """Arrow ids stay unambiguous above 10 points, where ``a{t}{s}`` would
    name (1, 11) and (11, 1) alike; up to 10 points they are unchanged."""
    tool = load_tool("cli_digests")
    carrier = carrier_from_model(tool.pair_model(12))
    assert len(carrier.groupoid.arrows) == 144 and carrier.validate() == []
    assert {"a1_11", "a11_1"} <= set(carrier.groupoid.arrows)
    assert tool.pair_model(10)["groupoid"]["units"]["p9"] == "a99"


def test_root_search_bound_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "rescaled.json"
    save_model(rescaled_group_algebra_model(10**30), path)
    for command in ("grouplikes", "spectral"):
        code, out, err = run([command, str(path)], capsys)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "rational root search limited" in err
    code, out, _ = run(["cgk", str(path)], capsys)
    assert code == EXIT_INPUT_ERROR and "stage spectral failed" in out
