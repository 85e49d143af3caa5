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
from test_benchmark_reference import workloads


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
    for count, message in (("-3", "must be nonnegative, got -3"), ("abc", "not an integer: 'abc'")):
        code, out, err = run([command, model_files["pairh3"], "--samples", count], capsys)
        assert code == EXIT_INPUT_ERROR and out == ""
        assert f"argument --samples: {message}" in err


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


@pytest.mark.parametrize("counit, antipode, flags", [
    # S(x) = x + 1 is neither -x nor primitive
    ({"e": 1}, {"x": 1, "e": 1}, {"sInvariant": False, "sNegates": False, "anchorTrivial": True}),
    # with counit(x) = 1, anchor(x, 1_pt) = counit(x * 1_pt) = 1, not 0
    ({"e": 1, "x": 1}, {"x": -1}, {"sInvariant": True, "sNegates": True, "anchorTrivial": False}),
])
def test_primitive_flags_of_a_table(counit, antipode, flags, tmp_path, capsys):
    """``primitives`` runs no axiom stage, so it reports the flags of a
    primitive x whose antipode or counit breaks the Hopf laws."""
    model = dual_numbers_model()
    model["table"]["counit"] = counit
    model["table"]["antipode"]["x"] = antipode
    path = tmp_path / "flags.json"
    save_model(model, path)
    code, out, _ = run(["primitives", str(path), "--json"], capsys)
    data = json.loads(out)
    assert code == EXIT_OK and data["basis"] == {"pt": ["1*x"]}
    assert {key: data[key] for key in flags} == flags


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

# (exit code, sha256 of the --json stdout) of check-axioms with 30 samples,
# a sample count the golden of tools/cli_digests.txt does not run.
CLI_GOLDENS = {
    "z2line": (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    "z2line-N1": (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    "funs3": (0, "84932f89f666975a47f62ff3d4d951eda814db3d8c0d2a41a7e463d57df35a97"),
    "pairh3-N1": (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    "pairh3-N3": (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    "random-0": (0, "a3b8eac70ecc876dcd373cff7e023e22b900f050075911d87fdb20458adf2033"),
    "random-1": (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
    "random-2": (0, "8191a0e2de20ef61678ba2145628bb97d9c13acea0054e721d5fdb33d60febd8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_json_output_goldens(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_model(GOLDEN_MODELS[name](), path)
    code, out, _ = run(["check-axioms", str(path), "--json", "--samples", "30"], capsys)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == CLI_GOLDENS[name]


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_runs():
    """(model, command, format) -> (exit, out, err) fields of each line of
    the checked-in ``tools/cli_digests.txt``."""
    golden = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.txt"
    return {tuple(fields[:3]): tuple(fields[3:])
            for fields in map(str.split, golden.read_text(encoding="utf-8").splitlines())}


# The golden names a preset by its rung: preset z2line is truncation 4.
GOLDEN_RUNG = {"z2line": "z2line-N4"}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_stage_command_goldens(name, tmp_path, capsys):
    """Each stage command, as text and with --json, answers a preset as the
    golden records for its rung."""
    path = tmp_path / f"{name}.json"
    save_model(GOLDEN_MODELS[name](), path)
    want = golden_runs()
    rung = GOLDEN_RUNG.get(name, name)
    for command in ("validate", "primitives", "grouplikes", "spectral"):
        for fmt, extra in (("text", []), ("json", ["--json"])):
            code, out, _ = run([command, str(path), *extra], capsys)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (f"exit={code}", f"out={digest}") == want[(rung, command, fmt)][:2], (command, fmt)


def test_cli_digests_tool_runs_every_model_command_in_both_formats():
    tool = load_tool("cli_digests")
    docs = {name: GOLDEN_MODELS[name]() for name in ("z2line-N1", "funs3")}
    lines = [line.split() for line in tool.digest_lines(docs)]
    assert [(m, c, f) for m, c, f, *_ in lines] == [
        (m, c, f) for m in docs for c in tool.COMMANDS for f in ("text", "json")]
    # exit code and stdout and stderr digests of each run, as the golden records them
    want = golden_runs()
    for m, c, f, *digests in lines:
        assert tuple(digests) == want[(m, c, f)], (m, c, f)
    # the z2line and pairh3 presets are rungs of their ladders
    full = tool.model_set(models, workloads.sl2_model)
    names = list(full)
    assert len(names) == 70 and names[-1] == "funs3" and {"pair8-N1", "pair9-N1"} <= set(names)
    assert full["z2line-N4"] == z2line_model()
    invalid = tool.invalid_models(models)
    assert all(full.get(name) == doc for name, doc in invalid.items())
    assert invalid["uneven-orbit"] == uneven_orbit_model()
    assert invalid["pairh3-misplaced-unit"] == misplaced_unit_model()
    assert all(carrier_from_model(doc).validate() for doc in invalid.values())


def test_cli_answers_match_the_golden():
    """Every run of ``tools/cli_digests.py`` equals its line of the checked-in
    ``tools/cli_digests.txt``; a change that alters an answer on purpose
    regenerates that file in the same commit."""
    tool = load_tool("cli_digests")
    golden = Path(tool.__file__).with_suffix(".txt")
    expected = golden.read_text(encoding="utf-8").splitlines()
    actual = list(tool.digest_lines(tool.model_set(models, workloads.sl2_model)))

    def by_run(lines):
        return {tuple(line.split()[:3]): line for line in lines}

    want, got = by_run(expected), by_run(actual)
    differ = [" ".join(r) for r in {**want, **got} if want.get(r) != got.get(r)]
    assert not differ, (
        f"{len(differ)} of {len(expected)} runs differ from {golden.name}: {', '.join(differ)}; "
        f"if the change is intended, run python3 tools/cli_digests.py > tools/cli_digests.txt")
    # byte for byte: the same runs in the same order, one line each
    assert golden.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in actual)


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
