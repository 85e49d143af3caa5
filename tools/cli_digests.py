"""Digest the CLI's answers on a fixed model set, one line per run.

Usage::

    python3 tools/cli_digests.py [ROOT] > digests.txt

ROOT is a checkout of this repository (default: the one holding this
script); its ``src/finhopf`` answers and its ``perfbench/workloads.py``
gives the benchmark's ``sl2`` model.  Every model is run through the seven
model commands, text and ``--json``, each with its CLI defaults, and each
run gives one line: model, command, format, exit code, and the sha256 of
stdout and of stderr.  Two checkouts answer alike exactly when their
outputs diff empty::

    python3 tools/cli_digests.py /path/to/parent > before.txt
    python3 tools/cli_digests.py > after.txt
    diff before.txt after.txt

The models: the presets, ``pairh3`` and ``z2line`` at truncations 0 to 8,
``sl2`` at 1 to 6, ``random_model`` seeds 0 to 39, the pair groupoids on
8 and 9 points (64 and 81 arrows) and three models that ``validate``
rejects; the ``z2line`` and ``pairh3`` presets are rungs of their ladders
and run there (70 models, 980 runs).  Runs go
in-process, from a temporary directory, with the model files named
relatively, so a message that quotes a path is the same on any machine.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

COMMANDS = ("validate", "check-axioms", "primitives", "grouplikes", "spectral", "cgk",
            "roundtrip")


def model_set(models, sl2_model) -> dict:
    """Model name -> document: the ladders, ``random_model`` 0-39, the pair
    groupoids on 8 and 9 points, the invalid models, then each preset that is
    not already a rung of its ladder."""
    docs = {}

    def at(build, n):
        doc = build()
        doc["truncation"] = n
        return doc

    for n in range(9):
        docs[f"pairh3-N{n}"] = at(models.pairh3_model, n)
    for n in range(9):
        docs[f"z2line-N{n}"] = at(models.z2line_model, n)
    for n in range(1, 7):
        docs[f"sl2-N{n}"] = sl2_model(n)
    for seed in range(40):
        docs[f"random-{seed}"] = models.random_model(seed)
    docs["pair8-N1"] = pair_model(8)
    docs["pair9-N1"] = pair_model(9)
    docs |= invalid_models(models)
    for name, build in models.PRESETS.items():
        doc = build()
        if doc not in docs.values():
            docs[name] = doc
    return docs


def pair_model(n: int) -> dict:
    """The pair groupoid on n points, with 1-dimensional abelian fibers, the
    identity action and truncation 1: n * n arrows in one component with
    trivial isotropy, so ``roundtrip`` compares groupoids of that many arrows
    by their components alone.  The arrow from point s to point t is
    ``a{t}{s}``, or ``a{t}_{s}`` above 10 points, where ``a111`` would be
    both (1, 11) and (11, 1)."""
    points = [f"p{i}" for i in range(n)]
    sep = "_" if n > 10 else ""

    def arrow(t, s):
        return f"a{t}{sep}{s}"

    arrows = [arrow(t, s) for t in range(n) for s in range(n)]
    return {
        "format": "hopf-algebroid-model",
        "version": 1,
        "kind": "convolution",
        "base": points,
        "groupoid": {
            "arrows": [{"id": arrow(t, s), "src": points[s], "tgt": points[t]}
                       for t in range(n) for s in range(n)],
            "units": {p: arrow(i, i) for i, p in enumerate(points)},
            "inverse": {arrow(t, s): arrow(s, t) for t in range(n) for s in range(n)},
            "compose": [[arrow(z, y), arrow(y, x), arrow(z, x)]
                        for z in range(n) for y in range(n) for x in range(n)],
        },
        "bundle": [{"point": p, "basis": ["X"], "brackets": []} for p in points],
        "action": [{"arrow": a, "matrix": [[1]]} for a in arrows],
        "truncation": 1,
    }


def invalid_models(models) -> dict:
    """Three models the loader accepts and ``validate`` rejects: ``z2line``
    with [X, X] = X (antisymmetry and Jacobi), the pair groupoid on x and y
    with fibers of dimensions 2 and 1 joined by a projection and an
    inclusion (functoriality), and ``pairh3`` with the unit at x mapped to
    the unit at y (the unit laws)."""
    bracket = models.z2line_model()
    bracket["bundle"][0]["brackets"].append(["X", "X", {"X": 1}])
    arrows = [f"a{t}{s}" for t in "xy" for s in "xy"]
    matrices = {"axx": [[1, 0], [0, 1]], "ayy": [[1]], "ayx": [[1, 0]], "axy": [[1], [0]]}
    uneven = {
        "format": "hopf-algebroid-model",
        "version": 1,
        "kind": "convolution",
        "base": ["x", "y"],
        "groupoid": {
            "arrows": [{"id": a, "src": a[2], "tgt": a[1]} for a in arrows],
            "units": {"x": "axx", "y": "ayy"},
            "inverse": {a: f"a{a[2]}{a[1]}" for a in arrows},
            "compose": [[f"a{z}{y}", f"a{y}{x}", f"a{z}{x}"]
                        for z in "xy" for y in "xy" for x in "xy"],
        },
        "bundle": [{"point": "x", "basis": ["P", "Q"], "brackets": []},
                   {"point": "y", "basis": ["P"], "brackets": []}],
        "action": [{"arrow": a, "matrix": m} for a, m in matrices.items()],
        "truncation": 2,
    }
    misplaced = models.pairh3_model()
    misplaced["groupoid"]["units"]["x"] = "ayy"
    return {"z2line-bracket-XX": bracket, "uneven-orbit": uneven,
            "pairh3-misplaced-unit": misplaced}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(docs: dict):
    """One digest line per (model, command, format), in that order."""
    from finhopf.cli import main
    from finhopf.modelio import model_to_text

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, doc in docs.items():
                path = f"{name}.json"
                Path(path).write_text(model_to_text(doc), encoding="utf-8")
                for command in COMMANDS:
                    for fmt, extra in (("text", []), ("json", ["--json"])):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            try:
                                code = main([command, path, *extra])
                            except SystemExit as exc:
                                code = exc.code
                        yield (f"{name} {command} {fmt} exit={code} "
                               f"out={_sha(out.getvalue())} err={_sha(err.getvalue())}")
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from finhopf import models
    from workloads import sl2_model

    for line in digest_lines(model_set(models, sl2_model)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
