"""Command line interface.

Exit codes: 0 when the requested property holds (valid model, axioms pass,
decomposition holds, round trip matches), 1 when the computation succeeds
but the property fails, 2 when the input cannot be processed at all.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    analyze,
    build_spectral_groupoid,
    roundtrip,
    solve_grouplikes_at,
    solve_primitives,
)
from .algebroid import check_axioms
from .errors import FinhopfError, ModelFormatError
from .modelio import MODEL_SCHEMA, load_carrier, model_to_text, save_model
from .models import PRESETS, build_model

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INPUT_ERROR = 2


def _emit(payload, as_json, text):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_validate(args):
    carrier = load_carrier(args.model)
    violations = carrier.validate()
    payload = {"ok": not violations, "violations": violations}
    text = "valid" if not violations else "\n".join(violations)
    _emit(payload, args.json, text)
    return EXIT_OK if not violations else EXIT_PROPERTY_FAILS


def _cmd_check_axioms(args):
    carrier = load_carrier(args.model)
    report = check_axioms(carrier, samples=args.samples, seed=args.seed)
    _emit(report.to_json(), args.json, report.text())
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _cmd_primitives(args):
    carrier = load_carrier(args.model)
    prim = solve_primitives(carrier)
    payload = {
        "ranks": prim.ranks(),
        "constantRank": prim.constant_rank,
        "sInvariant": prim.s_invariant,
        "sNegates": prim.s_negates,
        "anchorTrivial": prim.anchor_trivial,
        "bracketClosed": prim.bracket_closed,
        "basis": {
            p: [carrier.format_element(b) for b in basis]
            for p, basis in prim.per_point.items()
        },
    }
    lines = []
    for p in carrier.base.points:
        lines.append(f"{p}: rank {prim.rank_at(p)}")
        for b in prim.per_point.get(p, []):
            lines.append(f"  {carrier.format_element(b)}")
    lines.append(
        f"constant rank: {prim.constant_rank}; antipode-invariant: {prim.s_invariant}; "
        f"antipode negates: {prim.s_negates}; anchor trivial: {prim.anchor_trivial}; "
        f"bracket closed: {prim.bracket_closed}"
    )
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _cmd_grouplikes(args):
    carrier = load_carrier(args.model)
    points = [args.point] if args.point else list(carrier.base.points)
    for p in points:
        if p not in carrier.base:
            print(f"unknown point {p!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    payload = {}
    lines = []
    for p in points:
        reps = solve_grouplikes_at(carrier, p)
        payload[p] = [carrier.format_element(r) for r in reps]
        lines.append(f"{p}: {len(reps)} grouplike(s)")
        for r in reps:
            lines.append(f"  {carrier.format_element(r)}")
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _cmd_spectral(args):
    carrier = load_carrier(args.model)
    gsp = build_spectral_groupoid(carrier)
    g = gsp.groupoid
    payload = {
        "points": list(g.base.points),
        "arrows": [
            {"id": a, "src": g.source[a], "tgt": g.target[a],
             "representative": carrier.format_element(gsp.representatives[a])}
            for a in g.arrows
        ],
        "units": dict(g.units),
        "inverse": dict(g.inverse),
        "droppedNonInvariant": gsp.dropped_non_invariant,
    }
    lines = [f"{len(g.arrows)} arrow(s) over {len(g.base.points)} point(s)"]
    for a in g.arrows:
        mark = " (unit)" if g.is_unit(a) else ""
        lines.append(
            f"  {a}: {g.source[a]} -> {g.target[a]}{mark}  "
            f"rep {carrier.format_element(gsp.representatives[a])}"
        )
    if gsp.dropped_non_invariant:
        lines.append(f"dropped {gsp.dropped_non_invariant} non-invariant grouplike(s)")
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _cmd_cgk(args):
    carrier = load_carrier(args.model)
    report = analyze(carrier, samples=args.samples, seed=args.seed).decision
    _emit(report.to_json(), args.json, report.text())
    if report.verdict == "ISO":
        return EXIT_OK
    if report.verdict == "NOT_ISO":
        return EXIT_PROPERTY_FAILS
    return EXIT_INPUT_ERROR


def _cmd_roundtrip(args):
    carrier = load_carrier(args.model)
    report = roundtrip(carrier, samples=args.samples, seed=args.seed)
    lines = [
        f"decision: {report.decision.verdict}",
        f"groupoid reconstructed up to isomorphism: {report.groupoid_isomorphic}",
        f"action matrices match: {report.action_matches}",
        f"primitive ranks match fiber dimensions: {report.rank_matches}",
        f"round trip: {'ok' if report.ok else 'FAIL'}",
    ]
    _emit(report.to_json(), args.json, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _cmd_gen(args):
    try:
        model = build_model(args.preset, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.output:
        save_model(model, args.output)
    else:
        sys.stdout.write(model_to_text(model))
    return EXIT_OK


def _cmd_schema(args):
    print(json.dumps(MODEL_SCHEMA, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finhopf",
        description="Exact Hopf algebroids over finite bases: build, verify, decompose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, model=True):
        p = sub.add_parser(name, help=help_text)
        if model:
            p.add_argument("model", help="path to a model JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "check the structural laws of a model")

    p = add("check-axioms", _cmd_check_axioms, "run the Hopf axiom suite")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)

    add("primitives", _cmd_primitives, "solve for the primitive module")

    p = add("grouplikes", _cmd_grouplikes, "enumerate normalized grouplike germs")
    p.add_argument("--point", help="restrict to one base point")

    add("spectral", _cmd_spectral, "reconstruct the spectral groupoid")

    p = add("cgk", _cmd_cgk, "decide the Cartier-Gabriel-Kostant decomposition")
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--seed", type=int, default=11)

    p = add("roundtrip", _cmd_roundtrip,
            "rebuild groupoid and action from a constructed model and compare")
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser("gen", help="emit a built-in model")
    p.add_argument("--preset", required=True,
                   choices=sorted(PRESETS) + ["random"])
    p.add_argument("--seed", type=int, default=0, help="seed for the random preset")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("schema", help="print the model file schema")
    p.set_defaults(fn=_cmd_schema)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FinhopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
