"""Model files: a JSON format for algebroids, exact in rational arithmetic.

A model is a plain dict (the JSON document) with a ``kind`` of either
``convolution`` (a groupoid acting on a Lie algebra bundle, plus a truncation
bound) or ``table`` (explicit structure tables for a finite-dimensional
algebroid).  Scalars are JSON integers or strings like ``"-3/4"``; floats are
rejected so no rounding can enter through a file.  Each structure table lists
a pair at most once; a repeated pair is a format error, never a silent override.

Loading only checks the format and structural coherence; semantic laws
(groupoid axioms, action functoriality, the Hopf axioms) are checked by the
``validate`` and ``check-axioms`` commands so that deliberately broken
models can be loaded and diagnosed.
"""

from __future__ import annotations

import json

from .algebroid import ConvolutionAlgebroid, HopfAlgebroid, TableAlgebroid
from .errors import CoherenceError, FinhopfError, ModelFormatError
from .groupoid import BaseSpace, FiniteGroupoid
from .liebundle import BundleAction, LieBundle, LieFiber
from .linalg import QMatrix
from .rationals import rat, rat_str

FORMAT_NAME = "hopf-algebroid-model"
FORMAT_VERSION = 1

MODEL_SCHEMA = {
    "format": FORMAT_NAME,
    "version": FORMAT_VERSION,
    "kind": "convolution | table",
    "base": ["point identifiers, ordered"],
    "scalars": "integers or strings like '-3/4'; floats are rejected",
    "convolution": {
        "groupoid": {
            "arrows": [{"id": "arrow id", "src": "point", "tgt": "point"}],
            "units": {"point": "arrow id of the unit"},
            "inverse": {"arrow id": "arrow id"},
            "compose": [["g", "h", "g after h"]],
        },
        "bundle": [
            {
                "point": "point",
                "basis": ["generator names"],
                "brackets": [["left name", "right name", {"name": "coefficient"}]],
            }
        ],
        "action": [{"arrow": "arrow id", "matrix": [["rows of scalars"]]}],
        "truncation": "nonnegative integer degree bound",
    },
    "table": {
        "basis": [{"id": "label", "target": "point"}],
        "baseEmbedding": {"point": {"label": "coefficient"}},
        "mul": [["left label", "right label", {"label": "coefficient"}]],
        "delta": {"label": [["left label", "right label", "coefficient"]]},
        "counit": {"label": "coefficient"},
        "antipode": {"label": {"label": "coefficient"}},
    },
}


def scalar_to_json(value):
    value = rat(value)
    return int(value) if value.denominator == 1 else rat_str(value)


def _scalar(value, path):
    if isinstance(value, float):
        raise ModelFormatError(path, "floats are not accepted; use 'p/q' strings")
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(path, f"not a rational scalar: {exc}") from None


def _expect(cond, path, message):
    if not cond:
        raise ModelFormatError(path, message)


def _unique(table, pair, path, what):
    """Reject a second entry for the same pair instead of letting the last one win."""
    _expect(pair not in table, path, f"duplicate {what} for {list(pair)!r}")


def _get(obj, key, path, kind=None):
    _expect(isinstance(obj, dict), path, "expected an object")
    if key not in obj:
        raise ModelFormatError(f"{path}.{key}", "missing field")
    value = obj[key]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ModelFormatError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _names(values, path, what):
    for i, v in enumerate(values):
        _expect(isinstance(v, str), f"{path}[{i}]", f"{what} must be a string")


def _base_space(model):
    points = _get(model, "base", "model", list)
    _expect(bool(points), "model.base", "at least one point required")
    _names(points, "model.base", "point")
    try:
        return BaseSpace(tuple(points))
    except ValueError as exc:
        raise ModelFormatError("model.base", str(exc)) from None


def _groupoid(model, base):
    g = _get(model, "groupoid", "model", dict)
    arrows = []
    source, target = {}, {}
    for i, entry in enumerate(_get(g, "arrows", "model.groupoid", list)):
        path = f"model.groupoid.arrows[{i}]"
        arrows.append(_get(entry, "id", path, str))
        source[arrows[-1]] = _get(entry, "src", path, str)
        target[arrows[-1]] = _get(entry, "tgt", path, str)
    units = _get(g, "units", "model.groupoid", dict)
    inverse = _get(g, "inverse", "model.groupoid", dict)
    for key, table in (("units", units), ("inverse", inverse)):
        for k, v in table.items():
            _expect(isinstance(v, str), f"model.groupoid.{key}.{k}",
                    "arrow id must be a string")
    compose = {}
    for i, entry in enumerate(_get(g, "compose", "model.groupoid", list)):
        path = f"model.groupoid.compose[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 3, path,
                "expected [g, h, g after h]")
        _names(entry, path, "arrow id")
        _unique(compose, (entry[0], entry[1]), path, "composite")
        compose[(entry[0], entry[1])] = entry[2]
    try:
        return FiniteGroupoid(base, arrows, source, target, units, inverse, compose)
    except ValueError as exc:
        raise ModelFormatError("model.groupoid", str(exc)) from None


def _fiber(entry, path):
    basis = _get(entry, "basis", path, list)
    _names(basis, f"{path}.basis", "name")
    index = {n: i for i, n in enumerate(basis)}
    _expect(len(index) == len(basis), f"{path}.basis", "duplicate generator names")
    sparse = {}
    for i, br in enumerate(_get(entry, "brackets", path, list)):
        bpath = f"{path}.brackets[{i}]"
        _expect(isinstance(br, list) and len(br) == 3, bpath,
                "expected [left, right, coefficients]")
        left, right, coeffs = br
        _names(br[:2], bpath, "generator")
        _expect(left in index, bpath, f"unknown generator {left!r}")
        _expect(right in index, bpath, f"unknown generator {right!r}")
        _unique(sparse, (left, right), bpath, "bracket")
        _expect(isinstance(coeffs, dict), bpath, "coefficients must be an object")
        dense = [0] * len(basis)
        for name, c in coeffs.items():
            _expect(name in index, f"{bpath}.{name}", f"unknown generator {name!r}")
            dense[index[name]] = _scalar(c, f"{bpath}.{name}")
        sparse[(left, right)] = (index[left], index[right], tuple(dense))
    return LieFiber.from_sparse(tuple(basis), sparse.values())


def _bundle(model, base):
    entries = _get(model, "bundle", "model", list)
    by_point = {}
    for i, entry in enumerate(entries):
        path = f"model.bundle[{i}]"
        point = _get(entry, "point", path, str)
        _expect(point in base, f"{path}.point", f"unknown point {point!r}")
        _expect(point not in by_point, f"{path}.point", f"duplicate fiber for {point!r}")
        by_point[point] = _fiber(entry, path)
    missing = [p for p in base.points if p not in by_point]
    _expect(not missing, "model.bundle", f"missing fibers for points {missing}")
    return LieBundle(base, tuple(by_point[p] for p in base.points))


def _matrix(value, path):
    _expect(isinstance(value, list), path, "matrix must be a list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        _expect(isinstance(row, list), f"{path}[{i}]", "row must be a list")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{path}[{i}]", "ragged matrix rows")
        rows.append([_scalar(c, f"{path}[{i}][{j}]") for j, c in enumerate(row)])
    return QMatrix(rows, cols=width or 0)


def _action(model, groupoid, bundle):
    entries = _get(model, "action", "model", list)
    matrices = {}
    for i, entry in enumerate(entries):
        path = f"model.action[{i}]"
        arrow = _get(entry, "arrow", path, str)
        _expect(arrow in set(groupoid.arrows), f"{path}.arrow", f"unknown arrow {arrow!r}")
        _expect(arrow not in matrices, f"{path}.arrow", f"duplicate matrix for {arrow!r}")
        matrices[arrow] = _matrix(_get(entry, "matrix", path), f"{path}.matrix")
    missing = [g for g in groupoid.arrows if g not in matrices]
    _expect(not missing, "model.action", f"missing matrices for arrows {missing}")
    return BundleAction(groupoid, bundle, matrices)


def _coeff_map(value, path):
    _expect(isinstance(value, dict), path, "expected an object of coefficients")
    return {name: _scalar(c, f"{path}.{name}") for name, c in value.items()}


def _table_carrier(model, base):
    t = _get(model, "table", "model", dict)
    names = []
    targets = {}
    for i, entry in enumerate(_get(t, "basis", "model.table", list)):
        path = f"model.table.basis[{i}]"
        name = _get(entry, "id", path, str)
        names.append(name)
        targets[name] = _get(entry, "target", path, str)
    r_embed = {}
    for point, v in _get(t, "baseEmbedding", "model.table", dict).items():
        r_embed[point] = _coeff_map(v, f"model.table.baseEmbedding.{point}")
    mul_table = {}
    for i, entry in enumerate(_get(t, "mul", "model.table", list)):
        path = f"model.table.mul[{i}]"
        _expect(isinstance(entry, list) and len(entry) == 3, path,
                "expected [left, right, coefficients]")
        _names(entry[:2], path, "label")
        _unique(mul_table, (entry[0], entry[1]), path, "product")
        mul_table[(entry[0], entry[1])] = _coeff_map(entry[2], path)
    delta_table = {}
    for name, entries in _get(t, "delta", "model.table", dict).items():
        path = f"model.table.delta.{name}"
        _expect(isinstance(entries, list), path, "expected a list of triples")
        clean = {}
        for i, entry in enumerate(entries):
            _expect(isinstance(entry, list) and len(entry) == 3, f"{path}[{i}]",
                    "expected [left, right, coefficient]")
            _names(entry[:2], f"{path}[{i}]", "label")
            _unique(clean, (entry[0], entry[1]), f"{path}[{i}]", "coproduct term")
            clean[(entry[0], entry[1])] = _scalar(entry[2], f"{path}[{i}]")
        delta_table[name] = clean
    counit_table = {
        name: _scalar(c, f"model.table.counit.{name}")
        for name, c in _get(t, "counit", "model.table", dict).items()
    }
    antipode_table = {
        name: _coeff_map(v, f"model.table.antipode.{name}")
        for name, v in _get(t, "antipode", "model.table", dict).items()
    }
    try:
        return TableAlgebroid(base, names, targets, r_embed, mul_table,
                              delta_table, counit_table, antipode_table)
    except CoherenceError as exc:
        raise ModelFormatError("model.table", str(exc)) from None


def carrier_from_model(model) -> HopfAlgebroid:
    """Build the algebroid a model document describes."""
    _expect(isinstance(model, dict), "model", "expected a JSON object")
    name = _get(model, "format", "model", str)
    _expect(name == FORMAT_NAME, "model.format", f"expected {FORMAT_NAME!r}")
    version = _get(model, "version", "model", int)
    _expect(version == FORMAT_VERSION, "model.version",
            f"only version {FORMAT_VERSION} is supported")
    kind = _get(model, "kind", "model", str)
    base = _base_space(model)
    if kind == "convolution":
        groupoid = _groupoid(model, base)
        bundle = _bundle(model, base)
        action = _action(model, groupoid, bundle)
        truncation = _get(model, "truncation", "model", int)
        _expect(truncation >= 0, "model.truncation", "must be nonnegative")
        try:
            return ConvolutionAlgebroid(groupoid, bundle, action, truncation)
        except FinhopfError as exc:
            raise ModelFormatError("model", str(exc)) from None
    if kind == "table":
        return _table_carrier(model, base)
    raise ModelFormatError("model.kind", f"unknown kind {kind!r}")


def validate_model(model) -> None:
    """Raise ModelFormatError when the document cannot describe an algebroid."""
    carrier_from_model(model)


def model_to_text(model) -> str:
    return json.dumps(model, indent=2, sort_keys=True) + "\n"


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def _read_document(path):
    """The parsed JSON document at ``path``, not yet validated as a model;
    a key repeated in one JSON object is an error, not a silent override."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ModelFormatError(str(path), f"duplicate JSON key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ModelFormatError(str(path), f"cannot read file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(str(path), f"invalid JSON: {exc}") from None


def load_model(path):
    document = _read_document(path)
    validate_model(document)
    return document


def load_carrier(path) -> HopfAlgebroid:
    # Building the carrier validates the document, so it is built only once.
    return carrier_from_model(_read_document(path))
