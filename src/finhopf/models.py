"""Built-in model documents: fixed presets and a seeded random generator.

Every function returns a plain model dict in the file format of
:mod:`finhopf.modelio`; nothing here touches carrier classes directly, so a
generated model exercises the same loading path as a hand-written file.
"""

from __future__ import annotations

import itertools
import random

from .linalg import QMatrix
from .modelio import FORMAT_NAME, FORMAT_VERSION, scalar_to_json


def _header(kind, base):
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "base": list(base),
    }


def z2line_model():
    """A sign flip on a line: one point, one reflection, a 1-dim abelian fiber."""
    model = _header("convolution", ["x"])
    model["groupoid"] = {
        "arrows": [
            {"id": "e", "src": "x", "tgt": "x"},
            {"id": "s", "src": "x", "tgt": "x"},
        ],
        "units": {"x": "e"},
        "inverse": {"e": "e", "s": "s"},
        "compose": [
            ["e", "e", "e"],
            ["e", "s", "s"],
            ["s", "e", "s"],
            ["s", "s", "e"],
        ],
    }
    model["bundle"] = [{"point": "x", "basis": ["X"], "brackets": []}]
    model["action"] = [
        {"arrow": "e", "matrix": [[1]]},
        {"arrow": "s", "matrix": [[-1]]},
    ]
    model["truncation"] = 4
    return model


def pairh3_model():
    """The pair groupoid on two points carrying Heisenberg fibers."""
    points = ["x", "y"]
    model = _header("convolution", points)
    arrows = []
    for tgt in points:
        for src in points:
            arrows.append({"id": f"a{tgt}{src}", "src": src, "tgt": tgt})
    compose = []
    for z in points:
        for y in points:
            for x in points:
                compose.append([f"a{z}{y}", f"a{y}{x}", f"a{z}{x}"])
    model["groupoid"] = {
        "arrows": arrows,
        "units": {p: f"a{p}{p}" for p in points},
        "inverse": {f"a{t}{s}": f"a{s}{t}" for t in points for s in points},
        "compose": compose,
    }
    model["bundle"] = [
        {"point": p, "basis": ["P", "Q", "Z"], "brackets": [["P", "Q", {"Z": 1}]]}
        for p in points
    ]
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    model["action"] = [{"arrow": a["id"], "matrix": eye3} for a in arrows]
    model["truncation"] = 4
    return model


def funs3_model():
    """Functions on the symmetric group S3, as structure tables over one point.

    Pointwise product, coproduct dual to composition, counit at the identity,
    antipode by inversion.  Primitives vanish and only the two sign characters
    are grouplike, so the decomposition fails with an explicit witness.
    """
    perms = sorted(itertools.permutations(range(3)))

    def name(p):
        return "d" + "".join(str(i) for i in p)

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    def invert(p):
        out = [0, 0, 0]
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    identity = (0, 1, 2)
    model = _header("table", ["pt"])
    basis = [{"id": name(p), "target": "pt"} for p in perms]
    mul = [[name(p), name(p), {name(p): 1}] for p in perms]
    delta = {
        name(g): [[name(h), name(k), 1] for h in perms for k in perms
                  if compose(h, k) == g]
        for g in perms
    }
    model["table"] = {
        "basis": basis,
        "baseEmbedding": {"pt": {name(p): 1 for p in perms}},
        "mul": mul,
        "delta": delta,
        "counit": {name(identity): 1},
        "antipode": {name(p): {name(invert(p)): 1} for p in perms},
    }
    return model


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

_FIBER_KINDS = (
    ("abelian0", (), []),
    ("abelian1", ("X",), []),
    ("abelian2", ("X", "Y"), []),
    ("heisenberg", ("P", "Q", "Z"), [["P", "Q", {"Z": 1}]]),
)

_MAX_ARROWS = 8


def _automorphism_pool(kind, rng):
    """A random invertible, bracket-preserving matrix for the fiber kind."""
    if kind == "abelian0":
        return []
    if kind == "abelian1":
        return [[rng.choice([1, -1, 2])]]
    if kind == "abelian2":
        while True:
            m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                return m
    # Heisenberg: the block on (P, Q) is free, Z scales by its determinant.
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        det = a * d - b * c
        if det:
            e, f = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
            return [[a, b, 0], [c, d, 0], [e, f, det]]


def _isotropy_generator(kind, order):
    """A rational automorphism of exact order dividing ``order``."""
    if order == 1:
        return None
    if order == 2:
        return {
            "abelian0": [],
            "abelian1": [[-1]],
            "abelian2": [[-1, 0], [0, -1]],
            "heisenberg": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
        }[kind]
    # order 3: needs a plane; low-dimensional fibers only carry the trivial one
    return {
        "abelian0": [],
        "abelian1": [[1]],
        "abelian2": [[0, -1], [1, -1]],
        "heisenberg": [[0, -1, 0], [1, -1, 0], [0, 0, 1]],
    }[kind]


def random_model(seed: int):
    """A seeded valid instance: orbits of a pair groupoid with cyclic isotropy.

    All fibers share one kind; the action is a functor by construction, built
    from per-point automorphisms conjugating a single isotropy representation.
    The arrow count stays at most 8 and Heisenberg instances use truncation 3
    to keep every downstream computation quick.
    """
    rng = random.Random(seed)
    n_points = rng.randint(1, 3)
    points = [f"p{i}" for i in range(n_points)]

    remaining = list(points)
    orbits = []
    while remaining:
        size = rng.choice([1, 2]) if len(remaining) >= 2 else 1
        orbits.append([remaining.pop(0) for _ in range(size)])

    kind, basis, brackets = _FIBER_KINDS[rng.randrange(len(_FIBER_KINDS))]
    dim = len(basis)

    orders = []
    used = 0
    for i, orbit in enumerate(orbits):
        later_min = sum(len(o) ** 2 for o in orbits[i + 1:])
        feasible = [
            m for m in (1, 2, 3)
            if used + len(orbit) ** 2 * m + later_min <= _MAX_ARROWS
        ]
        order = rng.choice(feasible)
        orders.append(order)
        used += len(orbit) ** 2 * order

    arrows = []
    units = {}
    inverse = {}
    compose = []
    action = []
    for orbit, order in zip(orbits, orders):
        tau = {p: QMatrix(_automorphism_pool(kind, rng)) for p in orbit}
        # Pool matrices are invertible over the rationals by construction.
        tau_inv = {p: tau[p].inverse() for p in orbit}
        phi = _isotropy_generator(kind, order)
        powers = [QMatrix.identity(dim)]
        while len(powers) < order:
            powers.append(powers[-1] * QMatrix(phi))

        def arrow_id(tgt, h, src):
            return f"{tgt}.{h}.{src}"

        def matrix_of(tgt, h, src):
            m = tau[tgt] * powers[h] * tau_inv[src]
            return [[scalar_to_json(c) for c in row] for row in m.data]

        for tgt in orbit:
            for src in orbit:
                for h in range(order):
                    g = arrow_id(tgt, h, src)
                    arrows.append({"id": g, "src": src, "tgt": tgt})
                    inverse[g] = arrow_id(src, (-h) % order, tgt)
                    action.append({"arrow": g, "matrix": matrix_of(tgt, h, src)})
        for p in orbit:
            units[p] = arrow_id(p, 0, p)
        for z in orbit:
            for y in orbit:
                for x in orbit:
                    for h2 in range(order):
                        for h1 in range(order):
                            compose.append([
                                arrow_id(z, h2, y),
                                arrow_id(y, h1, x),
                                arrow_id(z, (h2 + h1) % order, x),
                            ])

    model = _header("convolution", points)
    model["groupoid"] = {
        "arrows": arrows,
        "units": units,
        "inverse": inverse,
        "compose": compose,
    }
    model["bundle"] = [
        {"point": p, "basis": list(basis), "brackets": [[a, b, dict(c)] for a, b, c in brackets]}
        for p in points
    ]
    model["action"] = action
    model["truncation"] = 3 if kind == "heisenberg" else 4
    return model


PRESETS = {
    "z2line": z2line_model,
    "pairh3": pairh3_model,
    "funs3": funs3_model,
}


def build_model(preset: str, seed: int = 0):
    """Dispatch on preset name; ``random`` consumes the seed."""
    if preset == "random":
        return random_model(seed)
    if preset in PRESETS:
        return PRESETS[preset]()
    raise ValueError(f"unknown preset {preset!r}; choose from "
                     f"{sorted(PRESETS) + ['random']}")
