"""Bundles of finite-dimensional rational Lie algebras over a finite base.

A fiber is a Lie algebra given by structure constants in a named basis; a
bundle assigns a fiber to every base point; an action equips every groupoid
arrow with an invertible matrix transporting the source fiber to the target
fiber.  Validation checks antisymmetry, Jacobi, bracket preservation,
unitality and functoriality, and reports each violation by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .groupoid import BaseSpace, FiniteGroupoid
from .linalg import QMatrix
from .rationals import add_terms, bilinear, linear, rat

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LieFiber:
    """Structure constants c[i][j][k] in a named basis: [e_i, e_j] = sum c[i][j][k] e_k."""

    basis: tuple[str, ...]
    brackets: tuple[tuple[tuple[Fraction, ...], ...], ...]
    # terms[i][j]: the (k, c[i][j][k]) with c[i][j][k] != 0, in order of k.
    terms: tuple = field(init=False, repr=False, compare=False)
    # The tables of U(fiber), filled by ``enveloping`` on first use and owned
    # by this fiber object; not part of its value.  ``pbw_table`` maps
    # (monomial, generator) to the normal form of m * x_i; ``product_table``
    # maps a monomial pair (m1, m2) with deg m1 + deg m2 within the truncation
    # of some ``mono_mul`` call to the normal form of m1 * m2.
    pbw_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    product_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.basis)
        table = tuple(
            tuple(tuple(rat(c) for c in row) for row in plane)
            for plane in self.brackets
        )
        if len(table) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in table
        ):
            raise ValueError("bracket table must be dim x dim x dim")
        object.__setattr__(self, "brackets", table)
        object.__setattr__(self, "terms", tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
            for plane in table))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_sparse(cls, basis, entries) -> "LieFiber":
        """Build from sparse entries [(i, j, coeffs)].

        A pair (j, i) that is never mentioned defaults to the antisymmetric
        completion of (i, j); mentioning both leaves both verbatim, so
        deliberately broken tables can still be expressed.
        """
        basis = tuple(basis)
        n = len(basis)
        table = [[None] * n for _ in range(n)]
        for i, j, coeffs in entries:
            coeffs = tuple(rat(c) for c in coeffs)
            if len(coeffs) != n:
                raise ValueError(f"bracket ({i},{j}) needs {n} coefficients")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            table[i][j] = coeffs
        for i in range(n):
            for j in range(n):
                if table[i][j] is None:
                    if table[j][i] is not None and i != j:
                        table[i][j] = tuple(-c for c in table[j][i])
                    else:
                        table[i][j] = tuple(_ZERO for _ in range(n))
        return cls(basis, tuple(tuple(row for row in plane) for plane in table))

    def bracket_coeffs(self, i, j) -> tuple[Fraction, ...]:
        return self.brackets[i][j]

    def bracket_of_vectors(self, u, v) -> tuple[Fraction, ...]:
        n = self.dim
        out = [_ZERO] * n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self.brackets[i][j]):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def validate(self) -> list[str]:
        report = []
        n = self.dim
        t = self.terms
        for i in range(n):
            for j in range(n):
                if t[i][j] != tuple((k, -c) for k, c in t[j][i]):
                    report.append(
                        f"antisymmetry fails on ({self.basis[i]}, {self.basis[j]})"
                    )
        # [[e_f, e_s], e_u] has coordinates sum_a c[f][s][a] c[a][u][m].
        for i, j, k in itertools.product(range(n), repeat=3):
            acc = {}
            for f, s, u in ((i, j, k), (j, k, i), (k, i, j)):
                for a, x in t[f][s]:
                    add_terms(acc, ((m, x * y) for m, y in t[a][u]))
            if acc:
                report.append(
                    f"Jacobi fails on ({self.basis[i]}, {self.basis[j]}, {self.basis[k]})"
                )
        return report


@dataclass(frozen=True)
class LieBundle:
    base: BaseSpace
    fibers: tuple[LieFiber, ...]  # aligned with base.points

    def __post_init__(self):
        if len(self.fibers) != len(self.base.points):
            raise ValueError("one fiber per base point required")

    def fiber(self, point: str) -> LieFiber:
        return self.fibers[self.base.index(point)]

    def validate(self) -> list[str]:
        report = []
        for point, fiber in zip(self.base.points, self.fibers):
            report.extend(f"fiber {point!r}: {msg}" for msg in fiber.validate())
        return report


@dataclass(frozen=True)
class BundleAction:
    """An arrow-indexed family of fiber transports."""

    groupoid: FiniteGroupoid
    bundle: LieBundle
    matrices: dict  # arrow id -> QMatrix, source fiber -> target fiber

    def matrix(self, arrow: str) -> QMatrix:
        return self.matrices[arrow]

    def validate(self) -> list[str]:
        report = []
        g = self.groupoid
        missing = set(g.arrows) - set(self.matrices)
        if missing:
            report.append(f"no matrix for arrows {sorted(missing)}")
        for arrow in g.arrows:
            m = self.matrices.get(arrow)
            if m is None:
                continue
            src = self.bundle.fiber(g.source[arrow])
            tgt = self.bundle.fiber(g.target[arrow])
            if m.rows != tgt.dim or m.cols != src.dim:
                report.append(
                    f"matrix of {arrow!r} is {m.rows}x{m.cols}, expected {tgt.dim}x{src.dim}"
                )
                continue
            if tgt.dim == src.dim and not m.is_invertible():
                report.append(f"matrix of {arrow!r} is singular")
                continue
            columns = [[(r, x) for r, x in enumerate(m.column(k)) if x]
                       for k in range(src.dim)]
            for i in range(src.dim):
                for j in range(i + 1, src.dim):
                    lhs = linear(src.terms[i][j], columns.__getitem__)
                    rhs = bilinear(columns[i], columns[j], lambda a, b: tgt.terms[a][b])
                    if lhs != rhs:
                        report.append(
                            f"matrix of {arrow!r} does not preserve the bracket "
                            f"({src.basis[i]}, {src.basis[j]})"
                        )
        for x in g.base.points:
            u = g.units[x]
            m = self.matrices.get(u)
            if m is not None and m != QMatrix.identity(self.bundle.fiber(x).dim):
                report.append(f"unit arrow {u!r} does not act as the identity")
        for (g1, g2), g12 in g.compose_table.items():
            m1, m2, m12 = (self.matrices.get(a) for a in (g1, g2, g12))
            if None in (m1, m2, m12):
                continue
            if m1.cols != m2.rows:
                continue  # shape errors already reported above
            if m1 * m2 != m12:
                report.append(f"functoriality fails on ({g1!r}, {g2!r})")
        return report
