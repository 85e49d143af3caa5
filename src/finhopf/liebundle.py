"""Bundles of finite-dimensional rational Lie algebras over a finite base.

A fiber is a Lie algebra given by its nonzero structure constants in a named
basis; a bundle assigns a fiber to every base point; an action equips every
groupoid arrow with an invertible matrix transporting the source fiber to the
target fiber.  Validation checks antisymmetry, Jacobi, bracket preservation,
unitality and functoriality, and reports each violation by name.  No check
walks a zero structure constant, so a fiber with no brackets costs dim**2
empty rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groupoid import BaseSpace, FiniteGroupoid
from .linalg import QMatrix
from .rationals import add_terms, bilinear, exact, linear


@dataclass(frozen=True)
class LieFiber:
    """A Lie algebra by its nonzero structure constants in a named basis.

    ``terms[i][j]`` lists the ``(k, c)`` with [e_i, e_j] = sum c e_k, in
    order of k, each c nonzero and kept as ``rationals.exact`` returns it.
    The table must be dim x dim, and a row may not name a k out of range or
    twice; zero coefficients are dropped and rows are sorted by k.
    """

    basis: tuple[str, ...]
    terms: tuple
    # The tables of U(fiber), filled by ``enveloping`` on first use and owned
    # by this fiber object; not part of its value.  ``pbw_table`` maps
    # (monomial, generator) to the normal form of m * x_i; ``product_table``
    # maps a monomial pair (m1, m2) with deg m1 + deg m2 within the truncation
    # of some ``mono_mul`` call to the normal form of m1 * m2.
    pbw_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    product_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.basis)
        if len(self.terms) != n or any(len(plane) != n for plane in self.terms):
            raise ValueError("bracket table must be dim x dim")
        table = []
        for plane in self.terms:
            rows = []
            for row in plane:
                coeffs = {}
                for k, c in row:
                    if type(k) is not int or not 0 <= k < n:
                        raise ValueError(f"bracket index {k!r} out of range")
                    if k in coeffs:
                        raise ValueError(f"bracket index {k} repeated")
                    coeffs[k] = exact(c)
                rows.append(tuple((k, c) for k, c in sorted(coeffs.items()) if c))
            table.append(tuple(rows))
        object.__setattr__(self, "terms", tuple(table))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_sparse(cls, basis, entries) -> "LieFiber":
        """Build from sparse entries [(i, j, coeffs)], each coeffs dense.

        A pair (j, i) that is never mentioned defaults to the antisymmetric
        completion of (i, j); mentioning both leaves both verbatim, so
        deliberately broken tables can still be expressed.
        """
        basis = tuple(basis)
        n = len(basis)
        given = {}
        for i, j, coeffs in entries:
            coeffs = tuple(exact(c) for c in coeffs)
            if len(coeffs) != n:
                raise ValueError(f"bracket ({i},{j}) needs {n} coefficients")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            given[i, j] = tuple((k, c) for k, c in enumerate(coeffs) if c)
        table = [[()] * n for _ in range(n)]
        for (i, j), row in given.items():
            table[i][j] = row
            if (j, i) not in given:
                table[j][i] = tuple((k, -c) for k, c in row)
        return cls(basis, table)

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
        # [[e_f, e_s], e_u] has coordinates sum_a c[f][s][a] c[a][u][m], so a
        # triple can fail only where one of its cyclic pairs has a bracket.
        triples = set()
        for i in range(n):
            for j in range(n):
                if t[i][j]:
                    for k in range(n):
                        triples.update(((i, j, k), (k, i, j), (j, k, i)))
        for i, j, k in sorted(triples):
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
