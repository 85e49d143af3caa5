"""Lie fibers, bundles, and groupoid actions: validators catch each law."""

import random
from fractions import Fraction

import pytest

from finhopf.groupoid import BaseSpace
from finhopf.liebundle import BundleAction, LieBundle, LieFiber
from finhopf.linalg import QMatrix

from test_groupoid import pair_groupoid, z2


def heisenberg():
    """A fresh Heisenberg fiber, [P, Q] = Z."""
    return LieFiber.from_sparse(("P", "Q", "Z"), [(0, 1, (0, 0, 1))])


def abelian(basis):
    """The abelian fiber on ``basis``: every bracket is zero."""
    return LieFiber.from_sparse(basis, [])


def dense(fiber):
    """The fiber's dim x dim x dim table of structure constants, zeros included."""
    n = fiber.dim
    table = []
    for plane in fiber.terms:
        rows = []
        for row in plane:
            coeffs = [Fraction(0)] * n
            for k, c in row:
                coeffs[k] = Fraction(c)
            rows.append(tuple(coeffs))
        table.append(tuple(rows))
    return tuple(table)


def dense_bracket(table, u, v):
    """[u, v] as a dense vector, from a dense table of structure constants."""
    n = len(table)
    return tuple(sum((u[i] * v[j] * table[i][j][k] for i in range(n) for j in range(n)),
                     Fraction(0))
                 for k in range(n))


def dense_matvec(m, v):
    """The product of a QMatrix with a dense vector, entry by entry."""
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m.data)


def test_heisenberg_structure():
    h = heisenberg()
    assert h.dim == 3
    assert h.basis == ("P", "Q", "Z")
    assert h.terms[0][1] == ((2, 1),) and dense(h)[0][1] == (0, 0, 1)
    assert h.terms[1][0] == ((2, -1),) and dense(h)[1][0] == (0, 0, -1)
    assert h.validate() == []
    # [P+Q, Q] = [P,Q] = Z
    assert dense_bracket(dense(h), (1, 1, 0), (0, 1, 0)) == (0, 0, Fraction(1))


def test_abelian_fiber():
    a = abelian(("X", "Y"))
    assert a.validate() == []
    assert a.terms == (((), ()), ((), ()))
    assert dense_bracket(dense(a), (1, 0), (0, 1)) == (0, 0)
    zero = abelian(())
    assert zero.dim == 0 and zero.validate() == []


def test_from_sparse_antisymmetric_completion():
    # the affine algebra [A,B] = A; the mirror entry is filled automatically
    f = LieFiber.from_sparse(("A", "B"), [(0, 1, (1, 0))])
    assert f.terms[1][0] == ((0, -1),) and dense(f)[1][0] == (-1, 0)
    assert f.validate() == []


def test_terms_are_checked_sorted_and_zero_free():
    with pytest.raises(ValueError, match="dim x dim"):
        LieFiber(("A", "B"), [[(), ()]])
    with pytest.raises(ValueError, match="dim x dim"):
        LieFiber(("A", "B"), [[(), ()], [()]])
    with pytest.raises(ValueError, match="out of range"):
        LieFiber(("A", "B"), [[(), ((2, 1),)], [(), ()]])
    with pytest.raises(ValueError, match="out of range"):
        LieFiber(("A", "B"), [[(), ((-1, 1),)], [(), ()]])
    with pytest.raises(ValueError, match="repeated"):
        LieFiber(("A", "B"), [[(), ((0, 1), (0, 2))], [(), ()]])
    f = LieFiber(("A", "B"), [[((1, 0),), ((1, "1/2"), (0, 0))], [((1, Fraction(-1, 2)),), ()]])
    assert f.terms == (((), ((1, Fraction(1, 2)),)), (((1, Fraction(-1, 2)),), ()))
    # coefficients are kept as ``exact`` gives them, rows in order of k
    g = LieFiber(("A", "B"), [[(), ((1, Fraction(3)), (0, -1))], [((0, 1), (1, -3)), ()]])
    assert g.terms[0][1] == ((0, -1), (1, 3)) and type(g.terms[0][1][1][1]) is int


def test_zeros_given_densely_or_omitted_make_equal_fibers():
    basis = ("P", "Q", "Z")
    dense_zeros = LieFiber.from_sparse(basis, [(0, 1, (0, 0, 1)), (0, 2, (0, 0, 0)),
                                               (2, 2, (0, 0, 0))])
    assert dense_zeros == heisenberg()
    assert dense_zeros == LieFiber(basis, [[(), ((2, 1),), ()], [((2, -1),), (), ()],
                                           [(), (), ()]])
    assert abelian(basis) == LieFiber.from_sparse(basis, [(1, 2, (0, 0, 0))])


def test_a_wide_abelian_fiber_stores_only_empty_rows():
    fiber = abelian(tuple(f"X{i}" for i in range(60)))
    assert fiber.terms == (((),) * 60,) * 60
    assert fiber.validate() == []


def test_from_sparse_keeps_explicit_violations():
    # mentioning both (i,j) and (j,i) leaves them verbatim
    f = LieFiber.from_sparse(("A", "B"), [(0, 1, (0, 1)), (1, 0, (0, 1))])
    assert any("antisymmetry" in v for v in f.validate())


def test_jacobi_violation_detected():
    # [A,B]=C, [B,C]=A, [C,A]=A breaks Jacobi
    f = LieFiber.from_sparse(
        ("A", "B", "C"),
        [(0, 1, (0, 0, 1)), (1, 2, (1, 0, 0)), (2, 0, (1, 0, 0))],
    )
    assert any("Jacobi" in v for v in f.validate())


def reference_validate(fiber):
    """The violation list as ``LieFiber.validate`` built it by bracketing each
    inner bracket with a unit vector."""
    report, n, c = [], fiber.dim, dense(fiber)
    for i in range(n):
        for j in range(n):
            if c[i][j] != tuple(-x for x in c[j][i]):
                report.append(f"antisymmetry fails on ({fiber.basis[i]}, {fiber.basis[j]})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = [Fraction(0)] * n
                for first, second, third in ((i, j, k), (j, k, i), (k, i, j)):
                    unit = tuple(Fraction(int(t == third)) for t in range(n))
                    term = dense_bracket(c, c[first][second], unit)
                    acc = [a + b for a, b in zip(acc, term)]
                if any(acc):
                    report.append("Jacobi fails on "
                                  f"({fiber.basis[i]}, {fiber.basis[j]}, {fiber.basis[k]})")
    return report


def test_jacobi_violations_match_bracketing_with_unit_vectors():
    """Seeded random tables, antisymmetric by completion or with both
    entries of a pair drawn: the violation list, messages and order, is the
    one bracketing with unit vectors gives."""
    rng = random.Random(28)
    scalars = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3))
    reports = []
    for _ in range(120):
        n = rng.randint(0, 4)
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j or rng.random() < 0.1]
        entries = [(i, j, tuple(rng.choice(scalars) for _ in range(n)))
                   for i, j in pairs if rng.random() < 0.6]
        fiber = LieFiber.from_sparse([f"e{k}" for k in range(n)], entries)
        reports.append(fiber.validate())
        assert reports[-1] == reference_validate(fiber), entries
    jacobi = [any(v.startswith("Jacobi") for v in r) for r in reports]
    assert any(jacobi) and not all(jacobi)


def test_bundle_validation():
    base = BaseSpace(("x", "y"))
    bundle = LieBundle(base, (heisenberg(), heisenberg()))
    assert bundle.validate() == []
    assert bundle.fiber("x").basis == ("P", "Q", "Z")


def test_action_valid_identity():
    g = pair_groupoid(["x", "y"])
    bundle = LieBundle(g.base, (heisenberg(), heisenberg()))
    eye = QMatrix.identity(3)
    action = BundleAction(g, bundle, {a: eye for a in g.arrows})
    assert action.validate() == []


def test_action_sign_flip_valid():
    g = z2()
    bundle = LieBundle(g.base, (abelian(("X",)),))
    action = BundleAction(
        g, bundle, {"e": QMatrix.identity(1), "s": QMatrix([[-1]])}
    )
    assert action.validate() == []


def test_action_catches_non_bracket_preserving():
    g = z2()
    bundle = LieBundle(g.base, (heisenberg(),))
    bad = QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])  # Z -> -Z but [P,Q]=Z fixed
    action = BundleAction(g, bundle, {"e": QMatrix.identity(3), "s": bad})
    assert any("bracket" in v for v in action.validate())


def test_bracket_preservation_matches_the_dense_check():
    """Seeded random fibers and matrices on the sign flip: the messages of
    bracket preservation, and their order, are those of comparing m [e_i, e_j]
    with [m e_i, m e_j] as dense vectors."""
    rng = random.Random(34)
    scalars = (0, 0, 0, 1, -1, 2, Fraction(1, 2))
    g = z2()
    caught = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        entries = [(i, j, tuple(rng.choice(scalars) for _ in range(n)))
                   for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        fiber = LieFiber.from_sparse([f"e{k}" for k in range(n)], entries)
        m = QMatrix([[rng.choice(scalars) for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.3:
            m = QMatrix.identity(n)
        action = BundleAction(g, LieBundle(g.base, (fiber,)), {"e": QMatrix.identity(n), "s": m})
        c, expected = dense(fiber), []
        if m.is_invertible():
            for i in range(n):
                for j in range(i + 1, n):
                    u, v = m.column(i), m.column(j)
                    image = tuple(sum(u[a] * v[b] * c[a][b][k] for a in range(n) for b in range(n))
                                  for k in range(n))
                    if dense_matvec(m, c[i][j]) != image:
                        expected.append(
                            f"matrix of 's' does not preserve the bracket (e{i}, e{j})")
        found = [v for v in action.validate() if "preserve" in v]
        assert found == expected, (entries, m)
        caught += bool(found)
    assert 0 < caught < 80


def test_action_catches_non_functorial():
    g = z2()
    bundle = LieBundle(g.base, (abelian(("X",)),))
    action = BundleAction(
        g, bundle, {"e": QMatrix.identity(1), "s": QMatrix([[2]])}
    )
    # s after s = e but 2*2 != 1
    assert any("functorial" in v or "composition" in v for v in action.validate())


def test_action_catches_non_identity_unit():
    g = z2()
    bundle = LieBundle(g.base, (abelian(("X",)),))
    action = BundleAction(
        g, bundle, {"e": QMatrix([[-1]]), "s": QMatrix.identity(1)}
    )
    assert any("unit" in v for v in action.validate())


def test_action_catches_singular_matrix():
    g = z2()
    bundle = LieBundle(g.base, (abelian(("X", "Y")),))
    singular = QMatrix([[1, 1], [1, 1]])
    action = BundleAction(
        g, bundle, {"e": QMatrix.identity(2), "s": singular}
    )
    assert any("singular" in v for v in action.validate())


def test_action_catches_shape_mismatch():
    g = z2()
    bundle = LieBundle(g.base, (abelian(("X",)),))
    action = BundleAction(g, bundle, {"e": QMatrix.identity(1), "s": QMatrix.identity(2)})
    assert any("expected 1x1" in v for v in action.validate())
