"""Truncated enveloping algebras: straightening goldens, Hopf laws, overflow."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finhopf import enveloping
from finhopf.algebroid import ConvolutionAlgebroid, check_axioms
from finhopf.enveloping import (
    UElement,
    mono_antipode,
    mono_delta,
    mono_degree,
    mono_key,
    mono_mul,
    mono_transport,
    mono_word,
    monomials_up_to,
    unit_mono,
)
from finhopf.errors import TruncationOverflow
from finhopf.liebundle import BundleAction, LieBundle, LieFiber
from finhopf.linalg import QMatrix
from finhopf.modelio import carrier_from_model
from finhopf.models import funs3_model, pairh3_model, z2line_model
from finhopf.rationals import add_terms, exact

from test_benchmark_reference import load
from test_analysis import rescaled_group_algebra_model
from test_groupoid import z2
from test_liebundle import abelian, heisenberg

H3 = heisenberg()


def u_h3(terms, n=4):
    return UElement(H3, "pt", n, {m: Fraction(c) for m, c in terms.items()})


def gen(i, n=4):
    return UElement.generator(H3, "pt", n, i)


P, Q, Z = (0,), (1,), (2,)  # generator indices as words


@pytest.mark.parametrize("dim", range(6))
def test_monomials_up_to_is_every_exponent_vector_in_canonical_order(dim):
    for degree in range(9 if dim < 4 else 6):
        every = [m for m in itertools.product(range(degree + 1), repeat=dim) if sum(m) <= degree]
        assert monomials_up_to(dim, degree) == sorted(every, key=mono_key)


@pytest.mark.parametrize("dim", range(5))
def test_mono_key_orders_as_degree_then_word(dim):
    """Every pair of monomials of degree at most 6 compares under ``mono_key``
    as under the key of degree, then sorted index word."""
    every = [m for m in itertools.product(range(7), repeat=dim) if sum(m) <= 6]
    random.Random(dim).shuffle(every)

    def word_key(m):
        return (mono_degree(m), mono_word(m))

    assert sorted(every, key=mono_key) == sorted(every, key=word_key)
    for m1, m2 in itertools.product(every, repeat=2):
        assert (mono_key(m1) < mono_key(m2)) == (word_key(m1) < word_key(m2)), (m1, m2)


def test_monomials_up_to_counts():
    assert len(monomials_up_to(3, 4)) == 35
    assert len(monomials_up_to(3, 3)) == 20
    assert len(monomials_up_to(1, 4)) == 5
    assert len(monomials_up_to(0, 4)) == 1
    assert monomials_up_to(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_straightening_golden_qp():
    # Q*P = PQ - Z, the hand-derived reordering
    result = gen(1).mul(gen(0))
    assert result == u_h3({(1, 1, 0): 1, (0, 0, 1): -1})


def test_straightening_golden_deeper():
    # Q*(PQ) = PQ^2 - QZ
    pq = gen(0).mul(gen(1))
    assert pq == u_h3({(1, 1, 0): 1})
    result = gen(1).mul(pq)
    assert result == u_h3({(1, 2, 0): 1, (0, 1, 1): -1})
    # Z is central: Z*P = PZ
    assert gen(2).mul(gen(0)) == u_h3({(1, 0, 1): 1})


def test_unit_and_scalars():
    one = u_h3({(0, 0, 0): 1})
    p = gen(0)
    assert one.mul(p) == p and p.mul(one) == p
    assert p.scale(2) - p == p
    assert (p - p).is_zero()


def test_delta_golden_pq():
    pq = gen(0).mul(gen(1))
    e = unit_mono(3)
    expected = {
        ((1, 1, 0), e): Fraction(1),
        ((1, 0, 0), (0, 1, 0)): Fraction(1),
        ((0, 1, 0), (1, 0, 0)): Fraction(1),
        (e, (1, 1, 0)): Fraction(1),
    }
    assert pq.delta() == expected


def test_delta_binomials_on_powers():
    # delta(P^2) = P^2 (x) 1 + 2 P (x) P + 1 (x) P^2
    p2 = gen(0).mul(gen(0))
    e = unit_mono(3)
    assert p2.delta() == {
        ((2, 0, 0), e): Fraction(1),
        ((1, 0, 0), (1, 0, 0)): Fraction(2),
        (e, (2, 0, 0)): Fraction(1),
    }


def test_counit_golden():
    assert u_h3({(0, 0, 0): 1}).counit() == 1
    assert gen(0).counit() == 0
    assert u_h3({(0, 0, 0): 5, (1, 1, 0): 7}).counit() == 5


def test_antipode_goldens():
    pq = gen(0).mul(gen(1))
    # S(PQ) = QP = PQ - Z
    assert pq.antipode() == u_h3({(1, 1, 0): 1, (0, 0, 1): -1})
    # S(P^2) = P^2
    p2 = gen(0).mul(gen(0))
    assert p2.antipode() == p2
    # S(PQZ) = -ZQP = -PQZ + Z^2
    pqz = pq.mul(gen(2))
    assert pqz.antipode() == u_h3({(1, 1, 1): -1, (0, 0, 2): 1})


def random_degree1(rng, n=4):
    pool = [-2, -1, 1, 2]
    terms = {}
    for idx in range(3):
        if rng.random() < 0.6:
            m = [0, 0, 0]
            m[idx] = 1
            terms[tuple(m)] = Fraction(rng.choice(pool))
    if rng.random() < 0.5:
        terms[(0, 0, 0)] = Fraction(rng.choice(pool))
    return UElement(H3, "pt", n, terms)


def tensor_mul(t1, t2, n=4):
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            left = UElement(H3, "pt", n, {a1: 1}).mul(UElement(H3, "pt", n, {a2: 1}))
            right = UElement(H3, "pt", n, {b1: 1}).mul(UElement(H3, "pt", n, {b2: 1}))
            for ml, cl in left.terms.items():
                for mr, cr in right.terms.items():
                    key = (ml, mr)
                    acc = out.get(key, Fraction(0)) + c1 * c2 * cl * cr
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
    return out


def test_hopf_laws_on_200_seeded_pairs():
    rng = random.Random(2024)
    for _ in range(200):
        u, v = random_degree1(rng), random_degree1(rng)
        uv = u.mul(v)
        # comultiplicative
        assert uv.delta() == tensor_mul(u.delta(), v.delta())
        # counit multiplicative
        assert uv.counit() == u.counit() * v.counit()
        # antihomomorphism
        assert uv.antipode() == v.antipode().mul(u.antipode())
        # involutive
        assert u.antipode().antipode() == u
        # counit laws: (eps (x) id) delta = id = (id (x) eps) delta
        left = UElement.zero(H3, "pt", 4)
        right = UElement.zero(H3, "pt", 4)
        for (m1, m2), c in u.delta().items():
            if not any(m1):
                left = left + UElement(H3, "pt", 4, {m2: c})
            if not any(m2):
                right = right + UElement(H3, "pt", 4, {m1: c})
        assert left == u and right == u


def test_coassociativity_sampled():
    rng = random.Random(7)
    for _ in range(50):
        u = random_degree1(rng)
        v = random_degree1(rng)
        w = u.mul(v)
        lhs = {}
        for (m1, m2), c in w.delta().items():
            for (m11, m12), c2 in UElement(H3, "pt", 4, {m1: 1}).delta().items():
                key = (m11, m12, m2)
                lhs[key] = lhs.get(key, Fraction(0)) + c * c2
        rhs = {}
        for (m1, m2), c in w.delta().items():
            for (m21, m22), c2 in UElement(H3, "pt", 4, {m2: 1}).delta().items():
                key = (m1, m21, m22)
                rhs[key] = rhs.get(key, Fraction(0)) + c * c2
        lhs = {k: v2 for k, v2 in lhs.items() if v2}
        rhs = {k: v2 for k, v2 in rhs.items() if v2}
        assert lhs == rhs


def test_transport_sign_flip():
    x_fiber = abelian(("X",))
    u = UElement(x_fiber, "pt", 4, {(3,): 1})  # X^3
    moved = u.transport(QMatrix([[-1]]), x_fiber, "pt")
    assert moved == UElement(x_fiber, "pt", 4, {(3,): -1})


def test_transport_is_algebra_map_for_bracket_preserving():
    # the graded automorphism P -> 2P, Q -> Q/2, Z -> Z preserves [P,Q] = Z
    m = QMatrix([["2", 0, 0], [0, "1/2", 0], [0, 0, 1]])
    rng = random.Random(11)
    for _ in range(40):
        u, v = random_degree1(rng), random_degree1(rng)
        lhs = u.mul(v).transport(m, H3, "pt")
        rhs = u.transport(m, H3, "pt").mul(v.transport(m, H3, "pt"))
        assert lhs == rhs


def test_overflow_raises_eagerly():
    pq = gen(0, n=2).mul(gen(1, n=2))  # degree 2, allowed at N=2
    with pytest.raises(TruncationOverflow) as exc:
        pq.mul(gen(0, n=2))
    assert exc.value.degree == 3
    assert exc.value.truncation == 2


def test_constructor_rejects_overweight_terms():
    with pytest.raises(TruncationOverflow):
        UElement(H3, "pt", 2, {(1, 1, 1): 1})


def test_mono_word_roundtrip():
    m = (2, 0, 1)
    assert mono_degree(m) == 3
    assert mono_word(m) == (0, 0, 2)
    assert mono_from_word(mono_word(m), 3) == mono_from_word((2, 0, 0), 3) == m


def test_products_at_higher_truncation_agree():
    # the same stored terms at a higher bound multiply to the same terms
    rng = random.Random(99)
    for _ in range(100):
        u, v = random_degree1(rng, n=4), random_degree1(rng, n=4)
        u6 = UElement(H3, "pt", 6, dict(u.terms))
        v6 = UElement(H3, "pt", 6, dict(v.terms))
        assert u.mul(v).terms == u6.mul(v6).terms


# -- the monomial maps against the hand-written loops they replaced ------------
#
# The copies below are the per-element loops (and the label maps built from
# one-term elements) that ``mono_mul``, ``mono_delta``, ``mono_antipode`` and
# ``mono_transport`` replaced.  Folding the monomial maps must give the same
# Fractions in the same insertion order, and the same overflow.  The monomial
# maps return their terms in ``mono_key`` order, so the loops add each
# rewritten product, and each monomial's whole transport, in that order.

OVERFLOW_DETAIL = "product of stored monomials; no silent truncation"


def mono_from_word(word, dim):
    """The monomial of an index word, whatever its order: (2, 0, 1) for (0, 2, 0)."""
    m = [0] * dim
    for i in word:
        m[i] += 1
    return tuple(m)


def _straighten(fiber, word, coeff):
    """Rewrite an arbitrary index word into ordered monomials, at its leftmost
    descent: xy -> yx + [x, y].  This is the rewriter the PBW table replaced."""
    done = []
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        descent = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if descent is None:
            done.append((mono_from_word(w, fiber.dim), c))
            continue
        x, y = w[descent], w[descent + 1]
        stack.append((w[:descent] + (y, x) + w[descent + 2:], c))
        for k, ck in fiber.terms[x][y]:
            stack.append((w[:descent] + (k,) + w[descent + 2:], c * ck))
    return add_terms({}, done)


def canonical(terms: dict):
    """The terms of a map in ``mono_key`` order, the order the monomial maps use."""
    return sorted(terms.items(), key=lambda t: mono_key(t[0]))


SL2 = LieFiber.from_sparse(("H", "E", "F"), [(0, 1, (0, 2, 0)), (0, 2, (0, 0, -2)),
                                             (1, 2, (1, 0, 0))])
# A solvable algebra with rational structure constants: [A, B] = B/2, [A, C] = -3C/4.
RATIONAL = LieFiber.from_sparse(("A", "B", "C"), [(0, 1, (0, Fraction(1, 2), 0)),
                                                  (0, 2, (0, 0, Fraction(-3, 4)))])
FIBERS = {"heisenberg": H3, "sl2": SL2, "rational": RATIONAL}


def loop_mul(fiber, n, left, right):
    out = {}
    for m1, c1 in left.items():
        w1 = mono_word(m1)
        for m2, c2 in right.items():
            total = len(w1) + mono_degree(m2)
            if total > n:
                raise TruncationOverflow(total, n, OVERFLOW_DETAIL)
            add_terms(out, canonical(_straighten(fiber, w1 + mono_word(m2), c1 * c2)))
    return out


def loop_delta(terms):
    out = {}
    for m, c in terms.items():
        splits = [((), Fraction(1))]
        for a in m:
            splits = [(left + (b,), w * comb(a, b)) for left, w in splits for b in range(a + 1)]
        add_terms(out, (((left, tuple(a - b for a, b in zip(m, left))), c * w)
                        for left, w in splits))
    return out


def loop_antipode(fiber, terms):
    out = {}
    for m, c in terms.items():
        word = mono_word(m)[::-1]
        sign = Fraction(-1) if len(word) % 2 else Fraction(1)
        add_terms(out, canonical(_straighten(fiber, word, c * sign)))
    return out


def loop_transport(terms, matrix, target):
    out = {}
    for m, c in terms.items():
        images = [((), c)]
        for j in mono_word(m):
            images = [(w + (i,), cc * matrix.entry(i, j)) for w, cc in images
                      for i in range(target.dim) if matrix.entry(i, j)]
        moved = {}
        for w, cc in images:
            add_terms(moved, _straighten(target, w, cc).items())
        add_terms(out, canonical(moved))
    return out


def loop_mul_label(carrier, l1, l2):
    (h, m1), (k, m2) = l1, l2
    g = carrier.groupoid.compose_table.get((h, k))
    if g is None:
        return ()
    fiber = carrier.bundle.fiber(carrier.groupoid.target[h])
    moved = loop_transport({m2: Fraction(1)}, carrier.action.matrix(h), fiber)
    product = loop_mul(fiber, carrier.truncation, {m1: Fraction(1)}, moved)
    return tuple(((g, m), exact(c)) for m, c in product.items())


def loop_delta_label(carrier, label):
    g, m = label
    terms = sorted(loop_delta({m: Fraction(1)}).items())
    return tuple((((g, m1), (g, m2)), exact(c)) for (m1, m2), c in terms)


def loop_antipode_label(carrier, label):
    g, m = label
    ginv = carrier.groupoid.inverse[g]
    fiber = carrier.bundle.fiber(carrier.groupoid.target[g])
    target = carrier.bundle.fiber(carrier.groupoid.target[ginv])
    moved = loop_transport(loop_antipode(fiber, {m: Fraction(1)}),
                           carrier.action.matrix(ginv), target)
    return tuple(((ginv, w), exact(c)) for w, c in moved.items())


def outcome(compute):
    """Ordered items, or the overflow's degree, bound and message."""
    try:
        result = compute()
    except TruncationOverflow as exc:
        return ("overflow", exc.degree, exc.truncation, str(exc))
    items = result.items() if isinstance(result, dict) else result
    return [(k, c, type(c)) for k, c in items]


SCALARS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2, "1/2", "-1/3", "3/4")])
ENTRIES = st.sampled_from([Fraction(c) for c in (0, 0, 1, -1, 2, "1/2", "-2/3")])


@st.composite
def elements(draw, fiber, n):
    monos = monomials_up_to(fiber.dim, n)
    keys = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return {m: draw(SCALARS) for m in keys}


@st.composite
def cases(draw):
    fiber = FIBERS[draw(st.sampled_from(sorted(FIBERS)))]
    n = draw(st.sampled_from([3, 5]))
    matrix = QMatrix([[draw(ENTRIES) for _ in range(3)] for _ in range(3)])
    target = FIBERS[draw(st.sampled_from(sorted(FIBERS)))]
    return fiber, n, draw(elements(fiber, n)), draw(elements(fiber, n)), matrix, target


ONE, MINUS = Fraction(1), Fraction(-1)
SWAP = QMatrix([[0, 1, 0], [1, 0, 0], [0, 0, Fraction(1, 2)]])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(cases())
# A later factor term cancels a key an earlier one made and then brings it
# back: one fold per term pair moves that key last, a fold per left term
# would keep it in place.
@example((H3, 3, {(0, 0, 1): ONE, (1, 1, 0): ONE}, {(1, 1, 0): MINUS, (0, 0, 1): MINUS},
          SWAP, H3))
@example((SL2, 5, {(0, 0, 0): ONE, (0, 1, 1): MINUS}, {(0, 1, 0): ONE, (1, 1, 0): MINUS},
          SWAP, RATIONAL))
def test_element_operations_fold_the_monomial_maps_like_the_loops(case):
    fiber, n, left, right, matrix, target = case
    u, v = UElement(fiber, "pt", n, left), UElement(fiber, "pt", n, right)
    assert outcome(lambda: u.mul(v).terms) == outcome(lambda: loop_mul(fiber, n, left, right))
    assert outcome(u.delta) == outcome(lambda: loop_delta(left))
    assert outcome(lambda: u.antipode().terms) == outcome(lambda: loop_antipode(fiber, left))
    moved = u.transport(matrix, target, "pt")
    assert outcome(lambda: moved.terms) == outcome(lambda: loop_transport(left, matrix, target))
    # A transported element multiplies like any other; this reaches the
    # cancellations a rational substitution makes.
    assert outcome(lambda: moved.mul(moved).terms) == outcome(
        lambda: loop_mul(target, n, moved.terms, moved.terms))


@st.composite
def carriers(draw):
    fiber = FIBERS[draw(st.sampled_from(sorted(FIBERS)))]
    n = draw(st.sampled_from([3, 5]))
    flip = QMatrix([[draw(ENTRIES) for _ in range(3)] for _ in range(3)])
    g = z2()
    bundle = LieBundle(g.base, (fiber,))
    action = BundleAction(g, bundle, {"e": QMatrix.identity(3), "s": flip})
    carrier = ConvolutionAlgebroid(g, bundle, action, n)
    labels = st.sampled_from(carrier.labels)
    return carrier, draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=12))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(carriers())
def test_convolution_label_maps_compose_the_monomial_maps_like_the_elements(case):
    carrier, pairs = case
    for l1, l2 in pairs:
        for label in (l1, l2):
            assert carrier.delta_label(label) == loop_delta_label(carrier, label)
            assert outcome(lambda: carrier.antipode_label(label)) == outcome(
                lambda: loop_antipode_label(carrier, label))
        expected = outcome(lambda: loop_mul_label(carrier, l1, l2))
        assert outcome(lambda: carrier.mul_label(l1, l2)) == expected
        # The memo hit (or the cached overflow) gives the same answer again.
        assert outcome(lambda: carrier.mul_label(l1, l2)) == expected


# -- the PBW table against the rewriter it replaced -----------------------------
#
# The table folds are the rewriting of ``_straighten`` memoized, so on one
# monomial they give the loops' Fractions, for any bracket table: nilpotent,
# not nilpotent, or failing antisymmetry or Jacobi.

def exact_outcome(compute):
    """``outcome``, with coefficients as ``exact`` returns them."""
    result = outcome(compute)
    if isinstance(result, tuple):
        return result
    return [(k, exact(c), type(exact(c))) for k, c, _type in result]


BRACKET_ENTRIES = st.sampled_from([Fraction(c) for c in (0, 0, 0, 1, -1, 2, "1/2", "-3/4")])


@st.composite
def bracket_tables(draw):
    """A fiber of dim <= 3: nilpotent, any antisymmetric table, or an arbitrary one."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["nilpotent", "antisymmetric", "arbitrary"]))
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if kind == "arbitrary":
                table[i][j] = [draw(BRACKET_ENTRIES) for _ in range(dim)]
            elif i < j:
                top = max(i, j) + 1 if kind == "nilpotent" else 0
                row = [draw(BRACKET_ENTRIES) if k >= top else Fraction(0) for k in range(dim)]
                table[i][j], table[j][i] = row, [-c for c in row]
    # every pair is given, so ``from_sparse`` keeps the table verbatim
    return LieFiber.from_sparse(tuple("ABC"[:dim]),
                                [(i, j, table[i][j]) for i in range(dim) for j in range(dim)])


@st.composite
def table_cases(draw):
    fiber, target = draw(bracket_tables()), draw(bracket_tables())
    n = draw(st.integers(0, 4))
    monos = st.sampled_from(monomials_up_to(fiber.dim, n))
    matrix = QMatrix([[draw(ENTRIES) for _ in range(fiber.dim)] for _ in range(target.dim)])
    return fiber, target, n, matrix, draw(st.lists(st.tuples(monos, monos), min_size=1, max_size=4))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(table_cases())
def test_table_folds_match_the_rewriter_term_by_term(case):
    fiber, target, n, matrix, pairs = case
    one = Fraction(1)
    for m1, m2 in pairs:  # later pairs read a warm table
        assert outcome(lambda: mono_mul(fiber, m1, m2, n)) == exact_outcome(
            lambda: loop_mul(fiber, n, {m1: one}, {m2: one}))
        assert outcome(lambda: mono_antipode(fiber, m1)) == exact_outcome(
            lambda: loop_antipode(fiber, {m1: one}))
        assert outcome(lambda: mono_transport(m1, matrix, target)) == exact_outcome(
            lambda: loop_transport({m1: one}, matrix, target))


def sl2_carrier(n):
    """The benchmark's sl2 model at truncation n, loaded afresh."""
    return carrier_from_model(load("workloads").sl2_model(n))


def test_tables_of_integral_fibers_hold_ints():
    for fiber in (heisenberg(), sl2_carrier(4).bundle.fiber("x")):
        for m1 in monomials_up_to(3, 2):
            for m2 in monomials_up_to(3, 2):
                mono_mul(fiber, m1, m2, 4)
        assert fiber.pbw_table
        assert {type(c) for entry in fiber.pbw_table.values() for _m, c in entry} == {int}


def test_coproduct_rows_are_ints_and_elements_keep_fractions():
    for m in monomials_up_to(3, 5):
        terms = list(mono_delta(m))
        assert {type(c) for _split, c in terms} == {int}
        assert terms == sorted(terms)
    u = u_h3({(2, 0, 1): 3, (0, 1, 0): Fraction(1, 2), (0, 0, 0): -1})
    assert u.delta() and {type(c) for c in u.delta().values()} == {Fraction}
    convolution = [carrier_from_model(pairh3_model()), sl2_carrier(4)]
    tables = [carrier_from_model(funs3_model()),
              carrier_from_model(rescaled_group_algebra_model(3))]
    for carrier in convolution + tables:
        for label in carrier.labels:
            terms = carrier.delta_label(label)
            assert [(k, c, type(c)) for k, c in terms] == [
                (k, exact(c), type(exact(c))) for k, c in terms]
    for carrier in convolution:
        assert {type(c) for l in carrier.labels for _k, c in carrier.delta_label(l)} == {int}


def test_table_is_bounded_by_the_truncation():
    carrier = sl2_carrier(10)
    fiber = carrier.bundle.fiber("x")
    assert fiber.pbw_table == {} and fiber.product_table == {}
    assert check_axioms(carrier).ok
    assert 0 < len(fiber.pbw_table) <= len(monomials_up_to(3, 9)) * 3
    assert fiber.product_table
    assert all(mono_degree(m1) + mono_degree(m2) <= 10 for m1, m2 in fiber.product_table)


def test_product_table_fills_a_deep_word_without_recursion():
    """Q * P^1500 in the Heisenberg fiber fills 1500 prefixes of the right factor."""
    fiber = heisenberg()
    assert mono_mul(fiber, (0, 1, 0), (1500, 0, 0), 1501) == (
        ((1499, 0, 1), -1500), ((1500, 1, 0), 1))
    assert len(fiber.product_table) == 1500


def test_a_deep_pbw_entry_is_filled_without_recursion():
    """Each product moves x_i past 1200 later letters, more than Python's
    default recursion limit: the entries are filled one letter at a time."""
    line = LieFiber.from_sparse(("X", "Y"), [(0, 1, (0, 1))])  # [X, Y] = Y
    expected = (((0, 1200), -1200), ((1, 1200), 1))
    assert mono_mul(line, (0, 1200), (1, 0), 1201) == expected
    line = LieFiber(line.basis, line.terms)  # the same algebra with empty tables
    power = UElement(line, "x", 1201, {(0, 1200): 1})
    assert power * UElement.generator(line, "x", 1201, 0) == UElement(line, "x", 1201, dict(expected))
    sl2 = LieFiber(SL2.basis, SL2.terms)
    assert mono_mul(sl2, (0, 0, 1200), (1, 0, 0), 1201) == (
        ((0, 0, 1200), 2400), ((1, 0, 1200), 1))
    assert mono_mul(sl2, (0, 600, 600), (1, 0, 0), 1201) == (((1, 600, 600), 1),)


def test_an_append_is_returned_without_a_table_entry():
    """z2line at truncation 3000 is a legal model; a product of two powers of
    its one generator is an append, as is any product whose right factor
    starts at or after the last letter of the left one."""
    model = z2line_model()
    model["truncation"] = 3000
    fiber = carrier_from_model(model).bundle.fibers[0]
    assert mono_mul(fiber, (1000,), (1500,), 3000) == (((2500,), 1),)
    assert fiber.product_table == {}
    fiber = heisenberg()
    for m1, m2 in (((1, 1, 0), (0, 2, 1)), ((0, 0, 0), (1, 0, 2)), ((2, 0, 1), (0, 0, 0)),
                   ((1, 0, 0), (3, 1, 0))):
        append = tuple(map(sum, zip(m1, m2)))
        assert _straighten(fiber, mono_word(m1) + mono_word(m2), 1) == {append: 1}
        assert mono_mul(fiber, m1, m2, 6) == ((append, 1),)
    assert fiber.product_table == {} and fiber.pbw_table == {}
    with pytest.raises(TruncationOverflow):
        mono_mul(fiber, (0, 0, 2), (0, 0, 2), 3)


def test_an_overflowing_product_stores_nothing():
    fiber = heisenberg()
    with pytest.raises(TruncationOverflow):
        mono_mul(fiber, (1, 1, 0), (0, 1, 1), 3)
    assert fiber.product_table == {} and fiber.pbw_table == {}


def test_a_repeated_product_is_read_from_the_table(monkeypatch):
    fiber = sl2_carrier(6).bundle.fiber("x")
    first = mono_mul(fiber, (0, 2, 1), (1, 1, 2), 8)
    calls = []
    times = enveloping._times
    monkeypatch.setattr(enveloping, "_times", lambda *args: calls.append(args) or times(*args))
    assert mono_mul(fiber, (0, 2, 1), (1, 1, 2), 8) is first
    assert calls == []
    # The stored product is a prefix of the longer right factor, so one more
    # letter is multiplied on, in one call: the table entry of any monomial
    # times the last generator is an append, which rewrites nothing.
    mono_mul(fiber, (0, 2, 1), (1, 1, 3), 9)
    assert len(calls) == 1
