"""Acceptance suite: seven behaviour guarantees checked with exact arithmetic.

One test per criterion; the terminal summary prints a pass/fail line for
each.  Everything here is exact equality over the rationals, no tolerances.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from finhopf.algebroid import ConvolutionAlgebroid, check_axioms
from finhopf.analysis import (
    analyze,
    build_prim_action,
    build_spectral_groupoid,
    canonical_good_pair,
    conjugate_by_pair,
    roundtrip,
    solve_grouplikes_at,
    solve_primitives,
)
from finhopf.enveloping import UElement
from finhopf.errors import TruncationOverflow
from finhopf.groupoid import BaseFun, groupoid_isomorphic
from finhopf.liebundle import BundleAction, LieBundle
from finhopf.linalg import QMatrix
from finhopf.modelio import FORMAT_NAME, FORMAT_VERSION, carrier_from_model
from finhopf.models import funs3_model, pairh3_model, random_model, z2line_model

from test_analysis import prim_elements
from test_liebundle import abelian, heisenberg

_ZERO = Fraction(0)
H3 = heisenberg()

AXIOM_CHECK_NAMES = {
    "axiom_i_counit_on_base",
    "axiom_i_comult_on_base",
    "axiom_ii_balanced_coproduct",
    "axiom_iii_counit_multiplicative",
    "axiom_iii_comult_multiplicative",
    "axiom_iv_antipode_on_base",
    "axiom_iv_antihomomorphism",
    "axiom_v_antipode_convolution",
    "coassociativity",
    "counit_law_left",
    "counit_law_right",
    "antipode_involutive",
    "associativity",
}


def h3point_model(truncation=4):
    """The enveloping algebra of the Heisenberg fiber over a single point."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "convolution",
        "base": ["pt"],
        "groupoid": {
            "arrows": [{"id": "e", "src": "pt", "tgt": "pt"}],
            "units": {"pt": "e"},
            "inverse": {"e": "e"},
            "compose": [["e", "e", "e"]],
        },
        "bundle": [{"point": "pt", "basis": ["P", "Q", "Z"],
                    "brackets": [["P", "Q", {"Z": 1}]]}],
        "action": [{"arrow": "e",
                    "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
        "truncation": truncation,
    }


@lru_cache(maxsize=None)
def instance(key):
    if key == "z2line":
        return carrier_from_model(z2line_model())
    if key == "pairh3":
        return carrier_from_model(pairh3_model())
    if key == "funs3":
        return carrier_from_model(funs3_model())
    if key == "h3point":
        return carrier_from_model(h3point_model())
    assert key.startswith("rnd:")
    return carrier_from_model(random_model(int(key.split(":")[1])))


def element_vector(carrier, el):
    return [el.coeffs.get(l, _ZERO) for l in carrier.labels]


def span_contains(carrier, generators, elements):
    if not generators:
        return all(not el.coeffs for el in elements)
    m = QMatrix.from_columns(
        [element_vector(carrier, g) for g in generators], rows=carrier.dim
    )
    return all(m.solve(element_vector(carrier, el)) is not None for el in elements)


# ---------------------------------------------------------------------------
# criterion 1: the axiom suite holds on presets and 25 generated instances
# ---------------------------------------------------------------------------

def test_criterion_1_axiom_suite():
    start = time.monotonic()
    keys = ["z2line", "pairh3"] + [f"rnd:{s}" for s in range(1, 26)]
    for key in keys:
        report = check_axioms(instance(key), samples=100, seed=1)
        assert {c.name for c in report.checks} == AXIOM_CHECK_NAMES, key
        assert report.ok, (key, [c.name for c in report.failures()])
        assert all(c.checked > 0 for c in report.checks), key
    assert time.monotonic() - start < 120


# ---------------------------------------------------------------------------
# criterion 2: the enveloping kernel of the Heisenberg algebra at level 4
# ---------------------------------------------------------------------------

def random_degree1(rng, n=4):
    pool = [-2, -1, 1, 2]
    terms = {}
    for idx in range(3):
        if rng.random() < 0.6:
            mono = [0, 0, 0]
            mono[idx] = 1
            terms[tuple(mono)] = Fraction(rng.choice(pool))
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
                    acc = out.get(key, _ZERO) + c1 * c2 * cl * cr
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
    return out


def test_criterion_2_enveloping_kernel():
    p = UElement.generator(H3, "pt", 4, 0)
    q = UElement.generator(H3, "pt", 4, 1)
    # hand-derived straightening and antipode values
    assert q.mul(p) == UElement(H3, "pt", 4, {(1, 1, 0): 1, (0, 0, 1): -1})
    pq = p.mul(q)
    assert pq.antipode() == UElement(H3, "pt", 4, {(1, 1, 0): 1, (0, 0, 1): -1})

    rng = random.Random(2024)
    for _ in range(200):
        u, v = random_degree1(rng), random_degree1(rng)
        uv = u.mul(v)
        assert uv.delta() == tensor_mul(u.delta(), v.delta())
        assert uv.counit() == u.counit() * v.counit()
        assert uv.antipode() == v.antipode().mul(u.antipode())
        assert u.antipode().antipode() == u
        left = UElement.zero(H3, "pt", 4)
        right = UElement.zero(H3, "pt", 4)
        for (m1, m2), c in u.delta().items():
            if not any(m1):
                left = left + UElement(H3, "pt", 4, {m2: c})
            if not any(m2):
                right = right + UElement(H3, "pt", 4, {m1: c})
        assert left == u and right == u

    carrier = instance("h3point")
    grouplikes = solve_grouplikes_at(carrier, "pt")
    assert len(grouplikes) == 1
    assert grouplikes[0] == carrier.one()

    prim = solve_primitives(carrier)
    expected = [carrier.basis_element(("e", (1, 0, 0))),
                carrier.basis_element(("e", (0, 1, 0))),
                carrier.basis_element(("e", (0, 0, 1)))]
    assert prim.per_point["pt"] == expected


# ---------------------------------------------------------------------------
# criterion 3: the round trip from groupoid and bundle through the algebroid
# ---------------------------------------------------------------------------

def test_criterion_3_round_trip():
    start = time.monotonic()
    keys = ["z2line", "pairh3"] + [f"rnd:{s}" for s in range(1, 11)]
    for key in keys:
        carrier = instance(key)
        prim = solve_primitives(carrier)

        # (a) primitive ranks match the fiber dimensions pointwise,
        #     the antipode negates primitives, the anchor is trivial
        for point in carrier.base.points:
            assert prim.rank_at(point) == carrier.bundle.fiber(point).dim, key
        for x in prim_elements(prim):
            assert carrier.antipode(x) == x.scale(-1), key
            for point in carrier.base.points:
                r = carrier.embed(BaseFun.indicator(carrier.base, point))
                assert carrier.counit(carrier.mul(x, r)).is_zero(), key

        # (b) the spectral groupoid is isomorphic to the input groupoid
        gsp = build_spectral_groupoid(carrier)
        assert groupoid_isomorphic(gsp.groupoid, carrier.groupoid) is not None, key

        # (c) reconstructed action matrices equal the input arrow by arrow
        action = build_prim_action(carrier, gsp, prim)
        for g in carrier.groupoid.arrows:
            fiber = carrier.bundle.fiber(carrier.groupoid.target[g])
            mapped = gsp.arrow_of(carrier.basis_element((g, (0,) * fiber.dim)))
            assert mapped is not None, key
            assert action.matrix(mapped) == carrier.action.matrix(g), (key, g)

        # (d) the decision procedure agrees, with every localization bijective
        report = roundtrip(carrier, samples=60, seed=11)
        assert report.ok, (key, report.to_json())
        assert report.decision.verdict == "ISO", key
        for point, entry in report.decision.theta.items():
            assert entry["rank"] == entry["dim"] == entry["domainDim"], (key, point)
    assert time.monotonic() - start < 180


# ---------------------------------------------------------------------------
# criterion 4: the function algebra of S3 is not a decomposable algebroid
# ---------------------------------------------------------------------------

def test_criterion_4_negative_control():
    carrier = instance("funs3")
    assert check_axioms(carrier).ok
    report = analyze(carrier).decision
    assert report.prim_ranks == {"pt": 0}
    assert report.spectral_arrows == 2
    assert report.theta["pt"]["rank"] == 2
    assert report.theta["pt"]["dim"] == 6
    assert report.verdict == "NOT_ISO"
    assert any("hypothesis ii" in h for h in report.hypothesis_failures)


# ---------------------------------------------------------------------------
# criterion 5: the structure propositions on every instance above
# ---------------------------------------------------------------------------

def proposition_antipode_three_way(carrier, prim):
    basis = prim_elements(prim)
    images = [carrier.antipode(x) for x in basis]
    contained = all(prim.contains(im) for im in images)
    equal = contained and span_contains(carrier, images, basis)
    negated = all(im == x.scale(-1) for x, im in zip(basis, images))
    assert equal == contained == negated


def proposition_trivial_anchor(carrier, prim):
    commutes = True
    submodule = True
    trivial = True
    for x in prim_elements(prim):
        for point in carrier.base.points:
            r = carrier.embed(BaseFun.indicator(carrier.base, point))
            xr = carrier.mul(x, r)
            rx = carrier.mul(r, x)
            eps = carrier.counit(xr)
            commutes = commutes and xr == rx
            submodule = submodule and prim.contains(xr)
            trivial = trivial and eps.is_zero()
            # the identity carrying the equivalence proof
            assert xr == rx + carrier.embed(eps)
    assert commutes == submodule == trivial


def proposition_t_invariance(carrier, prim, gsp):
    for arrow in gsp.groupoid.arrows:
        target = gsp.groupoid.target[arrow]
        pair = canonical_good_pair(carrier, gsp.representatives[arrow], target)
        for x in prim_elements(prim):
            assert prim.contains(conjugate_by_pair(pair, x))
        for point in carrier.base.points:
            f = carrier.embed(BaseFun.indicator(carrier.base, point))
            image = conjugate_by_pair(pair, f)
            assert image == carrier.embed(carrier.counit(carrier.mul(pair.a, f)))


def d_algebra_samples(carrier, prim, point):
    """Elements of the subalgebra generated by the base and the primitives,
    supported at one point."""
    out = [carrier.embed(BaseFun.indicator(carrier.base, point))]
    local = prim.per_point.get(point, [])
    out.extend(local)
    for x in local:
        for y in local:
            try:
                out.append(carrier.mul(x, y))
            except TruncationOverflow:
                pass
    if len(local) >= 2:
        out.append(local[0] + local[1].scale(3))
    return out


def proposition_t_inverse_on_d(carrier, prim, gsp):
    for arrow in gsp.groupoid.arrows:
        source = gsp.groupoid.source[arrow]
        target = gsp.groupoid.target[arrow]
        rep = gsp.representatives[arrow]
        forward = canonical_good_pair(carrier, rep, target)
        backward = canonical_good_pair(carrier, carrier.antipode(rep), source)
        for d in d_algebra_samples(carrier, prim, source):
            assert conjugate_by_pair(backward, conjugate_by_pair(forward, d)) == d


def test_criterion_5_proposition_suite():
    keys = (["z2line", "pairh3", "funs3", "h3point"]
            + [f"rnd:{s}" for s in range(1, 26)])
    for key in keys:
        carrier = instance(key)
        prim = solve_primitives(carrier)
        gsp = build_spectral_groupoid(carrier)
        proposition_antipode_three_way(carrier, prim)
        proposition_trivial_anchor(carrier, prim)
        proposition_t_invariance(carrier, prim, gsp)
        proposition_t_inverse_on_d(carrier, prim, gsp)


# ---------------------------------------------------------------------------
# criterion 6: the zero bundle reduces to the plain groupoid algebra
# ---------------------------------------------------------------------------

class DirectGroupoidAlgebra:
    """Independent implementation of the groupoid convolution algebra.

    Elements are plain dicts arrow -> rational; nothing here touches the
    carrier code paths.
    """

    def __init__(self, groupoid):
        self.g = groupoid

    def mul(self, u, v):
        out = {}
        for (h, k), hk in self.g.compose_table.items():
            c = u.get(h, _ZERO) * v.get(k, _ZERO)
            if c:
                acc = out.get(hk, _ZERO) + c
                if acc:
                    out[hk] = acc
                elif hk in out:
                    del out[hk]
        return out

    def delta(self, u):
        return {(g, g): c for g, c in u.items()}

    def counit(self, u):
        out = {}
        for g, c in u.items():
            y = self.g.target[g]
            out[y] = out.get(y, _ZERO) + c
        return {y: c for y, c in out.items() if c}

    def antipode(self, u):
        return {self.g.inverse[g]: c for g, c in u.items()}

    def embed(self, values):
        return {self.g.units[x]: Fraction(v) for x, v in values.items() if v}


def zero_bundle_carrier(groupoid):
    fibers = tuple(abelian(()) for _ in groupoid.base.points)
    bundle = LieBundle(groupoid.base, fibers)
    matrices = {g: QMatrix([], cols=0) for g in groupoid.arrows}
    action = BundleAction(groupoid, bundle, matrices)
    return ConvolutionAlgebroid(groupoid, bundle, action, 4)


def as_carrier_element(carrier, coeffs):
    out = carrier.zero()
    for g, c in coeffs.items():
        out = out + carrier.basis_element((g, ())).scale(c)
    return out


def test_criterion_6_zero_bundle_is_the_groupoid_algebra():
    groupoids = [instance("z2line").groupoid, instance("pairh3").groupoid]
    groupoids += [instance(f"rnd:{s}").groupoid for s in range(1, 7)]
    for groupoid in groupoids:
        assert len(groupoid.arrows) <= 8
        carrier = zero_bundle_carrier(groupoid)
        oracle = DirectGroupoidAlgebra(groupoid)
        assert carrier.dim == len(groupoid.arrows)

        for g in groupoid.arrows:
            dg = carrier.basis_element((g, ()))
            # product against every basis element
            for h in groupoid.arrows:
                dh = carrier.basis_element((h, ()))
                expected = oracle.mul({g: Fraction(1)}, {h: Fraction(1)})
                assert carrier.mul(dg, dh) == as_carrier_element(carrier, expected)
            # coproduct, counit, antipode
            assert carrier.delta(dg).data == {((g, ()), (g, ())): Fraction(1)}
            eps = carrier.counit(dg)
            expected_eps = oracle.counit({g: Fraction(1)})
            assert {p: eps(p) for p in groupoid.base.points if eps(p)} == expected_eps
            assert carrier.antipode(dg) == as_carrier_element(
                carrier, oracle.antipode({g: Fraction(1)})
            )

        # the base embedding lands on unit arrows
        for x in groupoid.base.points:
            r = BaseFun.indicator(groupoid.base, x)
            assert carrier.embed(r) == as_carrier_element(
                carrier, oracle.embed({x: 1})
            )

        # bilinearity on a couple of dense combinations
        rng = random.Random(6)
        for _ in range(5):
            u = {g: Fraction(rng.randint(-3, 3)) for g in groupoid.arrows}
            v = {g: Fraction(rng.randint(-3, 3)) for g in groupoid.arrows}
            u = {g: c for g, c in u.items() if c}
            v = {g: c for g, c in v.items() if c}
            lhs = carrier.mul(as_carrier_element(carrier, u),
                              as_carrier_element(carrier, v))
            assert lhs == as_carrier_element(carrier, oracle.mul(u, v))


# ---------------------------------------------------------------------------
# criterion 7: overflow is loud, and level 4 results agree with level 6
# ---------------------------------------------------------------------------

def test_criterion_7_overflow_discipline():
    p2 = UElement.generator(H3, "pt", 2, 0)
    q2 = UElement.generator(H3, "pt", 2, 1)
    pq = p2.mul(q2)
    with pytest.raises(TruncationOverflow) as err:
        pq.mul(p2)
    assert err.value.degree == 3
    assert err.value.truncation == 2

    # same failure surfaces through a carrier at truncation 2
    carrier = carrier_from_model(h3point_model(truncation=2))
    with pytest.raises(TruncationOverflow):
        carrier.mul(carrier.basis_element(("e", (1, 1, 0))),
                    carrier.basis_element(("e", (1, 0, 0))))

    # audit: recompute the criterion-2 product stream at level 6; every
    # term of every product, coproduct and antipode must agree exactly
    rng4 = random.Random(2024)
    rng6 = random.Random(2024)
    for _ in range(200):
        u4, v4 = random_degree1(rng4), random_degree1(rng4)
        u6, v6 = random_degree1(rng6, n=6), random_degree1(rng6, n=6)
        assert u4.terms == u6.terms and v4.terms == v6.terms
        prod4 = u4.mul(v4)
        prod6 = u6.mul(v6)
        assert prod4.terms == prod6.terms
        assert prod4.antipode().terms == prod6.antipode().terms
        assert prod4.delta() == prod6.delta()
