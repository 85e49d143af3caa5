"""Carrier-level behaviour: convolution goldens, axiom suite, table import."""

import ast
import itertools
import math
import operator
import random
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhopf import algebroid, enveloping
from finhopf.algebroid import (
    AlgebroidElement,
    ConvolutionAlgebroid,
    FiberTensor,
    HopfAlgebroid,
    TableAlgebroid,
    check_axioms,
    label_tuples,
    run_law,
)
from finhopf.analysis import analyze
from finhopf.enveloping import UElement, mono_transport, monomials_up_to
from finhopf.errors import CoherenceError, DimensionMismatch, TruncationOverflow
from finhopf.groupoid import BaseFun, BaseSpace
from finhopf.liebundle import BundleAction, LieBundle
from finhopf.linalg import QMatrix
from finhopf.modelio import carrier_from_model
from finhopf.models import funs3_model, pairh3_model, random_model, z2line_model
from finhopf.rationals import add_terms, rat_str

from test_benchmark_reference import load
from test_groupoid import base_fun, z2
from test_liebundle import abelian, heisenberg


def z2line():
    return carrier_from_model(z2line_model())


def h3_z2_carrier(z_sign, truncation=4):
    """Z/2 over a point acting on the Heisenberg fiber.

    z_sign = 1 flips P, Q only (bracket-preserving); z_sign = -1 additionally
    flips Z, which does NOT preserve [P, Q] = Z.
    """
    g = z2()
    bundle = LieBundle(g.base, (heisenberg(),))
    flip = QMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, z_sign]])
    action = BundleAction(g, bundle, {"e": QMatrix.identity(3), "s": flip})
    return ConvolutionAlgebroid(g, bundle, action, truncation)


def test_convolution_goldens_sign_line():
    carrier = z2line()
    x_s = carrier.basis_element(("s", (1,)))
    sq = carrier.mul(x_s, x_s)
    # (X d_s)^2 = -X^2 d_e: the flip hits the left coefficient
    assert sq == carrier.basis_element(("e", (2,))).scale(-1)
    assert carrier.antipode(x_s) == x_s
    # S(X d_e) = -X d_e
    x_e = carrier.basis_element(("e", (1,)))
    assert carrier.antipode(x_e) == x_e.scale(-1)


def test_convolution_delta_and_counit():
    carrier = z2line()
    x_s = carrier.basis_element(("s", (1,)))
    d_s = carrier.basis_element(("s", (0,)))
    expected = FiberTensor.of_pair(x_s, d_s) + FiberTensor.of_pair(d_s, x_s)
    assert carrier.delta(x_s) == expected
    assert carrier.counit(d_s) == BaseFun.one(carrier.base)
    assert carrier.counit(x_s).is_zero()


def test_embedding_is_an_algebra_map():
    carrier = carrier_from_model(pairh3_model())
    f = base_fun(carrier.base, {"x": 2, "y": -3})
    g = base_fun(carrier.base, {"x": 5})
    fg = BaseFun(carrier.base, tuple(a * b for a, b in zip(f.values, g.values)))
    assert carrier.mul(carrier.embed(f), carrier.embed(g)) == carrier.embed(fg)
    one = carrier.one()
    a = carrier.basis_element(carrier.labels[7])
    assert carrier.mul(one, a) == a and carrier.mul(a, one) == a


def test_base_weights_by_source_and_target():
    carrier = carrier_from_model(pairh3_model())
    r = base_fun(carrier.base, {"x": 2, "y": 3})
    # a supported on the arrow y <- x picks up r(source) on the right
    a = carrier.basis_element(("ayx", (1, 0, 0)))
    assert carrier.mul(a, carrier.embed(r)) == a.scale(2)
    assert carrier.mul(carrier.embed(r), a) == a.scale(3)


def test_anchor_of_arrow_indicator_moves_points():
    carrier = carrier_from_model(pairh3_model())
    d = carrier.basis_element(("ayx", (0, 0, 0)))
    r = BaseFun.indicator(carrier.base, "x")
    rho = carrier.anchor(d, r)
    assert rho("y") == 1 and rho("x") == 0


def test_axiom_suite_passes_on_presets():
    assert check_axioms(z2line(), samples=60, seed=3).ok
    assert check_axioms(carrier_from_model(pairh3_model()), samples=40, seed=3).ok


def test_axiom_suite_exhaustive_on_small_tables():
    carrier = carrier_from_model(funs3_model())
    report = check_axioms(carrier)
    assert report.mode == "exhaustive-basis"
    assert report.ok


def test_bracket_preserving_flip_is_fine():
    carrier = h3_z2_carrier(z_sign=1)
    assert carrier.validate() == []
    assert check_axioms(carrier, samples=40, seed=5).ok


def test_corrupted_action_is_flagged_by_validate():
    carrier = h3_z2_carrier(z_sign=-1)
    assert any("bracket" in v for v in carrier.validate())


def test_corrupted_action_breaks_associativity_with_witness():
    carrier = h3_z2_carrier(z_sign=-1)
    a = carrier.basis_element(("s", (0, 0, 0)))
    b = carrier.basis_element(("e", (0, 1, 0)))  # Q d_e
    c = carrier.basis_element(("e", (1, 0, 0)))  # P d_e
    lhs = carrier.mul(carrier.mul(a, b), c)
    rhs = carrier.mul(a, carrier.mul(b, c))
    assert lhs != rhs
    # the discrepancy is exactly the flipped central term, twice
    assert lhs - rhs == carrier.basis_element(("s", (0, 0, 1))).scale(-2)


def test_corrupted_action_breaks_antipode_convolution():
    carrier = h3_z2_carrier(z_sign=-1)
    a = carrier.basis_element(("s", (1, 1, 0)))  # PQ d_s
    lhs = carrier.delta(a).collapse()
    rhs = carrier.embed(carrier.counit(carrier.antipode(a)))
    assert lhs != rhs


def test_corrupted_action_keeps_comultiplication_multiplicative():
    # substituting generators linearly commutes with the generator-defined
    # coproduct whether or not brackets are preserved, so this law survives
    carrier = h3_z2_carrier(z_sign=-1)
    report = check_axioms(carrier, samples=60, seed=5)
    by_name = {c.name: c for c in report.checks}
    assert by_name["axiom_iii_comult_multiplicative"].ok
    assert not report.ok
    broken = {c.name for c in report.failures()}
    # ``validate`` runs first and names the bracket the action breaks.
    assert broken <= {"validate", "associativity", "axiom_v_antipode_convolution",
                      "axiom_iv_antihomomorphism"}
    assert "validate" in broken and "associativity" in broken
    assert any("bracket" in c.witness for c in report.failures() if c.name == "validate")
    witness = by_name["associativity"].witness
    assert witness


def test_fiber_tensor_drops_mixed_targets():
    carrier = carrier_from_model(pairh3_model())
    at_x = carrier.basis_element(("axx", (0, 0, 0)))
    at_y = carrier.basis_element(("ayy", (0, 0, 0)))
    assert FiberTensor.of_pair(at_x, at_y).is_zero()
    mixed = FiberTensor.of_pair(at_x + at_y, at_x + at_y)
    keys = set(mixed.data)
    assert keys == {(("axx", (0, 0, 0)), ("axx", (0, 0, 0))),
                    (("ayy", (0, 0, 0)), ("ayy", (0, 0, 0)))}
    with pytest.raises(CoherenceError):
        FiberTensor(carrier, 2, {(("axx", (0, 0, 0)), ("ayy", (0, 0, 0))): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        FiberTensor(carrier, 3, {(("axx", (0, 0, 0)), ("axx", (0, 0, 0))): Fraction(1)})


@pytest.mark.parametrize("model", [pairh3_model, funs3_model])
def test_carrier_operations_skip_the_key_checks(model, monkeypatch):
    carrier = carrier_from_model(model())
    checked = []
    real = FiberTensor.__init__

    def counting(self, *args):
        checked.append(args)
        real(self, *args)

    monkeypatch.setattr(FiberTensor, "__init__", counting)
    assert check_axioms(carrier, samples=8, seed=3).ok
    t = carrier.delta(carrier.random_element(random.Random(3)))
    assert (t + t - t.scale(2)).is_zero()
    assert checked == []
    FiberTensor(carrier, 2, dict(t.data))
    assert len(checked) == 1


def test_overflow_propagates_through_convolution():
    carrier = h3_z2_carrier(z_sign=1, truncation=2)
    pq = carrier.basis_element(("e", (1, 1, 0)))
    p = carrier.basis_element(("e", (1, 0, 0)))
    with pytest.raises(TruncationOverflow):
        carrier.mul(pq, p)


def test_carrier_dimensions():
    assert z2line().dim == 10  # 2 arrows x 5 monomials of degree <= 4 in X
    assert carrier_from_model(pairh3_model()).dim == 140  # 4 arrows x 35
    assert carrier_from_model(funs3_model()).dim == 6


def test_element_carrier_safety():
    a = z2line()
    b = z2line()
    with pytest.raises(DimensionMismatch):
        a.mul(a.one(), b.one())


def test_products_across_carriers_raise():
    for make in (z2line, lambda: carrier_from_model(funs3_model())):
        a, b = make(), make()
        x_a, y_b = a.basis_element(a.labels[0]), b.basis_element(b.labels[0])
        for left, right in ((x_a, y_b), (y_b, x_a)):
            with pytest.raises(DimensionMismatch):
                a.mul(left, right)
        with pytest.raises(DimensionMismatch):
            a.delta(x_a).mul_pairwise(b.delta(y_b))


def test_sums_of_mixed_operands_raise():
    """``+`` and ``-`` take only a map of the same type, carrier and arity."""
    one, other = z2line(), z2line()
    x = one.basis_element(one.labels[1])
    pair = one.delta(x)
    mixed = [
        (x, pair), (pair, x),                                    # element and tensor
        (pair, pair.delta_leg(0)), (pair.delta_leg(1), pair),    # arities 2 and 3
        (x, other.basis_element(other.labels[1])),               # two carriers
        (pair, other.delta(other.basis_element(other.labels[1]))),
        (x, 1), (pair, 1),                                       # not a map
    ]
    for left, right in mixed:
        for op in (operator.add, operator.sub):
            with pytest.raises(DimensionMismatch):
                op(left, right)
    assert (x + x - x) == x and (pair - pair).is_zero()


# ---------------------------------------------------------------------------
# table import coherence
# ---------------------------------------------------------------------------

def tiny_table(**overrides):
    """A two-point commutative table: indicators of two isolated units."""
    base = BaseSpace(("x", "y"))
    fields = dict(
        names=["ux", "uy"],
        targets={"ux": "x", "uy": "y"},
        r_embed={"x": {"ux": 1}, "y": {"uy": 1}},
        mul_table={("ux", "ux"): {"ux": 1}, ("uy", "uy"): {"uy": 1}},
        delta_table={"ux": {("ux", "ux"): 1}, "uy": {("uy", "uy"): 1}},
        counit_table={"ux": 1, "uy": 1},
        antipode_table={"ux": {"ux": 1}, "uy": {"uy": 1}},
    )
    fields.update(overrides)
    return TableAlgebroid(base, fields["names"], fields["targets"],
                          fields["r_embed"], fields["mul_table"],
                          fields["delta_table"], fields["counit_table"],
                          fields["antipode_table"])


def test_tiny_table_imports_and_passes():
    carrier = tiny_table()
    report = check_axioms(carrier)
    assert report.mode == "exhaustive-basis"
    assert report.ok


def test_table_rejects_target_grading_violation():
    with pytest.raises(CoherenceError):
        tiny_table(mul_table={("ux", "ux"): {"uy": 1}, ("uy", "uy"): {"uy": 1}})


def test_table_rejects_non_fiberwise_coproduct():
    with pytest.raises(CoherenceError):
        tiny_table(delta_table={"ux": {("ux", "uy"): 1}, "uy": {("uy", "uy"): 1}})


def test_table_rejects_incomplete_base_embedding():
    with pytest.raises(CoherenceError):
        tiny_table(r_embed={"x": {"ux": 1}})


def test_table_rejects_misplaced_base_embedding():
    with pytest.raises(CoherenceError):
        tiny_table(r_embed={"x": {"uy": 1}, "y": {"uy": 1}})


def test_table_rejects_broken_local_units():
    with pytest.raises(CoherenceError):
        tiny_table(mul_table={("ux", "ux"): {"ux": 2}, ("uy", "uy"): {"uy": 1}})


def test_table_rejects_unknown_names():
    with pytest.raises(CoherenceError):
        tiny_table(counit_table={"ux": 1, "nope": 1},
                   antipode_table={"ux": {"nope": 1}, "uy": {"uy": 1}})


def test_non_coassociative_table_caught_by_suite():
    # keep import-level coherence but skew the coproduct of uy by a scalar
    carrier = tiny_table(delta_table={"ux": {("ux", "ux"): 1},
                                      "uy": {("uy", "uy"): 2}})
    report = check_axioms(carrier)
    assert not report.ok
    failing = {c.name for c in report.failures()}
    assert "counit_law_left" in failing or "coassociativity" in failing


def test_non_involutive_antipode_caught_by_suite():
    carrier = tiny_table(antipode_table={"ux": {"ux": -1}, "uy": {"uy": 1}})
    report = check_axioms(carrier)
    assert not report.ok
    assert any(c.name in ("antipode_involutive", "axiom_iv_antipode_on_base")
               for c in report.failures())


def sl2_n4_label_tuples():
    """The distinct labels of the 100 single samples of ``check_axioms`` on
    bench ``sl2`` N=4 at seed 1, and the distinct label pairs of its 100 pair
    samples: each list has no more of them than samples, so both are
    checked by labels."""
    carrier = carrier_from_model(load("workloads").sl2_model(4))
    rng = random.Random(1)
    draws = [carrier.random_element(rng) for _ in range(300)]
    labels = {l for a in draws[:100] for l in a._c}
    pairs = {(l1, l2) for a, b in zip(draws[100::2], draws[101::2])
             for l1 in a._c for l2 in b._c}
    assert (len(labels), len(pairs)) == (8, 64)
    return carrier, labels, pairs


def test_each_single_sample_coproduct_is_built_once(monkeypatch):
    carrier, labels, pairs = sl2_n4_label_tuples()
    calls = []
    real = HopfAlgebroid.delta

    def counting(self, a):
        calls.append(1)
        return real(self, a)

    with monkeypatch.context() as patch:
        patch.setattr(HopfAlgebroid, "delta", counting)
        report = check_axioms(carrier, samples=100)
    assert report.ok and len(carrier.base.points) == 1
    # Every label and label pair that the samples use passes, so no sample
    # is evaluated: the five laws that read a coproduct build one per label
    # each, the multiplicative coproduct three per label pair, and one per
    # point on the base.
    assert len(calls) == 5 * len(labels) + 3 * len(pairs) + 1


def test_each_pair_sample_product_is_built_once(monkeypatch):
    carrier, _, pairs = sl2_n4_label_tuples()
    calls = []
    real = HopfAlgebroid.mul

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    with monkeypatch.context() as patch:
        # Each carrier class binds ``mul`` in its own namespace.
        patch.setattr(type(carrier), "mul", counting)
        report = check_axioms(carrier, samples=100, seed=1)
    assert report.ok
    # Three per label pair (its product, shared by three laws, then one more
    # for the counit law and one for the antihomomorphism).  The triples use
    # more label triples than there are samples, so each of them is
    # evaluated: four products per triple.
    assert len(calls) == 3 * len(pairs) + 4 * 100


def every_sample(name, items, predicate, tuples=None):
    """``run_law`` without the label tuples: every item is evaluated in turn."""
    checked = 0
    for item in items:
        witness = predicate(item)
        checked += 1
        if witness is not None:
            return algebroid.AxiomCheck(name, False, checked, witness)
    return algebroid.AxiomCheck(name, True, checked)


def perturbed_caches(model, table, key, terms):
    """The carrier of ``model`` with one entry of a memoized table replaced
    by ``terms``: a label's coproduct or antipode (``table`` is
    ``"_delta_cache"`` or ``"_antipode_cache"``), or a label pair's product
    (``"_products"``, or a table carrier's ``"_mul"``)."""
    carrier = carrier_from_model(model)
    getattr(carrier, table)[key] = terms
    return carrier


def oracle_carriers():
    sl2 = load("workloads").sl2_model
    unit = (0, 0, 0)
    for name, build in (("z2line", z2line_model), ("pairh3", pairh3_model),
                        ("funs3", funs3_model)):
        yield ("preset", name), carrier_from_model(build())
    yield from ((("sl2", n), carrier_from_model(sl2(n))) for n in range(1, 7))
    yield from ((("random", s), carrier_from_model(random_model(s))) for s in range(40))
    x = ("e", (1,))
    yield ("z2line", "delta"), perturbed_caches(
        z2line_model(), "_delta_cache", x, (((x, ("e", (0,))), 1), ((("e", (0,)), x), 2)))
    yield ("z2line", "antipode"), perturbed_caches(
        z2line_model(), "_antipode_cache", ("s", (1,)), ((("s", (1,)), 2),))
    p = ("axy", (1, 0, 0))
    yield ("pairh3", "delta"), perturbed_caches(
        pairh3_model(), "_delta_cache", p, (((p, ("axy", unit)), 1),))
    yield ("pairh3", "antipode"), perturbed_caches(
        pairh3_model(), "_antipode_cache", p, ((("ayx", (0, 1, 0)), -1),))
    funs3 = funs3_model()
    funs3["table"]["delta"]["d120"][0][2] = -1
    yield ("funs3", "delta"), carrier_from_model(funs3)
    funs3 = funs3_model()
    funs3["table"]["antipode"]["d120"] = {"d201": 2}
    yield ("funs3", "antipode"), carrier_from_model(funs3)
    # One stray term in a label product each.  On z2line the pair samples use
    # fewer label pairs than there are samples, so the pair laws take the
    # label path, and on its two-label flat variant associativity does too;
    # funs3 is checked on every basis tuple directly.
    yield ("z2line", "product"), perturbed_caches(
        z2line_model(), "_products", (x, ("s", (1,))),
        ((("s", (2,)), 1), (("s", (0,)), 1)))
    yield ("pairh3", "product"), perturbed_caches(
        pairh3_model(), "_products", (p, ("ayx", (0, 1, 0))),
        ((("axx", (1, 1, 0)), 1), (("axx", unit), 1)))
    yield ("funs3", "product"), perturbed_caches(
        funs3_model(), "_mul", ("d012", "d021"), (("d012", 1),))
    e, s = ("e", ()), ("s", ())
    yield ("flat z2line", "product"), perturbed_caches(
        flat_z2line_model(4), "_products", (e, s), ((s, 1), (e, 1)))


def test_labelwise_report_equals_evaluating_every_sample(monkeypatch):
    """Proving the linear laws label by label changes no report: not a
    count, not the first failing sample, not its witness."""
    failing = set()
    for key, carrier in oracle_carriers():
        report = check_axioms(carrier, samples=40, seed=3).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(algebroid, "run_law", every_sample)
            expected = check_axioms(carrier, samples=40, seed=3).to_json()
        assert report == expected, key
        if not report["ok"]:
            failing.add(key)
    # Each perturbation is caught, so witnesses are compared too.
    perturbed = {(name, table) for name in ("z2line", "pairh3", "funs3")
                 for table in ("delta", "antipode", "product")}
    assert failing == perturbed | {("flat z2line", "product")}


@pytest.mark.parametrize("build, unit", [(z2line_model, ("e", (0,))),
                                         (pairh3_model, ("axx", (0, 0, 0)))])
def test_check_axioms_catches_a_doubled_unit_square(build, unit):
    """``validate`` reads no product, and ``roundtrip`` decides its axiom
    stage by ``validate`` alone; so a wrong label product is caught by the
    sampled laws of ``check_axioms``, here at its defaults."""
    carrier = perturbed_caches(build(), "_products", (unit, unit), ((unit, 2),))
    assert carrier.mul_label(unit, unit) == ((unit, 2),)
    assert carrier.validate() == []
    report = check_axioms(carrier)
    assert not report.ok and "associativity" in {c.name for c in report.failures()}


def test_a_linear_law_passes_a_sample_whose_failing_labels_cancel():
    """``counit_law_left`` fails on the labels x and y of a carrier whose
    coproducts of x and y carry opposite stray terms, and holds on x + y: that
    sample is evaluated, counts as checked and passes.  After the failing
    label, every later sample is evaluated, and the first that fails is the
    witness."""
    x, y, one = ("e", (1,)), ("e", (2,)), ("e", (0,))
    carrier = carrier_from_model(z2line_model())
    for label, c in ((x, 1), (y, -1)):
        carrier._delta_cache[label] = carrier.delta_label(label) + (((one, one), c),)
    evaluated = []

    def counit_left(a):
        evaluated.append(a.text())
        return None if carrier.delta(a).counit_leg(0).to_element() == a else a.text()

    X, Y, S = (carrier.basis_element(l) for l in (x, y, ("s", (1,))))
    items = [X + Y, S.scale(3), X + Y.scale(2)]
    check = run_law("counit_law_left", items, counit_left, label_tuples(items))
    assert (check.ok, check.checked) == (False, 3)
    assert check.witness == (X + Y.scale(2)).text() == "1*X@e + 2*X^2@e"
    # x fails, so the samples are evaluated from x + y on, with y and the
    # label of 3 S unread.
    assert evaluated == [X.text(), (X + Y).text(), S.scale(3).text(), check.witness]
    assert counit_left(X) and counit_left(Y) and counit_left(X + Y) is None


def test_a_bilinear_law_passes_a_pair_whose_failing_label_pairs_cancel():
    """The counit is multiplicative on a pair exactly when eps(ab) equals
    eps(a eps(b)).  With opposite stray units in the products of the label
    pairs (x, x) and (x, y), it fails on both and holds on (x, x + y): that
    pair is evaluated, counts as checked and passes.  After the failing
    label pair, every later pair is evaluated, and the first that fails is
    the witness."""
    x, y, one = ("e", (1,)), ("e", (2,)), ("e", (0,))
    carrier = carrier_from_model(z2line_model())
    for pair, c in (((x, x), 1), ((x, y), -1)):
        carrier._products[pair] = carrier.mul_label(*pair) + ((one, c),)
    counit, embed = carrier._counit_values, carrier._embed_values
    evaluated = []

    def counit_mult(pair):
        a, b = pair
        evaluated.append(f"{a.text()}; {b.text()}")
        ok = counit(carrier.mul(a, b)) == counit(carrier.mul(a, embed(counit(b))))
        return None if ok else evaluated[-1]

    X, Y, S = (carrier.basis_element(l) for l in (x, y, ("s", (1,))))
    items = [(X, X + Y), (S.scale(3), S), (X, X + Y.scale(2))]
    tuples = label_tuples(items)
    assert list(tuples) == [(x, x), (x, y), (("s", (1,)), ("s", (1,)))]
    check = run_law("axiom_iii_counit_multiplicative", items, counit_mult, tuples)
    assert (check.ok, check.checked) == (False, 3)
    assert check.witness == "1*X@e; 1*X@e + 2*X^2@e"
    # (x, x) fails, so the pairs are evaluated from (x, x + y) on, with
    # (x, y) and the label pair of (3 S, S) unread.
    assert evaluated == ["1*X@e; 1*X@e", "1*X@e; 1*X@e + 1*X^2@e", "3*X@s; 1*X@s",
                         check.witness]
    assert counit_mult((X, X)) and counit_mult((X, Y)) and counit_mult((X, X + Y)) is None


def multilinear_operations(carrier, seed):
    """Each operation the axiom laws read, with seeded sample arguments:
    elements, or coproducts of elements where it takes tensors."""
    rng = random.Random(seed)
    a, b, c, d = (carrier.random_element(rng) for _ in range(4))
    t, u = carrier.delta(c), carrier.delta(d)
    return [
        ("mul", carrier.mul, (a, b)),
        ("delta", carrier.delta, (a,)),
        ("antipode", carrier.antipode, (a,)),
        ("_counit_values", carrier._counit_values, (a,)),
        ("mul_pairwise", FiberTensor.mul_pairwise, (t, u)),
        ("collapse", FiberTensor.collapse, (t,)),
        *((f"delta_leg {leg}", partial(FiberTensor.delta_leg, leg=leg), (t,)) for leg in (0, 1)),
        *((f"counit_leg {leg}", partial(FiberTensor.counit_leg, leg=leg), (t,)) for leg in (0, 1)),
        *((f"right_mul_leg {leg}", lambda v, e, leg=leg: v.right_mul_leg(leg, e), (t, b))
          for leg in (0, 1)),
    ]


def basis_terms(x):
    """``x`` as ``(coefficient, basis element or basis tensor)`` terms."""
    return [(c, type(x)._of(x.carrier, x.arity, {key: 1})) for key, c in x._c.items()]


def weighted_sum(terms):
    """The sum of ``c * value`` over the terms, for values that are elements,
    tensors or tuples of scalars."""
    total = None
    for c, value in terms:
        if isinstance(value, tuple):
            value = tuple(c * v for v in value)
            total = value if total is None else tuple(map(operator.add, total, value))
        else:
            value = value.scale(c)
            total = value if total is None else total + value
    return total


def test_the_operations_the_laws_read_are_multilinear():
    """What the label path of ``run_law`` rests on: each operation that a law
    reads is the coefficient-weighted sum of its values on the basis labels,
    or label tuples, of its arguments' supports."""
    carriers = [("sl2", carrier_from_model(load("workloads").sl2_model(4))),
                ("pairh3", carrier_from_model(pairh3_model())),
                ("funs3", carrier_from_model(funs3_model()))]
    carriers += [(("random", s), carrier_from_model(random_model(s))) for s in range(40)]
    for key, carrier in carriers:
        for seed in (1, 2):
            for name, operation, args in multilinear_operations(carrier, seed):
                expected = weighted_sum(
                    (math.prod(c for c, _ in combo), operation(*(x for _, x in combo)))
                    for combo in itertools.product(*map(basis_terms, args)))
                assert operation(*args) == expected, (key, name, seed)


SAMPLED_LAWS = {
    "axiom_ii_balanced_coproduct", "axiom_iii_counit_multiplicative",
    "axiom_iii_comult_multiplicative", "axiom_iv_antihomomorphism",
    "axiom_v_antipode_convolution", "coassociativity", "counit_law_left",
    "counit_law_right", "antipode_involutive", "associativity",
}


def at_truncation(model, n):
    model["truncation"] = n
    return model


def test_default_draws_never_overflow():
    """The degree caps keep every sampled evaluation inside the truncation.

    ``check_axioms`` draws degree <= N // 3 and multiplies at most three
    draws; theta draws degree <= N // 2 and multiplies at most two.  So
    every sampled law checks all of its samples.  At N=0 these presets are
    checked on full bases instead (see the next test).
    """
    models = [at_truncation(make(), n) for make in (pairh3_model, z2line_model)
              for n in range(1, 7)]
    models += [random_model(s) for s in range(16)]
    for model in models:
        report = check_axioms(carrier_from_model(model), samples=20)
        assert report.mode == "sampled" and report.resampled == 0
        sampled = {c.name: c.checked for c in report.checks if c.name in SAMPLED_LAWS}
        assert sampled == dict.fromkeys(SAMPLED_LAWS, 20)
    for n in (2, 3, 4):
        theta = analyze(carrier_from_model(at_truncation(pairh3_model(), n)), samples=20).theta
        assert [c.checked for c in theta.hom_checks] == [12, 12, 12, 12, 1]


PAIR_LAWS = {"axiom_iii_counit_multiplicative", "axiom_iii_comult_multiplicative",
             "axiom_iv_antihomomorphism"}


def flat_z2line_model(truncation):
    """``z2line`` with a 0-dimensional fiber: two labels at any truncation."""
    model = at_truncation(z2line_model(), truncation)
    model["bundle"][0]["basis"] = []
    model["action"] = [{"arrow": g, "matrix": []} for g in ("e", "s")]
    return model


def wide_z2line_model(dim, truncation):
    """``z2line`` with a ``dim``-dimensional abelian fiber that ``s`` negates:
    all dim**3 structure constants are 0."""
    model = at_truncation(z2line_model(), truncation)
    model["bundle"][0]["basis"] = [f"X{i}" for i in range(1, dim + 1)]
    model["action"] = [
        {"arrow": g, "matrix": [[c if i == j else 0 for j in range(dim)] for i in range(dim)]}
        for g, c in (("e", 1), ("s", -1))]
    return model


def test_truncation_zero_is_checked_on_every_basis_tuple():
    """The exhaustive mode follows the bound, not the carrier class: at N=0
    no product of labels overflows, so a convolution carrier of at most 12
    labels is proved on every label, pair and triple.  Labels of degree 0
    alone do not make it exhaustive: a 0-dimensional fiber at N=4 is sampled."""
    for make in (z2line_model, pairh3_model):
        carrier = carrier_from_model(at_truncation(make(), 0))
        report = check_axioms(carrier, samples=20)
        assert report.mode == "exhaustive-basis" and report.ok, make
        d = carrier.dim
        expected = {name: d ** (3 if name == "associativity" else 2 if name in PAIR_LAWS else 1)
                    for name in SAMPLED_LAWS}
        assert {c.name: c.checked for c in report.checks if c.name in SAMPLED_LAWS} == expected
    flat = carrier_from_model(flat_z2line_model(4))
    assert all(flat.label_degree(l) == 0 for l in flat.labels)
    assert check_axioms(flat, samples=20).mode == "sampled"


def test_a_zero_dimensional_fiber_does_not_grow_with_the_truncation():
    """A 0-dimensional fiber has one monomial at every degree bound, so a
    truncation of 10**12 is as cheap as 0."""
    assert monomials_up_to(0, 10**12) == [()]
    carrier = carrier_from_model(flat_z2line_model(10**12))
    assert carrier.labels == (("e", ()), ("s", ()))
    assert analyze(carrier).decision.verdict == "ISO"


def test_a_wide_abelian_fiber_is_decided_iso():
    """Each generator of an abelian fiber is a primitive, and the bundle of
    primitives is the fiber again."""
    analysis = analyze(carrier_from_model(wide_z2line_model(8, 1)))
    assert analysis.decision.verdict == "ISO"
    assert analysis.prim.ranks() == {"x": 8}


def draw_up_to_the_truncation(monkeypatch):
    """Make convolution draws ignore their degree cap, so products overflow."""
    real = ConvolutionAlgebroid.random_element
    monkeypatch.setattr(ConvolutionAlgebroid, "random_element",
                        lambda self, rng, degree_cap=None: real(self, rng, self.truncation))


def test_an_overflow_in_a_law_is_an_error(monkeypatch):
    """No sample is skipped: a ``TruncationOverflow`` leaves ``run_law``,
    whether an item or one of its labels raises it, and ``check_axioms``;
    ``analyze`` reports it as ``ERROR`` at stage ``axioms``."""
    calls = []

    def second_item_overflows(item):
        calls.append(item)
        if item == 1:
            raise TruncationOverflow(3, 2)

    with pytest.raises(TruncationOverflow):
        run_law("law", range(5), second_item_overflows)
    assert calls == [0, 1]

    carrier = z2line()

    def overflows(a):
        raise TruncationOverflow(5, 4)

    with pytest.raises(TruncationOverflow):
        items = [carrier.basis_element(("e", (1,)))]
        run_law("law", items, overflows, label_tuples(items))

    draw_up_to_the_truncation(monkeypatch)
    with pytest.raises(TruncationOverflow):
        check_axioms(carrier)
    decision = analyze(carrier).decision
    assert decision.verdict == "ERROR" and decision.stage_error[0] == "axioms"
    assert "exceeds truncation bound 4" in decision.stage_error[1]


def test_zero_samples_are_inconclusive_not_a_pass():
    carrier = carrier_from_model(pairh3_model())
    report = check_axioms(carrier, samples=0, seed=1)
    statuses = {c.name: c.status for c in report.checks}
    # the base laws run on every point, the sampled ones on nothing
    assert statuses["axiom_i_counit_on_base"] == "pass"
    assert statuses["associativity"] == "inconclusive"
    assert not report.failures() and not report.ok
    assert report.to_json()["ok"] is False
    assert "INCONCLUSIVE associativity (checked 0)" in report.text()
    assert report.text().endswith("INCONCLUSIVE overall")


def test_a_negative_sample_count_raises_before_drawing(monkeypatch):
    """A negative count is a caller's error, not zero samples."""
    carrier = carrier_from_model(pairh3_model())
    monkeypatch.setattr(HopfAlgebroid, "random_element",
                        lambda *args, **kwargs: pytest.fail("drew a sample"))
    with pytest.raises(ValueError, match="nonnegative, got -3"):
        check_axioms(carrier, samples=-3, seed=1)


# ---------------------------------------------------------------------------
# sampled draws
# ---------------------------------------------------------------------------

SAMPLE_COEFFS = (-3, -2, -1, 1, 2, 3)


def indicator_table(n):
    """A table carrier of n labels: the indicators of n points, each its own unit."""
    points = tuple(f"p{i}" for i in range(n))
    names = [f"u{i}" for i in range(n)]
    return TableAlgebroid(BaseSpace(points), names, dict(zip(names, points)),
                          {p: {u: 1} for p, u in zip(points, names)},
                          {(u, u): {u: 1} for u in names}, {u: {(u, u): 1} for u in names},
                          dict.fromkeys(names, 1), {u: {u: 1} for u in names})


def test_draws_stay_under_the_degree_cap():
    """Every sample has 1 to 4 labels of degree at most its cap, each with a
    coefficient in -3..3 other than 0, and one seed gives one element.  The
    caps: ``check_axioms``'s default, a third of the truncation; theta's
    half; and one above the truncation, where every label may be drawn."""
    carriers = [z2line(), carrier_from_model(at_truncation(pairh3_model(), 6)),
                carrier_from_model(load("workloads").sl2_model(6)),
                carrier_from_model(funs3_model()), indicator_table(13)]
    carriers += [carrier_from_model(random_model(seed)) for seed in range(8)]
    for carrier in carriers:
        n = carrier.truncation
        for cap, bound in ((None, n // 3), (n // 2, n // 2), (n + 2, n)):
            rng, twin = random.Random(3), random.Random(3)
            for _ in range(50):
                x = carrier.random_element(rng, degree_cap=cap)
                assert 1 <= len(x._c) <= 4
                assert all(carrier.label_degree(l) <= bound for l in x._c)
                assert all(type(c) is int and c in SAMPLE_COEFFS for c in x._c.values())
                assert x == carrier.random_element(twin, degree_cap=cap)


def test_draws_reach_every_label_of_a_small_pool():
    """A draw is uniform over the labels under its cap: 400 draws reach each
    label of a small pool and no other, with every coefficient and every
    support size from 1 to 4."""
    line, table = z2line(), indicator_table(13)
    cases = [(line, 1, {l for l in line.labels if line.label_degree(l) <= 1}),
             (line, line.truncation + 1, set(line.labels)), (table, None, set(table.labels))]
    assert [len(pool) for _c, _cap, pool in cases] == [4, 10, 13]
    for carrier, cap, pool in cases:
        rng = random.Random(1)
        draws = [carrier.random_element(rng, degree_cap=cap) for _ in range(400)]
        assert {l for x in draws for l in x._c} == pool
        assert {c for x in draws for c in x._c.values()} == set(SAMPLE_COEFFS)
        assert {len(x._c) for x in draws} == {1, 2, 3, 4}


def test_negative_degree_cap_raises_before_drawing():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="degree cap must be nonnegative, got -1"):
        z2line().random_element(rng, degree_cap=-1)
    assert rng.getstate() == state


def test_table_without_labels_raises_before_drawing():
    carrier = carrier_from_model({
        "format": "hopf-algebroid-model", "version": 1, "kind": "table", "base": ["pt"],
        "table": {"basis": [], "baseEmbedding": {"pt": {}}, "mul": [], "delta": {},
                  "counit": {}, "antipode": {}},
    })
    assert carrier.dim == 0
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no labels"):
        carrier.random_element(rng)
    assert rng.getstate() == state


def factorization_walk(carrier, a, b):
    """The convolution product as a walk over every factorization of every arrow.

    This is the textbook reading of the definition, kept as an oracle: for
    each arrow g it sums a(h) * (h . b(k)) over the sorted pairs h after k = g.
    """
    groupoid = carrier.groupoid
    factorizations = {g: [] for g in groupoid.arrows}
    for (h, k), g in groupoid.compose_table.items():
        factorizations[g].append((h, k))

    def part(x, arrow):
        y = groupoid.target[arrow]
        terms = {m: c for (g, m), c in x.coeffs.items() if g == arrow}
        return UElement(carrier.bundle.fiber(y), y, carrier.truncation, terms)

    a_arrows = {h: part(a, h) for h, _m in a.coeffs}
    b_arrows = {k: part(b, k) for k, _m in b.coeffs}
    coeffs = {}
    for g, pairs in factorizations.items():
        acc = None
        for h, k in sorted(pairs):
            if h not in a_arrows or k not in b_arrows:
                continue
            y = groupoid.target[h]
            moved = b_arrows[k].transport(carrier.action.matrix(h), carrier.bundle.fiber(y), y)
            term = a_arrows[h].mul(moved)
            acc = term if acc is None else acc + term
        if acc is not None:
            coeffs.update({(g, m): c for m, c in acc.terms.items()})
    return AlgebroidElement(carrier, coeffs)


def pairh3_at_3_model():
    model = pairh3_model()
    model["truncation"] = 3
    return model


ORACLE_MODELS = [z2line_model, pairh3_at_3_model] + [partial(random_model, s) for s in range(8)]

cached_monomials = cache(monomials_up_to)


def wide_element(carrier, rng, cap, max_arrows=3, max_terms=3):
    """A convolution element over up to ``max_arrows`` arrows of up to
    ``max_terms`` terms each, of degree at most ``cap`` and coefficients in
    -3..3 other than 0: wider than a ``random_element`` sample."""
    arrows = sorted(carrier.groupoid.arrows)
    chosen = rng.sample(arrows, k=min(len(arrows), rng.randint(1, max_arrows)))
    coeffs = {}
    for g in chosen:
        monos = cached_monomials(carrier.bundle.fiber(carrier.groupoid.target[g]).dim,
                                 min(cap, carrier.truncation))
        for _ in range(rng.randint(1, max_terms)):
            m = rng.choice(monos)
            coeffs[(g, m)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return AlgebroidElement(carrier, coeffs)


@cache
def oracle_carrier(index):
    return carrier_from_model(ORACLE_MODELS[index]())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(0, len(ORACLE_MODELS) - 1),
    st.integers(0, 2**32),
    st.integers(0, 3),
    st.integers(1, 4),
)
def test_support_driven_product_matches_factorization_walk(index, seed, cap, max_arrows):
    carrier = oracle_carrier(index)
    rng = random.Random(seed)
    a, b = (wide_element(carrier, rng, cap, max_arrows=max_arrows) for _ in range(2))
    try:
        expected = factorization_walk(carrier, a, b)
    except TruncationOverflow:
        with pytest.raises(TruncationOverflow):
            carrier.mul(a, b)
        return
    assert carrier.mul(a, b) == expected


def test_overflowing_label_pair_raises_the_same_overflow_every_time():
    carrier = h3_z2_carrier(z_sign=1, truncation=2)
    pq = carrier.basis_element(("e", (1, 1, 0)))
    p = carrier.basis_element(("e", (1, 0, 0)))
    fiber = carrier.bundle.fiber("x")
    with pytest.raises(TruncationOverflow) as direct:
        UElement(fiber, "x", 2, {(1, 1, 0): 1}).mul(UElement(fiber, "x", 2, {(1, 0, 0): 1}))
    for _ in range(3):
        with pytest.raises(TruncationOverflow) as exc:
            carrier.mul(pq, p)
        assert (exc.value.degree, exc.value.truncation) == (3, 2)
        assert str(exc.value) == str(direct.value)
    # the memo holds products only
    assert (("e", (1, 1, 0)), ("e", (1, 0, 0))) not in carrier._products
    # the first overflowing label pair in term order is reported: the left
    # factor's first term decides
    big_first = AlgebroidElement(carrier, {("s", (1, 1, 0)): 1, ("e", (1, 0, 0)): 1})
    small_first = AlgebroidElement(carrier, {("e", (1, 0, 0)): 1, ("s", (1, 1, 0)): 1})
    for a, degree in ((big_first, 4), (small_first, 3)):
        with pytest.raises(TruncationOverflow) as exc:
            carrier.mul(a, pq)
        assert exc.value.degree == degree
    # the overflow does not poison the pairs that fit
    assert carrier.mul(p, p).coeffs == {("e", (2, 0, 0)): 1}
    flipped = carrier.mul(carrier.basis_element(("s", (0, 0, 0))), p)
    assert flipped.coeffs == {("s", (1, 0, 0)): -1}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.integers(0, len(ORACLE_MODELS) - 1),
    st.integers(0, 2**32),
    st.integers(0, 3),
)
def test_products_on_a_warm_carrier_match_a_fresh_carrier(index, seed, cap):
    warm = oracle_carrier(index)  # shared across examples and tests
    fresh = carrier_from_model(ORACLE_MODELS[index]())
    rng = random.Random(seed)
    a, b = (wide_element(warm, rng, cap) for _ in range(2))

    def product(carrier):
        try:
            result = carrier.mul(AlgebroidElement(carrier, a.coeffs),
                                 AlgebroidElement(carrier, b.coeffs))
        except TruncationOverflow as exc:
            return str(exc)
        return list(result.coeffs.items())

    expected = product(fresh)
    assert product(warm) == expected
    assert product(warm) == expected


# Test-local plain loops over label pairs in term order, and the tensor leg
# operations built on them: the carrier's products must reproduce their
# insertion order and their overflow reports.

def loop_mul(carrier, a, b):
    product = carrier.mul_label
    out = {}
    for l1, c1 in a.coeffs.items():
        for l2, c2 in b.coeffs.items():
            c12 = c1 * c2
            add_terms(out, ((l, c12 * c) for l, c in product(l1, l2)))
    return AlgebroidElement(carrier, out)


def loop_pair_terms(carrier, left: dict, right: dict, scale):
    target = carrier.label_target
    for l1, c1 in left.items():
        t1 = target(l1)
        c1 = scale * c1
        for l2, c2 in right.items():
            if target(l2) == t1:
                yield (l1, l2), c1 * c2


def loop_mul_pairwise(s, t):
    carrier = s.carrier
    out = {}
    for (a1, a2), c in s.data.items():
        for (b1, b2), d in t.data.items():
            left = loop_mul(carrier, carrier.basis_element(a1), carrier.basis_element(b1))
            if left.is_zero():
                continue
            right = loop_mul(carrier, carrier.basis_element(a2), carrier.basis_element(b2))
            if right.is_zero():
                continue
            add_terms(out, loop_pair_terms(carrier, left.coeffs, right.coeffs, c * d))
    return FiberTensor(carrier, 2, out)


def loop_antipode_label(carrier, label):
    """The antipode of one label as an element, from the fiber antipode and transport."""
    if carrier.kind == "table":
        return AlgebroidElement(carrier, dict(carrier.antipode_label(label)))
    g, m = label
    ginv = carrier.groupoid.inverse[g]
    y, x = carrier.groupoid.target[g], carrier.groupoid.target[ginv]
    u = UElement(carrier.bundle.fiber(y), y, carrier.truncation, {m: 1})
    moved = u.antipode().transport(carrier.action.matrix(ginv), carrier.bundle.fiber(x), x)
    return AlgebroidElement(carrier, {(ginv, n): c for n, c in moved.terms.items()})


def loop_antipode(a):
    carrier = a.carrier
    out = {}
    for l, c in a.coeffs.items():
        add_terms(out, ((k, c * x) for k, x in loop_antipode_label(carrier, l).coeffs.items()))
    return AlgebroidElement(carrier, out)


def loop_right_mul_leg(t, leg, element):
    carrier = t.carrier
    out = {}
    for key, c in t.data.items():
        prod = loop_mul(carrier, carrier.basis_element(key[leg]), element)
        add_terms(out, ((key[:leg] + (l,) + key[leg + 1:], c * x) for l, x in prod.coeffs.items()))
    return FiberTensor(carrier, t.arity, out)


def loop_collapse(t):
    carrier = t.carrier
    leg_maps = [loop_antipode, lambda e: e]
    out = {}
    for key, c in t.data.items():
        acc = None
        for leg, label in enumerate(key):
            factor = leg_maps[leg](carrier.basis_element(label))
            acc = factor if acc is None else loop_mul(carrier, acc, factor)
            if acc.is_zero():
                break
        if acc is not None:
            add_terms(out, ((l, c * x) for l, x in acc.coeffs.items()))
    return AlgebroidElement(carrier, out)


@cache
def order_carrier(index):
    """The carriers of ``ORACLE_MODELS``, then ``funs3`` and ``tiny_table()``."""
    if index < len(ORACLE_MODELS):
        return oracle_carrier(index)
    return carrier_from_model(funs3_model()) if index == len(ORACLE_MODELS) else tiny_table()


def ordered(compute):
    """The ordered terms of a product, or the message of its overflow."""
    try:
        result = compute()
    except TruncationOverflow as exc:
        return str(exc)
    return list((result.data if isinstance(result, FiberTensor) else result.coeffs).items())


def unordered(compute):
    """The terms of a product as a map, or None when it overflows."""
    try:
        result = compute()
    except TruncationOverflow:
        return None
    return dict(result.data if isinstance(result, FiberTensor) else result.coeffs)


def reversed_terms(x):
    return AlgebroidElement(x.carrier, dict(reversed(list(x.coeffs.items()))))


def assert_products_follow_the_loops(a, b):
    """Every product of ``a`` and ``b`` matches the term-order loops, and so
    does every product of the two with their terms reversed; the reversed
    factors give the same product maps, or overflow alike."""
    carrier = a.carrier
    ra, rb = reversed_terms(a), reversed_terms(b)
    for x, y in ((a, b), (ra, rb)):
        dx, dy, xy = carrier.delta(x), carrier.delta(y), FiberTensor.of_pair(x, y)
        assert ordered(lambda: carrier.mul(x, y)) == ordered(lambda: loop_mul(carrier, x, y))
        assert ordered(lambda: carrier.antipode(x)) == ordered(lambda: loop_antipode(x))
        for t in (dx, xy):
            assert ordered(lambda: t.mul_pairwise(dy)) == ordered(lambda: loop_mul_pairwise(t, dy))
            assert ordered(t.collapse) == ordered(lambda: loop_collapse(t))
            for leg in (0, 1):
                assert ordered(lambda: t.right_mul_leg(leg, y)) == ordered(
                    lambda: loop_right_mul_leg(t, leg, y)
                )
    assert unordered(lambda: carrier.mul(ra, rb)) == unordered(lambda: carrier.mul(a, b))
    assert unordered(lambda: carrier.delta(ra).mul_pairwise(carrier.delta(rb))) == unordered(
        lambda: carrier.delta(a).mul_pairwise(carrier.delta(b))
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(0, len(ORACLE_MODELS) + 1),
    st.integers(0, 2**32),
    st.integers(0, 3),
)
def test_products_keep_the_order_of_the_per_carrier_loops(index, seed, cap):
    carrier = order_carrier(index)
    rng = random.Random(seed)

    def draw():
        if carrier.kind == "convolution":
            return wide_element(carrier, rng, cap)
        labels = rng.sample(carrier.labels, k=rng.randint(1, min(4, carrier.dim)))
        return AlgebroidElement(carrier, {l: rng.choice([-2, -1, 1, 3]) for l in labels})

    assert_products_follow_the_loops(draw(), draw())


def test_product_memo_holds_only_composable_pairs():
    """``mul_label`` answers pairs whose arrows do not compose before its memo."""
    model = pairh3_model()
    model["truncation"] = 4
    carrier = carrier_from_model(model)
    assert analyze(carrier).decision.verdict == "ISO"
    compose = carrier.groupoid.compose_table
    assert carrier._products
    assert all((h, k) in compose for (h, _m1), (k, _m2) in carrier._products)


def test_bracket_is_the_commutator_of_the_products():
    """Where no product overflows, ``bracket`` is ``mul(a, b) - mul(b, a)``."""
    rng = random.Random(5)
    carriers = [carrier_from_model(pairh3_model()), carrier_from_model(funs3_model()),
                carrier_from_model(load("workloads").sl2_model(6)), z2line(),
                h3_z2_carrier(-1)]
    carriers += [carrier_from_model(random_model(seed)) for seed in range(8)]
    for carrier in carriers:
        for _ in range(10):
            a, b = carrier.random_element(rng), carrier.random_element(rng)
            assert carrier.bracket(a, b) == carrier.mul(a, b) - carrier.mul(b, a)
    a, b = z2line(), z2line()
    with pytest.raises(DimensionMismatch):
        a.bracket(a.one(), b.one())


def test_bracket_cancels_before_the_truncation_bound():
    """At N=1 the commutator [P, Q] = Z of the Heisenberg fiber is exact,
    although each product has degree 2; a degree-2 term that survives the
    cancellation still overflows, and the product memo is never written."""
    model = pairh3_model()
    model["truncation"] = 1
    carrier = carrier_from_model(model)
    p, q, z = (carrier.basis_element(("axx", m)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert carrier.bracket(p, q) == z and carrier.bracket(q, p) == z.scale(-1)
    assert carrier.bracket(p, z).is_zero()
    with pytest.raises(TruncationOverflow):
        carrier.mul(p, q)
    # The arrows axy and ayx compose both ways, to different units: nothing cancels.
    left, right = carrier.basis_element(("axy", (1, 0, 0))), carrier.basis_element(("ayx", (0, 1, 0)))
    with pytest.raises(TruncationOverflow, match="degree 2 exceeds truncation bound 1 "
                                                 r"\(commutator"):
        carrier.bracket(left, right)
    assert carrier._products == {}


def test_each_transport_is_computed_once(monkeypatch):
    """``mul_label`` and ``antipode_label`` share one transport per (arrow, monomial)."""
    carrier = carrier_from_model(load("workloads").sl2_model(6))
    arrow_of = {id(m): a for a, m in carrier.action.matrices.items()}
    calls = []

    def counted(m, matrix, fiber):
        calls.append((arrow_of[id(matrix)], m))
        return mono_transport(m, matrix, fiber)

    monkeypatch.setattr(algebroid, "mono_transport", counted)
    assert check_axioms(carrier).ok
    assert calls and len(calls) == len(set(calls)) == len(carrier._transports)


def test_non_injective_action_overflows_label_by_label():
    """Products are fixed label pair by label pair, before any cancellation.

    Here s sends X and Y both to X, so s . (X - Y) = 0 in the fiber, but the
    label product X@s * X@e already has degree 2 > 1.  ``validate`` rejects
    this action; on the actions it accepts every matrix is invertible, and
    an overflow of a label pair is an overflow of the whole product.
    """
    g = z2()
    bundle = LieBundle(g.base, (abelian(["X", "Y"]),))
    collapse = QMatrix([[1, 1], [0, 0]])
    action = BundleAction(g, bundle, {"e": QMatrix.identity(2), "s": collapse})
    carrier = ConvolutionAlgebroid(g, bundle, action, 1)
    assert carrier.validate()
    a = carrier.basis_element(("s", (1, 0)))
    b = AlgebroidElement(carrier, {("e", (1, 0)): 1, ("e", (0, 1)): -1})
    with pytest.raises(TruncationOverflow) as exc:
        carrier.mul(a, b)
    assert (exc.value.degree, exc.value.truncation) == (2, 1)


# Carriers whose structure constants are not all integers: the coefficients
# inside the carrier layer are then a mix of ints and Fractions.

def rational_heisenberg_pair_model():
    """``pairh3`` at N=3 with [P, Q] = -3/7 Z and a rational transport x -> y."""
    model = pairh3_at_3_model()
    for fiber in model["bundle"]:
        fiber["brackets"] = [["P", "Q", {"Z": "-3/7"}]]
    move = QMatrix([["1/2", 0, 0], [0, 1, 0], ["3/4", 0, "1/2"]])
    for arrow, m in (("ayx", move), ("axy", move.inverse())):
        entry = next(e for e in model["action"] if e["arrow"] == arrow)
        entry["matrix"] = [[rat_str(x) for x in row] for row in m.data]
    return model


def rational_solvable_z2_model():
    """[X, Y] = Y/2 over a point; the flip sends X to X + 2/5 Y and Y to -Y."""
    model = z2line_model()
    model["bundle"] = [
        {"point": "x", "basis": ["X", "Y"], "brackets": [["X", "Y", {"Y": "1/2"}]]}
    ]
    model["action"] = [
        {"arrow": "e", "matrix": [[1, 0], [0, 1]]},
        {"arrow": "s", "matrix": [[1, 0], ["2/5", -1]]},
    ]
    model["truncation"] = 3
    return model


RATIONAL_MODELS = [rational_heisenberg_pair_model, rational_solvable_z2_model]
RATIONAL_SCALES = (Fraction(10**12, 7), Fraction(-3, 7), Fraction(1, 2), 1, -2)


@cache
def rational_order_carrier(index):
    """The carriers of ``RATIONAL_MODELS``, then those of ``order_carrier``."""
    if index < len(RATIONAL_MODELS):
        return carrier_from_model(RATIONAL_MODELS[index]())
    return order_carrier(index - len(RATIONAL_MODELS))


def test_rational_models_are_valid_and_have_non_integral_constants():
    for model in RATIONAL_MODELS:
        carrier = carrier_from_model(model())
        assert carrier.validate() == []
        constants = set()
        for l1 in carrier.labels:
            for l2 in carrier.labels:
                try:
                    constants.update(c for _l, c in carrier.mul_label(l1, l2))
                except TruncationOverflow:
                    pass
        assert any(Fraction(c).denominator > 1 for c in constants)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.integers(0, len(RATIONAL_MODELS) + len(ORACLE_MODELS) + 1),
    st.integers(0, 2**32),
    st.integers(0, 3),
)
def test_products_with_non_integral_coefficients_keep_the_per_carrier_loops(index, seed, cap):
    carrier = rational_order_carrier(index)
    rng = random.Random(seed)

    def draw():
        if carrier.kind == "convolution":
            x = wide_element(carrier, rng, cap)
            labels = list(x.coeffs)
        else:
            labels = rng.sample(carrier.labels, k=rng.randint(1, min(4, carrier.dim)))
        return AlgebroidElement(carrier, {l: rng.choice(RATIONAL_SCALES) for l in labels})

    assert_products_follow_the_loops(draw(), draw())


def all_fractions(values):
    return all(type(c) is Fraction for c in values)


@pytest.mark.parametrize(
    "model",
    [z2line_model, pairh3_model] + [partial(random_model, s) for s in range(4)],
    ids=["z2line", "pairh3"] + [f"random{s}" for s in range(4)],
)
def test_public_coefficients_are_fractions(model):
    carrier = carrier_from_model(model())
    rng = random.Random(7)
    elements, tensors, fiber_elements = [], [], []

    def keep(out, compute):
        try:
            out.append(compute())
        except TruncationOverflow:
            pass

    for _ in range(5):
        a, b = (carrier.random_element(rng, degree_cap=1) for _ in range(2))
        da, db = carrier.delta(a), carrier.delta(b)
        elements += [a, a.scale(Fraction(1, 2)), carrier.antipode(a), a - b,
                     carrier.embed(carrier.counit(a)),
                     carrier.antipode(carrier.basis_element(carrier.labels[-1]))]
        keep(elements, lambda: carrier.mul(a, b))
        keep(elements, da.collapse)
        tensors += [da, FiberTensor.of_pair(a, b), da.delta_leg(0), da.counit_leg(1)]
        keep(tensors, lambda: da.mul_pairwise(db))
        for g in {g for g, _m in a.coeffs}:
            y = carrier.groupoid.target[g]
            terms = {m: c for (h, m), c in a.coeffs.items() if h == g}
            u = UElement(carrier.bundle.fiber(y), y, carrier.truncation, terms)
            fiber_elements += [u, u.antipode()]
            keep(fiber_elements, lambda: u.mul(u))
            assert all_fractions(u.delta().values())
    for e in elements:
        assert all_fractions(e.coeffs.values())
        for p in carrier.base.points:
            assert all_fractions(e.coords_at(p))
    for t in tensors:
        assert all_fractions(t.data.values())
    for u in fiber_elements:
        assert all_fractions(u.terms.values())


def test_integral_models_compute_in_ints():
    """Integral structure constants and samples keep every stored coefficient
    an ``int``; a ``Fraction`` would make each later product a ``Fraction`` one."""
    models = [load("workloads").sl2_model(4), at_truncation(pairh3_model(), 4)]
    for model in models:
        carrier = carrier_from_model(model)
        rng = random.Random(5)
        stored = []
        for _ in range(20):
            a, b = carrier.random_element(rng), carrier.random_element(rng)
            da = carrier.delta(a)
            for x in (carrier.mul(a, b), carrier.antipode(a), da.collapse(),
                      carrier.embed(carrier.counit(b))):
                stored += x._c.values()
            stored += da._c.values()
        assert stored and all(type(c) is int for c in stored)


def test_carrier_built_results_match_the_public_constructors():
    """Each carrier operation stores exact, nonzero coefficients, equal to what
    ``AlgebroidElement`` and ``FiberTensor`` make of its public ones."""
    models_with_fractions = 0
    for index in range(40):
        carrier = carrier_from_model(random_model(index))
        rng = random.Random(index)
        point = carrier.base.points[0]
        fractions = False
        for _ in range(3):
            a, b = carrier.random_element(rng), carrier.random_element(rng)
            da, db = carrier.delta(a), carrier.delta(b)
            elements = [a, b, a + b, -a, a - b, a.scale(Fraction(3, 2)), a.at_point(point),
                        carrier.mul(a, b), carrier.antipode(a),
                        carrier.embed(carrier.counit(b)), da.collapse(),
                        da.counit_leg(0).to_element()]
            tensors = [da, da + db, da - db, da.scale(2), da.scale(0),
                       FiberTensor.of_pair(a, b), da.delta_leg(1), da.counit_leg(1),
                       da.right_mul_leg(0, b), da.mul_pairwise(db)]
            for x in elements:
                assert all(type(c) in (int, Fraction) and c for c in x._c.values())
                assert x == AlgebroidElement(carrier, x.coeffs)
            for t in tensors:
                assert all(type(c) in (int, Fraction) and c for c in t._c.values())
                assert t == FiberTensor(carrier, t.arity, t.data)
            assert da.scale(0).is_zero()
            fractions |= any(type(c) is Fraction for x in elements[7:] for c in x._c.values())
        models_with_fractions += fractions
    # 13 of the 40 models have rational entries; 10 of them show one in a
    # product, antipode, embedding or collapse of these samples.
    assert models_with_fractions == 10


def test_coefficient_views_are_read_only():
    carrier = z2line()
    x = carrier.basis_element(("s", (1,)))
    with pytest.raises(TypeError):
        x.coeffs[("e", (0,))] = 1
    with pytest.raises(TypeError):
        carrier.delta(x).data[(("e", (0,)), ("e", (0,)))] = 1
    with pytest.raises(AttributeError):
        x.coeffs = {}


def test_carrier_layer_has_no_true_division():
    """Coefficients in the carrier layer and the PBW table may be ints, and
    ``int / int`` is a float."""
    for module in (algebroid, enveloping):
        tree = ast.parse(Path(module.__file__).read_text())
        divisions = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
        assert divisions == [], module.__name__


def test_carrier_layer_builds_no_enveloping_elements():
    """Label maps compose the monomial maps; no one-term ``UElement`` is built."""
    tree = ast.parse(Path(algebroid.__file__).read_text())
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "UElement")
        or (isinstance(node, ast.Attribute) and node.attr == "UElement")
        or (isinstance(node, ast.alias) and node.name == "UElement")
    ]
    assert uses == []
