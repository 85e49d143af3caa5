"""Structure analysis: primitives, grouplikes, spectral groupoid, theta."""

import collections
import dataclasses
import functools
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from finhopf import analysis as analysis_module
from finhopf import enveloping as enveloping_module
from finhopf import linalg
from finhopf.algebroid import (
    AlgebroidElement,
    AxiomCheck,
    AxiomReport,
    ConvolutionAlgebroid,
    FiberTensor,
    HopfAlgebroid,
    check_axioms,
    pair_terms,
)
from finhopf.analysis import (
    _weakly_grouplike_partner,
    analyze,
    build_prim_action,
    build_spectral_groupoid,
    build_theta,
    canonical_good_pair,
    conjugate_by_pair,
    make_good_pair,
    prim_bundle,
    roundtrip,
    solve_grouplikes_at,
    solve_primitives,
)
from finhopf.errors import AnalysisError, NotAGoodPair, SolverIncomplete
from finhopf.groupoid import BaseFun, groupoid_isomorphic
from finhopf.linalg import QMatrix
from finhopf.modelio import FORMAT_NAME, FORMAT_VERSION, carrier_from_model
from finhopf.models import PRESETS, funs3_model, pairh3_model, random_model, z2line_model
from finhopf.rationals import bilinear, linear

from test_algebroid import (
    h3_z2_carrier,
    pairh3_at_3_model,
    rational_heisenberg_pair_model,
    tiny_table,
    z2line,
)
from test_benchmark_reference import load
from test_groupoid import base_fun
from test_linalg import single_system_nullspace


def prim_elements(prim):
    """The primitive basis over every point, in base-point order."""
    return [x for p in prim.carrier.base.points for x in prim.per_point.get(p, [])]


def pairh3():
    return carrier_from_model(pairh3_model())


def funs3():
    return carrier_from_model(funs3_model())


def pairh3_at(truncation):
    model = pairh3_model()
    model["truncation"] = truncation
    return carrier_from_model(model)


def fun_cyclic_model(n):
    """The function algebra of Z/n as a table model over one point."""
    names = [f"d{i}" for i in range(n)]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "table",
        "base": ["pt"],
        "table": {
            "basis": [{"id": nm, "target": "pt"} for nm in names],
            "baseEmbedding": {"pt": {nm: 1 for nm in names}},
            "mul": [[nm, nm, {nm: 1}] for nm in names],
            "delta": {f"d{k}": [[f"d{i}", f"d{(k - i) % n}", 1] for i in range(n)]
                      for k in range(n)},
            "counit": {"d0": 1},
            "antipode": {f"d{i}": {f"d{(-i) % n}": 1} for i in range(n)},
        },
    }


def fun_cyclic_table(n):
    """The function algebra of Z/n as a table over one point."""
    return carrier_from_model(fun_cyclic_model(n))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_primitives_match_dense_oracle_on_sign_line():
    # independent oracle: assemble the full linear system for
    #   delta(a) = a (x) 1 + 1 (x) a,  counit(a) = 0
    # over the 10-dim basis and compare its nullspace with the solver
    carrier = z2line()
    labels = list(carrier.labels)
    unit = carrier.unit_at("x")
    rows = {}
    for j, lab in enumerate(labels):
        e = carrier.basis_element(lab)
        ref = FiberTensor.of_pair(e, unit) + FiberTensor.of_pair(unit, e)
        diff = dict(carrier.delta(e).data)
        for key, c in ref.data.items():
            diff[key] = diff.get(key, Fraction(0)) - c
        for key, c in diff.items():
            if c:
                rows.setdefault(("d", key), [Fraction(0)] * len(labels))[j] = c
        eps = carrier.counit(e)
        for p in carrier.base.points:
            if eps(p):
                rows.setdefault(("e", p), [Fraction(0)] * len(labels))[j] = eps(p)
    system = QMatrix([rows[k] for k in sorted(rows, key=repr)])
    null = system.nullspace()

    prim = solve_primitives(carrier)
    assert len(null) == prim.rank_at("x") == 1
    for vec in null:
        el = carrier.zero()
        for j, c in enumerate(vec):
            el = el + carrier.basis_element(labels[j]).scale(c)
        assert prim.contains(el)
    for x in prim.per_point["x"]:
        assert carrier.delta(x) == (FiberTensor.of_pair(x, unit)
                                    + FiberTensor.of_pair(unit, x))
        assert carrier.counit(x).is_zero()


def test_primitive_flags_on_sign_line():
    prim = solve_primitives(z2line())
    assert prim.ranks() == {"x": 1}
    assert prim.s_invariant and prim.s_negates
    assert prim.anchor_trivial and prim.bracket_closed
    assert prim.constant_rank


def test_primitives_on_pair_groupoid_heisenberg():
    carrier = pairh3()
    prim = solve_primitives(carrier)
    assert prim.ranks() == {"x": 3, "y": 3}
    unit = carrier.unit_at("x")
    for x in prim.per_point["x"]:
        assert carrier.delta(x) == (FiberTensor.of_pair(x, unit)
                                    + FiberTensor.of_pair(unit, x))
    # the basis elements are the fiber generators over the unit arrow, in order
    p = prim.per_point["x"][0]
    assert p == carrier.basis_element(("axx", (1, 0, 0)))


def test_function_algebra_has_no_primitives():
    assert solve_primitives(funs3()).ranks() == {"pt": 0}


def dual_numbers_model():
    """Q[x]/(x^2) over one point with x primitive: the loader accepts it, and
    the axioms reject it, since delta(x^2) = 2 x (x) x is not delta(0)."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "table",
        "base": ["pt"],
        "table": {
            "basis": [{"id": "e", "target": "pt"}, {"id": "x", "target": "pt"}],
            "baseEmbedding": {"pt": {"e": 1}},
            "mul": [["e", "e", {"e": 1}], ["e", "x", {"x": 1}], ["x", "e", {"x": 1}]],
            "delta": {"e": [["e", "e", 1]], "x": [["e", "x", 1], ["x", "e", 1]]},
            "counit": {"e": 1},
            "antipode": {"e": {"e": 1}, "x": {"x": -1}},
        },
    }


def test_a_table_primitive_matches_the_dense_system():
    carrier = carrier_from_model(dual_numbers_model())
    failures = check_axioms(carrier).failures()
    assert [c.name for c in failures] == ["axiom_iii_comult_multiplicative"]
    # The dense oracle: one column per label, delta(l) - l (x) 1 - 1 (x) l
    # over every label pair.
    one = carrier.unit_at("pt")
    keys = list(itertools.product(carrier.labels, repeat=2))
    columns = []
    for l in carrier.labels:
        b = carrier.basis_element(l)
        residue = carrier.delta(b) - FiberTensor.of_pair(b, one) - FiberTensor.of_pair(one, b)
        columns.append([residue.data.get(key, 0) for key in keys])
    assert QMatrix.from_columns(columns).nullspace() == [(0, 1)]
    prim = solve_primitives(carrier)
    assert prim.per_point == {"pt": [carrier.basis_element("x")]}
    # [x, x] is taken by the table's ``bracket``.
    assert prim.brackets == {"pt": [[()]]} and prim.bracket_closed


def eliminations_in_solve(monkeypatch, carrier):
    """``solve_primitives`` of the carrier, and how often it called ``_eliminate``."""
    calls = []
    real = linalg._eliminate

    def counting(rows):
        calls.append(1)
        return real(rows)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminate", counting)
        prim = solve_primitives(carrier)
    return prim, len(calls)


def test_convolution_primitive_systems_need_no_elimination(monkeypatch):
    # A convolution carrier's primitives are read off the construction, so
    # no primitive system is built and nothing is eliminated.
    for carrier in (pairh3_at(6), carrier_from_model(load("workloads").sl2_model(6))):
        assert eliminations_in_solve(monkeypatch, carrier)[1] == 0
    # A table carrier's primitive system at a point is eliminated once.
    prim, count = eliminations_in_solve(monkeypatch, funs3())
    assert count == 1
    assert prim.ranks() == {"pt": 0}


def typed_bases(prim):
    return {p: [[(l, c, type(c)) for l, c in b.coeffs.items()] for b in basis]
            for p, basis in prim.per_point.items()}


def test_blockwise_primitive_bases_match_the_single_system_oracle(monkeypatch):
    carriers = [z2line(), pairh3(), funs3(), pairh3_at(6), tiny_table(),
                fun_cyclic_table(4), carrier_from_model(load("workloads").sl2_model(6))]
    carriers += [carrier_from_model(random_model(seed)) for seed in range(40)]
    for carrier in carriers:
        blockwise = typed_bases(solve_primitives(carrier))
        with monkeypatch.context() as patch:
            patch.setattr(analysis_module, "nullspace_of_rows", single_system_nullspace)
            assert typed_bases(solve_primitives(carrier)) == blockwise


def cyclic_model(basis, brackets, matrix, order, truncation):
    """One point with Z/order acting on its fiber, the generator by ``matrix``."""
    arrows = [f"r{k}" for k in range(order)]
    power, powers = QMatrix.identity(len(basis)), []
    for _ in arrows:
        powers.append(power)
        power = power * QMatrix(matrix)
    return {
        "format": "hopf-algebroid-model",
        "version": 1,
        "kind": "convolution",
        "base": ["x"],
        "groupoid": {
            "arrows": [{"id": a, "src": "x", "tgt": "x"} for a in arrows],
            "units": {"x": "r0"},
            "inverse": {arrows[k]: arrows[-k % order] for k in range(order)},
            "compose": [[arrows[i], arrows[j], arrows[(i + j) % order]]
                        for i in range(order) for j in range(order)],
        },
        "bundle": [{"point": "x", "basis": basis, "brackets": brackets}],
        "action": [{"arrow": a, "matrix": [[int(m.entry(i, j)) for j in range(m.cols)]
                                           for i in range(m.rows)]}
                   for a, m in zip(arrows, powers)],
        "truncation": truncation,
    }


def sl2_z3_model(truncation):
    """sl2 = span(H, E, F) under Z/3, by an order-3 automorphism."""
    return cyclic_model(["H", "E", "F"],
                        [["H", "E", {"E": 2}], ["H", "F", {"F": -2}], ["E", "F", {"H": 1}]],
                        [[-1, 0, 1], [0, 0, -1], [-2, -1, 1]], 3, truncation)


def affine_line_z2_model(truncation):
    """[X, Y] = Y under Z/2, acting by X -> X + Y, Y -> -Y."""
    return cyclic_model(["X", "Y"], [["X", "Y", {"Y": 1}]], [[1, 0], [1, -1]], 2, truncation)


def full_system_bases(carrier):
    """Per point, the ``nullspace_of_rows`` basis of the whole primitive
    system: one column per label, its coproduct minus the two unit terms."""
    out = {}
    for y in carrier.base.points:
        labels = carrier.labels_at(y)
        idx = {l: i for i, l in enumerate(labels)}
        unit = carrier.unit_at(y).coeffs
        rows = {}
        for col, l in enumerate(labels):
            column = {}
            terms = [((idx[l1], idx[l2]), c) for (l1, l2), c in carrier.delta_label(l)]
            for l0, c0 in unit.items():
                terms += [((idx[l0], col), -c0), ((col, idx[l0]), -c0)]
            for key, c in terms:
                column[key] = column.get(key, 0) + c
            for key, c in column.items():
                if c:
                    rows.setdefault(key, {})[col] = c
        out[y] = [[(l, c, type(c)) for l, c in zip(labels, v) if c]
                  for v in linalg.nullspace_of_rows(rows.values(), len(labels))]
    return out


def per_label_oracle_carriers():
    models = [build() for build in PRESETS.values()]
    models += [random_model(seed) for seed in range(40)]
    models += [load("workloads").sl2_model(n) for n in range(7)]
    models += [build(n) for build in (sl2_z3_model, affine_line_z2_model) for n in (2, 3, 4)]
    return [carrier_from_model(model) for model in models]


def test_per_label_primitives_match_the_full_system():
    carriers = per_label_oracle_carriers()
    assert sum(c.kind == "convolution" for c in carriers) == len(carriers) - 1
    for carrier in carriers:
        bases = {p: [[(l, c, type(c)) for l, c in b.coeffs.items()] for b in basis]
                 for p, basis in solve_primitives(carrier).per_point.items()}
        assert bases == full_system_bases(carrier)
    # The item-12 models: a primitive rank of dim g, and the sl2 basis is H, E, F.
    for build, dim in ((sl2_z3_model, 3), (affine_line_z2_model, 2)):
        prim = solve_primitives(carrier_from_model(build(3)))
        assert prim.ranks() == {"x": dim}
        assert [b.coeffs for b in prim.per_point["x"]] == [
            {("r0", tuple(int(i == k) for i in range(dim))): 1} for k in range(dim)]


def test_constructed_primitives_read_no_coproduct(monkeypatch):
    # The closed form: the generators over each unit arrow, in label order,
    # with no coproduct read or cached; at truncation 0 there are none.
    reads = collections.Counter()
    # every binding of ``mono_delta`` in the package, and both carrier methods
    bindings = [(module, "mono_delta") for name, module in list(sys.modules.items())
                if name.startswith("finhopf")
                and getattr(module, "mono_delta", None) is enveloping_module.mono_delta]
    assert (enveloping_module, "mono_delta") in bindings
    for owner, name in bindings + [(HopfAlgebroid, "delta"), (ConvolutionAlgebroid, "delta_label")]:
        def counting(*args, _real=getattr(owner, name), _name=name):
            reads[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    for n in (0, 4, 16):
        for carrier in (pairh3_at(n), carrier_from_model(load("workloads").sl2_model(n))):
            prim = solve_primitives(carrier)
            assert not reads and not carrier._delta_cache, (n, reads)
            for p in carrier.base.points:
                dim = carrier.bundle.fiber(p).dim if n else 0
                unit = carrier.groupoid.units[p]
                assert [b.coeffs for b in prim.per_point[p]] == [
                    {(unit, tuple(int(i == k) for i in range(dim))): 1} for k in range(dim)]


def test_each_germ_law_and_action_kernel_is_checked_once(monkeypatch):
    carrier = pairh3_at(4)
    prim = solve_primitives(carrier)
    # 4 germs: the coproduct of each antipode image, and 2 anchors each in
    # ``_source_of``; the germs themselves are read off the construction.
    calls = carrier_calls(monkeypatch, carrier, ("delta", "counit"))
    gsp = build_spectral_groupoid(carrier)
    assert calls == {"delta": 4, "counit": 8}
    kernels, real = [], QMatrix.nullspace

    def counting(self):
        kernels.append(self)
        return real(self)

    monkeypatch.setattr(QMatrix, "nullspace", counting)
    build_prim_action(carrier, gsp, prim)
    # one kernel per arrow, taken by ``BundleAction.validate``
    assert len(kernels) == 4


def test_prim_bundle_recovers_bracket():
    prim = solve_primitives(pairh3())
    bundle = prim_bundle(prim)
    fiber = bundle.fiber("x")
    assert fiber.dim == 3
    # [X1, X2] = X3 in the reconstructed basis, everything else flat
    assert fiber.terms[0][1] == ((2, 1),)
    assert fiber.terms[1][0] == ((2, -1),)
    assert fiber.terms[0][2] == ()


def test_prim_bundle_reads_the_bracket_table_and_multiplies_nothing(monkeypatch):
    prim = solve_primitives(pairh3())
    expected = {p: tuple(map(tuple, table)) for p, table in prim.brackets.items()}
    products = []
    real = HopfAlgebroid._product

    def counting(self, left, right):
        products.append(1)
        return real(self, left, right)

    monkeypatch.setattr(HopfAlgebroid, "_product", counting)
    bundle = prim_bundle(prim)
    assert products == []
    assert {p: bundle.fiber(p).terms for p in prim.carrier.base.points} == expected
    # a commutator outside the span at a point fails that point
    prim.brackets["y"][0][1] = None
    with pytest.raises(AnalysisError, match="leaves the fiber span at 'y'"):
        prim_bundle(prim)


def carrier_calls(monkeypatch, carrier, names=("mul", "delta", "antipode", "counit", "embed")):
    """Count the calls of the carrier operations ``names``, by name."""
    calls = collections.Counter()
    for name in names:
        real = getattr(carrier, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(carrier, name, counting)
    return calls


def test_each_primitive_commutator_is_computed_once(monkeypatch):
    carrier = pairh3()
    calls = carrier_calls(monkeypatch, carrier, ("mul", "bracket"))
    prim = solve_primitives(carrier)
    # 15 unordered pairs of the 6 primitives, one bracket each, and 12 anchors
    assert calls == {"bracket": 15, "mul": 12}
    assert prim.bracket_closed
    # the entries filled in by antisymmetry are the commutators themselves
    for p, basis in prim.per_point.items():
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                lie = carrier.mul(x, y) - carrier.mul(y, x)
                coords = prim.coords_in_basis(lie, p)
                row = tuple((k, c) for k, c in enumerate(coords) if c)
                assert prim.brackets[p][i][j] == row, (p, i, j)


def test_one_generator_fibers_are_decided_at_truncation_one():
    # One-generator primitives have no commutator to take, and a commutator
    # of two degree-1 primitives cancels its degree-2 terms before the bound
    # is checked; so the decision, the ranks and the spectral arrows at N=1
    # are those at N=2.
    for make in (z2line_model, lambda: random_model(3), pairh3_model):
        decisions = []
        for n in (1, 2):
            model = make()
            model["truncation"] = n
            decisions.append(analyze(carrier_from_model(model)).decision)
        assert [d.verdict for d in decisions] == ["ISO", "ISO"]
        assert decisions[0].prim_ranks == decisions[1].prim_ranks
        assert decisions[0].spectral_arrows == decisions[1].spectral_arrows
    assert decisions[0].prim_ranks == {"x": 3, "y": 3}
    assert decisions[0].spectral_arrows == 4
    assert roundtrip(pairh3_at(1)).ok


def test_primitive_commutation_identity_with_base():
    # for primitive X and base function r:  X r = r X + embed(counit(X r))
    for carrier in (z2line(), pairh3()):
        prim = solve_primitives(carrier)
        for point in carrier.base.points:
            r = carrier.embed(BaseFun.indicator(carrier.base, point))
            for x in prim_elements(prim):
                xr = carrier.mul(x, r)
                rx = carrier.mul(r, x)
                assert xr == rx + carrier.embed(carrier.counit(xr))
                # the antipode flips primitives up to an embedded counit term
                sx = carrier.antipode(x)
                assert sx + x == carrier.embed(carrier.counit(sx))


# ---------------------------------------------------------------------------
# grouplikes
# ---------------------------------------------------------------------------

def test_grouplikes_on_constructed_carriers_are_arrow_indicators():
    carrier = pairh3()
    for point in ("x", "y"):
        found = solve_grouplikes_at(carrier, point)
        expected = {
            carrier.basis_element((g, (0, 0, 0))).signature()
            for g in carrier.groupoid.arrows
            if carrier.groupoid.target[g] == point
        }
        assert {el.signature() for el in found} == expected
        assert len(found) == 2


def test_grouplikes_of_function_algebra_are_the_characters():
    # oracle: multiplicative characters of S3, i.e. trivial and sign.
    carrier = funs3()

    def parity(name):
        digits = [int(c) for c in name[1:]]
        inversions = sum(
            1
            for i in range(len(digits))
            for j in range(i + 1, len(digits))
            if digits[i] > digits[j]
        )
        return -1 if inversions % 2 else 1

    names = [lab for lab in carrier.labels]
    trivial = carrier.zero()
    sign = carrier.zero()
    for nm in names:
        trivial = trivial + carrier.basis_element(nm)
        sign = sign + carrier.basis_element(nm).scale(parity(nm))

    found = solve_grouplikes_at(carrier, "pt")
    assert {el.signature() for el in found} == {trivial.signature(), sign.signature()}


def test_grouplikes_of_small_cyclic_function_algebra():
    # over the rationals only the trivial character of Z/5 survives
    carrier = fun_cyclic_table(5)
    found = solve_grouplikes_at(carrier, "pt")
    assert len(found) == 1
    one = carrier.zero()
    for nm in carrier.labels:
        one = one + carrier.basis_element(nm)
    assert found[0].signature() == one.signature()


def test_grouplike_solver_declares_its_bound():
    with pytest.raises(SolverIncomplete):
        solve_grouplikes_at(fun_cyclic_table(13), "pt")


def rescaled_group_algebra_model(k):
    """Q[Z/2] on the basis e, b = k g: b b = k^2 e, delta(b) = b (x) b / k,
    counit(b) = k and S(b) = b.  A valid model for every k != 0."""
    model = {key: z2line_model()[key] for key in ("format", "version")}
    model.update(kind="table", base=["pt"], table={
        "basis": [{"id": "e", "target": "pt"}, {"id": "b", "target": "pt"}],
        "baseEmbedding": {"pt": {"e": 1}},
        "mul": [["e", "e", {"e": 1}], ["e", "b", {"b": 1}], ["b", "e", {"b": 1}],
                ["b", "b", {"e": str(k * k)}]],
        "delta": {"e": [["e", "e", 1]], "b": [["b", "b", f"1/{k}"]]},
        "counit": {"e": 1, "b": str(k)},
        "antipode": {"e": {"e": 1}, "b": {"b": 1}},
    })
    return model


def test_rescaled_group_algebra_is_decided_below_the_root_search_bound():
    report = analyze(carrier_from_model(rescaled_group_algebra_model(10**6)), samples=20).decision
    assert report.verdict == "ISO"
    assert report.spectral_arrows == 2


def test_large_coproduct_coefficients_end_the_grouplike_search_quickly():
    """The grouplike polynomial x - 1/k has |a_0 * a_n| = k: above the bound
    the search is refused instead of trying every divisor up to sqrt(k)."""
    carrier = carrier_from_model(rescaled_group_algebra_model(10**30))
    start = time.perf_counter()
    report = analyze(carrier, samples=20).decision
    assert time.perf_counter() - start < 1
    assert report.axioms_ok
    assert report.verdict == "ERROR"
    assert report.stage_error[0] == "spectral"
    assert "root search" in report.stage_error[1]
    with pytest.raises(SolverIncomplete):
        solve_grouplikes_at(carrier, "pt")


# ---------------------------------------------------------------------------
# spectral groupoid
# ---------------------------------------------------------------------------

def test_spectral_groupoid_of_sign_line():
    carrier = z2line()
    gsp = build_spectral_groupoid(carrier)
    assert len(gsp.groupoid.arrows) == 2
    assert gsp.dropped_non_invariant == 0
    assert gsp.groupoid.validate() == []
    unit = gsp.groupoid.units["x"]
    other = next(g for g in gsp.groupoid.arrows if g != unit)
    assert gsp.groupoid.compose(other, other) == unit
    assert gsp.groupoid.inverse[other] == other
    assert groupoid_isomorphic(gsp.groupoid, carrier.groupoid) is not None
    # representatives are the arrow indicators, found by signature
    assert gsp.arrow_of(carrier.basis_element(("s", (0,)))) == other


def test_spectral_groupoid_calls_signature_only_to_sort(monkeypatch):
    calls = []
    real = AlgebroidElement.signature

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AlgebroidElement, "signature", counting)
    # pairh3: its 4 arrows are sorted into s0..s3; funs3: its 2 grouplikes
    # are sorted at the point, then its 2 arrows.  Units, inverses and
    # composites are matched by value.
    for carrier in (pairh3(), funs3()):
        calls.clear()
        build_spectral_groupoid(carrier)
        assert len(calls) == 4


def test_arrow_of_reads_the_current_representatives():
    carrier = z2line()
    gsp = build_spectral_groupoid(carrier)
    sign = carrier.basis_element(("s", (0,)))
    arrow = gsp.arrow_of(sign)
    assert gsp.representatives[arrow] == sign
    assert gsp.arrow_of(sign.scale(2)) is None
    del gsp.representatives[arrow]
    assert gsp.arrow_of(sign) is None


def test_spectral_groupoid_of_pair_carrier():
    carrier = pairh3()
    gsp = build_spectral_groupoid(carrier)
    assert len(gsp.groupoid.arrows) == 4
    assert groupoid_isomorphic(gsp.groupoid, carrier.groupoid) is not None


def test_spectral_groupoid_of_function_algebra():
    carrier = funs3()
    gsp = build_spectral_groupoid(carrier)
    assert len(gsp.groupoid.arrows) == 2
    z2_groupoid = z2line().groupoid
    assert groupoid_isomorphic(gsp.groupoid, z2_groupoid) is not None


# ---------------------------------------------------------------------------
# good pairs and the conjugation operator
# ---------------------------------------------------------------------------

def test_canonical_pair_conjugation_golden():
    carrier = z2line()
    sigma = carrier.basis_element(("s", (0,)))
    pair = canonical_good_pair(carrier, sigma, "x")
    assert pair.a == sigma and pair.a_prime == sigma
    x_e = carrier.basis_element(("e", (1,)))
    assert conjugate_by_pair(pair, x_e) == x_e.scale(-1)


def test_t_operator_round_trips_with_antipode_pair():
    carrier = z2line()
    sigma = carrier.basis_element(("s", (0,)))
    pair = canonical_good_pair(carrier, sigma, "x")
    inverse_pair = canonical_good_pair(carrier, carrier.antipode(sigma), "x")
    b = carrier.basis_element(("e", (2,))) + carrier.basis_element(("e", (1,))).scale(3)
    assert conjugate_by_pair(inverse_pair, conjugate_by_pair(pair, b)) == b


def test_good_pair_rejects_non_grouplike_witness():
    carrier = z2line()
    x_e = carrier.basis_element(("e", (1,)))
    f = BaseFun.indicator(carrier.base, "x")
    with pytest.raises(NotAGoodPair, match="weakly grouplike"):
        make_good_pair(carrier, x_e, f, f)


def test_good_pair_rejects_unnormalized_witness():
    carrier = z2line()
    witness = carrier.basis_element(("s", (0,))).scale(2)
    f = BaseFun.indicator(carrier.base, "x")
    with pytest.raises(NotAGoodPair, match="not normalized"):
        make_good_pair(carrier, witness, f, f)


def test_good_pair_rejects_bad_second_function():
    carrier = z2line()
    witness = carrier.basis_element(("s", (0,)))
    f = BaseFun.indicator(carrier.base, "x")
    f2 = base_fun(carrier.base, {"x": 2})
    with pytest.raises(NotAGoodPair, match="not 1 at"):
        make_good_pair(carrier, witness, f, f2)


def loop_partner(carrier, witness):
    """The partner solver checked column by column before the whole tensor."""
    tensor = carrier.delta(witness)
    partner = {}
    for y in carrier.base.points:
        block = witness.coords_at(y)
        labels = carrier.labels_at(y)
        keys = [k for k in tensor.data if carrier.label_target(k[0]) == y]
        if not any(block):
            if keys:
                return None
            continue
        pivot = next(i for i, c in enumerate(block) if c)
        columns = {}
        for (l1, l2) in keys:
            columns.setdefault(l2, {})[l1] = tensor.data[(l1, l2)]
        for l2, col in columns.items():
            lam = col.get(labels[pivot], Fraction(0)) / block[pivot]
            for i, l1 in enumerate(labels):
                if col.get(l1, Fraction(0)) != lam * block[i]:
                    return None
            if lam:
                partner[l2] = lam
    partner = AlgebroidElement(carrier, partner)
    if tensor != FiberTensor.of_pair(witness, partner):
        return None
    return partner


@pytest.mark.parametrize("make_model", [
    z2line_model, pairh3_model, funs3_model, *(functools.partial(random_model, s) for s in range(6)),
])
def test_partner_matches_the_column_by_column_solver(make_model):
    carrier = carrier_from_model(make_model())
    rng = random.Random(17)
    grouplikes = [g for p in carrier.base.points for g in solve_grouplikes_at(carrier, p)]
    candidates = [carrier.zero(), *grouplikes, *(g.scale(-3) for g in grouplikes)]
    # sums across points are zero at no point; one grouplike is zero at the others
    candidates += [g + h for g in grouplikes for h in grouplikes]
    candidates += [carrier.basis_element(l) for l in carrier.labels[:12]]
    for _ in range(12):
        e = carrier.random_element(rng)
        candidates += [e, e.at_point(carrier.base.points[-1])]
        if grouplikes:
            candidates.append(rng.choice(grouplikes) + e.scale(Fraction(1, 2)))
    found = 0
    for c in candidates:
        partner, expected = _weakly_grouplike_partner(carrier, c), loop_partner(carrier, c)
        assert (partner is None) == (expected is None), c.text()
        if partner is not None:
            found += 1
            assert partner == expected and partner.signature() == expected.signature()
    assert found > len(grouplikes)  # grouplikes, their multiples and the zero element


# ---------------------------------------------------------------------------
# the reconstructed action and the comparison map
# ---------------------------------------------------------------------------

def test_prim_action_matches_input_on_sign_line():
    carrier = z2line()
    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    action = build_prim_action(carrier, gsp, prim)
    assert action.validate() == []
    mapped = gsp.arrow_of(carrier.basis_element(("s", (0,))))
    assert action.matrix(mapped) == QMatrix([[-1]])
    unit = gsp.groupoid.units["x"]
    assert action.matrix(unit) == QMatrix.identity(1)


def test_prim_action_matches_input_on_pair_carrier():
    carrier = pairh3()
    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    action = build_prim_action(carrier, gsp, prim)
    for g in carrier.groupoid.arrows:
        fiber_dim = carrier.bundle.fiber(carrier.groupoid.target[g]).dim
        mapped = gsp.arrow_of(carrier.basis_element((g, (0,) * fiber_dim)))
        assert action.matrix(mapped) == carrier.action.matrix(g)


def test_prim_action_only_multiplies(monkeypatch):
    carrier = pairh3()
    prim, gsp = solve_primitives(carrier), build_spectral_groupoid(carrier)
    calls = carrier_calls(monkeypatch, carrier)
    pairs, real = [], analysis_module.make_good_pair

    def counting(*args):
        pairs.append(args)
        return real(*args)

    monkeypatch.setattr(analysis_module, "make_good_pair", counting)
    build_prim_action(carrier, gsp, prim)
    # 4 arrows, 3 primitives at each source, 2 products each
    assert calls == {"mul": 24}
    assert pairs == []


def test_prim_action_is_the_good_pair_conjugation():
    # the instances of acceptance criterion 5
    from test_acceptance import GENERATED_SEEDS, instance

    keys = ["z2line", "pairh3", "funs3", "h3point"] + [f"rnd:{s}" for s in GENERATED_SEEDS]
    for key in keys:
        carrier = instance(key)
        prim, gsp = solve_primitives(carrier), build_spectral_groupoid(carrier)
        action = build_prim_action(carrier, gsp, prim)
        groupoid = gsp.groupoid
        for arrow in groupoid.arrows:
            x, y = groupoid.source[arrow], groupoid.target[arrow]
            pair = canonical_good_pair(carrier, gsp.representatives[arrow], y)
            columns = [prim.coords_in_basis(conjugate_by_pair(pair, b), y)
                       for b in prim.per_point.get(x, [])]
            assert action.matrix(arrow) == QMatrix.from_columns(columns, rows=prim.rank_at(y)), (
                key, arrow)


def test_theta_is_bijective_and_homomorphic_on_sign_line():
    carrier = z2line()
    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    action = build_prim_action(carrier, gsp, prim)
    theta = build_theta(carrier, gsp, prim, action)
    assert theta.all_bijective
    assert theta.dims_at("x") == (10, 10)
    assert theta.hom_checks and all(c.ok for c in theta.hom_checks)
    assert theta.witnesses.get("x") is None
    # theta sends the degree-one monomial over the unit arrow to the primitive
    unit = theta.domain.groupoid.units["x"]
    x1 = theta.domain.basis_element((unit, (1,)))
    assert theta.apply(x1) == prim.per_point["x"][0]


def test_theta_detects_missing_group_algebra_part():
    carrier = funs3()
    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    action = build_prim_action(carrier, gsp, prim)
    theta = build_theta(carrier, gsp, prim, action)
    assert theta.dims_at("pt") == (2, 6)
    assert theta.ranks["pt"] == 2
    assert not theta.all_bijective
    assert theta.witnesses.get("pt") is not None


def theta_of(carrier):
    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    return build_theta(carrier, gsp, prim, build_prim_action(carrier, gsp, prim))


def test_a_theta_that_is_not_multiplicative_is_a_theta_error(monkeypatch):
    """Doubling the image of a label of the first drawn pair fails
    ``theta_multiplicative`` on that pair, and stops ``analyze`` at theta."""
    carrier = z2line()
    theta = theta_of(carrier)
    rng = random.Random(analysis_module.THETA_HOM_SEED)
    u, v = (theta.domain.random_element(rng, degree_cap=carrier.truncation // 2)
            for _ in range(2))
    label = next(iter(u.coeffs))

    def perturbed(*args):
        theta = build_theta(*args)
        theta.images[label] = theta.images[label].scale(2)
        theta.hom_checks = analysis_module._verify_theta_hom(theta, carrier.truncation)
        return theta

    monkeypatch.setattr(analysis_module, "build_theta", perturbed)
    analysis = analyze(carrier, samples=20, seed=3)
    first = analysis.theta.hom_checks[0]
    witness = f"{u.text()}; {v.text()}"
    assert (first.name, first.ok, first.checked, first.witness) == (
        "theta_multiplicative", False, 1, witness)
    assert analysis.decision.verdict == "ERROR"
    assert analysis.decision.stage_error == (
        "theta", f"homomorphy check theta_multiplicative failed: {witness}")


@pytest.mark.parametrize("make_carrier", [z2line, funs3])
def test_theta_builds_no_dense_matrix(make_carrier, monkeypatch):
    carrier = make_carrier()
    built = []
    real = QMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    prim = solve_primitives(carrier)
    gsp = build_spectral_groupoid(carrier)
    action = build_prim_action(carrier, gsp, prim)
    monkeypatch.setattr(QMatrix, "__init__", counting)
    theta = build_theta(carrier, gsp, prim, action)
    witnesses = [theta.witnesses.get(p) for p in carrier.base.points]
    assert built == []
    assert [w is None for w in witnesses] == [theta.bijective_at(p) for p in carrier.base.points]
    assert len(theta.matrices) == len(built) == len(carrier.base.points)


def test_witness_is_the_first_pivot_of_the_dense_left_kernel():
    theta = theta_of(funs3())
    labels = theta.codomain.labels_at("pt")
    m = theta.matrices["pt"]
    kernel = QMatrix([m.column(j) for j in range(m.cols)]).nullspace()
    first = next(i for i, c in enumerate(kernel[0]) if c)
    assert theta.witnesses.get("pt") == theta.codomain.format_label(labels[first])


def test_analyze_solves_the_theta_system_once_per_point(monkeypatch):
    carrier = funs3()
    solved = []
    real = analysis_module.ThetaMap._rows_at

    def counting(self, point):
        solved.append(point)
        return real(self, point)

    monkeypatch.setattr(analysis_module.ThetaMap, "_rows_at", counting)
    report = analyze(carrier, samples=20).decision
    assert report.verdict == "NOT_ISO" and report.witness
    assert solved == list(carrier.base.points)


def misplaced_unit_model():
    """pairh3 with the unit at x mapped to the arrow into y: the loader
    accepts it, since the unit laws are semantic."""
    model = pairh3_model()
    model["groupoid"]["units"]["x"] = "ayy"
    return model


def test_a_unit_outside_its_fiber_is_a_primitives_error():
    carrier = carrier_from_model(misplaced_unit_model())
    with pytest.raises(AnalysisError) as exc:
        solve_primitives(carrier)
    assert exc.value.stage == "primitives"
    assert "'x'" in exc.value.message
    assert analyze(carrier, samples=20).decision.stage_error[0] == "axioms"


@pytest.mark.parametrize("model", [
    z2line_model, funs3_model, pairh3_at_3_model, rational_heisenberg_pair_model,
])
def test_theta_matrices_match_the_dense_columns_and_their_rank(model):
    carrier = carrier_from_model(model())
    theta = theta_of(carrier)
    for p in carrier.base.points:
        m = theta.matrices[p]
        columns = [theta.images[l].coords_at(p) for l in theta.domain.labels_at(p)]
        assert m == QMatrix.from_columns(columns, rows=len(carrier.labels_at(p)))
        assert all(type(x) is Fraction for row in m.data for x in row)
        assert theta.ranks[p] == len(m.rref()[1]) == m.rank()


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_cgk_verdict_iso_on_sign_line():
    report = analyze(z2line(), samples=40, seed=7).decision
    assert report.verdict == "ISO"
    assert report.prim_ranks == {"x": 1}
    assert report.spectral_arrows == 2
    assert report.theta["x"]["rank"] == 10
    assert report.axioms_ok
    assert not report.hypothesis_failures


def test_cgk_verdict_not_iso_on_function_algebra():
    report = analyze(funs3(), samples=40, seed=7).decision
    assert report.verdict == "NOT_ISO"
    assert report.prim_ranks == {"pt": 0}
    assert report.theta["pt"]["rank"] == 2
    assert report.theta["pt"]["dim"] == 6
    assert any("hypothesis ii" in h for h in report.hypothesis_failures)
    assert report.witness


def test_cgk_verdict_error_on_corrupted_action():
    report = analyze(h3_z2_carrier(z_sign=-1), samples=60, seed=5).decision
    assert report.verdict == "ERROR"
    assert report.stage_error and report.stage_error[0] == "axioms"


def test_table_reconstruction_does_not_depend_on_the_bound():
    """A table has no primitives, so its reconstructed fibers are
    0-dimensional and the reconstructed side has one label per spectral
    arrow at every truncation."""
    tables = [funs3(), tiny_table(), *(fun_cyclic_table(n) for n in range(2, 7)),
              *(carrier_from_model(rescaled_group_algebra_model(k)) for k in (1, 3, 10**6))]
    for carrier in tables:
        analysis = analyze(carrier, samples=20)
        assert analysis.decision.verdict in ("ISO", "NOT_ISO")
        gsp, action = analysis.gsp, analysis.prim_action
        assert all(action.bundle.fiber(p).dim == 0 for p in carrier.base.points)
        expected = sorted((a, ()) for a in gsp.groupoid.arrows)
        for bound in (0, 1, 4, 7):
            domain = ConvolutionAlgebroid(gsp.groupoid, action.bundle, action, bound)
            assert sorted(domain.labels) == expected


def test_analyze_checks_no_tensor_keys(monkeypatch):
    """Every tensor the pipeline builds is fiberwise by construction."""
    checked = []
    real = FiberTensor.__init__

    def counting(self, *args):
        checked.append(args)
        real(self, *args)

    monkeypatch.setattr(FiberTensor, "__init__", counting)
    analysis = analyze(carrier_from_model(pairh3_model()), samples=8, seed=3)
    assert analysis.decision.verdict == "ISO"
    assert [c.checked for c in analysis.theta.hom_checks if c.name == "theta_comultiplicative"]
    assert checked == []


def test_cgk_json_shape():
    data = analyze(z2line(), samples=20, seed=7).decision.to_json()
    assert data["verdict"] == "ISO"
    assert data["primRank"] == {"x": 1}
    assert data["spectral"] == {"arrows": 2}
    assert data["theta"]["x"] == {"rank": 10, "dim": 10}


def test_roundtrip_on_presets():
    for model in (z2line_model(), pairh3_model()):
        report = roundtrip(carrier_from_model(model), samples=40, seed=7)
        assert report.ok
        assert report.rank_matches
        assert report.groupoid_isomorphic
        assert report.action_matches


def large_entry_model():
    """The pair groupoid on x, y with 1-dimensional abelian fibers at
    truncation 3, transporting by 10**30/7 from x to y and back by its inverse."""
    model = pairh3_model()
    model["bundle"] = [{"point": p, "basis": ["X"], "brackets": []} for p in ("x", "y")]
    scalars = {"axy": f"7/{10**30}", "ayx": f"{10**30}/7"}
    model["action"] = [{"arrow": a["id"], "matrix": [[scalars.get(a["id"], 1)]]}
                       for a in model["groupoid"]["arrows"]]
    model["truncation"] = 3
    return model


def test_large_rational_entries_have_a_pinned_answer():
    carrier = carrier_from_model(large_entry_model())
    analysis = analyze(carrier)
    decision = analysis.decision
    assert decision.verdict == "ISO"
    assert decision.prim_ranks == {"x": 1, "y": 1}
    assert decision.spectral_arrows == 4
    assert decision.theta == {p: {"rank": 8, "dim": 8, "domainDim": 8} for p in ("x", "y")}
    assert roundtrip(carrier).ok
    gsp, action = analysis.gsp, analysis.prim_action
    for arrow, entry in (("ayx", Fraction(10**30, 7)), ("axy", Fraction(7, 10**30))):
        rebuilt = action.matrix(gsp.arrow_of(carrier.basis_element((arrow, (0,)))))
        assert rebuilt == QMatrix([[entry]])


def test_roundtrip_refuses_a_table_carrier_before_any_stage(monkeypatch):
    called = []
    monkeypatch.setattr(analysis_module, "_analyze", lambda *a, **k: called.append(a))
    with pytest.raises(AnalysisError) as err:
        roundtrip(funs3())
    assert err.value.stage == "roundtrip"
    assert "constructed (convolution) model" in err.value.message
    assert called == []


def test_roundtrip_draws_only_on_the_theta_domain(monkeypatch):
    """``roundtrip`` samples no axiom law: ``random_element`` runs on no
    carrier but theta's domain, for theta's homomorphy checks, while
    ``analyze`` still samples the input."""
    drawn, thetas = [], []
    real_draw, real_theta = HopfAlgebroid.random_element, analysis_module.build_theta

    def draw(self, *args, **kwargs):
        drawn.append(self)
        return real_draw(self, *args, **kwargs)

    def theta(*args):
        thetas.append(real_theta(*args))
        return thetas[-1]

    monkeypatch.setattr(HopfAlgebroid, "random_element", draw)
    monkeypatch.setattr(analysis_module, "build_theta", theta)
    for carrier in (z2line(), pairh3()):
        drawn.clear()
        thetas.clear()
        assert roundtrip(carrier).ok
        (built,) = thetas
        assert drawn and all(c is built.domain for c in drawn)
        drawn.clear()
        analyze(carrier)
        assert any(c is carrier for c in drawn)


def test_roundtrip_decides_as_analyze_on_the_presets():
    """The exact axiom stage gives the decision of the sampled one on every
    valid model of the ladders and the random models."""
    sl2 = load("workloads").sl2_model
    models = [dict(build(), truncation=n)
              for build in (pairh3_model, z2line_model) for n in range(9)]
    models += [sl2(n) for n in range(1, 7)] + [random_model(seed) for seed in range(40)]
    for model in models:
        carrier = carrier_from_model(model)
        assert carrier.validate() == []
        expected = analyze(carrier).decision.to_json()
        assert roundtrip(carrier).decision.to_json() == expected, model["truncation"]


def change_of_basis_matches(carrier, analysis):
    """The action comparison through a change of basis, as an oracle.

    Input arrows go to the spectral arrows their indicators represent; at
    each point the primitive basis, written on the generators, gives a
    change of basis m, and each rebuilt matrix must equal the input matrix
    moved into the primitive bases: inverse(m at target) * A * (m at source).
    """
    groupoid = carrier.groupoid
    arrow_map = {}
    for g in groupoid.arrows:
        zero = (0,) * carrier.bundle.fiber(groupoid.target[g]).dim
        arrow_map[g] = analysis.gsp.arrow_of(carrier.basis_element((g, zero)))
        if arrow_map[g] is None:
            return False
    change = {}
    for p in carrier.base.points:
        dim = carrier.bundle.fiber(p).dim
        gens = [(groupoid.units[p], tuple(1 if k == i else 0 for k in range(dim)))
                for i in range(dim)]
        basis = analysis.prim.per_point[p]
        if any(set(x.coeffs) - set(gens) for x in basis):
            return False
        m = QMatrix.from_columns([[x.coeffs.get(l, 0) for l in gens] for x in basis], rows=dim)
        inverse = m.inverse()
        if inverse is None:
            return False
        change[p] = (m, inverse)
    return all(
        analysis.prim_action.matrix(mapped)
        == change[groupoid.target[g]][1] * carrier.action.matrix(g) * change[groupoid.source[g]][0]
        for g, mapped in arrow_map.items()
    )


def negate_a_rebuilt_matrix(analysis):
    units = analysis.gsp.groupoid.units.values()
    arrow = next(a for a in analysis.gsp.groupoid.arrows if a not in units)
    analysis.prim_action.matrices[arrow] = analysis.prim_action.matrix(arrow).scale(-1)


def add_a_label_to_a_primitive(analysis):
    p, basis = next((p, b) for p, b in analysis.prim.per_point.items() if b)
    basis[0] = basis[0] + analysis.carrier.unit_at(p)


def drop_a_representative(analysis):
    del analysis.gsp.representatives[analysis.gsp.groupoid.arrows[-1]]


RECONSTRUCTION_CHANGES = {
    "matrix": negate_a_rebuilt_matrix,
    "basis": add_a_label_to_a_primitive,
    "representative": drop_a_representative,
}


def roundtrip_with_oracle(carrier, monkeypatch, change=None):
    """``roundtrip`` on the carrier, its analysis changed by ``change``, and the
    oracle's answer on that same analysis."""
    real, seen = analysis_module._analyze, []

    def changed(*args, **kwargs):
        result = real(*args, **kwargs)
        if change is not None:
            change(result)
        seen.append(result)
        return result

    monkeypatch.setattr(analysis_module, "_analyze", changed)
    report = roundtrip(carrier)
    monkeypatch.undo()
    return report, change_of_basis_matches(carrier, seen[0])


@pytest.mark.parametrize("change", sorted(RECONSTRUCTION_CHANGES))
@pytest.mark.parametrize("make_carrier", [z2line, pairh3])
def test_roundtrip_reports_a_reconstruction_that_differs_from_the_input(
        make_carrier, change, monkeypatch):
    change = RECONSTRUCTION_CHANGES[change]
    report, oracle = roundtrip_with_oracle(make_carrier(), monkeypatch, change)
    assert report.decision.verdict == "ISO"
    assert report.rank_matches and report.groupoid_isomorphic
    assert report.action_matches is False
    assert oracle is False


def test_direct_action_comparison_agrees_with_the_change_of_basis(monkeypatch):
    models = [z2line_model, pairh3_model, *(functools.partial(random_model, s) for s in range(16))]
    for make_model in models:
        report, oracle = roundtrip_with_oracle(carrier_from_model(make_model()), monkeypatch)
        assert report.action_matches == oracle
        assert report.ok, make_model
    for make_carrier in (z2line, pairh3):
        for change in RECONSTRUCTION_CHANGES.values():
            report, oracle = roundtrip_with_oracle(make_carrier(), monkeypatch, change)
            assert report.action_matches == oracle


def test_analyze_bundles_every_stage():
    analysis = analyze(z2line(), samples=20, seed=3)
    assert analysis.axiom_report is not None and analysis.axiom_report.ok
    assert analysis.prim is not None
    assert analysis.gsp is not None
    assert analysis.prim_action is not None
    assert analysis.theta is not None
    assert analysis.decision.verdict == "ISO"


def test_theta_hom_check_counts_golden():
    theta = analyze(z2line()).theta
    assert [(c.name, c.ok, c.checked) for c in theta.hom_checks] == [
        ("theta_multiplicative", True, 12),
        ("theta_counit", True, 12),
        ("theta_comultiplicative", True, 12),
        ("theta_antipode", True, 12),
        ("theta_on_base", True, 1),
    ]


def test_a_primitive_module_the_antipode_moves_is_not_iso(monkeypatch):
    """Hypothesis (i) fails on a primitive module that is not antipode-invariant:
    the verdict is ``NOT_ISO`` and no spectral groupoid is built."""
    real = solve_primitives
    monkeypatch.setattr(analysis_module, "solve_primitives",
                        lambda carrier: dataclasses.replace(real(carrier), s_invariant=False))
    analysis = analyze(z2line(), samples=20, seed=3)
    report = analysis.decision
    line = "primitive module is not antipode-invariant (hypothesis i)"
    assert report.verdict == "NOT_ISO" and report.hypothesis_failures == [line]
    assert report.s_invariant is False and report.stage_error is None
    assert analysis.gsp is None and report.spectral_arrows is None
    assert "spectral" not in report.to_json()
    assert f"hypothesis failure: {line}" in report.text().splitlines()


def test_zero_sample_axiom_laws_make_analyze_an_error():
    analysis = analyze(carrier_from_model(random_model(3)), samples=0)
    decision = analysis.decision
    assert decision.verdict == "ERROR"
    assert decision.axioms_ok is False
    stage, message = decision.stage_error
    assert stage == "axioms"
    assert message.startswith("axiom checks inconclusive") and "associativity" in message


def test_zero_sample_theta_laws_make_analyze_an_error(monkeypatch):
    monkeypatch.setattr(analysis_module, "THETA_HOM_SAMPLES", 0)
    analysis = analyze(z2line(), samples=20, seed=3)
    assert [c.status for c in analysis.theta.hom_checks] == ["inconclusive"] * 4 + ["pass"]
    assert analysis.decision.verdict == "ERROR"
    assert analysis.decision.stage_error == (
        "theta", "homomorphy check theta_multiplicative inconclusive: no sample checked",
    )


def _solve_coords(prim, element, point):
    """Coordinates by exact elimination against the basis columns."""
    if any(t != point for t in element.target_points()):
        return None
    basis = prim.per_point.get(point, [])
    block = element.coords_at(point)
    if not basis:
        return () if not any(block) else None
    m = QMatrix.from_columns([b.coords_at(point) for b in basis], rows=len(block))
    return m.solve(block)


def test_pivot_coordinates_match_elimination():
    rng = random.Random(5)
    for carrier in (z2line(), pairh3(), funs3(), h3_z2_carrier(z_sign=1)):
        prim = solve_primitives(carrier)
        for p in carrier.base.points:
            basis = prim.per_point.get(p, [])
            candidates = [carrier.zero(), *basis]
            for _ in range(6):
                combo = carrier.zero()
                for b in basis:
                    combo = combo + b.scale(rng.randint(-3, 3))
                candidates += [combo, combo + carrier.random_element(rng).at_point(p)]
            candidates += [carrier.random_element(rng) for _ in range(6)]
            for element in candidates:
                assert prim.coords_in_basis(element, p) == _solve_coords(prim, element, p)


def renamed(model):
    """The model with points and arrows renamed so that their sorted orders reverse."""
    groupoid = model["groupoid"]
    points = sorted(model["base"])
    arrows = sorted(a["id"] for a in groupoid["arrows"])
    pmap = {p: f"q{len(points) - i:02d}" for i, p in enumerate(points)}
    amap = {g: f"z{len(arrows) - i:02d}" for i, g in enumerate(arrows)}
    out = dict(model, base=[pmap[p] for p in model["base"]])
    out["groupoid"] = {
        "arrows": [
            {"id": amap[a["id"]], "src": pmap[a["src"]], "tgt": pmap[a["tgt"]]}
            for a in groupoid["arrows"]
        ],
        "units": {pmap[p]: amap[g] for p, g in groupoid["units"].items()},
        "inverse": {amap[g]: amap[h] for g, h in groupoid["inverse"].items()},
        "compose": [[amap[g] for g in row] for row in groupoid["compose"]],
    }
    out["bundle"] = [dict(f, point=pmap[f["point"]]) for f in model["bundle"]]
    out["action"] = [dict(e, arrow=amap[e["arrow"]]) for e in model["action"]]
    return out, pmap


NON_NILPOTENT = [functools.partial(build, n)
                 for build in (sl2_z3_model, affine_line_z2_model) for n in (1, 3)]


@pytest.mark.parametrize("make_model", [
    z2line_model, pairh3_at_3_model, *(functools.partial(random_model, s) for s in range(3)),
    *NON_NILPOTENT,
])
def test_renaming_points_and_arrows_keeps_the_decision(make_model):
    model = make_model()
    other, pmap = renamed(model)
    before = analyze(carrier_from_model(model), samples=20).decision
    after = analyze(carrier_from_model(other), samples=20).decision
    assert before.verdict == "ISO"
    assert after.verdict == before.verdict
    assert after.prim_ranks == {pmap[p]: r for p, r in before.prim_ranks.items()}
    assert after.spectral_arrows == before.spectral_arrows
    assert after.theta == {pmap[p]: v for p, v in before.theta.items()}
    assert roundtrip(carrier_from_model(other)).ok


def permuted_basis(model):
    """The model with each fiber's basis reordered and the action matrices to match.

    Fibers at even base positions are reversed, those at odd ones rotated by
    one, so neighbouring fibers of the same kind get different orders.  A
    matrix entry in row i and column j moves with its target and source
    generators.
    """
    out = dict(model, bundle=[], action=[])
    order = {}
    for i, fiber in enumerate(model["bundle"]):
        n = len(fiber["basis"])
        perm = list(range(n))[::-1] if i % 2 == 0 else [(k + 1) % n for k in range(n)]
        order[fiber["point"]] = perm
        out["bundle"].append(dict(fiber, basis=[fiber["basis"][k] for k in perm]))
    ends = {a["id"]: (a["tgt"], a["src"]) for a in model["groupoid"]["arrows"]}
    for entry in model["action"]:
        tgt, src = ends[entry["arrow"]]
        m = entry["matrix"]
        out["action"].append(dict(
            entry, matrix=[[m[r][c] for c in order[src]] for r in order[tgt]],
        ))
    return out


@pytest.mark.parametrize("make_model", [
    z2line_model, pairh3_model, *(functools.partial(random_model, s) for s in range(6)),
    *NON_NILPOTENT,
])
def test_permuting_fiber_bases_keeps_the_decision(make_model):
    model = make_model()
    before = analyze(carrier_from_model(model), samples=20).decision
    after = analyze(carrier_from_model(permuted_basis(model)), samples=20).decision
    assert after.verdict == before.verdict
    assert after.prim_ranks == before.prim_ranks
    assert after.spectral_arrows == before.spectral_arrows
    assert after.theta == before.theta
    assert roundtrip(carrier_from_model(permuted_basis(model))).ok


def tagged(model, tag):
    """The model with its points, arrow ids and table labels prefixed ``tag.``;
    fiber generators keep their names, since each fiber has its own."""
    name = f"{tag}.".__add__

    def coeffs(terms):
        return {name(l): c for l, c in terms.items()}

    out = dict(model, base=[name(p) for p in model["base"]])
    if model["kind"] == "table":
        t = model["table"]
        out["table"] = {
            "basis": [{"id": name(e["id"]), "target": name(e["target"])} for e in t["basis"]],
            "baseEmbedding": {name(p): coeffs(v) for p, v in t["baseEmbedding"].items()},
            "mul": [[name(l), name(r), coeffs(v)] for l, r, v in t["mul"]],
            "delta": {name(l): [[name(x), name(y), c] for x, y, c in terms]
                      for l, terms in t["delta"].items()},
            "counit": coeffs(t["counit"]),
            "antipode": {name(l): coeffs(v) for l, v in t["antipode"].items()},
        }
        return out
    groupoid = model["groupoid"]
    out["groupoid"] = {
        "arrows": [{"id": name(a["id"]), "src": name(a["src"]), "tgt": name(a["tgt"])}
                   for a in groupoid["arrows"]],
        "units": {name(p): name(g) for p, g in groupoid["units"].items()},
        "inverse": {name(g): name(h) for g, h in groupoid["inverse"].items()},
        "compose": [[name(g) for g in row] for row in groupoid["compose"]],
    }
    out["bundle"] = [dict(f, point=name(f["point"])) for f in model["bundle"]]
    out["action"] = [dict(e, arrow=name(e["arrow"])) for e in model["action"]]
    return out


def joined(x, y):
    """Two tagged documents as one: lists concatenated, objects merged key by
    key, and every other value (format, kind, truncation) shared."""
    if isinstance(x, list):
        return x + y
    if isinstance(x, dict):
        return {k: joined(x[k], y[k]) if k in x and k in y else x.get(k, y.get(k))
                for k in {**x, **y}}
    assert x == y
    return x


def side_by_side(a, b):
    """Two models of one kind over the disjoint union of their bases."""
    return joined(tagged(a, "a"), tagged(b, "b"))


def check_side_by_side(parts, union):
    """The union's decision is its two parts' decisions, names prefixed: ISO
    exactly when both parts are, and otherwise the freeness failure and the
    witness of the first part that fails."""
    def prefixed(attr):
        return {f"{tag}.{p}": v
                for tag, part in zip("ab", parts) for p, v in getattr(part, attr).items()}

    assert (union.verdict == "ISO") == all(part.verdict == "ISO" for part in parts)
    assert union.spectral_arrows == sum(part.spectral_arrows for part in parts)
    assert union.prim_ranks == prefixed("prim_ranks")
    assert union.theta == prefixed("theta")
    failing = [(tag, part) for tag, part in zip("ab", parts) if part.verdict != "ISO"]
    if failing:
        tag, part = failing[0]
        bad = next(p for p, v in part.theta.items()
                   if not v["rank"] == v["dim"] == v["domainDim"])
        line = "the algebroid is not free over its arrows at {!r} (hypothesis ii)"
        assert line.format(bad) in part.hypothesis_failures
        assert union.verdict == "NOT_ISO"
        assert line.format(f"{tag}.{bad}") in union.hypothesis_failures
        assert union.witness == f"{tag}.{part.witness}"


def uneven_orbit_model():
    """The pair groupoid on x and y with abelian fibers of dimensions 2 and 1,
    the arrows between them acting by a projection and an inclusion: the
    loader accepts it, and the primitive ranks differ within one orbit."""
    arrows = [f"a{t}{s}" for t in "xy" for s in "xy"]
    matrices = {"axx": [[1, 0], [0, 1]], "ayy": [[1]], "ayx": [[1, 0]], "axy": [[1], [0]]}
    return dict(
        {key: z2line_model()[key] for key in ("format", "version")},
        kind="convolution",
        base=["x", "y"],
        groupoid={
            "arrows": [{"id": a, "src": a[2], "tgt": a[1]} for a in arrows],
            "units": {"x": "axx", "y": "ayy"},
            "inverse": {a: f"a{a[2]}{a[1]}" for a in arrows},
            "compose": [[f"a{z}{y}", f"a{y}{x}", f"a{z}{x}"]
                        for z, y, x in itertools.product("xy", repeat=3)],
        },
        bundle=[{"point": "x", "basis": ["P", "Q"], "brackets": []},
                {"point": "y", "basis": ["P"], "brackets": []}],
        action=[{"arrow": a, "matrix": m} for a, m in matrices.items()],
        truncation=2,
    )


def test_hypothesis_failures_of_a_union_are_those_of_its_parts():
    """Hypothesis (i) is read per orbit, so a union side by side breaks the
    constant rank exactly where its parts do, with the point names prefixed:
    models whose ranks differ between orbits break it nowhere, and the uneven
    orbit breaks it in every union that holds it.  ``solve_primitives`` reads
    the ranks of the uneven orbit, which ``validate`` rejects and ``analyze``
    stops at its axiom stage."""
    makers = {"z2line": z2line_model, "pairh3": pairh3_model,
              "rnd:5": functools.partial(random_model, 5), "uneven": uneven_orbit_model}
    models = {key: dict(make(), truncation=2) for key, make in makers.items()}
    parts = {key: solve_primitives(carrier_from_model(m)) for key, m in models.items()}
    assert [k for k, part in parts.items() if part.rank_breaks()] == ["uneven"]
    assert len({parts["z2line"].rank_at("x"), *parts["pairh3"].ranks().values()}) == 2
    for a, b in itertools.combinations(models, 2):
        union = solve_primitives(carrier_from_model(side_by_side(models[a], models[b])))
        expected = [tuple(f"{tag}.{p}" for p in orbit)
                    for tag, key in zip("ab", (a, b)) for orbit in parts[key].rank_breaks()]
        assert union.rank_breaks() == expected, (a, b)
        assert union.constant_rank == (not expected)
    uneven = analyze(carrier_from_model(models["uneven"]), samples=20)
    assert uneven.decision.stage_error == ("axioms", "axiom checks failed: validate")
    assert uneven.prim is None and uneven.decision.hypothesis_failures == []


def test_a_rank_break_that_passes_the_axiom_stage_is_reported(monkeypatch):
    """A carrier whose axiom report passes reaches the hypothesis (i) line:
    with ``check_axioms`` stubbed to pass, the uneven orbit is reported,
    naming the orbit, before its non-square conjugation stops the
    prim-action stage."""
    passing = AxiomReport([AxiomCheck("stub", True, 1)])
    monkeypatch.setattr(analysis_module, "check_axioms", lambda *args, **kwargs: passing)
    report = analyze(carrier_from_model(uneven_orbit_model())).decision
    line = "primitive module does not have constant rank on the orbit of 'x' (hypothesis i)"
    assert report.axioms_ok is True and report.hypothesis_failures == [line]
    assert report.prim_ranks == {"x": 2, "y": 1} and report.constant_rank is False
    assert report.stage_error[0] == "prim-action" and report.verdict == "ERROR"
    assert f"hypothesis failure: {line}" in report.text().splitlines()


def test_a_non_square_conjugation_is_a_prim_action_error():
    carrier = carrier_from_model(uneven_orbit_model())
    with pytest.raises(AnalysisError) as exc:
        build_prim_action(carrier, build_spectral_groupoid(carrier), solve_primitives(carrier))
    assert exc.value.stage == "prim-action"
    assert "is not a bijection between fibers" in exc.value.message


def test_a_prim_action_that_breaks_the_bracket_is_a_prim_action_error():
    """pairh3 with the arrow into y scaling P but not Z (its inverse kept):
    the rebuilt action fails ``BundleAction.validate`` on the bracket."""
    model = pairh3_model()
    matrices = {"ayx": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                "axy": [["1/2", 0, 0], [0, 1, 0], [0, 0, 1]]}
    for entry in model["action"]:
        entry["matrix"] = matrices.get(entry["arrow"], entry["matrix"])
    carrier = carrier_from_model(model)
    prim = solve_primitives(carrier)
    with pytest.raises(AnalysisError) as exc:
        build_prim_action(carrier, build_spectral_groupoid(carrier), prim)
    assert exc.value.stage == "prim-action"
    assert "does not preserve the bracket (X1, X2)" in exc.value.message


def test_convolution_models_side_by_side_decide_as_their_parts():
    from test_acceptance import GENERATED_SEEDS
    makers = {"z2line": z2line_model, "pairh3": pairh3_model,
              "sl2": functools.partial(load("workloads").sl2_model, 3)}
    # A 0-dimensional fiber, and groupoids on three, three and two points.
    makers |= {f"rnd:{s}": functools.partial(random_model, s) for s in (1, 5, 6, 7)}
    assert {1, 5, 6, 7} <= set(GENERATED_SEEDS)
    models = {key: dict(make(), truncation=3) for key, make in makers.items()}
    parts = {key: roundtrip(carrier_from_model(m), samples=20) for key, m in models.items()}
    assert all(part.ok for part in parts.values())
    for a, b in itertools.combinations(models, 2):
        report = roundtrip(carrier_from_model(side_by_side(models[a], models[b])), samples=20)
        assert report.ok, (a, b)
        check_side_by_side([parts[a].decision, parts[b].decision], report.decision)


def test_table_models_side_by_side_decide_as_their_parts():
    # Fun(Z/2) is ISO, Fun(Z/3) and Fun(S3) are NOT_ISO.  A union has at most
    # 12 labels, so its axioms are checked on every label tuple.
    models = {"funs3": funs3_model(), "Z/2": fun_cyclic_model(2), "Z/3": fun_cyclic_model(3)}
    parts = {key: analyze(carrier_from_model(m), samples=20).decision
             for key, m in models.items()}
    assert [part.verdict for part in parts.values()] == ["NOT_ISO", "ISO", "NOT_ISO"]
    for a, b in itertools.product(models, repeat=2):
        union = analyze(carrier_from_model(side_by_side(models[a], models[b])), samples=20)
        assert union.axiom_report.mode == "exhaustive-basis", (a, b)
        check_side_by_side([parts[a], parts[b]], union.decision)


class Disguised(HopfAlgebroid):
    """A ``ConvolutionAlgebroid`` seen through a seeded change of basis P.

    P sends each label to itself plus up to two earlier labels with the same
    target and no higher degree, with coefficients in {-2, -1, 1, 2}: it is
    unitriangular in label order, so invertible, and a key that is not a
    label (a product term above the truncation) is its own image.  Every
    structure map is the wrapped one conjugated by P, and samples are drawn
    by the shared ``random_element`` over its labels.  Its kind is not
    ``convolution``, so ``analyze`` takes the general paths: the primitive
    nullspace, the grouplike eigenvectors, theta's kernel and the generic
    ``bracket``.
    """

    kind = "disguised"

    def __init__(self, inner, seed):
        self.inner, self.base, self.truncation = inner, inner.base, inner.truncation
        rng = random.Random(seed)
        self._to, self._from = {}, {}  # label -> the terms of P(label), of P^-1(label)
        for i, l in enumerate(inner.labels):
            lower = [k for k in inner.labels[:i] if inner.label_target(k) == inner.label_target(l)
                     and inner.label_degree(k) <= inner.label_degree(l)]
            mixed = [(k, rng.choice((-2, -1, 1, 2)))
                     for k in rng.sample(lower, min(2, len(lower)))]
            self._to[l] = ((l, 1), *mixed)
            # P^-1(l) = l - the sum of c P^-1(k) over the mixed-in labels k.
            self._from[l] = ((l, 1), *linear(((k, -c) for k, c in mixed), self._from.get).items())

    def _disguise(self, terms):
        return linear(terms, lambda k: self._to.get(k, ((k, 1),)))

    @property
    def labels(self):
        return self.inner.labels

    def label_target(self, label):
        return self.inner.label_target(label)

    def format_label(self, label):
        return self.inner.format_label(label)

    def label_degree(self, label):
        return self.inner.label_degree(label)

    def mul_label(self, l1, l2, bound=None):
        def product(a, b):
            return self.inner.mul_label(a, b, bound)

        plain = bilinear(self._from[l1], self._from[l2], product)
        return tuple(self._disguise(plain.items()).items())

    def delta_label(self, label):
        plain = linear(self._from[label], self.inner.delta_label)
        return tuple(linear(plain.items(), lambda pair: pair_terms(
            self, self._to[pair[0]], self._to[pair[1]])).items())

    def counit_label(self, label):
        return sum(c * self.inner.counit_label(k) for k, c in self._from[label])

    def antipode_label(self, label):
        plain = linear(self._from[label], self.inner.antipode_label)
        return tuple(self._disguise(plain.items()).items())

    def unit_at(self, point):
        return AlgebroidElement(self, self._disguise(self.inner.unit_at(point).coeffs.items()))

    def validate(self):
        return self.inner.validate()


@pytest.mark.parametrize("make,truncation", [(z2line_model, 1), (z2line_model, 2),
                                             (pairh3_model, 1)])
def test_a_disguised_convolution_carrier_is_decided_as_itself(make, truncation):
    """The general paths decide a convolution carrier in disguise as the
    constructed ones decide it undisguised: the same verdict, primitive ranks,
    spectral arrows, and theta rank and dimension at each point.  At
    ``pairh3`` N=1 the commutators of the degree-1 primitives are bounded only
    after they cancel."""
    inner = carrier_from_model(dict(make(), truncation=truncation))
    expected = analyze(inner).decision.to_json()
    assert expected["verdict"] == "ISO"
    for seed in (1, 2):
        carrier = Disguised(inner, seed)
        # P mixes labels of different arrows into the same point.
        assert any(l[0] != k[0] for (l, _one), *mixed in carrier._to.values() for k, _c in mixed)
        assert analyze(carrier).decision.to_json() == expected, seed


# random_model seeds at truncation 1 with at most 12 labels at every point
# (so the general grouplike search runs), and distinct documents; all but
# 1 and 20 have a nonzero primitive rank.
DISGUISED_RANDOM_SEEDS = (1, 4, 5, 9, 11, 13, 20, 31)


def test_disguised_random_models_are_decided_as_themselves():
    """The general paths decide ``random_model`` carriers in disguise exactly
    as the constructed paths decide them undisguised, over one to three
    points, one or more orbits, and primitive ranks 0 to 3."""
    ranks = []
    for seed in DISGUISED_RANDOM_SEEDS:
        inner = carrier_from_model(dict(random_model(seed), truncation=1))
        assert all(len(inner.labels_at(p)) <= 12 for p in inner.base.points), seed
        expected = analyze(inner).decision.to_json()
        assert expected["verdict"] == "ISO", seed
        ranks.append(max(expected["primRank"].values()))
        carrier = Disguised(inner, seed)
        assert any(mixed for _l, *mixed in carrier._to.values()), seed  # P is not the identity
        assert analyze(carrier).decision.to_json() == expected, seed
    assert ranks == [0, 2, 2, 2, 3, 1, 0, 3]


def test_valid_models_answer_alike_at_every_seed():
    """On a valid model every law passes every sample, so the axiom report
    and the decision do not depend on which samples the seed draws: this
    keeps the digests of sampled runs fixed under any change of draw."""
    models = [z2line_model(), pairh3_model(), funs3_model()]
    models += [random_model(seed) for seed in range(8)]
    for model in models:
        carrier = carrier_from_model(model)
        reports = [check_axioms(carrier, seed=s).to_json() for s in range(1, 5)]
        decisions = [analyze(carrier, seed=s).decision.to_json() for s in range(1, 5)]
        assert reports[0]["ok"] and reports == reports[:1] * 4, model
        assert decisions == decisions[:1] * 4, model
