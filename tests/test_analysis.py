"""Structure analysis: primitives, grouplikes, spectral groupoid, theta."""

import collections
import functools
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
    ConvolutionAlgebroid,
    FiberTensor,
    HopfAlgebroid,
    TableAlgebroid,
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
from finhopf.groupoid import BaseFun, BaseSpace, groupoid_isomorphic
from finhopf.linalg import QMatrix
from finhopf.modelio import carrier_from_model
from finhopf.models import PRESETS, funs3_model, pairh3_model, random_model, z2line_model

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


def fun_cyclic_table(n):
    """The function algebra of Z/n as a table over one point."""
    base = BaseSpace(("pt",))
    names = [f"d{i}" for i in range(n)]
    return TableAlgebroid(
        base,
        names,
        {nm: "pt" for nm in names},
        {"pt": {nm: 1 for nm in names}},
        {(f"d{i}", f"d{i}"): {f"d{i}": 1} for i in range(n)},
        {f"d{k}": {(f"d{i}", f"d{(k - i) % n}"): 1 for i in range(n)}
         for k in range(n)},
        {"d0": 1},
        {f"d{i}": {f"d{(-i) % n}": 1} for i in range(n)},
    )


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
    # A split (m1, m2) fixes the label (g, m1 + m2), so on a convolution
    # carrier every row holds one column and every block is a single column.
    for carrier in (pairh3_at(6), carrier_from_model(load("workloads").sl2_model(6))):
        assert eliminations_in_solve(monkeypatch, carrier)[1] == 0
    # The unit of Fun(S3) is the sum of all six indicators, so its unit rows
    # join the six labels into one block, eliminated once.
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
    assert fiber.brackets[0][1] == (0, 0, 1)
    assert fiber.brackets[1][0] == (0, 0, -1)
    assert fiber.brackets[0][2] == (0, 0, 0)


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
    assert {p: bundle.fiber(p).brackets for p in prim.carrier.base.points} == expected
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
                assert prim.brackets[p][i][j] == prim.coords_in_basis(lie, p), (p, i, j)


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
    monkeypatch.setattr(analysis_module, "analyze", lambda *a, **k: called.append(a))
    with pytest.raises(AnalysisError) as err:
        roundtrip(funs3())
    assert err.value.stage == "roundtrip"
    assert "constructed (convolution) model" in err.value.message
    assert called == []


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
    real, seen = analyze, []

    def changed(*args, **kwargs):
        result = real(*args, **kwargs)
        if change is not None:
            change(result)
        seen.append(result)
        return result

    monkeypatch.setattr(analysis_module, "analyze", changed)
    report = roundtrip(carrier, samples=20)
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


@pytest.mark.parametrize("make_model", [
    z2line_model, pairh3_at_3_model, *(functools.partial(random_model, s) for s in range(3)),
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
])
def test_permuting_fiber_bases_keeps_the_decision(make_model):
    model = make_model()
    before = analyze(carrier_from_model(model), samples=20).decision
    after = analyze(carrier_from_model(permuted_basis(model)), samples=20).decision
    assert after.verdict == before.verdict
    assert after.prim_ranks == before.prim_ranks
    assert after.spectral_arrows == before.spectral_arrows
    assert after.theta == before.theta
