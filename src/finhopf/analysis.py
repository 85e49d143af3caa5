"""Structure analysis: primitives, spectral groupoid, and the decomposition map.

The pipeline recovers, from a Hopf algebroid alone, the geometric data it
may have been built from:

1. ``solve_primitives``: the module of primitive elements (coproduct is
   unit-tensor-x + x-tensor-unit), read off the construction on a
   convolution carrier (the generators over the unit arrows) and found as an
   exact nullspace on a table, with its fiberwise ranks, bracket closure,
   antipode behaviour and anchor, and the bracket table at each point that
   ``prim_bundle`` reads.
2. ``solve_grouplikes_at`` / ``build_spectral_groupoid``: the normalized
   grouplike germs at each point (on a convolution carrier the unit
   coefficients over the arrows, on a table the checked eigenvector
   candidates), filtered by antipode-invariance, assembled into a finite
   groupoid under the localized product.
3. ``build_prim_action``: each spectral arrow g into y conjugates primitives
   between fibers, b -> rep_g * b * rep_(g^-1).  That is conjugation by the
   good pair rep_g cuts out at y, by three facts the spectral stage proved:
   rep_g is a normalized grouplike, 1_y * rep_g = rep_g and
   S(rep_g) = rep_(g^-1).  The matrices form a bundle action.
4. ``build_theta``: the comparison map from the reconstructed convolution
   algebroid onto the input, kept as the images of the domain labels, with
   the exact rank of those images at each base point.
5. ``analyze``: the Cartier-Gabriel-Kostant decision: the decomposition
   holds exactly when the map is bijective at every point.
6. ``roundtrip``: for a constructed input, the rebuilt groupoid, primitive
   bases and action matrices compared with the input directly, after an
   axiom stage decided exactly by ``validate``.

Every computation is exact; failures surface as typed errors naming the
pipeline stage, never as approximate answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebroid import (
    AlgebroidElement,
    AxiomReport,
    ConvolutionAlgebroid,
    FiberTensor,
    HopfAlgebroid,
    check_axioms,
    label_tuples,
    pair_terms,
    run_law,
    validate_checks,
)
from .errors import (
    AnalysisError,
    FinhopfError,
    NotAGoodPair,
    SolverIncomplete,
)
from .groupoid import BaseFun, FiniteGroupoid, groupoid_isomorphic
from .liebundle import BundleAction, LieBundle, LieFiber
from .linalg import QMatrix, nullspace_of_rows, rational_eigenvalues
from .rationals import add_terms, linear

_ZERO = Fraction(0)

TABLE_GROUPLIKE_DIM_BOUND = 12
THETA_HOM_SAMPLES = 12
THETA_HOM_SEED = 23


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@dataclass
class PrimBasis:
    """A canonical basis of the primitive module, grouped by target point."""

    carrier: HopfAlgebroid
    per_point: dict
    # point -> [i][j]: the nonzero (k, c) of [b_i, b_j] = sum c b_k in the
    # basis there, in order of k, or None where it leaves the span
    brackets: dict
    s_invariant: bool = True
    s_negates: bool = True
    anchor_trivial: bool = True
    bracket_closed: bool = True
    # point -> the pivot label of each basis vector there, its first label
    pivots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pivots = {
            p: [next(l for l in self.carrier.labels_at(p) if l in b._c) for b in basis]
            for p, basis in self.per_point.items()
        }

    def rank_at(self, point) -> int:
        return len(self.per_point.get(point, []))

    def ranks(self) -> dict:
        return {p: self.rank_at(p) for p in self.carrier.base.points}

    def rank_breaks(self) -> list:
        """The orbits, as point tuples, on which the rank is not constant.

        A convolution carrier is the product of its restrictions to the
        components of its groupoid, since arrows of two components never
        compose, so hypothesis (i) asks for a constant rank on each
        component.  A table carrier is read over its whole base.
        """
        if self.carrier.kind == "convolution":
            orbits = [tuple(c) for c in self.carrier.groupoid.components()]
        else:
            orbits = [self.carrier.base.points]
        return [o for o in orbits if len({self.rank_at(p) for p in o}) > 1]

    @property
    def constant_rank(self) -> bool:
        return not self.rank_breaks()

    def contains(self, element: AlgebroidElement) -> bool:
        """Exact membership of an element in the primitive span."""
        return all(
            self.coords_in_basis(element.at_point(p), p) is not None
            for p in element.target_points()
        )

    def coords_in_basis(self, element: AlgebroidElement, point):
        """Coordinates of a single-fiber element in the basis at ``point``.

        The basis at a point is a reduced echelon form with pivot entries 1,
        so the coordinates are the element's entries at the ``pivots``; they
        are the answer exactly when they rebuild the element, and None means
        it is outside the span.
        """
        if any(t != point for t in element.target_points()):
            return None
        basis = self.per_point.get(point, [])
        coeffs = element.coeffs
        coords = tuple(coeffs.get(l, _ZERO) for l in self.pivots.get(point, ()))
        rebuilt = linear(((i, c) for i, c in enumerate(coords) if c),
                         lambda i: basis[i].coeffs.items())
        return coords if rebuilt == coeffs else None


def _primitives_constructed(carrier: ConvolutionAlgebroid, point, _unit):
    # Exactness of the closed form: delta(g, m) is the sum of the pairs
    # (g, m1) (x) (g, m2) with m1 + m2 = m, each with a nonzero coefficient,
    # so a coproduct key is reached by one label only, every row of the
    # primitive system has one column, and the kernel is spanned by the unit
    # vectors of the labels whose coproduct is exactly the two unit terms
    # 1_y (x) l + l (x) 1_y, where 1_y = (u, 0) for the unit arrow u at y.
    # The key (g, 0) (x) (g, m) is a unit term only when g = u and m has
    # positive degree (at m = 0 both unit terms fall on it, with
    # coefficient 2).  The key (g, x_i) (x) (g, m - x_i), for a letter x_i
    # of m, is a unit term only when m - x_i = 0, that is when m has degree
    # 1, and then delta(l) is the two unit terms.  So the primitives are the
    # generators (u, x_i), and in label order they are the reduced echelon
    # basis; at truncation 0 there are none.
    unit_arrow = carrier.groupoid.units[point]
    return [carrier.basis_element(l) for l in carrier.labels_at(point)
            if l[0] == unit_arrow and sum(l[1]) == 1]


def _primitives_table(carrier: HopfAlgebroid, point, unit):
    labels = carrier.labels_at(point)
    idx = {l: i for i, l in enumerate(labels)}
    unit_terms = [(idx[l0], -c0) for l0, c0 in unit]
    rows = {}
    for col, l in enumerate(labels):
        column = {(idx[l1], idx[l2]): c for (l1, l2), c in carrier.delta_label(l)}
        for i0, c0 in unit_terms:
            add_terms(column, (((i0, col), c0), ((col, i0), c0)))
        for key, c in column.items():
            rows.setdefault(key, {})[col] = c
    basis = []
    for v in nullspace_of_rows(rows.values(), len(labels)):
        coeffs = {l: c for l, c in zip(labels, v) if c}
        basis.append(AlgebroidElement(carrier, coeffs))
    return basis


def solve_primitives(carrier: HopfAlgebroid) -> PrimBasis:
    """The canonical echelonized basis of the primitive module, with flags.

    At each point y the equation delta(a) = eta (x) a + a (x) eta is an
    exact system over the labels at y, with a sparse row per label pair.  On
    a convolution carrier its solution is known in closed form: the basis is
    the generators (unit arrow, x_i) at y, in label order, and no coproduct
    is read.  On a table carrier each label's column is its coproduct minus
    the two unit terms, written straight into the rows, and
    ``nullspace_of_rows`` solves the system in one elimination.  The
    commutators of the basis are taken with ``bracket``.
    """
    solve = (_primitives_constructed if isinstance(carrier, ConvolutionAlgebroid)
             else _primitives_table)
    per_point, brackets = {}, {}
    for y in carrier.base.points:
        unit = carrier.unit_at(y)._c.items()
        if any(carrier.label_target(l0) != y for l0, _c in unit):
            raise AnalysisError("primitives", f"the unit at {y!r} leaves the fiber there")
        basis = per_point[y] = solve(carrier, y, unit)
        brackets[y] = [[None] * len(basis) for _ in basis]
    prim = PrimBasis(carrier, per_point, brackets)

    indexed = [(p, i, x) for p in carrier.base.points for i, x in enumerate(per_point[p])]
    indicators = [BaseFun.indicator(carrier.base, p) for p in carrier.base.points]
    for _p, _i, x in indexed:
        sx = carrier.antipode(x)
        if sx != x.scale(-1):
            prim.s_negates = False
        if not prim.contains(sx):
            prim.s_invariant = False
        for r in indicators:
            if not carrier.anchor(x, r).is_zero():
                prim.anchor_trivial = False
    # Each unordered pair is bracketed once, in ``indexed`` order, which fixes
    # the first overflow; same-point brackets form the table ``prim_bundle``
    # reads.  [y, x] = -[x, y] and [x, x] = 0 by arithmetic, so they are filled in.
    for k, (p, i, x) in enumerate(indexed):
        brackets[p][i][i] = ()
        for q, j, y in indexed[k + 1:]:
            lie = carrier.bracket(x, y)
            if p == q:
                coords = prim.coords_in_basis(lie, p)
                closed = coords is not None
                if closed:
                    row = tuple((a, c) for a, c in enumerate(coords) if c)
                    brackets[p][i][j] = row
                    brackets[p][j][i] = tuple((a, -c) for a, c in row)
            else:
                closed = prim.contains(lie)
            if not closed:
                prim.bracket_closed = False
    return prim


def prim_bundle(prim: PrimBasis):
    """The bundle of primitive fibers, read off the bracket table of ``prim``."""
    fibers = []
    for p in prim.carrier.base.points:
        table = prim.brackets[p]
        if any(None in plane for plane in table):
            raise AnalysisError(
                "primitives", f"bracket of primitives leaves the fiber span at {p!r}"
            )
        fibers.append(LieFiber(tuple(f"X{i + 1}" for i in range(len(table))), table))
    return LieBundle(prim.carrier.base, tuple(fibers))


# ---------------------------------------------------------------------------
# grouplikes and the spectral groupoid
# ---------------------------------------------------------------------------

def _grouplikes_constructed(carrier: ConvolutionAlgebroid, point):
    # Exactness of the enumeration: a grouplike germ at the point is
    # supported on a single arrow (off-diagonal arrow pairs appear in
    # xi (x) xi but never in delta(xi)), and its enveloping coefficient u
    # satisfies delta(u) = u (x) u in the truncated tensor square.  Comparing
    # the graded piece at twice the highest positive support degree m gives
    # u_m (x) u_m = 0, so no positive degree survives, and the counit pins
    # the remaining scalar to 1.  Hence exactly the unit coefficient over
    # each arrow into the point.  The spectral stage checks both laws of
    # every germ: S maps the coefficient over g to the one over g^-1, so its
    # coproduct test of S(rep) covers each germ, and ``_source_of`` requires
    # the anchor to be a point evaluation, which pins the counit to 1.
    zero = (0,) * carrier.bundle.fiber(point).dim
    return [carrier.basis_element((g, zero)) for g in carrier.groupoid.arrows_into(point)]


def _grouplikes_table(carrier: HopfAlgebroid, point):
    labels = carrier.labels_at(point)
    d = len(labels)
    if d > TABLE_GROUPLIKE_DIM_BOUND:
        raise SolverIncomplete(
            f"grouplike enumeration bounded to fiber dimension "
            f"{TABLE_GROUPLIKE_DIM_BOUND}, got {d}"
        )
    if d == 0:
        return []
    idx = {l: i for i, l in enumerate(labels)}
    # Right-translation operators R_j(a) = (id (x) dual_j) delta(a).  A
    # normalized grouplike is precisely a simultaneous eigenvector whose
    # eigenvalue under R_j is its own j-th coordinate, so refining rational
    # eigenspaces operator by operator enumerates every candidate.
    ops = [[[_ZERO] * d for _ in range(d)] for _ in range(d)]
    for i, l in enumerate(labels):
        for (l1, l2), c in carrier.delta_label(l):
            if l2 in idx:
                ops[idx[l2]][idx[l1]][i] += c
    ops = [QMatrix(rows) for rows in ops]
    spaces = [(QMatrix.identity(d), [])]
    for op in ops:
        candidates = rational_eigenvalues(op)
        refined = []
        for basis_m, tup in spaces:
            opb = op * basis_m
            for lam in candidates:
                kernel = (opb - basis_m.scale(lam)).nullspace()
                if kernel:
                    cols = [basis_m.matvec(k) for k in kernel]
                    refined.append((QMatrix.from_columns(cols, rows=d), tup + [lam]))
        spaces = refined
        if not spaces:
            break
    # The candidate eigenvalues are distinct roots, so every space carries a
    # distinct tuple and so a distinct candidate.
    out = []
    for _basis, tup in spaces:
        candidate = AlgebroidElement(carrier, {l: lam for l, lam in zip(labels, tup) if lam})
        if (not candidate.is_zero() and carrier.counit(candidate)(point) == 1
                and carrier.delta(candidate) == FiberTensor.of_pair(candidate, candidate)):
            out.append(candidate)
    out.sort(key=lambda e: e.signature())
    return out


def solve_grouplikes_at(carrier: HopfAlgebroid, point) -> list:
    """All exact normalized grouplike germs at a base point.

    On a convolution carrier they are the unit coefficients over the arrows
    into the point, by construction; ``build_spectral_groupoid`` checks their
    laws.  On a table each eigenvector candidate is checked here.
    """
    if isinstance(carrier, ConvolutionAlgebroid):
        return _grouplikes_constructed(carrier, point)
    return _grouplikes_table(carrier, point)


def _source_of(carrier, rep, point):
    source = None
    for x in carrier.base.points:
        val = carrier.anchor(rep, BaseFun.indicator(carrier.base, x))(point)
        if val == 0:
            continue
        if val != 1 or source is not None:
            raise AnalysisError(
                "spectral",
                f"anchor of a grouplike at {point!r} is not a point evaluation",
            )
        source = x
    if source is None:
        raise AnalysisError(
            "spectral", f"grouplike at {point!r} has no source point under the anchor"
        )
    return source


@dataclass
class SpectralGroupoid:
    """The groupoid of antipode-invariant grouplike germs."""

    groupoid: FiniteGroupoid
    representatives: dict
    dropped_non_invariant: int = 0

    def arrow_of(self, element: AlgebroidElement):
        """The arrow whose representative equals ``element``, or None."""
        return next((a for a, rep in self.representatives.items() if rep == element), None)


def build_spectral_groupoid(carrier: HopfAlgebroid) -> SpectralGroupoid:
    """The groupoid of spectral arrows, with units, inverses and composites matched by value."""
    records = []
    dropped = 0
    for y in carrier.base.points:
        for rep in solve_grouplikes_at(carrier, y):
            srep = carrier.antipode(rep)
            if carrier.delta(srep) != FiberTensor.of_pair(srep, srep):
                dropped += 1
                continue
            records.append((y, _source_of(carrier, rep, y), rep, srep))
    point_index = {p: i for i, p in enumerate(carrier.base.points)}
    records.sort(key=lambda r: (point_index[r[0]], point_index[r[1]], r[2].signature()))

    ids = [f"s{i}" for i in range(len(records))]
    by_value = {frozenset(rec[2]._c.items()): ids[i] for i, rec in enumerate(records)}
    if len(by_value) != len(records):
        raise AnalysisError("spectral", "duplicate grouplike representatives")
    source = {ids[i]: rec[1] for i, rec in enumerate(records)}
    target = {ids[i]: rec[0] for i, rec in enumerate(records)}
    reps = {ids[i]: rec[2] for i, rec in enumerate(records)}

    def arrow(element, message):
        """The spectral arrow whose representative is ``element``."""
        found = by_value.get(frozenset(element._c.items()))
        if found is None:
            raise AnalysisError("spectral", message)
        return found

    units = {
        x: arrow(carrier.unit_at(x), f"the embedded unit at {x!r} is not among the grouplikes")
        for x in carrier.base.points
    }
    inverse = {
        g: arrow(rec[3], f"antipode of arrow {g!r} leaves the grouplike set")
        for g, rec in zip(ids, records)
    }
    compose = {
        (g, h): arrow(carrier.mul(reps[g], reps[h]),
                      f"product of arrows {g!r}, {h!r} leaves the grouplike set")
        for g in ids for h in ids if source[g] == target[h]
    }

    groupoid = FiniteGroupoid(carrier.base, ids, source, target, units, inverse, compose)
    violations = groupoid.validate()
    if violations:
        raise AnalysisError(
            "spectral", "grouplikes do not close into a groupoid: " + "; ".join(violations)
        )
    return SpectralGroupoid(groupoid, reps, dropped)


# ---------------------------------------------------------------------------
# conjugation operators from good pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodPair:
    """A validated pair (a, a') = (f c, f' c) sharing an invariant witness c.

    ``make_good_pair`` checks the witness and the functions; the pair keeps
    only the two elements that ``conjugate_by_pair`` multiplies by.
    """

    a: AlgebroidElement
    a_prime: AlgebroidElement


def _weakly_grouplike_partner(carrier, witness):
    """Solve delta(c) = c (x) c' for c', or None when no factorization exists.

    If a factorization exists, c' at each point is the row of delta(c) at the
    first label of c's support there, divided by c's coefficient at that
    label; comparing delta(c) with c (x) c' then checks every other entry.
    """
    tensor = carrier.delta(witness)
    coeffs = witness.coeffs
    heads = {}
    for y in carrier.base.points:
        head = next((l for l in carrier.labels_at(y) if l in coeffs), None)
        if head is not None:
            heads[head] = coeffs[head]
    partner = AlgebroidElement(carrier, {
        l2: c / heads[l1] for (l1, l2), c in tensor.data.items() if l1 in heads
    })
    if tensor != FiberTensor.of_pair(witness, partner):
        return None
    return partner


def make_good_pair(carrier, witness, f: BaseFun, f_prime: BaseFun) -> GoodPair:
    """Build and validate the pair (embed(f) c, embed(f') c)."""
    partner = _weakly_grouplike_partner(carrier, witness)
    if partner is None:
        raise NotAGoodPair("witness is not weakly grouplike")
    switness = carrier.antipode(witness)
    if carrier.delta(switness) != FiberTensor.of_pair(carrier.antipode(partner), switness):
        raise NotAGoodPair("witness is not antipode-invariant")
    eps = carrier.counit(witness)
    for x in set(f.support()) | set(f_prime.support()):
        if eps(x) != 1:
            raise NotAGoodPair(f"witness is not normalized at {x!r}")
    for x in f.support():
        if f_prime(x) != 1:
            raise NotAGoodPair(f"the second function is not 1 at {x!r}")
    a = carrier.mul(carrier.embed(f), witness)
    a_prime = carrier.mul(carrier.embed(f_prime), witness)
    return GoodPair(a, a_prime)


def canonical_good_pair(carrier, rep: AlgebroidElement, point) -> GoodPair:
    """The pair cut out of a spectral representative by the point indicator."""
    f = BaseFun.indicator(carrier.base, point)
    return make_good_pair(carrier, rep, f, f)


def conjugate_by_pair(pair: GoodPair, b: AlgebroidElement) -> AlgebroidElement:
    carrier = pair.a.carrier
    return carrier.mul(carrier.mul(pair.a, b), carrier.antipode(pair.a_prime))


# ---------------------------------------------------------------------------
# the reconstructed action on primitives
# ---------------------------------------------------------------------------

def build_prim_action(carrier: HopfAlgebroid, gsp: SpectralGroupoid,
                      prim: PrimBasis) -> BundleAction:
    """Conjugate primitive fibers along spectral arrows, as exact matrices.

    An arrow g from x to y maps a primitive b at x to rep_g * b * rep_(g^-1):
    ``conjugate_by_pair(canonical_good_pair(carrier, rep_g, y), b)``, since
    ``build_spectral_groupoid`` proved that rep_g is a normalized grouplike
    (so ``make_good_pair`` accepts it), that 1_y * rep_g = rep_g (the unit law
    of its ``validate()``) and that S(rep_g) = rep_(g^-1) (the inverse it matched).
    An image outside the primitive fiber, or a non-square or singular matrix
    (the last reported by ``BundleAction.validate``, so each kernel is taken
    once), raises ``AnalysisError`` at stage ``prim-action``; ``analyze``
    calls this only on carriers that passed ``validate``.
    """
    bundle = prim_bundle(prim)
    groupoid, reps = gsp.groupoid, gsp.representatives
    matrices = {}
    for arrow in groupoid.arrows:
        x, y = groupoid.source[arrow], groupoid.target[arrow]
        rep, rep_inverse = reps[arrow], reps[groupoid.inverse[arrow]]
        columns = []
        for basis_el in prim.per_point.get(x, []):
            image = carrier.mul(carrier.mul(rep, basis_el), rep_inverse)
            if any(t != y for t in image.target_points()):
                raise AnalysisError(
                    "prim-action", f"conjugation along {arrow!r} leaves the fiber at {y!r}"
                )
            coords = prim.coords_in_basis(image, y)
            if coords is None:
                raise AnalysisError(
                    "prim-action",
                    f"conjugation along {arrow!r} does not land in the primitive fiber",
                )
            columns.append(coords)
        m = QMatrix.from_columns(columns, rows=prim.rank_at(y))
        if m.rows != m.cols:
            raise AnalysisError(
                "prim-action",
                f"conjugation along {arrow!r} is not a bijection between fibers "
                f"({m.cols} -> {m.rows})",
            )
        matrices[arrow] = m
    action = BundleAction(gsp.groupoid, bundle, matrices)
    violations = action.validate()
    if violations:
        raise AnalysisError("prim-action", "; ".join(violations))
    return action


# ---------------------------------------------------------------------------
# the decomposition map
# ---------------------------------------------------------------------------

@dataclass
class ThetaMap:
    """The comparison map, kept as the images of the domain labels.

    At each point their sparse rows (``_rows_at``) are the one system behind
    ``ranks``, ``witnesses`` and the dense ``matrices``; ``build_theta``
    solves it once.  Its kernel is the canonical basis of the vectors
    orthogonal to every image: the rank is the codomain dimension minus the
    kernel's, and where the kernel is not empty the witness is the codomain
    label at the pivot of its first vector, a label outside the image.
    """

    domain: ConvolutionAlgebroid
    codomain: HopfAlgebroid
    images: dict
    ranks: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    hom_checks: list = field(default_factory=list)

    def _rows_at(self, point) -> list:
        """The images of the domain labels at ``point``, in order, as sparse
        rows over the codomain labels there; an image outside that fiber raises."""
        index = {l: k for k, l in enumerate(self.codomain.labels_at(point))}
        rows = []
        for label in self.domain.labels_at(point):
            coeffs = self.images[label].coeffs
            if not coeffs.keys() <= index.keys():
                name = self.domain.format_label(label)
                raise AnalysisError("theta", f"image of {name} leaves the fiber at {point!r}")
            rows.append({index[l]: c for l, c in coeffs.items()})
        return rows

    @property
    def matrices(self) -> dict:
        """The matrix at each point, built on read: column j is the image of domain label j."""
        out = {}
        for p in self.codomain.base.points:
            columns = self._rows_at(p)
            height = len(self.codomain.labels_at(p))
            out[p] = QMatrix(
                [[col.get(k, _ZERO) for col in columns] for k in range(height)],
                cols=len(columns),
            )
        return out

    def apply(self, u: AlgebroidElement) -> AlgebroidElement:
        terms = linear(u._c.items(), lambda l: self.images[l]._c.items())
        return AlgebroidElement._of(self.codomain, 1, terms)

    def dims_at(self, point):
        return (
            len(self.domain.labels_at(point)),
            len(self.codomain.labels_at(point)),
        )

    def bijective_at(self, point) -> bool:
        dom, cod = self.dims_at(point)
        return dom == cod == self.ranks[point]

    @property
    def all_bijective(self) -> bool:
        return all(self.bijective_at(p) for p in self.codomain.base.points)


def build_theta(carrier: HopfAlgebroid, gsp: SpectralGroupoid, prim: PrimBasis,
                action: BundleAction) -> ThetaMap:
    """Assemble the map (PBW monomial over arrow) -> product of representatives.

    The reconstructed side has the carrier's own ``truncation``, 0 on a
    table, where no bound would change the result: a nonzero
    primitive x has linearly independent powers (delta(x^n) is the binomial
    sum of x^k (x) x^(n-k)), so a finite-dimensional Hopf algebroid over Q
    has no primitives and the reconstructed fibers of a table are
    0-dimensional.  No image overflows: a label of degree k <= truncation
    maps to a product of k degree-1 primitives, or to a table.
    """
    domain = ConvolutionAlgebroid(gsp.groupoid, action.bundle, action, carrier.truncation)

    product_cache = {}

    def monomial_product(point, mono):
        """The primitives' product in PBW order: the prefix's product times the last letter."""
        if not any(mono):
            return carrier.unit_at(point)
        key = (point, mono)
        if key not in product_cache:
            last = max(i for i, power in enumerate(mono) if power)
            prefix = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
            acc = monomial_product(point, prefix)
            product_cache[key] = carrier.mul(acc, prim.per_point.get(point, [])[last])
        return product_cache[key]

    images = {}
    for label in domain.labels:
        arrow, mono = label
        y = domain.label_target(label)
        d = monomial_product(y, mono)
        images[label] = carrier.mul(d, gsp.representatives[arrow])

    theta = ThetaMap(domain, carrier, images)
    for p in carrier.base.points:
        labels = carrier.labels_at(p)
        kernel = nullspace_of_rows(theta._rows_at(p), len(labels))
        theta.ranks[p] = len(labels) - len(kernel)
        if kernel:
            first = next(i for i, c in enumerate(kernel[0]) if c)
            theta.witnesses[p] = carrier.format_label(labels[first])
    theta.hom_checks = _verify_theta_hom(theta, carrier.truncation)
    return theta


def _verify_theta_hom(theta: ThetaMap, truncation):
    """Exact homomorphy spot checks for the comparison map, by ``run_law``.

    The samples are drawn first, from one seeded stream, of degree at most half
    the truncation: no law multiplies more than two, so none overflows.  Each
    law but the one on the base is linear in each element of its samples, so
    ``run_law`` checks it on their distinct label tuples, single labels or
    label pairs, when there are no more of them than samples, and evaluates
    the samples themselves otherwise.
    """
    rng = random.Random(THETA_HOM_SEED)
    domain, codomain = theta.domain, theta.codomain
    cap, n = truncation // 2, THETA_HOM_SAMPLES

    def draw():
        return domain.random_element(rng, degree_cap=cap)

    pairs = [(draw(), draw()) for _ in range(n)]
    singles = [[draw() for _ in range(n)] for _law in range(3)]

    def mult(uv):
        u, v = uv
        lhs = theta.apply(domain.mul(u, v))
        rhs = codomain.mul(theta.apply(u), theta.apply(v))
        return None if lhs == rhs else f"{u.text()}; {v.text()}"

    def counit(u):
        return None if codomain.counit(theta.apply(u)) == domain.counit(u) else u.text()

    def comult(u):
        lhs = codomain.delta(theta.apply(u))
        mapped = _map_tensor(domain.delta(u), theta)
        return None if lhs == mapped else u.text()

    def antipode(u):
        lhs = theta.apply(domain.antipode(u))
        rhs = codomain.antipode(theta.apply(u))
        return None if lhs == rhs else u.text()

    def on_base(_):
        for p in domain.base.points:
            f = BaseFun.indicator(domain.base, p)
            if theta.apply(domain.embed(f)) != codomain.embed(f):
                return p
        return None

    laws = [
        ("theta_multiplicative", pairs, mult, label_tuples(pairs)),
        ("theta_counit", singles[0], counit, label_tuples(singles[0])),
        ("theta_comultiplicative", singles[1], comult, label_tuples(singles[1])),
        ("theta_antipode", singles[2], antipode, label_tuples(singles[2])),
        ("theta_on_base", [None], on_base),
    ]
    return [run_law(*law) for law in laws]


def _map_tensor(tensor: FiberTensor, theta: ThetaMap) -> FiberTensor:
    """Theta on both legs; ``pair_terms`` keeps the result fiberwise."""
    codomain, images = theta.codomain, theta.images

    def image(key):
        return pair_terms(codomain, images[key[0]]._c.items(), images[key[1]]._c.items())

    return FiberTensor._of(codomain, 2, linear(tensor._c.items(), image))


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------

@dataclass
class DecisionReport:
    prim_ranks: dict = field(default_factory=dict)
    constant_rank: bool | None = None
    s_invariant: bool | None = None
    spectral_arrows: int | None = None
    theta: dict = field(default_factory=dict)
    verdict: str = "ERROR"
    hypothesis_failures: list = field(default_factory=list)
    witness: str | None = None
    stage_error: tuple | None = None
    axioms_ok: bool | None = None

    def to_json(self):
        out = {
            "primRank": dict(self.prim_ranks),
            "constantRank": self.constant_rank,
            "sInvariant": self.s_invariant,
            "verdict": self.verdict,
        }
        if self.spectral_arrows is not None:
            out["spectral"] = {"arrows": self.spectral_arrows}
        if self.theta:
            out["theta"] = {
                p: {"rank": v["rank"], "dim": v["dim"]} for p, v in self.theta.items()
            }
        if self.witness:
            out["witness"] = self.witness
        if self.hypothesis_failures:
            out["hypothesisFailures"] = list(self.hypothesis_failures)
        if self.stage_error:
            out["stageError"] = {"stage": self.stage_error[0], "message": self.stage_error[1]}
        if self.axioms_ok is not None:
            out["axiomsOk"] = self.axioms_ok
        return out

    def text(self):
        lines = []
        if self.stage_error:
            lines.append(f"stage {self.stage_error[0]} failed: {self.stage_error[1]}")
        if self.prim_ranks:
            ranks = ", ".join(f"{p}: {r}" for p, r in self.prim_ranks.items())
            lines.append(f"primitive ranks: {ranks}")
            lines.append(
                f"constant rank: {self.constant_rank}; antipode-invariant: {self.s_invariant}"
            )
        if self.spectral_arrows is not None:
            lines.append(f"spectral arrows: {self.spectral_arrows}")
        for p, v in self.theta.items():
            lines.append(
                f"theta at {p}: rank {v['rank']} of {v['dim']} "
                f"({'bijective' if v['rank'] == v['dim'] == v['domainDim'] else 'not bijective'})"
            )
        for h in self.hypothesis_failures:
            lines.append(f"hypothesis failure: {h}")
        if self.witness:
            lines.append(f"witness: {self.witness}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


@dataclass
class Analysis:
    carrier: HopfAlgebroid
    axiom_report: AxiomReport | None = None
    prim: PrimBasis | None = None
    gsp: SpectralGroupoid | None = None
    prim_action: BundleAction | None = None
    theta: ThetaMap | None = None
    decision: DecisionReport = field(default_factory=DecisionReport)


def analyze(carrier: HopfAlgebroid, samples: int = 60, seed: int = 11) -> Analysis:
    """Decide the Cartier-Gabriel-Kostant decomposition for the carrier.

    Runs the full pipeline, collecting its artifacts and the decision report.
    The axiom stage is ``check_axioms`` at ``samples`` and ``seed``, and stops
    on every failed check, each ``validate`` violation included, naming each
    failed check once in report order; so a carrier that ``validate`` rejects
    gets verdict ``ERROR`` at stage ``axioms`` and no later artifact is built.
    A convolution carrier is G ⋉ U(g), a Hopf algebroid, exactly when
    ``validate`` accepts it.
    """
    return _analyze(carrier, lambda c: check_axioms(c, samples=samples, seed=seed))


def _analyze(carrier: HopfAlgebroid, axiom_stage) -> Analysis:
    """The pipeline after ``axiom_stage``, which maps the carrier to its
    ``AxiomReport``; a failed or inconclusive check stops it there."""
    analysis = Analysis(carrier)
    report = analysis.decision
    stage = "axioms"
    try:
        analysis.axiom_report = axiom_stage(carrier)
        report.axioms_ok = analysis.axiom_report.ok
        failing = list(dict.fromkeys(c.name for c in analysis.axiom_report.failures()))
        if failing:
            raise AnalysisError("axioms", f"axiom checks failed: {', '.join(failing)}")
        if analysis.axiom_report.inconclusive():
            unchecked = ", ".join(c.name for c in analysis.axiom_report.inconclusive())
            raise AnalysisError(
                "axioms", f"axiom checks inconclusive (no sample checked): {unchecked}"
            )

        stage = "primitives"
        analysis.prim = solve_primitives(carrier)
        prim = analysis.prim
        report.prim_ranks = prim.ranks()
        report.constant_rank = prim.constant_rank
        report.s_invariant = prim.s_invariant
        for orbit in prim.rank_breaks():
            report.hypothesis_failures.append(
                f"primitive module does not have constant rank on the orbit of {orbit[0]!r} "
                "(hypothesis i)"
            )
        if not prim.s_invariant:
            report.hypothesis_failures.append(
                "primitive module is not antipode-invariant (hypothesis i)"
            )
            report.verdict = "NOT_ISO"
            return analysis

        stage = "spectral"
        analysis.gsp = build_spectral_groupoid(carrier)
        report.spectral_arrows = len(analysis.gsp.groupoid.arrows)

        stage = "prim-action"
        analysis.prim_action = build_prim_action(carrier, analysis.gsp, prim)

        stage = "theta"
        analysis.theta = build_theta(carrier, analysis.gsp, prim, analysis.prim_action)
        theta = analysis.theta
        for check in theta.hom_checks:
            if not check.ok:
                raise AnalysisError(
                    "theta", f"homomorphy check {check.name} failed: {check.witness}"
                )
        for check in theta.hom_checks:
            if check.status == "inconclusive":
                raise AnalysisError(
                    "theta", f"homomorphy check {check.name} inconclusive: no sample checked"
                )
        for p in carrier.base.points:
            dom, cod = theta.dims_at(p)
            report.theta[p] = {"rank": theta.ranks[p], "dim": cod, "domainDim": dom}
        if theta.all_bijective:
            report.verdict = "ISO"
        else:
            report.verdict = "NOT_ISO"
            bad = next(p for p in carrier.base.points if not theta.bijective_at(p))
            report.hypothesis_failures.append(
                f"the algebroid is not free over its arrows at {bad!r} (hypothesis ii)"
            )
            report.witness = theta.witnesses.get(bad)
    except FinhopfError as exc:
        if isinstance(exc, AnalysisError):
            report.stage_error = (exc.stage, exc.message)
        else:
            report.stage_error = (stage, str(exc))
        report.verdict = "ERROR"
    return analysis


# ---------------------------------------------------------------------------
# round trip for constructed inputs
# ---------------------------------------------------------------------------

@dataclass
class RoundTripReport:
    decision: DecisionReport
    groupoid_isomorphic: bool = False
    action_matches: bool = False
    rank_matches: bool = False

    @property
    def ok(self):
        return (
            self.decision.verdict == "ISO"
            and self.groupoid_isomorphic
            and self.action_matches
            and self.rank_matches
        )

    def to_json(self):
        return {
            "decision": self.decision.to_json(),
            "groupoidIsomorphic": self.groupoid_isomorphic,
            "actionMatches": self.action_matches,
            "rankMatches": self.rank_matches,
            "ok": self.ok,
        }


def _exact_axioms(carrier: ConvolutionAlgebroid) -> AxiomReport:
    """The axiom stage of a convolution carrier, decided by ``validate``."""
    return AxiomReport(validate_checks(carrier), mode="validate")


def roundtrip(carrier: ConvolutionAlgebroid, samples: int = 60, seed: int = 11) -> RoundTripReport:
    """Reconstruct the groupoid and action from the algebroid and compare.

    The decision is that of ``analyze`` with an exact axiom stage: a
    convolution carrier is G ⋉ U(g), a Hopf algebroid, exactly when
    ``validate`` accepts it, so the axiom report holds one failed check
    named ``validate`` per violation, mode ``validate``, and no law is
    sampled.  ``samples`` and ``seed`` are unused; they stay because the
    benchmark's job runner passes them.

    The action matches when three direct checks hold: each input arrow's
    indicator (the unit coefficient over it) is a spectral representative;
    at each point the primitive basis is the generators (unit arrow, e_i),
    in label order; and the rebuilt matrix of each indicator's spectral
    arrow equals the input matrix of its arrow.  No change of basis is
    needed: ``solve_primitives`` returns the canonical basis, reduced echelon
    with pivot entries 1, which is exactly those generators whenever it
    spans them.  A rescaled or reordered basis of the same span would count
    as a mismatch.  Any other carrier is refused before any stage runs.
    """
    if carrier.kind != "convolution":
        raise AnalysisError("roundtrip", "round trip needs a constructed (convolution) model")
    analysis = _analyze(carrier, _exact_axioms)
    report = RoundTripReport(analysis.decision)
    if analysis.prim is None or analysis.gsp is None or analysis.prim_action is None:
        return report

    report.rank_matches = all(
        analysis.prim.rank_at(p) == carrier.bundle.fiber(p).dim
        for p in carrier.base.points
    )

    iso = groupoid_isomorphic(carrier.groupoid, analysis.gsp.groupoid)
    report.groupoid_isomorphic = iso is not None

    groupoid, fiber = carrier.groupoid, carrier.bundle.fiber
    arrow_map = {}
    for g in groupoid.arrows:
        zero = (0,) * fiber(groupoid.target[g]).dim
        arrow_map[g] = analysis.gsp.arrow_of(carrier.basis_element((g, zero)))

    def generators(p):
        dim = fiber(p).dim
        return [{(groupoid.units[p], tuple(1 if k == i else 0 for k in range(dim))): 1}
                for i in range(dim)]

    report.action_matches = (
        None not in arrow_map.values()
        and all(
            [x.coeffs for x in analysis.prim.per_point[p]] == generators(p)
            for p in carrier.base.points
        )
        and all(
            analysis.prim_action.matrix(arrow_map[g]) == carrier.action.matrix(g)
            for g in groupoid.arrows
        )
    )
    return report
