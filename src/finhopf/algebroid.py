"""Hopf algebroids over a finite base: convolution and table carriers.

A carrier owns a finite canonical basis; every basis label has a target
point, and the base functions act on the left by scaling components along
targets.  Elements are finitely supported rational coefficient maps over the
labels.  Two carrier kinds share this interface:

* ``ConvolutionAlgebroid``: the twisted product of a finite groupoid with a
  bundle of truncated enveloping algebras.  Labels are (arrow, monomial)
  pairs; the product is convolution with fiber transport along arrows.
* ``TableAlgebroid``: an explicitly tabulated finite-dimensional algebroid.

Comultiplications land in the fiberwise tensor square: since the left action
on both legs goes along targets, mixed-target terms vanish, and a tensor is
one coefficient map over same-target label tuples (pairs for the square),
not a map per point.

Scalars: every coefficient an element or tensor stores is exact and
nonzero.  The label-level structure constants (``mul_label``,
``delta_label``, ``antipode_label``: ``((key, c), ...)`` terms;
``counit_label``: one scalar) and the sampled elements are as
``rationals.exact`` returns them, integral ones as plain ``int`` (almost all
structure constants are) and the rest as ``Fraction``; a base function is
passed through ``exact`` before it is embedded.  A sum or product of these is
kept as arithmetic returns it, so integral models compute in ``int``s
throughout.  Elements and tensors share one core, a zero-free coefficient map
of some arity over one carrier.  The public constructors normalise what they
are given; the carrier operations hand their fresh, zero-free maps to the
core's ``_of``, which stores them as they are.
Every coefficient an element, tensor or coordinate tuple exposes
(``coeffs``, ``data``, ``coords_at``) is a ``Fraction``.  The module only
adds, subtracts and multiplies coefficients, which is exact on mixed
operands; it never divides.

``check_axioms`` runs the exact structural checks of ``validate``, then
evaluates the full axiom suite: counit, comultiplication and antipode
restricted to the base, balanced coproduct values, multiplicativity of counit
and coproduct, the antipode anti-homomorphism and convolution identities,
coassociativity, both counit laws, involutivity, and associativity.  A
carrier with truncation 0 and at most 12 labels is checked on full bases,
which by multilinearity of every identity is a complete proof; any other is
checked on seeded random samples, of degree at most a third of the
truncation: no law multiplies more than three, so none overflows.  One
sampler serves every carrier: ``HopfAlgebroid.random_element`` draws 1 to 4
labels uniformly from those under the degree cap, each with a coefficient
in -3..3 other than 0, from ``getrandbits`` alone.  Every sampled law is
linear in each element of its sample, a single, a pair or a triple, and one
harness, ``run_law``, checks them all.  When a list of samples has no more
distinct label tuples (supp a x supp b ...) than samples, as a full basis
with one per sample has, each law checks every tuple once, as basis
elements, and after a failing tuple evaluates the samples from the first
that contains it; otherwise each sample is evaluated.  ``checked`` still
counts samples, each proved directly or by multilinearity from its label
tuples.
"""

from __future__ import annotations

import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    CoherenceError,
    DimensionMismatch,
    SizeGuardExceeded,
    TruncationOverflow,
)
from .groupoid import BaseFun, BaseSpace, FiniteGroupoid
from .liebundle import BundleAction, LieBundle
from .enveloping import (
    mono_antipode,
    mono_delta,
    mono_mul,
    mono_text,
    mono_transport,
    monomials_up_to,
    unit_mono,
)
from .rationals import add_terms, bilinear, exact, linear, rat, rat_str

_ZERO = 0
_ONE = 1
# The coefficients of sampled elements: nonzero ``int``s, stored as they are.
_SAMPLE_COEFFS = (-3, -2, -1, 1, 2, 3)
# The label draws of one sample, indexed by three bits: 1, 2, 3 or 4 with
# weights 2, 3, 2 and 1, as one or two arrows of one or two monomials each.
_SAMPLE_SIZES = (1, 1, 2, 2, 2, 3, 3, 4)

# pairh3 at truncation 50 has 93,704 labels and builds in about 0.4 s
# (Python 3.11 on a 2-core Xeon); far larger models would hang the loader.
CONVOLUTION_MAX_LABELS = 100_000


class _CoefficientMap:
    """A zero-free map from keys to exact coefficients over one carrier.

    An element has arity 1 and is keyed by labels; a tensor keeps its arity
    and is keyed by label tuples.  ``+`` and ``-`` take a map of the same
    type, carrier and arity, and raise ``DimensionMismatch`` on any other.
    """

    __slots__ = ("carrier", "arity", "_c", "_view")

    @classmethod
    def _of(cls, carrier, arity, coeffs):
        """A map a carrier operation has just built, stored as is, without the
        normalisation or key checks of the public constructors: its
        coefficients are already exact and nonzero (see "Scalars"), and a
        tensor's keys are fiberwise by construction (``pair_terms`` keeps
        same-target pairs, a convolution coproduct stays on one arrow, table
        import rejects tables whose coproduct is not fiberwise or whose
        product leaves the grading)."""
        new = cls.__new__(cls)
        new.carrier = carrier
        new.arity = arity
        new._c = coeffs
        new._view = None
        return new

    @property
    def _fractions(self):
        """The nonzero coefficients as ``{key: Fraction}``, read-only."""
        if self._view is None:
            self._view = MappingProxyType({k: rat(c) for k, c in self._c.items()})
        return self._view

    def _same_shape(self, other):
        if (type(other) is not type(self) or other.carrier is not self.carrier
                or other.arity != self.arity):
            raise DimensionMismatch("operands differ in type, carrier or arity")

    def __add__(self, other):
        self._same_shape(other)
        return self._of(self.carrier, self.arity, add_terms(dict(self._c), other._c.items()))

    def __sub__(self, other):
        self._same_shape(other)
        negated = ((k, -c) for k, c in other._c.items())
        return self._of(self.carrier, self.arity, add_terms(dict(self._c), negated))

    def scale(self, c):
        c = exact(c)
        return self._of(self.carrier, self.arity,
                        {k: c * x for k, x in self._c.items()} if c else {})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.carrier is other.carrier
            and self.arity == other.arity
            and self._c == other._c
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} objects are not hashable")

    def is_zero(self) -> bool:
        return not self._c


class AlgebroidElement(_CoefficientMap):
    """A finitely supported coefficient map over a carrier's basis labels."""

    __slots__ = ()

    def __init__(self, carrier, coeffs):
        self.carrier = carrier
        self.arity = 1
        clean = {}
        for label, c in coeffs.items():
            c = exact(c)
            if c:
                clean[label] = c
        self._c = clean
        self._view = None

    # The nonzero coefficients as ``{label: Fraction}``, read-only.
    coeffs = _CoefficientMap._fractions

    def __neg__(self):
        return AlgebroidElement._of(self.carrier, 1, {l: -c for l, c in self._c.items()})

    def target_points(self) -> set:
        return {self.carrier.label_target(l) for l in self._c}

    def at_point(self, point) -> "AlgebroidElement":
        """The component supported on labels with the given target."""
        return AlgebroidElement._of(
            self.carrier, 1,
            {l: c for l, c in self._c.items() if self.carrier.label_target(l) == point},
        )

    def coords_at(self, point) -> tuple:
        """The ``Fraction`` coefficients of the labels at ``point``, in label order."""
        get = self._c.get
        return tuple(rat(get(l, _ZERO)) for l in self.carrier.labels_at(point))

    def signature(self):
        """A deterministic, hashable fingerprint used for exact matching."""
        return tuple(sorted((self.carrier.format_label(l), rat_str(c)) for l, c in self._c.items()))

    def text(self) -> str:
        return self.carrier.format_element(self)

    __repr__ = text


def pair_terms(carrier, left, right):
    """The same-target terms of ``left (x) right``, over ``(label, c)`` terms."""
    target = carrier.label_target
    for l1, c1 in left:
        t1 = target(l1)
        for l2, c2 in right:
            if target(l2) == t1:
                yield (l1, l2), c1 * c2


class FiberTensor(_CoefficientMap):
    """A fiberwise tensor power: coefficients over same-target label tuples."""

    __slots__ = ()

    def __init__(self, carrier, arity, data):
        self.carrier = carrier
        self.arity = arity
        self._c = add_terms({}, ((key, exact(c)) for key, c in data.items()))
        self._view = None
        for key in self._c:
            if len(key) != arity:
                raise DimensionMismatch(f"key {key} has wrong arity")
            targets = {carrier.label_target(l) for l in key}
            if len(targets) != 1:
                raise CoherenceError(
                    f"tensor key {key} mixes target points {sorted(targets)}"
                )

    # The nonzero coefficients as ``{label tuple: Fraction}``, read-only.
    data = _CoefficientMap._fractions

    @classmethod
    def of_pair(cls, a: AlgebroidElement, b: AlgebroidElement) -> "FiberTensor":
        """The image of a (x) b in the fiberwise tensor square.

        Mixed-target terms die in the balanced tensor, so only same-target
        label pairs are kept.
        """
        terms = pair_terms(a.carrier, a._c.items(), b._c.items())
        return cls._of(a.carrier, 2, add_terms({}, terms))

    def _splice(self, leg, expansion_of_label, width=1):
        """Replace one leg by an expansion label -> [(labels..., coeff)]."""
        def image(key):
            head, tail = key[:leg], key[leg + 1:]
            return ((head + repl + tail, w) for repl, w in expansion_of_label(key[leg]))

        return self._of(self.carrier, self.arity - 1 + width, linear(self._c.items(), image))

    def delta_leg(self, leg) -> "FiberTensor":
        return self._splice(leg, self.carrier.delta_label, width=2)

    def counit_leg(self, leg) -> "FiberTensor":
        counit = self.carrier.counit_label
        return self._splice(leg, lambda label: (((), counit(label)),), width=0)

    def right_mul_leg(self, leg, element: AlgebroidElement) -> "FiberTensor":
        carrier = self.carrier
        if element.carrier is not carrier:
            raise DimensionMismatch("element belongs to another carrier")
        right = element._c.items()

        def expand(label):
            return (((l,), c) for l, c in carrier._product(((label, _ONE),), right).items())

        return self._splice(leg, expand, width=1)

    def mul_pairwise(self, other: "FiberTensor") -> "FiberTensor":
        """The product in the tensor-square algebra: legwise multiplication."""
        if self.arity != 2 or other.arity != 2:
            raise DimensionMismatch("pairwise product needs arity-2 tensors")
        carrier = self.carrier
        if other.carrier is not carrier:
            raise DimensionMismatch("tensors belong to different carriers")
        product = carrier.mul_label

        def legwise(a, b):
            # The left legs are multiplied first, so they raise any overflow first.
            left = product(a[0], b[0])
            return pair_terms(carrier, left, product(a[1], b[1])) if left else ()

        return self._of(carrier, 2, bilinear(self._c.items(), other._c.items(), legwise))

    def collapse(self) -> AlgebroidElement:
        """The antipode convolution: the sum of ``c * S(l1) * l2`` over the terms.

        Its intermediate "tensor" is not fiberwise (the antipode swaps
        endpoints), so it is never materialized.
        """
        if self.arity != 2:
            raise DimensionMismatch("collapse needs an arity-2 tensor")
        carrier = self.carrier

        def image(key):
            return carrier._product(carrier.antipode_label(key[0]), ((key[1], _ONE),)).items()

        return AlgebroidElement._of(carrier, 1, linear(self._c.items(), image))

    def to_element(self) -> AlgebroidElement:
        if self.arity != 1:
            raise DimensionMismatch("only arity-1 tensors collapse to elements")
        return AlgebroidElement._of(self.carrier, 1, {key[0]: c for key, c in self._c.items()})


class HopfAlgebroid(ABC):
    """The common carrier interface for both algebroid kinds.

    ``truncation`` bounds ``label_degree``: no label is above it, and a
    product above it raises ``TruncationOverflow``.  A table's is 0.
    """

    base: BaseSpace
    kind: str
    truncation: int = 0

    @property
    @abstractmethod
    def labels(self) -> tuple: ...

    @abstractmethod
    def label_target(self, label) -> str: ...

    @abstractmethod
    def format_label(self, label) -> str: ...

    @abstractmethod
    def label_degree(self, label) -> int:
        """0 on a table, the monomial degree on a convolution carrier; also
        defined on the keys that ``mul_label`` returns above the truncation."""

    @abstractmethod
    def mul_label(self, l1, l2, bound=None) -> tuple:
        """The product of two labels as ``(label, c)`` terms, raising
        ``TruncationOverflow`` on a term above ``bound`` (None: the
        truncation; a table ignores it).  Under a larger bound a key may be
        no label: a term that ``bracket`` must cancel."""

    @abstractmethod
    def delta_label(self, label): ...

    @abstractmethod
    def counit_label(self, label): ...

    @abstractmethod
    def antipode_label(self, label) -> tuple: ...

    @abstractmethod
    def validate(self) -> list: ...

    # -- shared machinery ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def labels_at(self, point) -> tuple:
        cache = getattr(self, "_labels_at", None)
        if cache is None:
            cache = {}
            for l in self.labels:
                cache.setdefault(self.label_target(l), []).append(l)
            cache = {p: tuple(ls) for p, ls in cache.items()}
            self._labels_at = cache
        return cache.get(point, ())

    def random_element(self, rng, degree_cap=None) -> AlgebroidElement:
        """A seeded sample: 1 to 4 label draws (weights 2, 3, 2 and 1 in 8),
        each uniform over the labels of degree at most ``degree_cap`` (by
        default a third of the truncation) and given a coefficient in
        -3..3 other than 0; a label drawn again keeps its last coefficient.
        ``rng`` is a ``random.Random`` of which only ``getrandbits`` is read.
        A negative cap, or no label to draw, raises ``ValueError`` before
        any bit is read."""
        cap = self.truncation // 3 if degree_cap is None else degree_cap
        if cap < 0:
            raise ValueError(f"degree cap must be nonnegative, got {cap}")
        cap = min(cap, self.truncation)
        pools = getattr(self, "_pools", None)
        if pools is None:
            pools = self._pools = {}
        pool = pools.get(cap)
        if pool is None:  # the labels of degree <= cap, in label order
            degree = self.label_degree
            pool = pools[cap] = tuple(l for l in self.labels if degree(l) <= cap)
        if not pool:
            raise ValueError(f"no labels of degree at most {cap} to draw")
        bits, n = rng.getrandbits, len(pool)
        k = (n - 1).bit_length()
        coeffs = {}
        for _ in range(_SAMPLE_SIZES[bits(3)]):
            while (j := bits(k)) >= n:
                pass
            while (c := bits(3)) >= 6:
                pass
            coeffs[pool[j]] = _SAMPLE_COEFFS[c]
        return AlgebroidElement._of(self, 1, coeffs)

    def _product(self, left, right) -> dict:
        """The product of two ``(label, c)`` term sequences: ``rationals.bilinear``
        over ``mul_label``, so the first label pair that overflows is the one
        reported."""
        return bilinear(left, right, self.mul_label)

    def mul(self, a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
        """The product of two elements of this carrier."""
        if a.carrier is not self or b.carrier is not self:
            raise DimensionMismatch("element belongs to another carrier")
        return AlgebroidElement._of(self, 1, self._product(a._c.items(), b._c.items()))

    def bracket(self, a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
        """The commutator a * b - b * a, bounded only after it cancels.

        Each label product is formed under the bound deg l1 + deg l2, so
        none overflows; a surviving term above the truncation raises
        ``TruncationOverflow``.  On a table this is ``mul(a, b) - mul(b, a)``.
        """
        if a.carrier is not self or b.carrier is not self:
            raise DimensionMismatch("element belongs to another carrier")
        degree, mul_label = self.label_degree, self.mul_label

        def product(l1, l2):
            return mul_label(l1, l2, degree(l1) + degree(l2))

        out = bilinear(a._c.items(), b._c.items(), product)
        ba = bilinear(b._c.items(), a._c.items(), product)
        add_terms(out, ((l, -c) for l, c in ba.items()))
        for l in out:
            if degree(l) > self.truncation:
                raise TruncationOverflow(degree(l), self.truncation,
                                         "commutator of stored monomials; no silent truncation")
        return AlgebroidElement._of(self, 1, out)

    def zero(self) -> AlgebroidElement:
        return AlgebroidElement(self, {})

    def basis_element(self, label) -> AlgebroidElement:
        return AlgebroidElement(self, {label: _ONE})

    def delta(self, a: AlgebroidElement) -> FiberTensor:
        return FiberTensor._of(self, 2, linear(a._c.items(), self.delta_label))

    def counit(self, a: AlgebroidElement) -> BaseFun:
        return BaseFun(self.base, self._counit_values(a))

    def _counit_values(self, a: AlgebroidElement) -> tuple:
        """The counit of a as one ``exact`` value per base point, in point order."""
        values = linear(a._c.items(), lambda l: ((self.label_target(l), self.counit_label(l)),))
        return tuple(exact(values.get(p, _ZERO)) for p in self.base.points)

    def antipode(self, a: AlgebroidElement) -> AlgebroidElement:
        return AlgebroidElement._of(self, 1, linear(a._c.items(), self.antipode_label))

    def embed(self, f: BaseFun) -> AlgebroidElement:
        if f.base != self.base:
            raise DimensionMismatch("function lives on a different base")
        return self._embed_values(exact(v) for v in f.values)

    def _embed_values(self, values) -> AlgebroidElement:
        """The embedding of the base function with these ``exact`` values, one
        per base point, as the sum of value times unit over the points."""
        units = getattr(self, "_unit_terms", None)
        if units is None:
            units = {p: tuple(self.unit_at(p)._c.items()) for p in self.base.points}
            self._unit_terms = units
        terms = ((p, v) for p, v in zip(self.base.points, values) if v)
        return AlgebroidElement._of(self, 1, linear(terms, units.__getitem__))

    @abstractmethod
    def unit_at(self, point) -> AlgebroidElement: ...

    def one(self) -> AlgebroidElement:
        return self.embed(BaseFun.one(self.base))

    def anchor(self, a: AlgebroidElement, r: BaseFun) -> BaseFun:
        """The anchor: rho(a)(r) = counit(a * embed(r))."""
        return self.counit(self.mul(a, self.embed(r)))

    def format_element(self, a: AlgebroidElement) -> str:
        if not a._c:
            return "0"
        order = {l: i for i, l in enumerate(self.labels)}
        parts = []
        for l in sorted(a._c, key=order.get):
            parts.append(f"{rat_str(a._c[l])}*{self.format_label(l)}")
        return " + ".join(parts)


class ConvolutionAlgebroid(HopfAlgebroid):
    """The convolution algebroid of a groupoid acting on a Lie algebra bundle.

    An element assigns to each arrow g a truncated enveloping-algebra element
    in the fiber over target(g).  The product is convolution: the coefficient
    of g in a*b sums a(h) * (h . b(k)) over the pairs with g = h after k,
    where h acts by transporting the source fiber along the arrow.
    """

    kind = "convolution"

    def __init__(self, groupoid: FiniteGroupoid, bundle: LieBundle, action: BundleAction,
                 truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if bundle.base != groupoid.base:
            raise DimensionMismatch("bundle and groupoid bases differ")
        self.groupoid = groupoid
        self.bundle = bundle
        self.action = action
        self.truncation = truncation
        self.base = groupoid.base
        count = 0  # labels: monomials of degree <= truncation in each arrow's target fiber
        for g in groupoid.arrows:
            m = action.matrices.get(g)
            src = bundle.fiber(groupoid.source[g])
            tgt = bundle.fiber(groupoid.target[g])
            if m is None or m.rows != tgt.dim or m.cols != src.dim:
                raise DimensionMismatch(
                    f"action matrix of {g!r} must map dim {src.dim} to dim {tgt.dim}"
                )
            count += math.comb(truncation + tgt.dim, tgt.dim)
        if count > CONVOLUTION_MAX_LABELS:
            raise SizeGuardExceeded(
                f"convolution carrier limited to {CONVOLUTION_MAX_LABELS} labels, "
                f"got {count} at truncation {truncation}"
            )
        labels = []
        for g in sorted(groupoid.arrows):
            fiber = bundle.fiber(groupoid.target[g])
            for m in monomials_up_to(fiber.dim, truncation):
                labels.append((g, m))
        self._labels = tuple(labels)
        self._delta_cache = {}
        self._antipode_cache = {}
        self._products = {}
        self._transported_products = {}
        self._transports = {}

    # The benchmark tracer patches ``mul`` in each carrier class's own namespace.
    mul = HopfAlgebroid.mul

    @property
    def labels(self):
        return self._labels

    def label_target(self, label):
        return self.groupoid.target[label[0]]

    def format_label(self, label):
        g, m = label
        fiber = self.bundle.fiber(self.groupoid.target[g])
        return f"{mono_text(m, fiber.basis)}@{g}"

    def label_degree(self, label):
        return sum(label[1])

    def mul_label(self, l1, l2, bound=None):
        """For l1 = (h, m1) and l2 = (k, m2) with g = h after k, the terms are
        those of m1 * (h . m2), at g.  The transported terms come in
        ``mono_key`` order, so an overflow names the lowest-degree transported
        term that overflows.  Products under the truncation (``bound`` None)
        are memoized per carrier twice: by label pair, read first, and by
        (h, m1, m2), since m1 * (h . m2) does not depend on k.  A label pair
        missing from the first memo attaches g to the terms of the second, so
        each product is computed once per left arrow, not once per composable
        pair; a repeated read finds its labelled terms in the first memo and
        rebuilds no tuple.  Transports are memoized per (arrow, monomial), and
        each monomial product is read from the fiber's product table.  A pair
        whose arrows do not compose gives ``()`` and is not stored.  Neither
        memo holds a product under a given bound, nor one that overflows, and
        ``mono_mul`` raises that overflow again on every call.
        """
        if bound is None:
            entry = self._products.get((l1, l2))
            if entry is not None:
                return entry
        g = self.groupoid.compose_table.get((l1[0], l2[0]))
        if g is None:
            return ()
        (h, m1), (_k, m2) = l1, l2
        if bound is not None:
            return tuple(((g, m), c) for m, c in self._transported_product(h, m1, m2, bound))
        terms = self._transported_products.get((h, m1, m2))
        if terms is None:
            terms = self._transported_products[(h, m1, m2)] = self._transported_product(
                h, m1, m2, self.truncation)
        entry = self._products[(l1, l2)] = tuple(((g, m), c) for m, c in terms)
        return entry

    def _transported_product(self, h, m1, m2, bound):
        """m1 * (h . m2) under ``bound`` as ``exact`` ``(monomial, c)`` terms.

        ``mono_mul`` by m1 is folded over the transported terms of m2.  A
        transport that is one term with coefficient 1 (a unit arrow, or a
        permutation) gives ``mono_mul``'s terms as they are: already exact and
        in ``mono_key`` order."""
        fiber = self.bundle.fiber(self.groupoid.target[h])
        moved = self._transport(h, m2)
        if len(moved) == 1 and moved[0][1] == 1:
            return mono_mul(fiber, m1, moved[0][0], bound)
        product = linear(moved, lambda m: mono_mul(fiber, m1, m, bound))
        return tuple((m, exact(c)) for m, c in product.items())

    def _transport(self, arrow, m):
        """``mono_transport`` of m along the arrow, computed once per (arrow, monomial)."""
        moved = self._transports.get((arrow, m))
        if moved is None:
            fiber = self.bundle.fiber(self.groupoid.target[arrow])
            moved = mono_transport(m, self.action.matrix(arrow), fiber)
            self._transports[(arrow, m)] = moved
        return moved

    def delta_label(self, label):
        if label not in self._delta_cache:
            g, m = label
            self._delta_cache[label] = tuple(
                (((g, m1), (g, m2)), c) for (m1, m2), c in mono_delta(m)
            )
        return self._delta_cache[label]

    def counit_label(self, label):
        _g, m = label
        return _ONE if not any(m) else _ZERO

    def antipode_label(self, label):
        if label not in self._antipode_cache:
            g, m = label
            ginv = self.groupoid.inverse[g]
            fiber = self.bundle.fiber(self.groupoid.target[g])
            moved = linear(mono_antipode(fiber, m), lambda w: self._transport(ginv, w))
            self._antipode_cache[label] = tuple(((ginv, w), exact(c)) for w, c in moved.items())
        return self._antipode_cache[label]

    def unit_at(self, point):
        g = self.groupoid.units[point]
        fiber = self.bundle.fiber(point)
        return self.basis_element((g, unit_mono(fiber.dim)))

    def validate(self):
        report = []
        report.extend(f"groupoid: {m}" for m in self.groupoid.validate())
        report.extend(f"bundle: {m}" for m in self.bundle.validate())
        report.extend(f"action: {m}" for m in self.action.validate())
        return report


class TableAlgebroid(HopfAlgebroid):
    """A finite-dimensional algebroid given by explicit structure tables.

    Import performs structural coherence checks only (identifiers resolve,
    the coproduct is fiberwise, the base embedding gives orthogonal local
    units and a two-sided global unit, the product respects the target
    grading).  The Hopf axioms themselves are left to ``check_axioms`` so
    deliberately axiom-violating tables can be imported and diagnosed.
    """

    kind = "table"

    def __init__(self, base: BaseSpace, names, targets, r_embed, mul_table,
                 delta_table, counit_table, antipode_table):
        self.base = base
        self._labels = tuple(names)
        if len(set(self._labels)) != len(self._labels):
            raise CoherenceError("duplicate basis names")
        for n in self._labels:
            if targets.get(n) not in base:
                raise CoherenceError(f"basis element {n!r} has no valid target point")
        self._targets = target = {n: targets[n] for n in self._labels}

        def terms(entry, context, pairs=False):
            """The nonzero ``exact`` terms of a table entry, in order, each key
            (a label, or with ``pairs`` a label pair) checked as it is reached."""
            for key, c in entry.items():
                if pairs and not (key[0] in target and key[1] in target):
                    raise CoherenceError(f"{context} uses unknown names")
                if not pairs and key not in target:
                    raise CoherenceError(f"{context} mentions unknown name {key!r}")
                c = exact(c)
                if c:
                    yield key, c

        if set(r_embed) != set(base.points):
            raise CoherenceError("base embedding must cover every point exactly")
        self._r_embed = {}
        for x, v in r_embed.items():
            entry = tuple(terms(v, f"base embedding at {x!r}"))
            for n, _c in entry:
                if target[n] != x:
                    raise CoherenceError(
                        f"base embedding at {x!r} touches {n!r} with target {target[n]!r}"
                    )
            self._r_embed[x] = entry

        self._mul = {}
        for (n1, n2), v in mul_table.items():
            if n1 not in target or n2 not in target:
                raise CoherenceError(f"product table uses unknown pair ({n1!r}, {n2!r})")
            entry = tuple(terms(v, f"product ({n1!r}, {n2!r})"))
            if any(target[n] != target[n1] for n, _c in entry):
                raise CoherenceError(f"product ({n1!r}, {n2!r}) leaves the target grading")
            if entry:
                self._mul[(n1, n2)] = entry

        for table, entries in (("delta", delta_table), ("counit", counit_table),
                               ("antipode", antipode_table)):
            for n in entries:
                if n not in target:
                    raise CoherenceError(f"{table} table has an entry for unknown label {n!r}")

        self._delta = {}
        for n in self._labels:
            entry = []
            for (n1, n2), c in terms(delta_table.get(n, {}), f"coproduct of {n!r}", pairs=True):
                if target[n1] != target[n] or target[n2] != target[n]:
                    raise CoherenceError(f"coproduct of {n!r} is not fiberwise at its target")
                entry.append(((n1, n2), c))
            self._delta[n] = tuple(sorted(entry))

        self._counit = {n: exact(counit_table.get(n, 0)) for n in self._labels}
        self._antipode = {
            n: tuple(terms(antipode_table.get(n, {}), f"antipode of {n!r}")) for n in self._labels
        }
        self._check_units()

    def _check_units(self):
        # Orthogonal local units summing to a global two-sided unit; these
        # make the base embedding meaningful, so failures are import errors.
        for x in self.base.points:
            ux = self.unit_at(x)
            for b in self._labels:
                prod = self.mul(ux, self.basis_element(b))
                expect = self.basis_element(b) if self._targets[b] == x else self.zero()
                if prod != expect:
                    raise CoherenceError(
                        f"embedded unit at {x!r} does not act as the left local unit on {b!r}"
                    )
        eta = self.one()
        for b in self._labels:
            if self.mul(self.basis_element(b), eta) != self.basis_element(b):
                raise CoherenceError(f"global unit fails on the right of {b!r}")

    @property
    def labels(self):
        return self._labels

    def label_target(self, label):
        return self._targets[label]

    def format_label(self, label):
        return label

    # The benchmark tracer patches ``mul`` in each carrier class's own namespace.
    mul = HopfAlgebroid.mul

    def label_degree(self, label):
        return 0

    def mul_label(self, l1, l2, bound=None):
        return self._mul.get((l1, l2), ())

    def delta_label(self, label):
        return self._delta[label]

    def counit_label(self, label):
        return self._counit[label]

    def antipode_label(self, label):
        return self._antipode[label]

    def unit_at(self, point):
        return AlgebroidElement(self, dict(self._r_embed[point]))

    def validate(self):
        return []  # structural coherence is enforced at import time


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------

EXHAUSTIVE_MAX_LABELS = 12


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    checked: int
    witness: str | None = None

    @property
    def status(self) -> str:
        """``fail`` on a witness, ``inconclusive`` when no sample was checked."""
        if not self.ok:
            return "fail"
        return "pass" if self.checked else "inconclusive"

    def to_json(self):
        out = {"name": self.name, "status": self.status, "checked": self.checked}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class AxiomReport:
    checks: list = field(default_factory=list)
    resampled: int = 0
    mode: str = "sampled"

    @property
    def ok(self) -> bool:
        """True only when every law passed on at least one sample."""
        return all(c.status == "pass" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def inconclusive(self):
        return [c for c in self.checks if c.status == "inconclusive"]

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "resampled": self.resampled,
            "checks": [c.to_json() for c in self.checks],
        }

    def text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{c.status.upper()} {c.name} (checked {c.checked})"
            if c.witness:
                line += f"\n     witness: {c.witness}"
            lines.append(line)
        overall = "FAIL" if self.failures() else "INCONCLUSIVE" if self.inconclusive() else "PASS"
        lines.append(f"{overall} overall")
        return "\n".join(lines)


def label_tuples(items):
    """The distinct label tuples of samples of a multilinear law, or None.

    An item is an element or a tuple of elements, all of one carrier.
    Walking the items in order, each label tuple of their supports (supp a x
    supp b ...) is kept once, in order of first appearance, as ``key ->
    (index of that item, basis item)``; the basis items share one element
    per label.  The walk stops with None as soon as the tuples outnumber the
    items: checking each would then take more evaluations than checking each
    item.  A list of basis items has exactly one tuple per item.
    """
    first = {}
    limit = len(items)
    for i, item in enumerate(items):
        if isinstance(item, AlgebroidElement):
            keys = item._c
        else:
            keys = itertools.product(*(x._c for x in item))
        for key in keys:
            if key not in first:
                if len(first) == limit:
                    return None
                first[key] = i
    units = {}

    def unit(x, label):
        if label not in units:
            units[label] = AlgebroidElement._of(x.carrier, 1, {label: _ONE})
        return units[label]

    return {key: (i, unit(items[i], key) if isinstance(items[i], AlgebroidElement)
                  else tuple(map(unit, items[i], key))) for key, i in first.items()}


def run_law(name, items, predicate, tuples=None):
    """Check one law on each item in turn, stopping at the first failure.

    ``predicate`` returns None where the law holds and a witness where it
    fails.  Every item is drawn inside its law's degree cap, so an overflow
    is an error: ``TruncationOverflow`` leaves ``run_law``.

    Given ``tuples``, the ``label_tuples`` of ``items``, the law is linear in
    each element of an item, and each label tuple is checked once, as its
    basis item, in order of first appearance.  When all hold, every item
    holds by multilinearity and is counted checked.  When one fails, the
    items are evaluated from the first that contains it, as they all are
    without ``tuples``; every item before that one is a combination of
    tuples that hold, so the report is that of evaluating every item.
    """
    start = 0
    if tuples is not None:
        for first, basis in tuples.values():
            if predicate(basis) is not None:
                start = first
                break
        else:
            return AxiomCheck(name, True, len(items))
    for checked, item in enumerate(items[start:], start + 1):
        witness = predicate(item)
        if witness is not None:
            return AxiomCheck(name, False, checked, witness)
    return AxiomCheck(name, True, len(items))


def validate_checks(carrier: HopfAlgebroid) -> list:
    """One failed check named ``validate`` per violation of
    ``carrier.validate()``, its message as the witness."""
    return [AxiomCheck("validate", False, 1, v) for v in carrier.validate()]


def check_axioms(carrier: HopfAlgebroid, samples: int = 100, seed: int = 1) -> AxiomReport:
    """Run the full axiom suite and report each law separately.

    The exact structural checks of ``carrier.validate()`` come first, each
    violation a failed check named ``validate`` with its message as the
    witness; the sampled laws still run, and ``analyze`` stops on any failed
    check.  A carrier with truncation 0 and at most ``EXHAUSTIVE_MAX_LABELS``
    labels is checked on every basis tuple.  Any other is sampled,
    deterministically in ``seed`` and inside the degree cap of
    ``random_element``, so a ``TruncationOverflow`` is an error and leaves
    ``check_axioms``; ``resampled`` stays 0.  The draws read
    ``random.Random(seed)`` through ``getrandbits`` alone.  On a valid model
    every law passes every sample, so the report is the same at every seed.
    Every law on a list of singles, pairs or triples is multilinear, so
    ``run_law`` checks it on the list's ``label_tuples``.  A negative
    ``samples`` raises ``ValueError`` before any draw.
    """
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    rng = random.Random(seed)
    report = AxiomReport()
    report.checks.extend(validate_checks(carrier))

    if carrier.truncation == 0 and carrier.dim <= EXHAUSTIVE_MAX_LABELS:
        report.mode = "exhaustive-basis"
        singles = basis = [carrier.basis_element(l) for l in carrier.labels]
        pairs = [(a, b) for a in basis for b in basis]
        triples = [(a, b, c) for a in basis for b in basis for c in basis]
    else:
        def draw():
            return carrier.random_element(rng)

        singles = [draw() for _ in range(samples)]
        pairs = [(draw(), draw()) for _ in range(samples)]
        triples = [(draw(), draw(), draw()) for _ in range(samples)]
    # Decided once per list, for every law that reads it.
    single_tuples, pair_tuples, triple_tuples = (
        label_tuples(items) for items in (singles, pairs, triples))

    # Three laws read each pair's product, so it is built on first use and
    # shared.  A pair, a sample or a basis item of ``pair_tuples``, lives as
    # long as this call and is keyed by its identity.  Two samples of degree
    # <= N // 3 multiply to degree <= 2N/3, so none overflows.
    products = {}

    def product(ab):
        ab_product = products.get(id(ab))
        if ab_product is None:
            ab_product = products[id(ab)] = carrier.mul(*ab)
        return ab_product

    indicators = [BaseFun.indicator(carrier.base, p) for p in carrier.base.points]
    embedded = [carrier.embed(f) for f in indicators]
    on_base = list(zip(indicators, embedded))

    def fmt(*elements):
        return "; ".join(e.text() for e in elements)

    # (i) counit and coproduct restrict to the base canonically
    def counit_on_base(fe):
        return None if carrier.counit(fe[1]) == fe[0] else f"point function {fe[0]}"

    def comult_on_base(fe):
        ok = carrier.delta(fe[1]) == FiberTensor.of_pair(fe[1], carrier.one())
        return None if ok else f"point function {fe[0]}"

    # (ii) both right actions agree on coproduct values
    def balanced(a):
        t = carrier.delta(a)
        for e in embedded:
            if t.right_mul_leg(0, e) != t.right_mul_leg(1, e):
                return fmt(a)
        return None

    # (iii) counit and coproduct are multiplicative.  This law and (v) compare
    # and embed exact counit values, which ``carrier.counit`` exposes as Fractions.
    counit, embed = carrier._counit_values, carrier._embed_values

    def counit_mult(pair):
        a, b = pair
        lhs = counit(product(pair))
        rhs = counit(carrier.mul(a, embed(counit(b))))
        return None if lhs == rhs else fmt(a, b)

    def comult_mult(pair):
        a, b = pair
        lhs = carrier.delta(product(pair))
        rhs = carrier.delta(a).mul_pairwise(carrier.delta(b))
        return None if lhs == rhs else fmt(a, b)

    # (iv) antipode fixes the base and reverses products
    def antipode_on_base(e):
        return None if carrier.antipode(e) == e else e.text()

    def antihom(pair):
        a, b = pair
        lhs = carrier.antipode(product(pair))
        rhs = carrier.mul(carrier.antipode(b), carrier.antipode(a))
        return None if lhs == rhs else fmt(a, b)

    # (v) multiplying antipode against identity along the coproduct
    def convolution_identity(a):
        lhs = carrier.delta(a).collapse()
        rhs = embed(counit(carrier.antipode(a)))
        return None if lhs == rhs else fmt(a)

    # coalgebra laws
    def coassoc(a):
        t = carrier.delta(a)
        return None if t.delta_leg(0) == t.delta_leg(1) else fmt(a)

    def counit_left(a):
        return None if carrier.delta(a).counit_leg(0).to_element() == a else fmt(a)

    def counit_right(a):
        return None if carrier.delta(a).counit_leg(1).to_element() == a else fmt(a)

    def involutive(a):
        return None if carrier.antipode(carrier.antipode(a)) == a else fmt(a)

    # associativity of the product
    def assoc(abc):
        a, b, c = abc
        lhs = carrier.mul(carrier.mul(a, b), c)
        rhs = carrier.mul(a, carrier.mul(b, c))
        return None if lhs == rhs else fmt(a, b, c)

    laws = [
        ("axiom_i_counit_on_base", on_base, counit_on_base),
        ("axiom_i_comult_on_base", on_base, comult_on_base),
        ("axiom_ii_balanced_coproduct", singles, balanced, single_tuples),
        ("axiom_iii_counit_multiplicative", pairs, counit_mult, pair_tuples),
        ("axiom_iii_comult_multiplicative", pairs, comult_mult, pair_tuples),
        ("axiom_iv_antipode_on_base", embedded, antipode_on_base),
        ("axiom_iv_antihomomorphism", pairs, antihom, pair_tuples),
        ("axiom_v_antipode_convolution", singles, convolution_identity, single_tuples),
        ("coassociativity", singles, coassoc, single_tuples),
        ("counit_law_left", singles, counit_left, single_tuples),
        ("counit_law_right", singles, counit_right, single_tuples),
        ("antipode_involutive", singles, involutive, single_tuples),
        ("associativity", triples, assoc, triple_tuples),
    ]
    report.checks.extend(run_law(*law) for law in laws)
    return report
