"""Degree-truncated universal enveloping algebras in PBW form.

Elements are rational combinations of ordered monomials e_1^a_1 ... e_n^a_n
of total degree at most N.  Any product whose raw degree would exceed N raises
TruncationOverflow before any work is discarded; results are never silently
truncated.

Products are read from two tables per fiber, kept on the ``LieFiber`` object
that uses them and filled on first use.  The PBW table's entry for an ordered
monomial m and a generator x_i is the normal form of m * x_i.  If the last
letter x_j of m is at most x_i the entry is m with x_i appended; otherwise
m = m' x_j and m x_i = (m' x_i) x_j + m' [x_j, x_i], where every term on the
right is again an entry of lower degree or an append.  This is the rewriting
of an index word at its leftmost descent, xy -> yx + [x, y], memoized per
(monomial, generator), so the normal forms are the same for any bracket
table, whether or not it is antisymmetric or satisfies Jacobi.  The product
table's entry for a monomial pair (m1, m2) is the normal form of m1 * m2: the
entry for (m1, m2') times x_j through the PBW table, where x_j is the last
letter of m2 and m2 = m2' x_j.  So m1 is multiplied by the letters of m2 from
left to right, once per prefix of m2.  A product in which no letter of m2
comes before the last letter of m1 is an append and is not stored.  Under a
degree bound N only PBW entries with deg m + 1 <= N are read and only product
entries with deg m1 + deg m2 <= N are stored, so a fiber of dimension d holds
at most (monomials of degree < N) * d PBW entries and at most C(N + 2d, 2d)
product entries, one per pair of monomials of total degree <= N.

The Hopf structure is the usual one determined on generators: generators are
primitive, the counit kills positive degree, and the antipode negates
generators and reverses products.  Comultiplication and antipode never raise
degree, so they are total on the truncated model.
Product, coproduct, antipode and substitution are given once, on monomials, as
``(key, c)`` terms: ``mono_mul``, ``mono_delta``, ``mono_antipode``, ``mono_transport``.
The product, the antipode and the substitution are folds over the table, in
canonical ``mono_key`` order, with coefficients as ``rationals.exact`` returns
them: plain ``int``s where the brackets and the matrix are integral.  The
module only adds, subtracts and multiplies, so it never divides.
``UElement`` (whose coefficients are ``Fraction``s) and the convolution
carrier fold the monomial maps through ``rationals.linear``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, prod

from .errors import DimensionMismatch, TruncationOverflow
from .liebundle import LieFiber
from .linalg import QMatrix
from .rationals import add_terms, exact, linear, rat, rat_str

Monomial = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mono_degree(m: Monomial) -> int:
    return sum(m)

def mono_word(m: Monomial) -> tuple[int, ...]:
    """The sorted index word of a monomial: (0,0,1) for e1^2 e2."""
    word = []
    for i, a in enumerate(m):
        word.extend([i] * a)
    return tuple(word)


def mono_key(m: Monomial):
    """Canonical ordering key: by degree, then lexicographically by word."""
    return (mono_degree(m), mono_word(m))


def unit_mono(dim: int) -> Monomial:
    return (0,) * dim


def monomials_up_to(dim: int, degree: int) -> list[Monomial]:
    """All PBW monomials of total degree <= degree, in canonical order.

    The sorted words of each degree come out of
    ``combinations_with_replacement`` in lexicographic order, which is the
    ``mono_key`` order.
    """
    return [
        tuple(word.count(i) for i in range(dim))
        for d in range(degree + 1)
        for word in combinations_with_replacement(range(dim), d)
    ]


def _entry(fiber: LieFiber, m: Monomial, i: int):
    """The table entry for (m, i): the normal form of m * x_i as ``(monomial, c)`` terms.

    Every entry it reads is an append or has a key of lower degree than m,
    so the recursion is at most deg m deep.
    """
    table = fiber.pbw_table
    entry = table.get((m, i))
    if entry is None:
        j = max((k for k, a in enumerate(m) if a), default=-1)  # the last letter of m
        if j <= i:
            entry = ((m[:i] + (m[i] + 1,) + m[i + 1:], 1),)
        else:  # m x_i = (m' x_i) x_j + m' [x_j, x_i]
            rest = m[:j] + (m[j] - 1,) + m[j + 1:]
            bracket = [(k, exact(c)) for k, c in enumerate(fiber.bracket_coeffs(j, i)) if c]
            out = _times(fiber, _entry(fiber, rest, i), ((j, 1),))
            add_terms(out, _times(fiber, ((rest, 1),), bracket).items())
            entry = tuple((u, exact(c)) for u, c in out.items())
        table[(m, i)] = entry
    return entry


def _times(fiber: LieFiber, terms, column) -> dict:
    """The normal form of (sum of c * m over the terms) * (sum of e * x_i over the column)."""
    return linear(terms, lambda m: ((u, e * w) for i, e in column for u, w in _entry(fiber, m, i)))


def _ordered(terms):
    """``(monomial, c)`` terms as an ``exact`` tuple in ``mono_key`` order."""
    return tuple(sorted(((m, exact(c)) for m, c in terms), key=lambda t: mono_key(t[0])))


def _fold(fiber: LieFiber, start, columns):
    """Multiply ``start`` on the right by each column in turn; terms in ``mono_key`` order."""
    terms = start
    for column in columns:
        terms = _times(fiber, terms, column).items()
    return _ordered(terms)


def mono_mul(fiber: LieFiber, m1: Monomial, m2: Monomial, truncation: int):
    """The product m1 * m2 as ``(monomial, c)`` terms, in ``mono_key`` order.

    The degree bound is checked on the two factors, before any lookup, so an
    overflowing call stores nothing.  When no letter of m2 comes before the
    last letter of m1 the product is m1 with m2 appended, returned as it is
    and not stored.  Any other product is read from the fiber's product
    table; a missing entry is filled from the longest stored prefix of m2's
    word, one letter at a time, storing each longer prefix on the way.
    """
    total = mono_degree(m1) + mono_degree(m2)
    if total > truncation:
        raise TruncationOverflow(total, truncation,
                                 "product of stored monomials; no silent truncation")
    last = max((k for k, a in enumerate(m1) if a), default=0)  # the last letter of m1
    if not any(m2[:last]):  # no letter of m2 precedes it: the product is an append
        return ((tuple(a + b for a, b in zip(m1, m2)), 1),)
    table = fiber.product_table
    entry = table.get((m1, m2))
    if entry is None:
        word = mono_word(m2)
        prefix = list(m2)
        stored = len(word)
        while stored:  # strip letters off the end until a stored prefix remains
            stored -= 1
            prefix[word[stored]] -= 1
            entry = table.get((m1, tuple(prefix)))
            if entry is not None:
                break
        else:
            entry = ((m1, 1),)
        for j in word[stored:]:
            prefix[j] += 1
            entry = _ordered(_times(fiber, entry, ((j, 1),)).items())
            table[(m1, tuple(prefix))] = entry
    return entry


def mono_delta(m: Monomial):
    """The coproduct of m as ``((left, right), c)`` terms, with ``int`` coefficients.

    Splitting an ordered monomial leaves both halves ordered, so no
    restraightening is needed and no overflow can occur.  The terms come in
    ascending order of ``(left, right)``.
    """
    for left in product(*(range(a + 1) for a in m)):
        yield (left, tuple(a - b for a, b in zip(m, left))), prod(map(comb, m, left))


def mono_antipode(fiber: LieFiber, m: Monomial):
    """The antipode of m: negate the generators and multiply them out in reverse order."""
    word = mono_word(m)[::-1]
    start = ((unit_mono(fiber.dim), -1 if len(word) % 2 else 1),)
    return _fold(fiber, start, [((i, 1),) for i in word])


def mono_transport(m: Monomial, matrix: QMatrix, target_fiber: LieFiber):
    """Substitute column j of the matrix for each letter j of m, and multiply out.

    The letters are those of m's own word, so this is word substitution and
    valid for any matrix.  The transport of a product is the product of the
    transports only when the matrix preserves brackets, so it is never
    computed that way.
    """
    columns = [
        [(i, exact(e)) for i in range(target_fiber.dim) if (e := matrix.entry(i, j))]
        for j in mono_word(m)
    ]
    return _fold(target_fiber, ((unit_mono(target_fiber.dim), 1),), columns)


@dataclass(frozen=True)
class UElement:
    """An element of U(fiber) truncated at total degree ``truncation``."""

    fiber: LieFiber
    point: str
    truncation: int
    terms: dict = field(default_factory=dict)  # Monomial -> Fraction, zero-free

    def __post_init__(self):
        clean = {}
        for m, c in self.terms.items():
            c = rat(c)
            if len(m) != self.fiber.dim:
                raise DimensionMismatch(
                    f"monomial {m} does not fit a {self.fiber.dim}-dimensional fiber"
                )
            if mono_degree(m) > self.truncation:
                raise TruncationOverflow(mono_degree(m), self.truncation)
            if c:
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, fiber, point, truncation) -> "UElement":
        return cls(fiber, point, truncation, {})

    @classmethod
    def generator(cls, fiber, point, truncation, index) -> "UElement":
        m = [0] * fiber.dim
        m[index] = 1
        return cls(fiber, point, truncation, {tuple(m): _ONE})

    def _like(self, terms) -> "UElement":
        return UElement(self.fiber, self.point, self.truncation, terms)

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "UElement") -> "UElement":
        self._compatible(other)
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "UElement") -> "UElement":
        return self + (-other)

    def __neg__(self) -> "UElement":
        return self._like({m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "UElement":
        c = rat(c)
        if not c:
            return self._like({})
        return self._like({m: c * x for m, x in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, UElement)
            and self.fiber == other.fiber
            and self.point == other.point
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _compatible(self, other):
        if (
            self.fiber != other.fiber
            or self.point != other.point
            or self.truncation != other.truncation
        ):
            raise DimensionMismatch("elements live in different truncated algebras")

    # -- algebra structure -------------------------------------------------

    def mul(self, other: "UElement") -> "UElement":
        self._compatible(other)
        right = other.terms.items()
        pairs = (((m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in right)
        return self._like(linear(pairs, lambda p: mono_mul(self.fiber, *p, self.truncation)))

    __mul__ = mul

    # -- Hopf structure ----------------------------------------------------

    def delta(self) -> dict:
        """Comultiplication as a map (Monomial, Monomial) -> coefficient."""
        return linear(self.terms.items(), mono_delta)

    def counit(self) -> Fraction:
        return self.terms.get(unit_mono(self.fiber.dim), _ZERO)

    def antipode(self) -> "UElement":
        return self._like(linear(self.terms.items(), lambda m: mono_antipode(self.fiber, m)))

    def transport(self, matrix: QMatrix, target_fiber: LieFiber, target_point: str) -> "UElement":
        """Apply a linear generator substitution, landing in the target fiber.

        The substitution is degree-preserving on words, so it is total; it is
        an algebra map exactly when the matrix preserves brackets, which is
        the action-validation condition, not a precondition here.
        """
        if matrix.cols != self.fiber.dim or matrix.rows != target_fiber.dim:
            raise DimensionMismatch(
                f"transport matrix {matrix.rows}x{matrix.cols} does not map "
                f"dim {self.fiber.dim} into dim {target_fiber.dim}"
            )
        out = linear(self.terms.items(), lambda m: mono_transport(m, matrix, target_fiber))
        return UElement(target_fiber, target_point, self.truncation, out)

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key):
            parts.append(f"{rat_str(self.terms[m])}*{mono_text(m, self.fiber.basis)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"UElement({self.point}: {self.text()})"


def mono_text(m: Monomial, names) -> str:
    if not any(m):
        return "1"
    parts = []
    for i, a in enumerate(m):
        if a == 1:
            parts.append(names[i])
        elif a > 1:
            parts.append(f"{names[i]}^{a}")
    return "".join(parts)
