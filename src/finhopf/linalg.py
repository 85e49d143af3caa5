"""Exact linear algebra over the rationals.

Matrices are stored dense, but all elimination happens on sparse rows in
one helper, ``_eliminate``: each row is reduced against the pivot rows
found so far, and back substitution finishes the job.  The reduced row
echelon form is unique, so results are canonical.  ``solve`` reads it off
``QMatrix.rref``.  ``nullspace_of_rows`` (behind ``QMatrix.nullspace``)
returns the unique basis of the kernel that is itself in reduced echelon
form with pivot entries 1, from one elimination with the pivots taken from
the right.  That kernel is the one answer to rank, invertibility and the
inverse too: a rank is the number of columns minus the kernel dimension,
and ``inverse`` reads A^-1 off the kernel of [I | -A].
``nullspace_of_rows`` also takes sparse systems directly, with entries that
may be ``int``s or ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DimensionMismatch, SolverIncomplete
from .rationals import add_terms, rat

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest |a_0 * a_n| whose divisor pairs ``rational_roots`` searches.
ROOT_SEARCH_BOUND = 10**12


def vec(values) -> Vector:
    return tuple(rat(v) for v in values)


def _eliminate(rows):
    """Pivot columns, ascending, and the fully reduced rows of sparse rows.

    Rows are zero-free ``{col: Fraction}`` maps, reduced in place.  A pivot
    row is kept with entry 1 at its pivot and nothing to the left of it, so
    reducing an incoming row against the pivots in ascending order clears
    every pivot column; what is left, normalized, is a new pivot row.  A row
    left with one entry is the unit row of its column, with no division.
    Back substitution from the last pivot up then clears each pivot column
    above its pivot.
    """
    pivot_rows = {}
    for row in rows:
        while True:
            p = min((c for c in row if c in pivot_rows), default=None)
            if p is None:
                break
            f = row[p]
            add_terms(row, ((c, -f * x) for c, x in pivot_rows[p].items()))
        if len(row) == 1:
            (lead,) = row
            pivot_rows[lead] = {lead: _ONE}
        elif row:
            lead = min(row)
            inv = _ONE / row[lead]
            pivot_rows[lead] = {c: x * inv for c, x in row.items()}
    pivots = tuple(sorted(pivot_rows))
    for p in reversed(pivots):
        row = pivot_rows[p]
        for q in [c for c in row if c != p and c in pivot_rows]:
            f = row[q]
            add_terms(row, ((c, -f * x) for c, x in pivot_rows[q].items()))
    return pivots, [pivot_rows[p] for p in pivots]


def nullspace_of_rows(rows, cols):
    """Canonical kernel basis of a system given as sparse rows.

    ``rows`` are ``{col: value}`` maps over ``cols`` unknowns, with ``int`` or
    ``Fraction`` values and no zero entry; an empty map is no equation.  They
    are left as they are.  The basis vectors are dense tuples of
    ``Fraction``s: the unique basis of the kernel that is itself in reduced
    echelon form with pivot entries 1.

    One elimination with the column keys negated makes each pivot the
    rightmost column of its row, and every other entry of the row sits at a
    free column.  So a free column f gives e_f minus, at each pivot p right
    of f, row p's entry at f: a vector led by its 1 at f and zero at every
    other free column, which is the canonical vector itself.
    """
    pivots, reduced = _eliminate([{-c: x for c, x in row.items()} for row in rows])
    pivot_set = {-p for p in pivots}
    kernel = {f: [_ZERO] * cols for f in range(cols) if f not in pivot_set}
    for f, v in kernel.items():
        v[f] = _ONE
    for p, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != p:
                kernel[-c][-p] = -x
    return [tuple(v) for v in kernel.values()]


class QMatrix:
    """An immutable rational matrix, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        rows = tuple(tuple(rat(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows in matrix")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls, n) -> "QMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols) -> "QMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows=None) -> "QMatrix":
        columns = [tuple(c) for c in columns]  # __init__ coerces each cell
        if not columns:
            return cls([], cols=0) if rows is None else cls.zeros(rows, 0)
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise DimensionMismatch("ragged columns")
        return cls([[c[i] for c in columns] for i in range(height)])

    def entry(self, i, j) -> Fraction:
        return self.data[i][j]

    def column(self, j) -> Vector:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = [[(j, b) for j, b in enumerate(r) if b] for r in other.data]
        out = []
        for ra in self.data:
            row = [_ZERO] * other.cols
            for k, a in enumerate(ra):
                if a:
                    for j, b in right[k]:
                        row[j] += a * b
            out.append(row)
        return QMatrix(out, cols=other.cols)

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns."""
        pivots, reduced = _eliminate(
            {j: x for j, x in enumerate(r) if x} for r in self.data
        )
        dense = [[row.get(j, _ZERO) for j in range(self.cols)] for row in reduced]
        dense += [[_ZERO] * self.cols] * (self.rows - len(dense))
        return QMatrix(dense, cols=self.cols), pivots

    def rank(self) -> int:
        return self.cols - len(self.nullspace())

    def nullspace(self):
        """Canonical kernel basis: echelonized rows with pivot entries 1."""
        return nullspace_of_rows(
            ({j: x for j, x in enumerate(r) if x} for r in self.data), self.cols
        )

    def solve(self, rhs):
        """Any exact solution of ``self @ x = rhs``, or None if inconsistent."""
        rhs = vec(rhs)
        if len(rhs) != self.rows:
            raise DimensionMismatch(f"rhs length {len(rhs)} vs {self.rows} rows")
        aug = QMatrix([list(r) + [b] for r, b in zip(self.data, rhs)], cols=self.cols + 1)
        reduced, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [_ZERO] * self.cols
        for r, p in enumerate(pivots):
            x[p] = reduced.data[r][self.cols]
        return tuple(x)

    def inverse(self):
        """Exact inverse, or None when the matrix is singular.

        The kernel of the n rows x - A y = 0 over the 2n unknowns (x, y) is
        {(A y, y)}.  Its canonical basis is (e_k, A^-1 e_k) for k < n exactly
        when A is invertible; otherwise some basis vector k has its pivot
        right of column k, so its entry k is 0.
        """
        if self.rows != self.cols:
            return None
        n = self.rows
        kernel = nullspace_of_rows(
            ({i: _ONE, **{n + j: -a for j, a in enumerate(r) if a}}
             for i, r in enumerate(self.data)),
            2 * n,
        )
        if not all(v[k] for k, v in enumerate(kernel)):
            return None
        return QMatrix.from_columns([v[n:] for v in kernel], rows=n)

    def is_invertible(self) -> bool:
        """Square with an empty kernel; no inverse is built."""
        return self.rows == self.cols and not self.nullspace()

    def char_poly(self):
        """Characteristic polynomial coefficients, ascending: x^n + c[n-1]x^(n-1)+...

        Computed by the Faddeev-LeVerrier recursion, which stays in exact
        rationals throughout: M_k = A M_(k-1) + c_(n-k+1) I and
        c_(n-k) = -tr(A M_k) / k.  Each step multiplies by A once: the next
        step starts from the product A M_k taken for the trace.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("characteristic polynomial needs a square matrix")
        n = self.rows
        coeffs = [_ZERO] * n + [_ONE]
        am = QMatrix.zeros(n, n)
        c = _ONE
        for k in range(1, n + 1):
            am = self * QMatrix(
                [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(am.data)],
                cols=n,
            )
            trace = sum((am.data[i][i] for i in range(n)), _ZERO)
            c = -trace / k
            coeffs[n - k] = c
        return coeffs


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of a rational-coefficient polynomial, ascending.

    Coefficients ascending; the zero polynomial is rejected.  With the
    denominators cleared and the zero roots taken out, a root p/q in lowest
    terms has p dividing the constant term a_0 and q dividing the leading
    term a_n.  Both divisor lists come from trial division and every
    coprime pair is tried, so the search is refused with
    ``SolverIncomplete`` when |a_0 * a_n| exceeds ``ROOT_SEARCH_BOUND``.
    """
    coeffs = [rat(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots = []
    if coeffs[0] == 0:
        roots.append(_ZERO)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return roots
    scale = 1
    for c in coeffs:
        scale = lcm(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    lead, const = ints[-1], ints[0]
    if abs(const * lead) > ROOT_SEARCH_BOUND:
        raise SolverIncomplete(
            f"rational root search limited to |a_0 * a_n| <= {ROOT_SEARCH_BOUND:,}"
        )
    denominators = _divisors(lead)
    for p in _divisors(const):
        for q in denominators:
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                # q^n f(s/q) by Horner's rule, in integers
                acc, qk = 0, 1
                for c in reversed(ints):
                    acc = acc * s + c * qk
                    qk *= q
                if acc == 0:
                    roots.append(Fraction(s, q))
    return sorted(roots)


def rational_eigenvalues(m: QMatrix) -> list[Fraction]:
    """The rational eigenvalues of a square rational matrix, ascending."""
    if m.rows == 0:
        return []
    return rational_roots(m.char_poly())
