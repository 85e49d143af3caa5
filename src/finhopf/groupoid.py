"""Finite base spaces, rational functions on them, and finite groupoids.

A groupoid here is given completely explicitly: arrow ids with source and
target points, a unit arrow per point, an inverse map, and a composition
table.  ``compose(g, h)`` means "g after h" and is defined exactly when
``source(g) == target(h)``.  Nothing is inferred; ``validate`` checks the
axioms and reports every violation it finds by name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeGuardExceeded
from .rationals import rat, rat_str

_ZERO = Fraction(0)
_ONE = Fraction(1)
ISOMORPHISM_MAX_ARROWS = 64


@dataclass(frozen=True)
class BaseSpace:
    """An ordered finite set of point identifiers."""

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("base space must have at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point identifiers")
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.points)}
        )

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def __contains__(self, point) -> bool:
        return point in self._index

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class BaseFun:
    """A rational-valued function on a base space, stored pointwise."""

    base: BaseSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.base.points):
            raise ValueError("one value per point required")
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))

    @classmethod
    def constant(cls, base: BaseSpace, c) -> "BaseFun":
        return cls(base, tuple(rat(c) for _ in base.points))

    @classmethod
    def one(cls, base: BaseSpace) -> "BaseFun":
        return cls.constant(base, 1)

    @classmethod
    def indicator(cls, base: BaseSpace, point: str) -> "BaseFun":
        i = base.index(point)
        return cls(base, tuple(_ONE if j == i else _ZERO for j in range(len(base))))

    def __call__(self, point: str) -> Fraction:
        return self.values[self.base.index(point)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def support(self) -> tuple[str, ...]:
        return tuple(p for p, v in zip(self.base.points, self.values) if v)

    def __repr__(self):
        body = ", ".join(f"{p}: {rat_str(v)}" for p, v in zip(self.base.points, self.values))
        return f"BaseFun({body})"


class FiniteGroupoid:
    """A finite groupoid with an explicit composition table.

    Construction only resolves identifiers; the groupoid laws are checked by
    ``validate`` so that deliberately broken structures can still be built
    and inspected.
    """

    def __init__(self, base, arrows, source, target, units, inverse, compose_table):
        self.base = base
        self.arrows = tuple(arrows)
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow identifiers")
        arrow_set = set(self.arrows)
        for mapping, name in ((source, "source"), (target, "target")):
            missing = arrow_set - set(mapping)
            if missing:
                raise ValueError(f"{name} undefined for arrows {sorted(missing)}")
        self.source = {g: source[g] for g in self.arrows}
        self.target = {g: target[g] for g in self.arrows}
        for g in self.arrows:
            if self.source[g] not in base or self.target[g] not in base:
                raise ValueError(f"arrow {g!r} touches a point outside the base")
        if set(units) != set(base.points):
            raise ValueError("exactly one unit per base point required")
        for x, u in units.items():
            if u not in arrow_set:
                raise ValueError(f"unit of {x!r} is not an arrow: {u!r}")
        self.units = dict(units)
        if set(inverse) != arrow_set or any(v not in arrow_set for v in inverse.values()):
            raise ValueError("inverse must be a total map between arrows")
        self.inverse = dict(inverse)
        self.compose_table = {}
        for (g, h), gh in compose_table.items():
            if g not in arrow_set or h not in arrow_set or gh not in arrow_set:
                raise ValueError(f"composition entry ({g!r}, {h!r}) -> {gh!r} uses unknown arrows")
            self.compose_table[(g, h)] = gh

    def compose(self, g, h):
        """The arrow ``g`` after ``h``, or None when not composable."""
        return self.compose_table.get((g, h))

    def is_unit(self, g) -> bool:
        return self.units.get(self.target[g]) == g and self.source[g] == self.target[g]

    def arrows_into(self, point) -> tuple[str, ...]:
        return tuple(g for g in sorted(self.arrows) if self.target[g] == point)

    def validate(self) -> list[str]:
        """All groupoid-law violations, each naming the offending arrows."""
        report = []
        for x, u in self.units.items():
            if self.source[u] != x or self.target[u] != x:
                report.append(f"unit {u!r} of {x!r} is not an endo-arrow at {x!r}")
        for g in self.arrows:
            for h in self.arrows:
                composable = self.source[g] == self.target[h]
                defined = (g, h) in self.compose_table
                if composable and not defined:
                    report.append(f"composition ({g!r}, {h!r}) missing")
                elif defined and not composable:
                    report.append(f"composition ({g!r}, {h!r}) defined but not composable")
                elif defined:
                    gh = self.compose_table[(g, h)]
                    if self.source[gh] != self.source[h] or self.target[gh] != self.target[g]:
                        report.append(f"composite {gh!r} of ({g!r}, {h!r}) has wrong endpoints")
        for g in self.arrows:
            us, ut = self.units[self.source[g]], self.units[self.target[g]]
            if self.compose_table.get((g, us)) != g:
                report.append(f"right unit law fails for {g!r}")
            if self.compose_table.get((ut, g)) != g:
                report.append(f"left unit law fails for {g!r}")
            inv = self.inverse[g]
            if self.source[inv] != self.target[g] or self.target[inv] != self.source[g]:
                report.append(f"inverse {inv!r} of {g!r} has wrong endpoints")
            else:
                if self.compose_table.get((inv, g)) != self.units[self.source[g]]:
                    report.append(f"inverse law fails for {g!r} (left)")
                if self.compose_table.get((g, inv)) != self.units[self.target[g]]:
                    report.append(f"inverse law fails for {g!r} (right)")
            if self.inverse[inv] != g:
                report.append(f"inverse is not involutive at {g!r}")
        for g in self.arrows:
            for h in self.arrows:
                if (g, h) not in self.compose_table:
                    continue
                for k in self.arrows:
                    if (h, k) not in self.compose_table:
                        continue
                    left = self.compose_table.get((self.compose_table[(g, h)], k))
                    right = self.compose_table.get((g, self.compose_table[(h, k)]))
                    if left != right or left is None:
                        report.append(f"associativity fails on ({g!r}, {h!r}, {k!r})")
        return report

    def __repr__(self):
        return (
            f"FiniteGroupoid({len(self.base)} points, {len(self.arrows)} arrows)"
        )


@dataclass(frozen=True)
class GroupoidIsomorphism:
    point_map: dict
    arrow_map: dict


def groupoid_isomorphic(a: FiniteGroupoid, b: FiniteGroupoid):
    """An exhaustive search for an isomorphism, or None.

    One backtracking search over a's arrows in sorted order, trying b's
    arrows in sorted order.  The point map starts as the identity when the
    two groupoids share their point set and empty otherwise, and grows with
    the arrow map: placing an arrow maps each of its unmapped endpoints to
    the matching endpoint of its image, which must have as many arrows into
    it and which no other point may already map to, and a loop only to a
    loop.  Each placed arrow must respect the
    units, the inverses and every defined composite among the placed
    arrows, and a complete map is accepted only by a check of the whole
    tables.  Refuses inputs with more than ``ISOMORPHISM_MAX_ARROWS`` arrows.
    """
    if len(a.arrows) > ISOMORPHISM_MAX_ARROWS or len(b.arrows) > ISOMORPHISM_MAX_ARROWS:
        raise SizeGuardExceeded(
            f"isomorphism search limited to {ISOMORPHISM_MAX_ARROWS} arrows"
        )
    if len(a.arrows) != len(b.arrows) or len(a.base) != len(b.base):
        return None
    same_points = set(a.base.points) == set(b.base.points)
    pmap = {p: p for p in a.base.points} if same_points else {}
    amap = _search_arrow_map(a, b, pmap)
    return None if amap is None else GroupoidIsomorphism(pmap, amap)


def _search_arrow_map(a, b, pmap):
    """The first arrow map found, extending ``pmap`` in place, or None."""
    order = sorted(a.arrows)
    candidates = sorted(b.arrows)
    assignment = {}
    used = set()
    a_into, b_into = Counter(a.target.values()), Counter(b.target.values())

    def new_points(g, image):
        """The endpoints of g that placing it at image maps, or None if its ends do not fit."""
        (s, bs), (t, bt) = ends = ((a.source[g], b.source[image]), (a.target[g], b.target[image]))
        if (s == t) != (bs == bt) or pmap.get(s, bs) != bs or pmap.get(t, bt) != bt:
            return None  # loops map only to loops, and mapped ends to the image's ends
        new = {p: q for p, q in ends if p not in pmap}
        if any(q in pmap.values() or a_into[p] != b_into[q] for p, q in new.items()):
            return None  # a new point goes to a free point with as many arrows into it
        return new

    def consistent(g, image):
        """With g placed at image: every law among the placed arrows that involves g."""
        if a.is_unit(g) != b.is_unit(image):
            return False
        inv = a.inverse[g]
        if inv in assignment and assignment[inv] != b.inverse[image]:
            return False
        for h, him in assignment.items():
            for x, y, xim, yim in ((g, h, image, him), (h, g, him, image)):
                xy = a.compose(x, y)
                if xy is not None:
                    target = b.compose(xim, yim)
                    if target is None or assignment.get(xy, target) != target:
                        return False
        return True

    def extend(i):
        if i == len(order):  # a point no arrow touches (never in a valid groupoid) stays unmapped
            return len(pmap) == len(a.base) and _full_check(a, b, pmap, assignment)
        g = order[i]
        for image in candidates:
            if image in used or (new := new_points(g, image)) is None:
                continue
            assignment[g] = image
            if consistent(g, image):
                pmap.update(new)
                used.add(image)
                if extend(i + 1):
                    return True
                for p in new:
                    del pmap[p]
                used.remove(image)
            del assignment[g]
        return False

    return dict(assignment) if extend(0) else None


def _full_check(a, b, pmap, amap):
    for x in a.base.points:
        if amap[a.units[x]] != b.units[pmap[x]]:
            return False
    for g in a.arrows:
        if amap[a.inverse[g]] != b.inverse[amap[g]]:
            return False
    for (g, h), gh in a.compose_table.items():
        if b.compose(amap[g], amap[h]) != amap[gh]:
            return False
    return len(b.compose_table) == len(a.compose_table)
