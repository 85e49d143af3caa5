"""Finite base spaces, rational functions on them, and finite groupoids.

A groupoid here is given completely explicitly: arrow ids with source and
target points, a unit arrow per point, an inverse map, and a composition
table.  ``compose(g, h)`` means "g after h" and is defined exactly when
``source(g) == target(h)``.  Nothing is inferred; ``validate`` checks the
axioms and reports every violation it finds by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeGuardExceeded
from .rationals import rat, rat_str

_ZERO = Fraction(0)
_ONE = Fraction(1)
ISOTROPY_MAX_ORDER = 64


@dataclass(frozen=True)
class BaseSpace:
    """An ordered finite set of point identifiers."""

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("base space must have at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point identifiers")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

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
    def one(cls, base: BaseSpace) -> "BaseFun":
        return cls(base, (_ONE,) * len(base))

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

    def components(self) -> list[dict]:
        """The components in base order, each a map from its points to an arrow
        there from its first point c (the unit for c); they partition the base."""
        placed, out = set(), []
        for c in self.base.points:
            if c not in placed:
                reach = {c: self.units[c]}
                for g in self.arrows:
                    if self.source[g] == c and self.target[g] not in placed:
                        reach.setdefault(self.target[g], g)
                placed.update(reach)
                out.append(reach)
        return out

    def validate(self) -> list[str]:
        """All groupoid-law violations, each naming the offending arrows.

        Only the pairs that compose or have an entry, and the chains of two
        entries, are visited, each in arrow order: not every pair and triple."""
        report = []
        for x, u in self.units.items():
            if self.source[u] != x or self.target[u] != x:
                report.append(f"unit {u!r} of {x!r} is not an endo-arrow at {x!r}")
        order = {g: i for i, g in enumerate(self.arrows)}
        into, entries = {x: [] for x in self.base.points}, {g: [] for g in self.arrows}
        for h in self.arrows:
            into[self.target[h]].append(h)
        for g, h in sorted(self.compose_table, key=lambda gh: order[gh[1]]):
            entries[g].append(h)
        for g in self.arrows:
            for h in sorted({*into[self.source[g]], *entries[g]}, key=order.__getitem__):
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
            for h in entries[g]:
                for k in entries[h]:
                    left = self.compose_table.get((self.compose_table[(g, h)], k))
                    right = self.compose_table.get((g, self.compose_table[(h, k)]))
                    if left != right or left is None:
                        report.append(f"associativity fails on ({g!r}, {h!r}, {k!r})")
        return report

    def __repr__(self):
        return f"FiniteGroupoid({len(self.base)} points, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class GroupoidIsomorphism:
    point_map: dict
    arrow_map: dict


def groupoid_isomorphic(a: FiniteGroupoid, b: FiniteGroupoid):
    """An isomorphism from a to b, or None, decided by structure.

    Brandt: a connected groupoid with first point c is the pair groupoid on
    its points times its isotropy group at c, through arrows t_x: c -> x.
    So each component of a pairs with the first unused one of b with as many
    points (the same ones, each fixed, when a and b share their points) and
    an isotropy group isomorphic by some phi; then, with b's arrows u_x,
    g: x -> y goes to u_y phi(t_y^-1 g t_x) u_x^-1.  Since isomorphism is an
    equivalence, this finds a map whenever one exists between groupoids that
    pass ``validate``; a map is returned only if ``is_isomorphism`` accepts it.
    Isotropy groups above ``ISOTROPY_MAX_ORDER`` are refused, since the group
    search is the one step that can take exponential time.
    """
    if len(a.arrows) != len(b.arrows) or len(a.base) != len(b.base):
        return None
    same_points = set(a.base.points) == set(b.base.points)
    unused, pmap, amap = b.components(), {}, {}
    for t in a.components():
        for u in unused:
            if (set(u) == set(t)) if same_points else len(u) == len(t):
                phi = _group_isomorphism(a, next(iter(t)), b, next(iter(u)))
                if phi is not None:
                    break
        else:
            return None
        unused.remove(u)
        pmap.update(zip(t, t if same_points else u))
        for g in a.arrows:
            x, y = a.source[g], a.target[g]
            if x in t and y in t:
                k = phi.get(a.compose(a.inverse[t[y]], a.compose(g, t[x])))
                amap[g] = b.compose(b.compose(u[pmap[y]], k), b.inverse[u[pmap[x]]])
    return GroupoidIsomorphism(pmap, amap) if is_isomorphism(a, b, pmap, amap) else None


def _group_isomorphism(a, ca, b, cb):
    """An isomorphism from a's isotropy group at ca onto b's at cb, or None.

    Each generator of a has the largest order outside the span of those
    before it, so by Lagrange it at least doubles the span: the search
    places at most log2 |G| of them, each in turn on an element of b of its
    order, and grows the map over the span, dropping it at a conflict."""
    ga = [x for x in a.arrows if a.source[x] == a.target[x] == ca]
    gb = [x for x in b.arrows if b.source[x] == b.target[x] == cb]
    if max(len(ga), len(gb)) > ISOTROPY_MAX_ORDER:
        raise SizeGuardExceeded(f"isomorphism limited to isotropy order {ISOTROPY_MAX_ORDER}")
    ua, ub = a.units[ca], b.units[cb]
    if len(ga) != len(gb) or ua not in ga or ub not in gb:
        return None
    order_a = {x: len(_closure(a, a, ua, ua, [(x, x)]) or ()) for x in ga}
    order_b = {x: len(_closure(b, b, ub, ub, [(x, x)]) or ()) for x in gb}
    stack = [[]]  # the images of the generators placed so far
    while stack:
        images = stack.pop()
        phi = _closure(a, b, ua, ub, images)
        if phi is not None and len(phi) >= len(ga):
            return phi
        if phi is not None and len(images) < len(ga).bit_length() - 1:
            s = max((x for x in ga if x not in phi), key=order_a.get)
            stack += [images + [(s, y)] for y in reversed(gb) if order_b[y] == order_a[s]]
    return None


def _closure(a, b, ua, ub, images):
    """ua -> ub grown by phi(hs) = phi(h) phi(s) over (s, phi(s)) in images, or None."""
    phi, queue = {ua: ub}, [ua]
    for h in queue:
        for s, image in images:
            hs, target = a.compose(h, s), b.compose(phi[h], image)
            if hs is None or target is None or phi.get(hs, target) != target:
                return None
            if hs not in phi:
                phi[hs] = target
                queue.append(hs)
    return phi if len(set(phi.values())) == len(phi) else None


def is_isomorphism(a: FiniteGroupoid, b: FiniteGroupoid, point_map, arrow_map) -> bool:
    """Whether the maps, defined on every point and arrow of a, are an
    isomorphism from a onto b, for groupoids that pass ``validate``: a
    bijection of the arrows that sends each unit to the unit at the mapped
    point, each inverse to the inverse of the image, and each composite of a
    to the composite of the images."""
    if (len(a.arrows) != len(b.arrows) or set(arrow_map.values()) != set(b.arrows)
            or len(b.compose_table) != len(a.compose_table)):
        return False
    for x in a.base.points:
        if arrow_map[a.units[x]] != b.units[point_map[x]]:
            return False
    for g in a.arrows:
        if arrow_map[a.inverse[g]] != b.inverse[arrow_map[g]]:
            return False
    return all(b.compose(arrow_map[g], arrow_map[h]) == arrow_map[gh]
               for (g, h), gh in a.compose_table.items())
