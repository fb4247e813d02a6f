"""Geometry of the CAN coordinate space.

The space is the half-open unit hypercube ``[0, 1)^d`` *without*
wrap-around: matchmaking needs the resource dimensions totally ordered
("more capable" must be a direction), so unlike the original CAN torus our
space has boundaries.  Greedy routing still always progresses because live
zones tessellate the space.

Zones are axis-aligned half-open boxes.  All zone boundaries are produced
by splitting existing boundaries, so coordinates that should coincide are
bit-identical floats and abutment tests can use exact comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: A point is a plain tuple of floats — profiling showed tuples beat small
#: numpy arrays by ~5x for the d<=6 vector math routing does per hop.
Point = tuple[float, ...]


def as_point(coords: Iterable[float]) -> Point:
    p = tuple(float(c) for c in coords)
    for c in p:
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"coordinate {c!r} outside [0, 1]")
    return p


@dataclass(frozen=True)
class Zone:
    """A half-open axis-aligned box ``[lo_i, hi_i)`` per dimension."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimensionality mismatch")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"degenerate zone extent [{a}, {b})")

    @property
    def dims(self) -> int:
        return len(self.lo)

    def contains(self, point: Point) -> bool:
        """Half-open membership; points at ``hi == 1.0`` on the space
        boundary belong to the boundary zone (closed top face there)."""
        for c, a, b in zip(point, self.lo, self.hi):
            if c < a:
                return False
            if c >= b and not (b == 1.0 and c == 1.0):
                return False
        return True

    def center(self) -> Point:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def extent(self, dim: int) -> float:
        return self.hi[dim] - self.lo[dim]

    def split(self, dim: int, at: float) -> tuple["Zone", "Zone"]:
        """Split into (lower, upper) halves at coordinate ``at`` on ``dim``."""
        if not (self.lo[dim] < at < self.hi[dim]):
            raise ValueError(
                f"split point {at} outside zone extent "
                f"[{self.lo[dim]}, {self.hi[dim]}) on dim {dim}"
            )
        lo, hi = list(self.lo), list(self.hi)
        hi[dim] = at
        lower = Zone(self.lo, tuple(hi))
        lo[dim] = at
        upper = Zone(tuple(lo), self.hi)
        return lower, upper

    def abuts(self, other: "Zone") -> bool:
        """True iff the zones are CAN neighbors: they share a (d-1)-face —
        touching along exactly one dimension and overlapping (with positive
        measure) in every other dimension."""
        touching = False
        for a_lo, a_hi, b_lo, b_hi in zip(self.lo, self.hi, other.lo, other.hi):
            if a_hi == b_lo or b_hi == a_lo:
                # Touching in this dim; there must be exactly one such dim
                # *without* overlap.  (Zones can touch in one dim and overlap
                # in the rest — that's the neighbor case.)
                if touching:
                    return False
                touching = True
            elif not (a_lo < b_hi and b_lo < a_hi):
                return False  # disjoint with a gap in this dim
        return touching

    def clamp(self, point: Point) -> Point:
        """Nearest point of the closed zone to ``point``."""
        out = []
        for c, a, b in zip(point, self.lo, self.hi):
            out.append(min(max(c, a), b))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        spans = ", ".join(f"[{a:.3g},{b:.3g})" for a, b in zip(self.lo, self.hi))
        return f"Zone({spans})"


def unit_zone(dims: int) -> Zone:
    return Zone((0.0,) * dims, (1.0,) * dims)


def point_distance_sq(a: Point, b: Point) -> float:
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return s


def zone_distance(zone: Zone, point: Point) -> float:
    """Squared distance from ``point`` to the closed zone (0 if inside)."""
    s = 0.0
    for c, a, b in zip(point, zone.lo, zone.hi):
        if c < a:
            d = a - c
        elif c > b:
            d = c - b
        else:
            continue
        s += d * d
    return s
