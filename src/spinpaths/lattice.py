"""Monotone lattice paths on Z^2, lattice spheres, and an enumeration oracle.

A path starts at a lattice point and takes unit steps, each increasing
exactly one coordinate.  The step word over {H, V} is the configuration;
visited points and bonds are recomputed on demand.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

H_STEP = "H"
V_STEP = "V"

# enumerate_paths is a desk-scale oracle; larger rectangles must go
# through the dynamic program instead.
PATH_ENUMERATION_LIMIT = 10**6


class EnsembleTooLarge(ValueError):
    """An exhaustive enumeration was requested beyond the oracle limit."""


class Point(NamedTuple):
    """A lattice point; equal to, and hashed like, the plain tuple (i, j)."""

    i: int
    j: int

    def translate(self, di: int, dj: int) -> "Point":
        return Point(self.i + di, self.j + dj)

    def dominates(self, other: "Point") -> bool:
        """Componentwise >=; the rectangle [other, self] is nonempty."""
        return self.i >= other.i and self.j >= other.j

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


@dataclass(frozen=True)
class Bond:
    """A unit edge of Z^2 traversed tail -> head."""

    tail: Point
    head: Point
    orientation: str  # H_STEP or V_STEP

    def __post_init__(self):
        di = self.head.i - self.tail.i
        dj = self.head.j - self.tail.j
        expected = (1, 0) if self.orientation == H_STEP else (0, 1)
        if self.orientation not in (H_STEP, V_STEP) or (di, dj) != expected:
            raise ValueError(f"bond {self.tail}->{self.head} does not match {self.orientation}")


def horizontal_bond(tail: Point) -> Bond:
    return Bond(tail, tail.translate(1, 0), H_STEP)


def vertical_bond(tail: Point) -> Bond:
    return Bond(tail, tail.translate(0, 1), V_STEP)


@dataclass(frozen=True)
class LatticePath:
    start: Point
    steps: str  # word over {H, V}

    def __post_init__(self):
        if not isinstance(self.steps, str) or self.steps.strip(H_STEP + V_STEP):
            raise ValueError(f"invalid step word {self.steps!r}")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def horizontal_count(self) -> int:
        return self.steps.count(H_STEP)

    def endpoint(self) -> Point:
        h = self.horizontal_count
        return self.start.translate(h, len(self.steps) - h)

    def points(self) -> list[Point]:
        """All visited lattice points, start and end included."""
        pts = [self.start]
        for s in self.steps:
            prev = pts[-1]
            pts.append(prev.translate(1, 0) if s == H_STEP else prev.translate(0, 1))
        return pts

    def bonds(self) -> list[Bond]:
        """The traversed bonds, in step order."""
        out = []
        cur = self.start
        for s in self.steps:
            nxt = cur.translate(1, 0) if s == H_STEP else cur.translate(0, 1)
            out.append(Bond(cur, nxt, s))
            cur = nxt
        return out

    def passes_through(self, point: Point) -> bool:
        # every path crosses the sphere through `point` exactly once, so
        # it suffices to look at the single visited point at that radius
        l = (point.i - self.start.i) + (point.j - self.start.j)
        if l < 0 or l > len(self.steps):
            return False
        h = self.steps[:l].count(H_STEP)
        return self.start.translate(h, l - h) == point

    def concat(self, other: "LatticePath") -> "LatticePath":
        if other.start != self.endpoint():
            raise ValueError("paths do not join")
        return LatticePath(self.start, self.steps + other.steps)

    def text(self) -> str:
        """Stable text form, e.g. '(0,0):HVH' (empty word renders as '(0,0):')."""
        return f"{self.start}:{self.steps}"

    @classmethod
    def parse(cls, text: str) -> "LatticePath":
        m = re.fullmatch(r"\((-?\d+),(-?\d+)\):([HV]*)", text.strip())
        if m is None:
            raise ValueError(f"cannot parse path {text!r}")
        return cls(Point(int(m.group(1)), int(m.group(2))), m.group(3))


def path_count(start: Point, end: Point) -> int:
    """Number of monotone paths in the rectangle [start, end] (0 if empty)."""
    di, dj = end.i - start.i, end.j - start.j
    if di < 0 or dj < 0:
        return 0
    return math.comb(di + dj, di)


def enumerate_paths(start: Point, end: Point) -> list[LatticePath]:
    """All monotone paths from start to end (the exhaustive oracle).

    Returns the empty list when end does not dominate start.  Requests
    whose path count exceeds PATH_ENUMERATION_LIMIT raise
    EnsembleTooLarge instead of being attempted.
    """
    di, dj = end.i - start.i, end.j - start.j
    if di < 0 or dj < 0:
        return []
    count = math.comb(di + dj, di)
    if count > PATH_ENUMERATION_LIMIT:
        raise EnsembleTooLarge(f"{count} paths exceeds oracle limit {PATH_ENUMERATION_LIMIT}")
    total = di + dj
    out = []
    for h_positions in itertools.combinations(range(total), di):
        word = [V_STEP] * total
        for t in h_positions:
            word[t] = H_STEP
        out.append(LatticePath(start, "".join(word)))
    return out


def sphere(center: Point, radius: int, direction: str = "forward") -> list[Point]:
    """Lattice sphere: endpoints of monotone length-`radius` paths.

    Forward spheres collect points reachable from the center, backward
    spheres the points from which the center is reachable.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if direction == "forward":
        return [center.translate(a, radius - a) for a in range(radius + 1)]
    if direction == "backward":
        return [center.translate(-a, -(radius - a)) for a in range(radius + 1)]
    raise ValueError(f"unknown direction {direction!r}")


def diagonal(s: int, lo: Point, hi: Point) -> list[Point]:
    """Points with i+j = s inside the rectangle [lo, hi], in increasing i."""
    return [Point(i, s - i) for i in range(max(lo.i, s - hi.j), min(hi.i, s - lo.j) + 1)]
