"""Crossing probabilities and derived observables.

Monotone paths cross each lattice sphere exactly once, so conditioning on
waypoints factorizes the partition function into independent segments.
Probabilities are exact rationals throughout; no tolerances are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Point
from .partition import partition_dp, rep1_tables
from .qpoly import LaurentPoly, ONE
from .spin import PinnedInstance
from .weights import WeightScheme


class DegenerateEnsemble(ValueError):
    """The normalizing partition function vanishes at the chosen q."""

    @classmethod
    def vanishing(cls, start: Point, end: Point, q0: Fraction) -> "DegenerateEnsemble":
        """The error for a normalizer Z(start, end) that vanishes at q0."""
        return cls(f"Z({start},{end}) = 0 at q = {q0}")


@dataclass(frozen=True)
class CorrelationQuery:
    scheme: WeightScheme
    start: Point
    end: Point
    waypoints: tuple[Point, ...] = ()


def conditioned_partition(query: CorrelationQuery, q0=None) -> LaurentPoly | Fraction:
    """Weighted sum over paths through all waypoints, in order, at q = q0 if given.

    Factorizes as the product of segment partition functions; any empty
    segment (consecutive points that do not dominate) makes it 0.
    """
    stops = [query.start, *query.waypoints, query.end]
    value = ONE if q0 is None else Fraction(1)
    for a, b in zip(stops, stops[1:]):
        value = value * partition_dp(query.scheme, a, b, q0)
        if not value:
            break
    return value


def crossing_probability(query: CorrelationQuery, q0) -> Fraction:
    """Probability that a path drawn from the ensemble visits every waypoint."""
    q0 = Fraction(q0)
    z = partition_dp(query.scheme, query.start, query.end, q0)
    if z == 0:
        raise DegenerateEnsemble.vanishing(query.start, query.end, q0)
    return conditioned_partition(query, q0) / z


def magnetization_profile(inst: PinnedInstance, q0) -> list[tuple[int, Fraction]]:
    """Per-site down-spin probability of the pinned ground state.

    A first-representation path replays site s at its step s onto the
    sphere of radius s for s <= K, and site s - (K+L+1) after that, and its
    weight is the configuration's squared amplitude.  On the sphere of
    radius s a path sits at the i that counts its horizontal steps so far,
    so m_s, the sum over that sphere of i times forward cell times backward
    cell, is the weight of paths times that count.  Step s is horizontal
    exactly when the count grows there, so P(down at the site it replays)
    is (m_s - m_(s-1)) / Z.  The two tables encode alike, so every product
    reads as Z, the backward origin cell, does; the moments are ints, and
    each probability is one exact ratio.  They sum to N exactly.
    """
    fwd, bwd = rep1_tables(inst, q0)
    # the backward sweep runs from the far corner in, so hold its diagonals
    # and stream the forward one against them; a sphere has the same lo in both
    back = [cells for _, _, cells in bwd.sweep()][::-1]
    moments = [sum(i * x * y for i, (x, y) in enumerate(zip(f, back[s]), lo))
               for s, lo, f in fwd.sweep()]
    z = back[0][0]
    steps = [Fraction(b - a, z) for a, b in zip(moments, moments[1:])]
    # steps K+1..K+L+1 replay sites -L..0, and steps 1..K sites 1..K
    return list(zip(range(-inst.L, inst.K + 1), steps[inst.K:] + steps[:inst.K]))
