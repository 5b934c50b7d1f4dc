"""Crossing probabilities and derived observables.

Monotone paths cross each lattice sphere exactly once, so conditioning on
waypoints factorizes the partition function into independent segments.
Probabilities are exact rationals throughout; no tolerances are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import H_STEP, Point
from .partition import partition_dp, rep1_tables
from .qpoly import LaurentPoly, ONE
from .spin import PinnedInstance
from .weights import WeightScheme


class DegenerateEnsemble(ValueError):
    """The normalizing partition function vanishes at the chosen q."""


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
        raise DegenerateEnsemble(f"Z({query.start},{query.end}) = 0 at q = {q0}")
    return conditioned_partition(query, q0) / z


def magnetization_profile(inst: PinnedInstance, q0) -> list[tuple[int, Fraction]]:
    """Per-site down-spin probability of the pinned ground state.

    A first-representation path replays site s at its step s onto the
    sphere of radius s for s <= K, and site s - (K+L+1) after that, and its
    weight is the configuration's squared amplitude.  So P(down at x) is
    the weight of the paths whose step onto that sphere is horizontal: a
    sum over the sphere's horizontal bonds of forward cell at the tail
    times the backward flow through the bond, in ints, divided once by Z.
    All arithmetic is exact; the probabilities sum to N exactly.
    """
    fwd, bwd = rep1_tables(inst, q0)
    f, flow, z = fwd.values, bwd.flow, fwd.values[inst.N, inst.M]
    profile = []
    for x in range(-inst.L, inst.K + 1):
        s = x if x > 0 else x + inst.sites
        # tails on the sphere of radius s - 1; flow is 0 where the head leaves
        acc = sum(f[i, s - 1 - i] * flow(i, s - 1 - i, H_STEP)
                  for i in range(max(0, s - 1 - inst.M), min(inst.N, s - 1) + 1))
        profile.append((x, Fraction(acc, z)))
    return profile
