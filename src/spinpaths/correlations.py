"""Crossing probabilities and derived observables.

Monotone paths cross each lattice sphere exactly once, so conditioning on
waypoints factorizes the partition function into independent segments.
Probabilities are exact rationals throughout; no tolerances are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import H_STEP, Point, diagonal
from .partition import (ORIGIN, PinnedInstance, backward_table, evaluated_weight,
                        forward_table, partition_dp, rep2_splits)
from .qpoly import LaurentPoly, ONE
from .weights import PinnedRep2, WeightScheme


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

    Site x corresponds to the path step ending on the sphere i+j = x of the
    second representation, so P(down at x) is the probability that this
    step is horizontal.  The ensemble splits over the admissible start/end
    sphere pairs; within each part the bond-crossing weight factorizes
    through the origin.  All arithmetic is exact; the probabilities sum
    to N exactly.
    """
    q0 = Fraction(q0)
    if not 0 < q0 < 1:
        raise ValueError("q0 must lie in (0, 1)")
    scheme = PinnedRep2()
    weight = evaluated_weight(scheme, q0)

    def bond_sum(radius: int, fwd, bwd, lo: Point, hi: Point) -> Fraction:
        # weighted sum over horizontal steps ending on the given sphere
        acc = Fraction(0)
        for head in diagonal(radius, lo, hi):
            i, j = head
            if i > lo.i:
                acc += fwd[i - 1, j] * weight(i - 1, j, H_STEP) * bwd[head]
        return acc

    totals = {x: Fraction(0) for x in range(-inst.L, inst.K + 1)}
    z = Fraction(0)
    for start, end in rep2_splits(inst):
        back_fwd = forward_table(scheme, start, ORIGIN, q0)
        back_bwd = backward_table(scheme, start, ORIGIN, q0)
        fore_fwd = forward_table(scheme, ORIGIN, end, q0)
        fore_bwd = backward_table(scheme, ORIGIN, end, q0)
        z_back = back_fwd[ORIGIN]
        z_fore = fore_fwd[end]
        z += z_back * z_fore
        for x in range(-inst.L, 0 + 1):
            totals[x] += bond_sum(x, back_fwd, back_bwd, start, ORIGIN) * z_fore
        for x in range(1, inst.K + 1):
            totals[x] += z_back * bond_sum(x, fore_fwd, fore_bwd, ORIGIN, end)

    return [(x, totals[x] / z) for x in range(-inst.L, inst.K + 1)]
