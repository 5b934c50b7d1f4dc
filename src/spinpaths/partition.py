"""Partition functions over monotone path ensembles.

The dynamic program sweeps lattice spheres of increasing radius, so each
table value is the exact weighted sum over all paths from (or to) the
table origin.  On top of it sit the closed form for the interface model,
the translation identity, the two pinned-chain representations, and the
recursion/convolution identities relating them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .lattice import H_STEP, Point, V_STEP, diagonal, enumerate_paths
from .qpoly import LaurentPoly, NotDivisible, ONE, ZERO, qsquare_factorial_product
from .weights import InterfaceXXZ, PinnedRep1, PinnedRep2, WeightScheme

ORIGIN = Point(0, 0)


class InternalIdentityFailure(RuntimeError):
    """An exact division that is guaranteed by an identity failed."""


@dataclass(frozen=True)
class PinnedInstance:
    """A pinned chain on sites [-L, K] with N down spins (M = K+L+1-N up)."""

    K: int
    L: int
    N: int

    def __post_init__(self):
        if self.K < 0 or self.L < 0:
            raise ValueError("K and L must be nonnegative")
        if not 0 <= self.N <= self.sites:
            raise ValueError(f"N must lie in [0, {self.sites}]")

    @property
    def sites(self) -> int:
        return self.K + self.L + 1

    @property
    def M(self) -> int:
        return self.sites - self.N


class PartitionTable:
    """Per-point partition values over a rectangle; immutable after construction.

    The values are Laurent polynomials, or exact Fractions when the table
    was swept at a fixed q; points off the rectangle read as that ring's 0.
    """

    __slots__ = ("values", "zero")

    def __init__(self, values: dict[Point, LaurentPoly | Fraction], zero: LaurentPoly | Fraction):
        self.values = values
        self.zero = zero

    def __getitem__(self, point: Point) -> LaurentPoly | Fraction:
        return self.values.get(point, self.zero)


def evaluated_weight(scheme: WeightScheme, q0: Fraction) -> Callable[[int, int, str], Fraction]:
    """The scheme's bond weight at q = q0, evaluating each distinct weight once."""
    cache: dict[LaurentPoly, Fraction] = {}

    def weight(i: int, j: int, orientation: str) -> Fraction:
        w = scheme.bond_weight(i, j, orientation)
        value = cache.get(w)
        if value is None:
            value = cache[w] = w.evaluate(q0)
        return value

    return weight


def _sweep(scheme: WeightScheme, start: Point, end: Point, step: int, q0) -> PartitionTable:
    """Sphere sweep outward from one corner of the rectangle [start, end].

    step +1 grows from start, so values[Q] = Z(start, Q); step -1 grows
    from end, so values[Q] = Z(Q, end).  Each diagonal i+j = const reads
    only the one swept before it.  With q0 given, every value is Z at
    q = q0, an exact Fraction; otherwise it is the Laurent polynomial.
    """
    if q0 is None:
        weight, zero, one = scheme.bond_weight, ZERO, ONE
    else:
        weight, zero, one = evaluated_weight(scheme, Fraction(q0)), Fraction(0), Fraction(1)
    values: dict[Point, LaurentPoly | Fraction] = {}
    if end.dominates(start):
        oi, oj = origin = start if step == 1 else end
        values[origin] = one
        # a bond's tail is its lower end: the cell behind when growing from
        # start, the cell itself when growing from end
        lag = 1 if step == 1 else 0
        total = (end.i - start.i) + (end.j - start.j)
        for radius in range(1, total + 1):
            for q in diagonal(oi + oj + step * radius, start, end):
                i, j = q
                acc = zero
                if i != oi:
                    acc = acc + weight(i - lag, j, H_STEP) * values[i - step, j]
                if j != oj:
                    acc = acc + weight(i, j - lag, V_STEP) * values[i, j - step]
                values[q] = acc
    return PartitionTable(values, zero)


def forward_table(scheme: WeightScheme, start: Point, end: Point, q0=None) -> PartitionTable:
    """Z(start, Q) for every Q in the rectangle [start, end], at q = q0 if given."""
    return _sweep(scheme, start, end, 1, q0)


def backward_table(scheme: WeightScheme, start: Point, end: Point, q0=None) -> PartitionTable:
    """Z(Q, end) for every Q in the rectangle [start, end], at q = q0 if given."""
    return _sweep(scheme, start, end, -1, q0)


def partition_dp(scheme: WeightScheme, start: Point, end: Point,
                 q0=None) -> LaurentPoly | Fraction:
    """Z(start, end) by the sphere sweep, at q = q0 if given; 0 when the rectangle is empty."""
    return forward_table(scheme, start, end, q0)[end]


def partition_bruteforce(scheme: WeightScheme, start: Point, end: Point) -> LaurentPoly:
    """Z(start, end) as a direct sum over the enumerated ensemble (oracle)."""
    total = ZERO
    for path in enumerate_paths(start, end):
        total = total + scheme.path_weight(path)
    return total


def interface_closed_form(n: int, m: int) -> LaurentPoly:
    """Closed form of the interface partition function from the origin to (n, m).

    q^(n(n+1)) times the Gaussian binomial in q^2; zero by convention when
    either argument is negative (that convention is what the convolution
    identities below rely on).
    """
    if n < 0 or m < 0:
        return ZERO
    numerator = LaurentPoly.q_power(n * (n + 1)) * qsquare_factorial_product(n + m)
    try:
        return numerator.div_exact(qsquare_factorial_product(n) * qsquare_factorial_product(m))
    except NotDivisible as exc:  # pragma: no cover - identity guarantees divisibility
        raise InternalIdentityFailure(f"closed form not divisible at ({n}, {m})") from exc


def translated_interface(start: Point, end: Point, ref: Point) -> LaurentPoly:
    """Interface Z(start, end) computed from the rectangle shifted by -ref.

    Requires ref.i <= start.i <= end.i and ref.j <= start.j <= end.j.
    The shift multiplies every horizontal bond weight by q^(-2(ref.i+ref.j)),
    and a path has end.i - start.i of them.
    """
    if not (ref.i <= start.i <= end.i and ref.j <= start.j <= end.j):
        raise ValueError("reference point must sit weakly below the rectangle")
    shifted = partition_dp(InterfaceXXZ(),
                           Point(start.i - ref.i, start.j - ref.j),
                           Point(end.i - ref.i, end.j - ref.j))
    return LaurentPoly.q_power(2 * (ref.i + ref.j) * (end.i - start.i)) * shifted


# -- pinned-chain partition functions -----------------------------------------


def pinned_rep1(inst: PinnedInstance) -> LaurentPoly:
    """Partition function of the first pinned representation: paths from the
    origin to (N, M) under the sphere-symmetric weights."""
    return partition_dp(PinnedRep1(K=inst.K, L=inst.L), ORIGIN, Point(inst.N, inst.M))


def rep2_start(inst: PinnedInstance, a: int) -> Point:
    """Start point on the third-quadrant sphere of radius L+1 with a horizontal
    steps still to spend before the origin."""
    return Point(-a, -(inst.L + 1 - a))


def rep2_splits(inst: PinnedInstance) -> list[tuple[Point, Point]]:
    """The admissible (start, end) pairs of the second representation: a <= L+1
    of the N horizontal steps before the origin, N-a <= K after it."""
    return [(rep2_start(inst, a), Point(inst.N - a, inst.K - inst.N + a))
            for a in range(min(inst.N, inst.L + 1) + 1) if inst.N - a <= inst.K]


def pinned_rep2(inst: PinnedInstance) -> LaurentPoly:
    """Partition function of the second pinned representation.

    Paths depart from the third-quadrant sphere of radius L+1, pass through
    the origin, and end on the first-quadrant sphere of radius K with N
    horizontal steps in total.  Splitting at the origin factorizes each
    admissible (start, end) pair into two independent partition functions.
    """
    scheme = PinnedRep2()
    total = ZERO
    for start, end in rep2_splits(inst):
        total = total + partition_dp(scheme, start, ORIGIN) * partition_dp(scheme, ORIGIN, end)
    return total


def pinned_via_convolution(inst: PinnedInstance) -> LaurentPoly:
    """The pinned partition function as a convolution of interface closed forms."""
    total = ZERO
    for n in range(0, inst.N + 1):
        np_ = inst.N - n
        bracket = interface_closed_form(np_ - 1, inst.L - np_ + 1) + \
            interface_closed_form(np_, inst.L - np_)
        total = total + interface_closed_form(n, inst.K - n) * bracket
    return total


# -- recursion identities ---------------------------------------------------


def rec1_sides(inst: PinnedInstance) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the one-step recursion under the fixed-weights reading.

    The right side keeps the full instance's weight scheme and takes the
    partial partition functions to the two interior points one step short
    of (N, M).  This holds because the last sphere's horizontal weights
    are 1; see rec1_readings for the alternative reading.
    """
    if inst.N < 1 or inst.M < 1:
        raise ValueError("rec1 needs N >= 1 and M >= 1")
    table = forward_table(PinnedRep1(K=inst.K, L=inst.L), ORIGIN, Point(inst.N, inst.M))
    lhs = table[Point(inst.N, inst.M)]
    rhs = table[Point(inst.N - 1, inst.M)] + table[Point(inst.N, inst.M - 1)]
    return lhs, rhs


def verify_rec1(inst: PinnedInstance) -> bool:
    lhs, rhs = rec1_sides(inst)
    return lhs == rhs


def rec1_readings(inst: PinnedInstance) -> dict:
    """Adjudicate both readings of the one-step recursion.

    'fixed_weights': partial partition functions under the same scheme.
    'reinstanced_*': the terms re-read as smaller pinned instances, which
    changes the weight scheme along with the endpoint; tested with the
    chain shrunk on either side.  Returns None for readings that are not
    well formed at this instance.
    """
    lhs, rhs = rec1_sides(inst)
    out = {"K": inst.K, "L": inst.L, "N": inst.N, "M": inst.M,
           "fixed_weights": lhs == rhs,
           "reinstanced_shrink_K": None, "reinstanced_shrink_L": None}
    for label, K2, L2 in (("reinstanced_shrink_K", inst.K - 1, inst.L),
                          ("reinstanced_shrink_L", inst.K, inst.L - 1)):
        if K2 < 0 or L2 < 0:
            continue
        sites2 = K2 + L2 + 1
        if not (0 <= inst.N - 1 <= sites2 and 0 <= inst.N <= sites2):
            continue
        rhs = pinned_rep1(PinnedInstance(K=K2, L=L2, N=inst.N - 1)) + \
            pinned_rep1(PinnedInstance(K=K2, L=L2, N=inst.N))
        out[label] = lhs == rhs
    return out


def rec2_rhs(inst: PinnedInstance) -> LaurentPoly:
    """Right side of the sphere-K convolution: interface closed-form products
    summed over the crossing point of radius K (zero convention applies)."""
    rhs = ZERO
    for n in range(0, inst.K + 1):
        m = inst.K - n
        bracket = interface_closed_form(inst.N - n, inst.M - m - 1) + \
            interface_closed_form(inst.N - n - 1, inst.M - m)
        rhs = rhs + interface_closed_form(n, m) * bracket
    return rhs


def verify_rec2(inst: PinnedInstance) -> bool:
    return pinned_rep2(inst) == rec2_rhs(inst)


# -- observables ------------------------------------------------------------


def pinning_distribution(inst: PinnedInstance, q0) -> list[tuple[int, Fraction]]:
    """Distribution of the number of down spins on sites x >= 1.

    Equivalently: how many horizontal steps a first-representation path has
    spent when it crosses the sphere of radius K.  Computed as exact
    through-point ratios, so the probabilities sum to 1 exactly.
    """
    q0 = Fraction(q0)
    if not 0 < q0 < 1:
        raise ValueError("q0 must lie in (0, 1)")
    scheme = PinnedRep1(K=inst.K, L=inst.L)
    end = Point(inst.N, inst.M)
    fwd = forward_table(scheme, ORIGIN, end, q0)
    bwd = backward_table(scheme, ORIGIN, end, q0)
    z = fwd[end]
    out = []
    for n in range(max(0, inst.K - inst.M), min(inst.K, inst.N) + 1):
        q_pt = Point(n, inst.K - n)
        out.append((n, fwd[q_pt] * bwd[q_pt] / z))
    return out


def verify_average_representation(inst: PinnedInstance, q0) -> dict:
    """Check the canonical-average identity at an exact rational q0.

    Left side: the pinned partition function (second representation).
    Right side: the interface partition function on N+M sites times the
    canonical expectation of q^(-2(K+1)*s), where s counts the horizontal
    steps among the last L+1 (the steps that map to sites -L..0).  Both
    sides are exact rationals; the report carries their exact ratio.
    """
    q0 = Fraction(q0)
    if not 0 < q0 < 1:
        raise ValueError("q0 must lie in (0, 1)")
    lhs = pinned_rep2(inst).evaluate(q0)

    # brute-force canonical expectation over the interface ensemble
    total_sites = inst.N + inst.M
    z_if = Fraction(0)
    weighted = Fraction(0)
    for downs in itertools.combinations(range(1, total_sites + 1), inst.N):
        w = q0 ** (2 * sum(downs))
        s = sum(1 for x in downs if x > inst.K)
        z_if += w
        weighted += w * q0 ** (-2 * (inst.K + 1) * s)
    rhs = weighted  # Z_if * (weighted / Z_if)
    holds = lhs == rhs
    return {
        "identity": "ave",
        "parameters": {"K": inst.K, "L": inst.L, "N": inst.N, "M": inst.M,
                       "q0": str(q0), "s_reading": "down spins at sites -L..0"},
        "holds": holds,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "ratio": str(lhs / rhs) if rhs else None,
        "interface_partition": str(z_if),
        "expectation": str(weighted / z_if),
    }
