"""Partition functions over monotone path ensembles.

The dynamic program sweeps lattice spheres of increasing radius, so each
table value is the exact weighted sum over all paths from (or to) the
table origin.  On top of it sit the closed form for the interface model,
the translation identity, the two pinned-chain representations, and the
recursion/convolution identities relating them.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable

from .lattice import Point, enumerate_paths
from .qpoly import LaurentPoly, ZERO, ZeroToNegativePower, pack, unpack
from .spin import PinnedInstance, chain_norms, check_q, norm_squared
from .weights import InterfaceXXZ, PinnedRep1, PinnedRep2, WeightScheme

ORIGIN = Point(0, 0)
# what the average identity's s counts, as its reports name it
AVE_READING = "down spins at sites -L..0"


class InternalIdentityFailure(RuntimeError):
    """A step table's probabilities at a point do not sum to exactly 1."""


class PartitionTable:
    """Per-point partition values over the rectangle [start, end], swept
    outward from one corner, its origin: from start, so the cell at Q is
    Z(start, Q), or from end, so it is Z(Q, end).

    Every cell is one int, in an encoding chosen for the rectangle: a
    Kronecker-packed Laurent polynomial, or at a fixed q0 = p/r the value
    times int scales.  The table holds one code per tail diagonal, the
    encoded weight of its horizontal bonds, and weighs a vertical bond as
    1, so a cell is W * (its horizontal neighbour) + (its vertical
    neighbour) in plain ints; ``times`` forms such a product.  Reading a
    point decodes its int into a LaurentPoly, or into a Fraction when the
    table was swept at a fixed q; points off the rectangle read as that
    ring's 0.

    A table sweeps when it is first read, not when it is built, so a caller
    that needs one cell, such as partition_dp, holds no others.  ``values``,
    every cell by point, is swept on first use and kept; reading a point
    reads it.  ``sweep`` streams the diagonals and keeps none, and
    ``far_corner`` reads Z(start, end) through it.
    """

    def __init__(self, codes: list,
                 decode: Callable[[int, int], LaurentPoly | Fraction],
                 start: Point, end: Point, step: int):
        # an encoded weight (m, k) is the int m << k.  codes[d] is the horizontal
        # weight on the tail diagonal i + j = start.i + start.j + d (see _encoding)
        self._codes = codes
        self._decode = decode
        self._start = start
        self._end = end
        self._step = step
        self.origin = start if step == 1 else end

    @functools.cached_property
    def values(self) -> dict[tuple[int, int], int]:
        """Every cell of the rectangle by point, swept on first use."""
        return {(i, s - i): n for s, lo, cells in self.sweep() for i, n in enumerate(cells, lo)}

    def sweep(self):
        """The diagonals from the origin out, one at a time (see _sweep)."""
        return _sweep(self)

    def times(self, d: int, n: int) -> int:
        """n times the encoded weight of a horizontal bond on the tail diagonal
        i + j = start.i + start.j + d, which must meet the rectangle."""
        m, k = self._codes[d]
        return (m * n) << k

    def __getitem__(self, point: Point) -> LaurentPoly | Fraction:
        """The cell at point, decoded.

        The encoding of a value depends only on how many horizontal steps
        it spans, so a sum of products of cells and weights along whole
        paths from one corner to the other reads at the far corner.
        """
        return self._decode(self.values.get(point, 0), abs(point[0] - self.origin[0]))

    def far_corner(self) -> LaurentPoly | Fraction:
        """Z(start, end), the cell opposite the origin, by a sweep that holds
        one diagonal at a time."""
        last = _last(self.sweep())
        return self._decode(last[2][0] if last else 0, self._end.i - self._start.i)


def _encoding(scheme: WeightScheme, start: Point, end: Point, q0: Fraction | None):
    """Encode the bond weights of the rectangle [start, end] as ints.

    Returns (codes, decode) as PartitionTable holds them; decode(n, a)
    reads a value that spans a horizontal steps, which alone set its
    encoding.  A named scheme weighs a vertical bond as 1 and a horizontal
    one with tail on the diagonal s = i + j as q^e, e = h_exponent(s + 1),
    so codes holds one code per tail diagonal, built from the ints alone.
    With V = min(0, lowest e) and D = max(0, highest e), such a value is
    offset by a*V, and an encoded weight is stored as (m, k), the int
    m << k with m odd, so a product by a power of 2, such as a monomial's
    code, is a shift.
    - Polynomials (Kronecker substitution): every named e is even, and q^e
      goes to the w-bit slot (e - V) / 2, the code (1, w * (e - V) / 2), w
      the bit length of C(n+m, n), the path count.
    - At q0 = p/r the code is p^(e - V) * r^(D - e), the weight times the
      int S = p^(-V) * r^D, and the value above reads N / S^a.
    An empty rectangle has no codes, and its decode reads every int as the
    ring's 0.  A scheme without h_exponent, such as a CustomTable, is
    refused; partition_bruteforce sums its paths.
    """
    if scheme.h_exponent is None:
        raise TypeError(f"the sweep needs a named scheme, not {scheme.name!r}; "
                        "use partition_bruteforce")
    if end.i < start.i or end.j < start.j:
        zero = ZERO if q0 is None else Fraction(0)
        return [], lambda n, a: zero
    i0, j0 = start
    i1, j1 = end
    di, dj = i1 - i0, j1 - j0
    # a table without horizontal bonds asks no exponent: its 1s meet only padding
    exps = [scheme.h_exponent(s + 1) for s in range(i0 + j0, i1 + j1)] if di else [0] * dj
    low, high = min([0, *exps]), max([0, *exps])
    if q0 is None:
        width = math.comb(di + dj, di).bit_length()
        return ([(1, width * (e - low) // 2) for e in exps],
                lambda n, a: unpack(n, width, 2, a * low))
    p, r = q0.numerator, q0.denominator
    if p == 0 and low < 0:
        raise ZeroToNegativePower("negative power of q at q = 0")
    scale = p ** -low * r ** high
    return ([_odd_and_shift(p ** (e - low) * r ** (high - e)) for e in exps],
            lambda n, a: Fraction(n, scale ** a))


def _odd_and_shift(n: int) -> tuple[int, int]:
    """(m, k) with n == m << k and m odd (0 gives (0, 0))."""
    k = (n & -n or 1).bit_length() - 1
    return n >> k, k


def _sweep(table: PartitionTable):
    """Sphere sweep of the table's rectangle outward from its origin corner,
    as a generator.

    Yields the diagonals i + j = s from the origin's out to the far corner's,
    each as (s, lo, cells): cells[i - lo] is the cell at (i, s - i), an int
    in the table's encoding, from the lowest i on the diagonal, lo, up.  An
    empty rectangle yields nothing.  Each diagonal reads only the one yielded
    before it and one diagonal's weight codes, so a reader keeps what it
    reads and no more, and one that stops reading stops the sweep there; a
    yielded list is not changed afterwards.  A diagonal is one list
    comprehension over the one before and its one code.
    """
    i0, j0 = table._start
    i1, j1 = table._end
    if i1 < i0 or j1 < j0:
        return
    step = table._step
    codes = table._codes
    oi, oj = table.origin
    prev, prev_lo = [1], oi
    yield oi + oj, oi, prev
    # a bond's tail is its lower end: the cell behind when growing from
    # start, the cell itself when growing from end; either way both tails
    # of a cell's bonds lie on one diagonal
    lag = 1 if step == 1 else 0
    for r in range(1, (i1 - i0) + (j1 - j0) + 1):
        s = oi + oj + step * r   # the diagonal i + j = s, in increasing i
        d = s - lag - i0 - j0    # its bonds' tail diagonal
        lo = max(i0, s - j1)
        # cell(i) = W * prev(i - step) + prev(i), prev padded with a 0 at each
        # end: a neighbour off the rectangle.  a is where prev(lo) sits in it
        m, k = codes[d]
        pad = [0, *prev, 0]
        a = lo - prev_lo + 1
        pairs = zip(pad[a - step:], pad[a:a + min(i1, s - j0) - lo + 1])
        # m is 1 for a power of 2, such as any monomial in a packed polynomial:
        # its product is a shift, and a shift by 0 would only copy
        if m == 1:
            cells = [(x << k) + y for x, y in pairs] if k else [x + y for x, y in pairs]
        else:
            cells = [(m * x << k) + y for x, y in pairs] if k else [m * x + y for x, y in pairs]
        yield s, lo, cells
        prev, prev_lo = cells, lo


def _last(diagonals):
    """The last diagonal a sweep yields, or None; it holds no other."""
    last = None
    for last in diagonals:
        pass
    return last


def _table(scheme: WeightScheme, start: Point, end: Point, step: int, q0) -> PartitionTable:
    codes, decode = _encoding(scheme, start, end, None if q0 is None else Fraction(q0))
    return PartitionTable(codes, decode, start, end, step)


def forward_table(scheme: WeightScheme, start: Point, end: Point, q0=None) -> PartitionTable:
    """Z(start, Q) for every Q in the rectangle [start, end], at q = q0 if given."""
    return _table(scheme, start, end, 1, q0)


def backward_table(scheme: WeightScheme, start: Point, end: Point, q0=None) -> PartitionTable:
    """Z(Q, end) for every Q in the rectangle [start, end], at q = q0 if given."""
    return _table(scheme, start, end, -1, q0)


def partition_dp(scheme: WeightScheme, start: Point, end: Point,
                 q0=None) -> LaurentPoly | Fraction:
    """Z(start, end), at q = q0 if given; 0 when the rectangle is empty.  The
    sphere sweep holds one diagonal at a time.  A nonempty interface Z at q0 != 0
    is the closed form, moved by the translation identity, in gaussian_ints' ints:
    q0^(n(n+1) + 2(start.i+start.j)n) [n+m, n]_(q0^2), (n, m) = end - start."""
    n, m = end.i - start.i, end.j - start.j
    q0 = q0 if q0 is None else Fraction(q0)
    if not q0 or n < 0 or m < 0 or not isinstance(scheme, InterfaceXXZ):
        return forward_table(scheme, start, end, q0).far_corner()
    a, b = min(n, m), max(n, m)
    g = gaussian_ints(q0, a + b)
    w = q0 ** (n * (n + 1) + 2 * (start.i + start.j) * n)
    return Fraction(w.numerator * math.prod(g[b + 1:]),
                    w.denominator * math.prod(g[1:a + 1]) * q0.denominator ** (2 * a * b))


def gaussian_ints(q0: Fraction, top: int) -> list[int]:
    """G_0..G_top at q0 = p/r: G_0 = 0 and G_(k+1) = r^2 G_k + p^(2k), so G_k is
    (r^2k - p^2k) / (r^2 - p^2), k at q0 = +-1, that is (1 - x^k) / (1 - x) times
    r^(2(k-1)), x = q0^2, and [b+a, a]_x = prod G_(b+i) / (prod G_i * r^(2ab))."""
    p2, r2 = q0.numerator ** 2, q0.denominator ** 2
    g = [0]
    for k in range(top):
        g.append(r2 * g[-1] + p2 ** k)
    return g


def partition_bruteforce(scheme: WeightScheme, start: Point, end: Point) -> LaurentPoly:
    """Z(start, end) as a direct sum over the enumerated ensemble (oracle)."""
    total = ZERO
    for path in enumerate_paths(start, end):
        total = total + scheme.path_weight(path)
    return total


def interface_closed_form(n: int, m: int) -> LaurentPoly:
    """Closed form of the interface partition function from the origin to (n, m).

    q^(n(n+1)) times the Gaussian binomial [n+m, n] in x = q^2, zero by
    convention when either argument is negative (that convention is what
    the convolution identities below rely on).  The binomial is built as
    the product of (1 - x^(b+i)) / (1 - x^i) over i = 1..a, with a, b the
    smaller and larger argument, on one coefficient list: each factor is a
    shifted subtraction, then a running sum.  Every partial product is
    [b+i, i], a polynomial, so each division is exact.
    """
    if n < 0 or m < 0:
        return ZERO
    a, b = min(n, m), max(n, m)
    coeffs = [1]   # [b, 0] in x, lowest power first
    for i in range(1, a + 1):
        pad = [0] * (b + i)
        coeffs = [c - d for c, d in zip(coeffs + pad, pad + coeffs)]
        for residue in range(i):
            coeffs[residue::i] = itertools.accumulate(coeffs[residue::i])
        del coeffs[-i:]   # the division leaves no remainder, so the top i vanish
    return LaurentPoly({n * (n + 1) + 2 * k: c for k, c in enumerate(coeffs)})


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


def pinned_rep2(inst: PinnedInstance) -> LaurentPoly:
    """Partition function of the second pinned representation.

    Paths depart from the third-quadrant sphere of radius L+1, pass through
    the origin, and end on the first-quadrant sphere of radius K with N
    horizontal steps in total.  A path's start on the diagonal i + j = -L-1
    is fixed by its step word: it is (-a, a-L-1), with a the number of
    horizontal steps among its first L+1.  Step t's head lies on the
    diagonal t-L-1 wherever the path starts, and a bond weighs by its
    diagonal alone, so sliding every path to start at (0, -L-1) keeps its
    weight.  The ensemble is then exactly the paths of one rectangle.
    """
    return partition_dp(PinnedRep2(), Point(0, -inst.L - 1), Point(inst.N, inst.K - inst.N))


def pinned_via_convolution(inst: PinnedInstance) -> LaurentPoly:
    """The pinned partition function as a convolution of interface closed
    forms, packed at the bit length of C(sites, N) (see _convolution)."""
    width = math.comb(inst.sites, inst.N).bit_length()
    return _convolution(inst, _closed_form_packer(width), width)


def _closed_form_packer(width: int) -> Callable[[int, int], int]:
    """(n, m) -> interface_closed_form(n, m) Kronecker-packed at width bits,
    stride 2 and shift 0: each exponent n(n+1) + 2k is even and nonnegative."""
    return lambda n, m: pack(interface_closed_form(n, m).items(), width, 2, 0)


def _convolution(inst: PinnedInstance, packed: Callable[[int, int], int],
                 width: int) -> LaurentPoly:
    """pinned_via_convolution as one sum of int products, unpacked once, given
    the closed forms packed at width bits (see _closed_form_packer).

    Every coefficient is nonnegative, so no slot of a product or a sum exceeds
    the total's, and at q = 1 the total is sum_n C(K, n) C(L+1, N-n) =
    C(K+L+1, N) by Vandermonde's identity: width bits of C(sites, N), or of
    any larger int, hold every slot without a carry.
    """
    total = 0
    # a term with n > K, or with N - n > L + 1, has a zero factor
    for n in range(max(0, inst.N - inst.L - 1), min(inst.N, inst.K) + 1):
        np_ = inst.N - n
        bracket = packed(np_ - 1, inst.L - np_ + 1) + packed(np_, inst.L - np_)
        total += packed(n, inst.K - n) * bracket
    return unpack(total, width, 2, 0)


# -- recursion identities ---------------------------------------------------


def rec1_sides(inst: PinnedInstance) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the one-step recursion under the fixed-weights reading.

    The right side keeps the full instance's weight scheme and takes the
    partial partition functions to the two interior points one step short
    of (N, M).  This holds because the last sphere's horizontal weights
    are 1; see rec1_readings for the alternative reading.
    """
    N, M = inst.N, inst.M
    if N < 1 or M < 1:
        raise ValueError("rec1 needs N >= 1 and M >= 1")
    table = forward_table(PinnedRep1(K=inst.K, L=inst.L), ORIGIN, Point(N, M))
    return table[Point(N, M)], table[Point(N - 1, M)] + table[Point(N, M - 1)]


def rec1_readings(inst: PinnedInstance) -> dict:
    """Adjudicate both readings of the one-step recursion.

    'fixed_weights': partial partition functions under the same scheme.
    'reinstanced_*': the terms re-read as smaller pinned instances, which
    changes the weight scheme along with the endpoint; tested with the
    chain shrunk on either side.  Returns None for readings that are not
    well formed at this instance.
    """
    lhs, rhs = rec1_sides(inst)
    return {"K": inst.K, "L": inst.L, "N": inst.N, "M": inst.M, "fixed_weights": lhs == rhs,
            **_reinstanced_readings(inst, lhs, lambda K, L, N: pinned_rep1(
                PinnedInstance(K=K, L=L, N=N)))}


def _reinstanced_readings(inst: PinnedInstance, rep1: LaurentPoly,
                          rep1_of: Callable[[int, int, int], LaurentPoly]) -> dict:
    """The re-instanced rec1 readings of rec1_readings, given the instance's
    rep1 and rep1_of(K, L, N), rep1 of a smaller chain.  The chain shrunk by
    a site must hold N down spins (N >= 1 here, so N - 1 is a sector too)."""
    readings = {}
    for label, K2, L2 in (("reinstanced_shrink_K", inst.K - 1, inst.L),
                          ("reinstanced_shrink_L", inst.K, inst.L - 1)):
        readings[label] = None
        if K2 >= 0 and L2 >= 0 and inst.N <= K2 + L2 + 1:
            readings[label] = rep1 == rep1_of(K2, L2, inst.N - 1) + rep1_of(K2, L2, inst.N)
    return readings


def rec2_rhs(inst: PinnedInstance) -> LaurentPoly:
    """Right side of the sphere-K convolution: interface closed-form products
    summed over the crossing point (n, K - n) of radius K (zero convention
    applies).

    Its term n is Z_if(n, K-n) * (Z_if(N-n, M-K+n-1) + Z_if(N-n-1, M-K+n)).
    With M = K+L+1-N and N' = N-n the bracket is
    Z_if(N', L-N') + Z_if(N'-1, L-N'+1), the bracket of
    pinned_via_convolution's term n, and the terms either range leaves out
    are 0; so the sum is that one.
    """
    return pinned_via_convolution(inst)


def verify_rec2(inst: PinnedInstance) -> bool:
    return pinned_rep2(inst) == rec2_rhs(inst)


# -- observables ------------------------------------------------------------


def rep1_tables(inst: PinnedInstance, q0) -> tuple[PartitionTable, PartitionTable]:
    """The forward and backward first-representation tables over
    [origin, (N, M)] at q = q0, which must lie in (0, 1); one encoding
    serves both."""
    q0 = check_q(Fraction(q0))
    end = Point(inst.N, inst.M)
    codes, decode = _encoding(PinnedRep1(K=inst.K, L=inst.L), ORIGIN, end, q0)
    return (PartitionTable(codes, decode, ORIGIN, end, 1),
            PartitionTable(codes, decode, ORIGIN, end, -1))


def pinning_distribution(inst: PinnedInstance, q0) -> list[tuple[int, Fraction]]:
    """Distribution of the number of down spins on sites x >= 1.

    Equivalently: how many horizontal steps a first-representation path has
    spent when it crosses the sphere of radius K.  Computed as exact
    through-point ratios, so the probabilities sum to 1 exactly.
    """
    fwd, bwd = rep1_tables(inst, q0)
    # both sweeps stop at the sphere of radius K, as their reader stops there.  A
    # path through a point splits into a forward and a backward part, so their
    # encoded product scales as Z does; every path crosses the sphere once, so
    # those products sum to Z, and each ratio is taken in ints
    _, lo, f = _last(itertools.islice(fwd.sweep(), inst.K + 1))
    _, _, b = _last(itertools.islice(bwd.sweep(), inst.N + inst.M - inst.K + 1))
    through = [x * y for x, y in zip(f, b)]
    z = sum(through)
    return [(n, Fraction(w, z)) for n, w in enumerate(through, lo)]


def verify_average_representation(inst: PinnedInstance, q0) -> dict:
    """Check the canonical-average identity at an exact rational q0.

    Left side: the pinned partition function (second representation).
    Right side: the interface partition function on N+M sites times the
    canonical expectation of q^(-2(K+1)*s), where s counts the horizontal
    steps among the last L+1 (the steps that map to sites -L..0).  That is
    e_N of q0^(2|x|) over the sites x in [-L, K], the squared norm at q0.
    Both sides are exact rationals; the report carries their exact ratio.
    """
    q0 = check_q(Fraction(q0))
    entry = _ave_entry(inst, q0, pinned_rep2(inst), norm_squared(inst.L, inst.K, inst.N))
    z_if = partition_dp(InterfaceXXZ(), ORIGIN, Point(inst.N, inst.M), q0)
    lhs, rhs = entry["lhs"], entry["rhs"]
    return {**entry, "lhs": str(lhs), "rhs": str(rhs),
            "ratio": str(lhs / rhs) if rhs else None,
            "interface_partition": str(z_if), "expectation": str(rhs / z_if)}


def _ave_entry(inst: PinnedInstance, q0: Fraction, rep2: LaurentPoly, nsq: LaurentPoly,
               same: bool = False) -> dict:
    """The ave report entry, sides unrendered: rep2 and the squared norm at q0,
    evaluated once when the caller has found them one polynomial (same)."""
    lhs = rep2.evaluate(q0)
    rhs = lhs if same else nsq.evaluate(q0)
    return _report_entry("ave", {"K": inst.K, "L": inst.L, "N": inst.N, "M": inst.M,
                                 "q0": str(q0), "s_reading": AVE_READING}, lhs == rhs, lhs, rhs)


# -- the identity suite -------------------------------------------------------


def _report_entry(identity: str, params: dict, holds: bool, lhs, rhs) -> dict:
    return {"identity": identity, "parameters": params, "holds": bool(holds),
            "lhs": lhs, "rhs": rhs}


# the translation checks read rectangles of at most 4x4 steps.  C(8, 4) = 70 paths
# cross the largest, and no coefficient of a cell exceeds its path count: 7-bit slots
TF_WIDTH = math.comb(8, 4).bit_length()


def _translation_keys(start: Point, end: Point) -> dict[tuple[int, int], int]:
    """Per cell of the interface forward table over [start, end], encoded at
    TF_WIDTH bits, its key by R = cell - start: its int shifted up by
    R.i * (9 * TF_WIDTH - k) bits, 1 << k the code of a horizontal step off
    start's diagonal.  A step with tail on the table's diagonal d, weighing
    q^(2(start.i+start.j+1+d)), then fills slot 9 + d of a key whatever the
    start (k <= 9 * TF_WIDTH for start.i + start.j <= 8).  So starts s and t have
    equal keys at R iff Z(s, s + R) = q^(2(s.i+s.j-t.i-t.j)R.i) Z(t, t + R), and
    a key reads as Z(s, s + R) by unpack at shift 2 R.i (s.i + s.j - 8)."""
    # encoded over start's 4x4 square, whose path count sets TF_WIDTH; codes past end go unread
    codes, decode = _encoding(InterfaceXXZ(), start, start.translate(4, 4), None)
    per_step = 9 * TF_WIDTH - codes[0][1]
    return {(i - start.i, s - i - start.j): n << (i - start.i) * per_step
            for s, lo, cells in PartitionTable(codes, decode, start, end, 1).sweep()
            for i, n in enumerate(cells, lo)}


def _chain_sphere(K: int, L: int):
    """Yields, per sector N = 0..S of the chain (K, L), S = K + L + 1, its pinned_rep1,
    its pinned_rep2 and, for 0 < N < S, rec1 as (holds, rhs), rhs() its right side:
    index N, from i = 0, of the last diagonal of a rep1 table from the origin and of
    pinned_rep2's to (S, K), both swept to the sphere S, and the rep1 cells
    (N-1, S-N) + (N, S-1-N), indices N - 1 and N of the diagonal before.  Every
    PinnedRep1 exponent is >= 0 in its domain, so rep1's ints decode at offset 0,
    and the bond onto the sphere weighs q^0: rec1 holds iff the cell's int is the
    sum of the two inner ints, which carries no slot, as C(S, N) paths fit the width."""
    S = K + L + 1
    read = []
    for scheme, start, end, last in ((PinnedRep1(K=K, L=L), ORIGIN, Point(S, S), 2),
                                     (PinnedRep2(), Point(0, -L - 1), Point(S, K), 1)):
        # encoded from start to the sphere's middle cell: its S tail diagonals are all
        # the sweep reads, none past rep1's domain, and its path count sets the width
        codes, decode = _encoding(scheme, start, start.translate(S - S // 2, S // 2), None)
        sweep = PartitionTable(codes, decode, start, end, 1).sweep()
        read += [(decode, cells) for _, _, cells in itertools.islice(sweep, S + 1 - last, S + 1)]
    (read1, inner), (_, rep1), (read2, rep2) = read
    for N in range(S + 1):
        rhs = inner[N - 1] + inner[N] if 0 < N < S else None
        rec1 = None if rhs is None else (rep1[N] == rhs, functools.partial(read1, rhs, 0))
        yield read1(rep1[N], N), read2(rep2[N], N), rec1


def identity_suite(max_k: int, max_l: int, q_values: list[Fraction],
                   full: bool = True) -> tuple[dict[str, int], list[dict]]:
    """Run every identity on the (K, L) grid.  Returns (checked, entries): the
    number of checks per identity, and one report entry per check, sides
    unrendered, or only the failing ones unless full.  A side is built only
    for an entry that is kept.

    Each distinct table is swept once per call; nothing outlives the call.
    Per chain (K, L), _chain_sphere's two tables give rep1, rep2 and rec1 of
    every N, and one chain_norms pass its every norm; the re-instanced readings
    take rep1 of the smaller chains from earlier in the loop.  rep2 serves the
    norm, pf, rec2 and every ave entry, and one convolution serves pf and rec2
    (rec2_rhs is that sum).  When rep2 is the norm as a polynomial, ave holds
    at every q, and only a kept entry evaluates it, once.
    The convolution sums products of closed forms, each packed once at one
    width for the grid: the bit length of C(S, S // 2), S = max_k + max_l + 1.
    The translation identity reads Z(start, end) from one _translation_keys
    table per start in [-2, 2]^2 and every shifted Z from one per shifted
    start in [0, 4]^2: 50 sweeps for 1 225 checks.  When every table has one
    key at each relative position R, every check holds; otherwise, or when
    full, each check compares two keys.  A negative max_k or max_l, or a q
    outside (0, 1), is refused before any of that.
    """
    if max_k < 0 or max_l < 0:
        raise ValueError(f"max_K and max_L must be nonnegative, got {max_k} and {max_l}")
    q_values = [check_q(q0) for q0 in q_values]
    checked: dict[str, int] = {}
    entries: list[dict] = []

    def record(identity: str, holds: bool, entry: Callable[[], dict]) -> None:
        checked[identity] = checked.get(identity, 0) + 1
        if full or not holds:
            entries.append(entry())

    sites = max_k + max_l + 1
    width = math.comb(sites, sites // 2).bit_length()
    packed = functools.cache(_closed_form_packer(width))
    rep1_of: dict[tuple[int, int, int], LaurentPoly] = {}   # (K, L, N) -> rep1
    for K in range(max_k + 1):
        for L in range(max_l + 1):
            norm_of = chain_norms(L, K, (K + L + 1) // 2)
            for N, (rep1, rep2, rec1) in enumerate(_chain_sphere(K, L)):
                inst = PinnedInstance(K=K, L=L, N=N)
                rep1_of[K, L, N] = rep1
                params = {"K": K, "L": L, "N": N, "M": inst.M}
                nsq = norm_of(N)
                same = nsq == rep2
                holds = same and rep1 == rep2
                record("norm-equality", holds,
                       lambda: _report_entry("norm-equality", params, holds, nsq, rep1))
                conv = _convolution(inst, packed, width)
                holds = rep2 == conv
                for name in ("pf", "rec2"):
                    record(name, holds, lambda: _report_entry(name, params, holds, rep2, conv))
                if rec1:
                    holds, rhs = rec1
                    record("rec1", holds, lambda: _report_entry(
                        "rec1", {**params, "reading": "fixed-weights", "alternative_readings":
                                 _reinstanced_readings(inst, rep1, lambda *key: rep1_of[key])},
                        holds, rep1, rhs()))
                for q0 in q_values:
                    # one polynomial agrees with itself at every q0
                    entry = _ave_entry(inst, q0, rep2, nsq, same) if full or not same else None
                    record("ave", same or entry["holds"], lambda: entry)
    pts = [Point(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    shifted = {(i, j): _translation_keys(Point(i, j), Point(4, 4))
               for i in range(5) for j in range(5)}
    direct = {start: _translation_keys(start, Point(2, 2)) for start in pts}
    # per start (i, j): (3 - i)(3 - j) ends dominate it, (i + 3)(j + 3) refs lie below it
    checked["TF"] = sum((3 - p.i) * (3 - p.j) * (p.i + 3) * (p.j + 3) for p in pts)
    # shifted[0, 0] has every R: as many (R, key) pairs means one key per R, and all hold
    cells = {cell for keys in (*shifted.values(), *direct.values()) for cell in keys.items()}
    if not full and len(cells) == len(shifted[0, 0]):
        return checked, entries
    names = {p: str(p) for p in pts}
    for start in pts:
        refs = [(names[ref], shifted[start.i - ref.i, start.j - ref.j])
                for ref in pts if ref.i <= start.i and ref.j <= start.j]
        for end in pts:
            if not end.dominates(start):
                continue
            R = end.i - start.i, end.j - start.j
            key = direct[start][R]
            # both keys read at start's shift, so the shifted one reads as q^k times its Z
            shift = 2 * R[0] * (start.i + start.j - 8)
            z = None   # Z(start, end), decoded once if kept; a check that holds shows it twice
            for name, keys in refs:
                holds = keys[R] == key
                if full or not holds:
                    z = z or unpack(key, TF_WIDTH, 2, shift)
                    entries.append(_report_entry(
                        "TF", {"I": names[start], "F": names[end], "P": name}, holds, z,
                        z if holds else unpack(keys[R], TF_WIDTH, 2, shift)))
    return checked, entries
