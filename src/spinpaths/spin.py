"""The quantum side: the pinned chain sector, spin configurations,
ground-state amplitudes, the squared norm, the spin to path bijections, and
a matrix-free Hamiltonian oracle.

PinnedInstance owns the sector's rule (K, L >= 0 and N in [0, K+L+1]), and
everything that takes a chain reads its sites from it; check_q owns 0 < q < 1.

The combinatorial layer stays exact (amplitudes are monomials in q); the
Hamiltonian oracle deliberately works in floating point, since its only
job is to certify a residual below 1e-10.  It holds each basis state as
the sorted sites of its minority spin species and applies H to a vector
in numpy without forming the dimension x dimension matrix, so its memory
is dimension x min(N, sites - N) integers (H. Q. Lin, Phys. Rev. B 42,
6561, 1990).  numpy is imported inside the functions that use it, so
importing the package does not load it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import add

from .lattice import EnsembleTooLarge, H_STEP, LatticePath, Point, V_STEP
from .qpoly import LaurentPoly

CONFIG_ENUMERATION_LIMIT = 10**6
NORM_ADDITION_LIMIT = 10**8
SECTOR_DIMENSION_LIMIT = 4096


def check_q(q0):
    """q0 itself, if it lies in (0, 1), where the chain is stated."""
    if not 0 < q0 < 1:
        raise ValueError("q0 must lie in (0, 1)")
    return q0


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


@dataclass(frozen=True)
class SpinConfig:
    """Occupation word alpha_x over the sites x in [-L, K] of a
    PinnedInstance's chain (so K, L >= 0); 1 means down spin."""

    L: int
    K: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        sites = PinnedInstance(K=self.K, L=self.L, N=0).sites
        if len(self.alpha) != sites:
            raise ValueError(f"need {sites} sites, got {len(self.alpha)}")
        if any(a not in (0, 1) for a in self.alpha):
            raise ValueError("occupations must be 0 or 1")

    def at(self, x: int) -> int:
        """Occupation at site x, -L <= x <= K."""
        return self.alpha[x + self.L]

    @property
    def down_count(self) -> int:
        return sum(self.alpha)

    @classmethod
    def from_down_sites(cls, L: int, K: int, downs) -> "SpinConfig":
        word = [0] * (L + K + 1)
        for x in downs:
            word[x + L] = 1
        return cls(L, K, tuple(word))


def _positions(sites: int, n: int) -> np.ndarray:
    """Every n-subset of range(sites) as a row, ascending within a row, rows
    in lexicographic order."""
    import numpy as np

    flat = itertools.chain.from_iterable(itertools.combinations(range(sites), n))
    count = math.comb(sites, n)
    return np.fromiter(flat, dtype=np.int64, count=count * n).reshape(count, n)


def _down_exponents(positions: np.ndarray, L: int, K: int, N: int) -> np.ndarray:
    """Sum |x| over the down spins of each row of positions.

    A row holds the sites 0..L+K (site x at x + L) of one spin species: the
    N down spins, or, in a row of fewer, the up spins, whose sum is the
    complement of the sum over every site.
    """
    import numpy as np

    exponents = np.abs(positions - L).sum(axis=1)
    if positions.shape[1] < N:
        exponents = (L * (L + 1) + K * (K + 1)) // 2 - exponents
    return exponents


def sector_configs(L: int, K: int, N: int) -> list[SpinConfig]:
    """All configurations with N down spins, in lexicographic order of the
    occupation word read from site -L to K (the basis order of the oracle)."""
    sites = PinnedInstance(K=K, L=L, N=N).sites
    count = math.comb(sites, N)
    if count * sites > CONFIG_ENUMERATION_LIMIT:
        raise EnsembleTooLarge(f"{count} configurations of {sites} slots exceeds "
                               f"{CONFIG_ENUMERATION_LIMIT}")
    return [SpinConfig.from_down_sites(L, K, downs)
            for downs in (_positions(sites, N)[::-1] - L).tolist()]


def amplitude(config: SpinConfig) -> LaurentPoly:
    """Ground-state amplitude: the monomial q^(sum over occupied sites of |x|)."""
    exponent = sum(abs(x) for x in range(-config.L, config.K + 1) if config.at(x))
    return LaurentPoly.q_power(exponent)


def norm_squared(L: int, K: int, N: int) -> LaurentPoly:
    """Squared norm of the sector-N ground state: e_N of y_x = q^(2|x|) over
    the sites x in [-L, K] (I. G. Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I §2), built in one pass over the sites in int counts.

    The sites come in ascending |x|, merged from the ranges 0..K and 1..L,
    and e[k][d] counts the k-subsets of those so far whose |x| sum to d, for
    k up to n = min(N, sites - N): held up spins leave the down spins the
    rest of the sum, so one spin of either kind on 10^5 sites is one list of
    10^5 counts.  When n = 0 the sector has one configuration and no pass runs.
    """
    sites = PinnedInstance(K=K, L=L, N=N).sites
    n = min(N, sites - N)
    # e[k - 1] spans at most (k - 1) max(K, L) + 1 exponents
    additions = sites * n * ((n - 1) * max(K, L) + 1)
    if additions > NORM_ADDITION_LIMIT:
        raise EnsembleTooLarge(f"{additions} additions exceeds {NORM_ADDITION_LIMIT}")
    e = [[1]] + [[] for _ in range(n)]
    for seen, d in enumerate(heapq.merge(range(K + 1), range(1, L + 1)) if n else ()):
        # e[k] += z^d e[k - 1], k from the top down; as d is the largest |x|
        # so far, the shifted e[k - 1] ends where the new e[k] does
        for k in range(min(seen + 1, n), 0, -1):
            low, high = e[k - 1], e[k]
            top = d + len(low)
            high += [0] * (top - len(high))
            high[d:top] = map(add, high[d:top], low)
    total = (L * (L + 1) + K * (K + 1)) // 2
    return LaurentPoly({2 * (total - d if n < N else d): c for d, c in enumerate(e[n])})


# -- spin <-> path bijections -------------------------------------------------


def config_to_path_rep1(config: SpinConfig) -> LatticePath:
    """First representation: a path from the origin to (N, M).

    Steps 1..K replay sites 1..K; the remaining L+1 steps replay sites
    -L..0.  The squared amplitude equals the path weight under the
    sphere-symmetric scheme.
    """
    word = []
    for t in range(1, config.K + 1):
        word.append(H_STEP if config.at(t) else V_STEP)
    for t in range(config.K + 1, config.K + config.L + 2):
        word.append(H_STEP if config.at(t - config.L - config.K - 1) else V_STEP)
    return LatticePath(Point(0, 0), "".join(word))


def config_to_path_rep2(config: SpinConfig) -> LatticePath:
    """Second representation: step t replays site t-L-1, so the path starts on
    the third-quadrant sphere of radius L+1 and reaches the origin after
    exactly L+1 steps."""
    a = sum(config.at(x) for x in range(-config.L, 1))
    start = Point(-a, -(config.L + 1 - a))
    word = [H_STEP if config.at(t - config.L - 1) else V_STEP
            for t in range(1, config.L + config.K + 2)]
    return LatticePath(start, "".join(word))


# -- Hamiltonian oracle ------------------------------------------------


@dataclass
class HamiltonianOracle:
    """Sector Hamiltonian at a numeric q, applied without forming its matrix.

    Row r of `positions` lists the sites 0..sites-1 (site x sits at x + L)
    of the minority spin species of basis state r: its N down spins when
    2N <= sites, else its sites - N up spins.  Rows run in lexicographic
    order of the occupation word read from site -L, as `sector_configs`
    lists them.
    """

    L: int
    K: int
    N: int
    q0: float
    positions: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.positions)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H @ psi for a vector or a dimension x k block of column vectors.

        Each bond term acts on a (down, up) / (up, down) pair only, so every
        off-diagonal pair is met once, from the state whose held spin k at
        site p may hop to a p+1 held by the other species.  The
        combinatorial number system puts that neighbour C(sites-2-p, n-1-k)
        rows away, n the held spins per row (D. E. Knuth, TAOCP 4A,
        7.2.1.3), so no lookup is needed: above for a down spin, whose hop
        makes the word smaller, and below for an up spin, whose hop makes
        it larger.
        """
        import numpy as np

        psi = np.asarray(psi, dtype=np.float64)
        block = psi.reshape(self.dimension, -1)
        out = np.zeros_like(block)
        sites, n = self.L + self.K + 1, self.positions.shape[1]
        # per bond p -> p+1 (site x = p - L); bonds left of the origin use 1/q0
        qx = np.where(np.arange(sites - 1) >= self.L, self.q0, 1.0 / self.q0)
        c = 1.0 / (qx + 1.0 / qx)
        down_up, up_down = c * qx, c / qx
        direction = -1
        if n < self.N:
            # held up spins: the hopping state is (up, down) and its neighbour
            # (down, up)
            down_up, up_down, direction = up_down, down_up, 1
        for k in range(n):
            p = self.positions[:, k]
            after = self.positions[:, k + 1] if k + 1 < n else sites
            cols = np.flatnonzero(after > p + 1)
            # spin k lies in [k, sites - n + k]; it can hop only below the top
            shift = np.array([math.comb(sites - 2 - s, n - 1 - k)
                              for s in range(k, sites - n + k)], dtype=np.int64)
            hop = p[cols]
            rows = cols + direction * shift[hop - k]
            out[cols] += down_up[hop, None] * block[cols] - c[hop, None] * block[rows]
            out[rows] += up_down[hop, None] * block[rows] - c[hop, None] * block[cols]
        return out.reshape(psi.shape)


def build_hamiltonian(L: int, K: int, N: int, q0: float) -> HamiltonianOracle:
    """The chain Hamiltonian restricted to the N-down-spin sector.

    Each bond contributes a two-site projector-type term; bonds left of the
    origin use 1/q0 in place of q0.  The action on the four local states:
    aligned pairs are annihilated; (down, up) and (up, down) mix with
    diagonal weights q/(q+1/q) and (1/q)/(q+1/q) and off-diagonal -1/(q+1/q).
    """
    check_q(q0)
    if not math.isfinite(1 / q0):
        raise ValueError(f"1/q0 overflows a float at q0 = {q0}")
    sites = PinnedInstance(K=K, L=L, N=N).sites
    dim = math.comb(sites, N)
    if dim > SECTOR_DIMENSION_LIMIT:
        raise EnsembleTooLarge(f"sector dimension {dim} exceeds {SECTOR_DIMENSION_LIMIT}")
    # down-spin combinations run opposite to the word order, since a down spin
    # further left makes a larger word; up-spin combinations run with it
    if 2 * N <= sites:
        positions = _positions(sites, N)[::-1]
    else:
        positions = _positions(sites, sites - N)
    return HamiltonianOracle(L=L, K=K, N=N, q0=q0, positions=positions)


def ground_state_vector(oracle: HamiltonianOracle) -> np.ndarray:
    """Component amplitude(config) at q0 in basis order, scaled so that the
    largest component is 1 (the vector is not normalized).

    The scale keeps the vector off zero: at (L, K, N) = (0, 40, 40) and
    q0 = 0.3 every amplitude itself is below 1e-400 and rounds to 0.
    """
    exponents = _down_exponents(oracle.positions, oracle.L, oracle.K, oracle.N)
    return float(oracle.q0) ** (exponents - exponents.min())


def verify_ground_state(oracle: HamiltonianOracle) -> float:
    """Relative residual |H psi| / |psi| of the claimed ground state."""
    import numpy as np

    psi = ground_state_vector(oracle)
    return float(np.linalg.norm(oracle.apply(psi)) / np.linalg.norm(psi))
