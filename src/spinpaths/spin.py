"""The quantum side: spin configurations, ground-state amplitudes, the spin
to path bijections, and a dense-matrix Hamiltonian oracle.

The combinatorial layer stays exact (amplitudes are monomials in q); the
Hamiltonian oracle deliberately works in floating point, since its only
job is to certify a residual below 1e-10.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import EnsembleTooLarge, H_STEP, LatticePath, Point, V_STEP
from .qpoly import LaurentPoly

CONFIG_ENUMERATION_LIMIT = 10**6
SECTOR_DIMENSION_LIMIT = 4096


@dataclass(frozen=True)
class SpinConfig:
    """Occupation word alpha_x over sites x in [-L, K]; 1 means down spin."""

    L: int
    K: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        if self.L < 0 or self.K < 0:
            raise ValueError("L and K must be nonnegative")
        if len(self.alpha) != self.L + self.K + 1:
            raise ValueError(f"need {self.L + self.K + 1} sites, got {len(self.alpha)}")
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


def sector_configs(L: int, K: int, N: int) -> list[SpinConfig]:
    """All configurations with N down spins, in lexicographic order of the
    occupation word read from site -L to K (the basis order of the oracle)."""
    sites = L + K + 1
    if not 0 <= N <= sites:
        raise ValueError(f"N must lie in [0, {sites}]")
    count = math.comb(sites, N)
    if count > CONFIG_ENUMERATION_LIMIT:
        raise EnsembleTooLarge(f"{count} configurations exceeds {CONFIG_ENUMERATION_LIMIT}")
    words = []
    for positions in itertools.combinations(range(sites), N):
        word = [0] * sites
        for p in positions:
            word[p] = 1
        words.append(tuple(word))
    words.sort()
    return [SpinConfig(L, K, w) for w in words]


def amplitude(config: SpinConfig) -> LaurentPoly:
    """Ground-state amplitude: the monomial q^(sum over occupied sites of |x|)."""
    exponent = sum(abs(x) for x in range(-config.L, config.K + 1) if config.at(x))
    return LaurentPoly.q_power(exponent)


def eigen_ratio_check(config: SpinConfig, x: int) -> bool:
    """Check the adjacent-swap amplitude ratio at sites (x, x+1).

    With the pair set to (down, up) versus (up, down) on a common
    background, the amplitude ratio must be q for x < 0 and 1/q for
    x >= 0.  Amplitudes are monomials, so this is an exponent check.
    """
    if not -config.L <= x < config.K:
        raise ValueError(f"x must lie in [{-config.L}, {config.K - 1}]")
    word = list(config.alpha)
    word[x + config.L], word[x + config.L + 1] = 1, 0
    down_up = SpinConfig(config.L, config.K, tuple(word))
    word[x + config.L], word[x + config.L + 1] = 0, 1
    up_down = SpinConfig(config.L, config.K, tuple(word))
    diff = amplitude(down_up).degree() - amplitude(up_down).degree()
    return diff == (1 if x < 0 else -1)


def norm_squared(L: int, K: int, N: int) -> LaurentPoly:
    """Squared norm of the sector-N ground state, by brute-force summation of
    squared amplitudes over every configuration (the quantum-side oracle)."""
    total = LaurentPoly.zero()
    for config in sector_configs(L, K, N):
        amp = amplitude(config)
        total = total + LaurentPoly.q_power(2 * amp.degree())
    return total


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
    """Dense sector Hamiltonian at a numeric q, plus its basis bookkeeping."""

    L: int
    K: int
    N: int
    q0: float
    matrix: np.ndarray
    basis: list[SpinConfig]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_hamiltonian(L: int, K: int, N: int, q0: float) -> HamiltonianOracle:
    """Assemble the chain Hamiltonian restricted to the N-down-spin sector.

    Each bond contributes a two-site projector-type term; bonds left of the
    origin use 1/q0 in place of q0.  The action on the four local states:
    aligned pairs are annihilated; (down, up) and (up, down) mix with
    diagonal weights q/(q+1/q) and (1/q)/(q+1/q) and off-diagonal -1/(q+1/q).
    """
    if not 0.0 < q0 < 1.0:
        raise ValueError("q0 must lie in (0, 1)")
    sites = L + K + 1
    dim = math.comb(sites, N)
    if dim > SECTOR_DIMENSION_LIMIT:
        raise EnsembleTooLarge(f"sector dimension {dim} exceeds {SECTOR_DIMENSION_LIMIT}")
    basis = sector_configs(L, K, N)
    index = {c.alpha: k for k, c in enumerate(basis)}
    h = np.zeros((dim, dim), dtype=np.float64)
    for col, config in enumerate(basis):
        word = config.alpha
        for x in range(-L, K):
            p = x + L
            pair = (word[p], word[p + 1])
            if pair[0] == pair[1]:
                continue
            qx = q0 if x >= 0 else 1.0 / q0
            c = 1.0 / (qx + 1.0 / qx)
            swapped = list(word)
            swapped[p], swapped[p + 1] = word[p + 1], word[p]
            row = index[tuple(swapped)]
            if pair == (1, 0):  # local (down, up)
                h[col, col] += c * qx
            else:  # local (up, down)
                h[col, col] += c / qx
            h[row, col] += -c
    return HamiltonianOracle(L=L, K=K, N=N, q0=q0, matrix=h, basis=basis)


def ground_state_vector(oracle: HamiltonianOracle) -> np.ndarray:
    """Component amplitude(config) at q0, in basis order (not normalized)."""
    return np.array([float(oracle.q0) ** amplitude(c).degree() for c in oracle.basis])


def verify_ground_state(oracle: HamiltonianOracle) -> float:
    """Relative residual |H psi| / |psi| of the claimed ground state."""
    psi = ground_state_vector(oracle)
    return float(np.linalg.norm(oracle.matrix @ psi) / np.linalg.norm(psi))
