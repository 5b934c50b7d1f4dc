"""Exact sampling from the path measure w(p)/Z and Monte Carlo estimators.

Step probabilities come from the backward partition table, so a sampled
path is distributed exactly per the measure (up to the one double
conversion at the uniform-draw comparison, bounded by 2^-52 per step and
negligible against Monte Carlo error).  The generator is counter-based
(Philox), so derived streams are provably disjoint.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction

import numpy as np

from .correlations import DegenerateEnsemble
from .lattice import H_STEP, LatticePath, Point, V_STEP
from .partition import InternalIdentityFailure, backward_table, evaluated_weight
from .weights import WeightScheme


# rows drawn per pass of the batch kernel: bounds the uniform block it holds
# and the path list the CLI holds, whatever the number of samples
BLOCK = 4096


class SamplerState:
    """Sampling context for one rectangle ensemble.

    Holds the per-point horizontal-step probabilities (formed as exact
    rationals from the backward table, converted to double once) and the
    Philox stream.
    """

    def __init__(self, scheme: WeightScheme, start: Point, end: Point, q0, seed: int):
        q0 = Fraction(q0)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed {seed} is out of range; it must lie in [0, 2**128)")
        if not end.dominates(start):
            raise DegenerateEnsemble(f"empty ensemble {start} -> {end}")
        self.scheme = scheme
        self.start = start
        self.end = end
        self.q0 = q0
        self.seed = seed
        backward = backward_table(scheme, start, end, q0)
        if backward[start] == 0:
            raise DegenerateEnsemble(f"Z{start}->{end} = 0 at q = {q0}")
        weight = evaluated_weight(scheme, q0)

        di = end.i - start.i
        dj = end.j - start.j
        prob_h = np.zeros((di + 1, dj + 1), dtype=np.float64)
        for a in range(di + 1):
            for b in range(dj + 1):
                if a == di and b == dj:
                    continue
                i, j = start.i + a, start.j + b
                z_here = backward[i, j]
                if z_here == 0:
                    continue  # unreachable at this q; probability never consulted
                p_h = Fraction(0)
                p_v = Fraction(0)
                if a < di:
                    p_h = weight(i, j, H_STEP) * backward[i + 1, j] / z_here
                if b < dj:
                    p_v = weight(i, j, V_STEP) * backward[i, j + 1] / z_here
                if p_h + p_v != 1:
                    raise InternalIdentityFailure(
                        f"step probabilities at {Point(i, j)} sum to {p_h + p_v}")
                prob_h[a, b] = float(p_h)
        self.prob_h = prob_h
        self.rng = np.random.Generator(np.random.Philox(key=seed))

    def substream(self, index: int) -> "SamplerState":
        """A sampler over the same ensemble with a disjoint random stream.

        Stream index k jumps the Philox counter k+1 times (2^128 draws per
        jump), so workers never overlap each other or the base stream.
        """
        clone = copy.copy(self)
        clone.rng = np.random.Generator(np.random.Philox(key=self.seed).jumped(index + 1))
        return clone


def sample_step_matrix(state: SamplerState, samples: int) -> np.ndarray:
    """Batch draw: samples x total_steps boolean matrix, True = H.

    Row r is the step word of the r-th path.  Every step takes one uniform
    and the rows take them in turn, so the stream a path uses does not
    depend on how the draws are batched.
    """
    if samples < 0:
        raise ValueError(f"sample count {samples} is negative")
    di = state.end.i - state.start.i
    dj = state.end.j - state.start.j
    out = np.empty((samples, di + dj), dtype=bool)
    for lo in range(0, samples, BLOCK):
        block = out[lo:lo + BLOCK]
        uniform = state.rng.random(block.shape)
        ai = np.zeros(len(block), dtype=np.intp)
        bj = np.zeros(len(block), dtype=np.intp)
        for t in range(di + dj):
            take_h = uniform[:, t] < state.prob_h[ai, bj]
            # exhausted coordinates force the other step
            take_h[ai == di] = False
            take_h[bj == dj] = True
            block[:, t] = take_h
            ai += take_h
            bj += ~take_h
    return out


def sample_paths(state: SamplerState, samples: int) -> list[LatticePath]:
    """Draw `samples` paths exactly from w(p)/Z, advancing the state's stream."""
    matrix = sample_step_matrix(state, samples)
    total = matrix.shape[1]
    words = np.where(matrix, ord(H_STEP), ord(V_STEP)).astype(np.uint8).tobytes().decode()
    return [LatticePath(state.start, words[r * total:(r + 1) * total]) for r in range(samples)]


def sample_path(state: SamplerState) -> LatticePath:
    """Draw one path exactly from w(p)/Z, advancing the state's stream."""
    return sample_paths(state, 1)[0]


def estimate_crossing(state: SamplerState, point: Point, samples: int) -> tuple[float, float]:
    """Empirical crossing frequency through `point` with binomial stderr."""
    if samples < 1:
        raise ValueError("need at least one sample")
    radius = (point.i - state.start.i) + (point.j - state.start.j)
    total = (state.end.i - state.start.i) + (state.end.j - state.start.j)
    if radius < 0 or radius > total:
        hits = 0
    else:
        matrix = sample_step_matrix(state, samples)
        h_at_radius = matrix[:, :radius].sum(axis=1)
        hits = int(np.count_nonzero(h_at_radius == point.i - state.start.i))
    est = hits / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return est, stderr
