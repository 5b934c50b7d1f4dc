"""Exact sampling from the path measure w(p)/Z and Monte Carlo estimators.

Step probabilities come from the backward partition table, so a sampled
path is distributed exactly per the measure (up to the one double
conversion at the uniform-draw comparison, bounded by 2^-52 per step and
negligible against Monte Carlo error).  The generator is counter-based
(Philox), so derived streams are provably disjoint.  numpy is imported
inside the functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction

from .correlations import DegenerateEnsemble
from .lattice import H_STEP, LatticePath, Point, V_STEP
from .partition import InternalIdentityFailure, backward_table
from .weights import WeightScheme


# rows drawn per pass of the batch kernel: bounds the uniform block it holds
# and the path list the CLI holds, whatever the number of samples
BLOCK = 4096


class SamplerState:
    """Sampling context for one rectangle ensemble.

    Holds the per-point horizontal-step probabilities by anti-diagonal
    (formed as exact rationals from the backward table, converted to double
    once) and the Philox stream.
    """

    def __init__(self, scheme: WeightScheme, start: Point, end: Point, q0, seed: int):
        import numpy as np

        q0 = Fraction(q0)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed {seed} is out of range; it must lie in [0, 2**128)")
        if not end.dominates(start):
            raise DegenerateEnsemble(f"empty ensemble {start} -> {end}")
        self.start = start
        self.end = end
        self.seed = seed
        backward = backward_table(scheme, start, end, q0)
        values, flow = backward.values, backward.flow
        if values[start] == 0:
            raise DegenerateEnsemble(f"Z{start}->{end} = 0 at q = {q0}")

        # a step's probability is W * Z(next) / Z(here); the encodings' scales
        # cancel in the ratio, so it is formed from the encoded ints directly.
        # The walk reads them by anti-diagonal: after t steps a path with a H
        # steps sits at (a, t - a), whose probability is diag[t, a] (0.0 where
        # t - a falls outside [0, dj], a cell no walk reaches)
        di = end.i - start.i
        dj = end.j - start.j
        diag = np.zeros((di + dj, di + 1), dtype=np.float64)
        for a in range(di + 1):
            for b in range(dj + 1):
                if a == di and b == dj:
                    continue
                i, j = start.i + a, start.j + b
                z_here = values[i, j]
                if z_here == 0:
                    continue  # unreachable at this q; probability never consulted
                h, v = flow(i, j, H_STEP), flow(i, j, V_STEP)
                if h + v != z_here:
                    raise InternalIdentityFailure(
                        f"step probabilities at {Point(i, j)} sum to {Fraction(h + v, z_here)}")
                diag[a + b, a] = h / z_here   # int true division rounds correctly
        self.diag = diag
        self.rng = np.random.Generator(np.random.Philox(key=seed))

    def substream(self, index: int) -> "SamplerState":
        """A sampler over the same ensemble with a disjoint random stream.

        Stream index k jumps the Philox counter k+1 times (2^128 draws per
        jump), so workers never overlap each other or the base stream.
        """
        import numpy as np

        clone = copy.copy(self)
        clone.rng = np.random.Generator(np.random.Philox(key=self.seed).jumped(index + 1))
        return clone


def _walk(state: SamplerState, samples: int, steps: int, out: np.ndarray | None = None):
    """Walk `samples` paths `steps` steps, one block of `BLOCK` rows at a time,
    and yield each block's H counts.

    The only reader of the stream: every row draws a uniform for each of
    the rectangle's steps, walked or not, so a row's uniforms do not depend
    on `steps` or on the blocking.  A row with `a` H steps after `t` steps
    sits at (a, t - a), so its count is all the walk tracks.  The table
    forces the steps on the far edges by itself: its probability is exactly
    0.0 where a = di (h = 0) and exactly 1.0 where b = dj (v = 0, so h = Z),
    and a cell with Z = 0 is entered with probability exactly 0.  With
    `out`, step t of row r is written to out[r, t] (True = H).
    """
    import numpy as np

    total = state.diag.shape[0]
    diag = list(state.diag)
    buffer = np.empty((min(BLOCK, samples), total))   # refilled in place, block by block
    for lo in range(0, samples, BLOCK):
        n = min(BLOCK, samples - lo)
        uniform = state.rng.random(out=buffer[:n])
        a = np.zeros(n, dtype=np.intp)
        for t in range(steps):
            take_h = uniform[:, t] < diag[t][a]
            if out is not None:
                out[lo:lo + n, t] = take_h
            a += take_h
        yield a


def sample_step_matrix(state: SamplerState, samples: int) -> np.ndarray:
    """Batch draw: samples x total_steps boolean matrix, True = H.

    Row r is the step word of the r-th path.  Every step takes one uniform
    and the rows take them in turn, so the stream a path uses does not
    depend on how the draws are batched.  The rows walk the step table by
    anti-diagonal (`state.diag`), tracking only each row's H count.
    """
    if samples < 0:
        raise ValueError(f"sample count {samples} is negative")
    import numpy as np

    total = state.diag.shape[0]
    out = np.empty((samples, total), dtype=bool)
    for _ in _walk(state, samples, total, out):
        pass
    return out


def sample_words(state: SamplerState, samples: int) -> list[str]:
    """Draw `samples` step words ('H'/'V' strings) exactly from w(p)/Z,
    advancing the state's stream; each starts at `state.start`."""
    import numpy as np

    matrix = sample_step_matrix(state, samples)
    total = matrix.shape[1]
    words = np.where(matrix, ord(H_STEP), ord(V_STEP)).astype(np.uint8).tobytes().decode()
    return [words[r * total:(r + 1) * total] for r in range(samples)]


def sample_paths(state: SamplerState, samples: int) -> list[LatticePath]:
    """Draw `samples` paths exactly from w(p)/Z, advancing the state's stream."""
    return [LatticePath(state.start, word) for word in sample_words(state, samples)]


def sample_path(state: SamplerState) -> LatticePath:
    """Draw one path exactly from w(p)/Z, advancing the state's stream."""
    return sample_paths(state, 1)[0]


def estimate_crossing(state: SamplerState, point: Point, samples: int) -> tuple[float, float]:
    """Empirical crossing frequency through `point` with binomial stderr.

    A path crosses `point` when it has taken point.i - start.i H steps after
    `radius` = (point - start).i + (point - start).j steps, so the walk stops
    at the radius, builds no step matrix and counts the hits block by block.
    It takes the same uniforms as `sample_step_matrix(state, samples)`, so
    the stream advances alike; a radius outside [0, total steps] draws
    nothing.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    radius = (point.i - state.start.i) + (point.j - state.start.j)
    hits = 0
    if 0 <= radius <= state.diag.shape[0]:
        target = point.i - state.start.i
        for a in _walk(state, samples, radius):
            hits += int(np.count_nonzero(a == target))
    est = hits / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return est, stderr
