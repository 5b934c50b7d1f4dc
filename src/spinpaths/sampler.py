"""Exact sampling from the path measure w(p)/Z and Monte Carlo estimators.

Step probabilities are exact ratios, from the backward partition table or,
for the interface at q != 0, from its closed form, so a sampled path is
distributed exactly per the measure (up to the one double conversion at the
uniform-draw comparison, 2^-52 per step, negligible against Monte Carlo
error).  Every uniform has an address, (seed, substream, row, step): step t
of row g reads draw (g // BLOCK)·BLOCK·T + t·BLOCK + g % BLOCK, T the step
count, of numpy's PCG64DXSM stream, jumped ≈ 0.618·2^128 draws per jump for a
substream.  So `BLOCK` is part of the stream, and each walk opens the stream
afresh and reaches its draws with `advance`; fixed-seed output changed when
this layout replaced row-major and when PCG64DXSM replaced Philox.
numpy is imported inside the functions that use it, so importing the package
does not load it.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction

from .correlations import DegenerateEnsemble
from .lattice import H_STEP, LatticePath, Point, V_STEP
from .partition import InternalIdentityFailure, backward_table, gaussian_ints
from .weights import InterfaceXXZ, WeightScheme


# rows per chunk of the stream layout and per pass of the walk: bounds the
# uniforms the walk holds and the path list the CLI holds, whatever the number
# of samples.  Part of the stream layout, so it fixes every fixed-seed output
BLOCK = 4096


class SamplerState:
    """Sampling context for one rectangle ensemble.

    Holds the per-point horizontal-step probabilities by anti-diagonal (exact
    rationals from the backward sweep or, for the interface at q0 != 0, the
    closed form, each converted to double once), the stream's address (`seed`
    and `jumps`, 0 for the base stream) and `rows`, the number of rows drawn
    from it.  It holds no generator: `_walk` opens the stream for each call.
    """

    def __init__(self, scheme: WeightScheme, start: Point, end: Point, q0, seed: int):
        import numpy as np

        q0 = Fraction(q0)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed {seed} is out of range; it must lie in [0, 2**128)")
        if not end.dominates(start):
            raise DegenerateEnsemble(f"empty ensemble {start} -> {end}")
        np.random.SeedSequence(seed)   # TypeError for a seed PCG64DXSM refuses, such as 1.5
        self.start = start
        self.end = end
        self.seed = seed
        self.jumps = 0
        self.rows = 0
        # The walk reads the step probabilities by anti-diagonal: after t steps
        # a path with a H steps sits at (a, t - a), whose probability is
        # diag[t, a] (0.0 where t - a falls outside [0, dj], a cell no walk
        # reaches).  Each is an exact ratio of ints; int true division rounds it
        closed = isinstance(scheme, InterfaceXXZ) and q0
        table = None if closed else backward_table(scheme, start, end, q0)
        di, dj = end.i - start.i, end.j - start.j
        diag = np.zeros((di + dj, di + 1), dtype=np.float64)
        if closed:
            # by the closed form, a path with n H and m V steps left takes H with
            # probability (1 - x^n) / (1 - x^(n+m)), x = q0^2: r^(2m) G_n / G_(n+m)
            g = gaussian_ints(q0, di + dj)
            r2k = [q0.denominator ** (2 * k) for k in range(dj + 1)]
            for t, row in enumerate(diag):
                lo, hi, z = max(0, t - dj), min(di, t), g[di + dj - t]
                row[lo:hi + 1] = [r2k[dj - t + a] * g[di - a] / z for a in range(lo, hi + 1)]
        else:
            # W * Z(next) / Z(here) in the encoded ints, whose scales cancel: each
            # row as its diagonal arrives from the end down, from the one before
            above = above_lo = None   # the diagonal one step nearer the end
            for s, lo, cells in table.sweep():
                if above is not None:
                    t = s - start.i - start.j
                    row = diag[t]
                    for i, z_here in enumerate(cells, lo):
                        if z_here == 0:
                            continue  # unreachable at this q; probability never consulted
                        j = s - i
                        h = table.times(t, above[i + 1 - above_lo]) if i < end.i else 0
                        v = above[i - above_lo] if j < end.j else 0
                        if h + v != z_here:
                            raise InternalIdentityFailure(f"step probabilities at {Point(i, j)} "
                                                          f"sum to {Fraction(h + v, z_here)}")
                        row[i - start.i] = h / z_here
                above, above_lo = cells, lo
            if above[0] == 0:   # the last diagonal is the start cell
                raise DegenerateEnsemble.vanishing(start, end, q0)
        self.diag = diag

    def substream(self, index: int) -> "SamplerState":
        """A sampler over the same ensemble with a disjoint random stream.

        Stream index k is the base stream jumped k+1 times (≈ 0.618·2^128
        draws per jump), so workers read far apart from each other and the base.
        The copy shares `diag` and starts at row 0.
        """
        if index < 0:
            raise ValueError(f"substream index {index} is negative")
        clone = copy.copy(self)
        clone.jumps = index + 1
        clone.rows = 0
        return clone


def _walk(state: SamplerState, samples: int, steps: int, out: np.ndarray | None = None):
    """Walk the state's next `samples` rows `steps` steps, one chunk of `BLOCK`
    rows at a time, and yield each chunk's H counts.

    The only holder of a generator: each call opens the state's stream at
    draw 0 and reads it forward only.  Row g reads the uniform of step t at
    its (row, step) address, so its steps depend on neither `steps` nor the
    calls' split, and only walked steps are drawn.  One call's reads rise in
    draw index, step by step and chunk by chunk, so the generator `advance`s
    over the draws between them; a whole chunk's steps lie together, so it
    reads them in one run.
    A row with `a` H steps after `t` steps sits at (a, t - a), so its count
    is all the walk tracks.  The table forces the steps on the far edges by
    itself: its probability is exactly 0.0 where a = di (h = 0) and exactly
    1.0 where b = dj (v = 0, so h = Z), and a cell with Z = 0 is entered with
    probability exactly 0.  With `out`, step t of the walk's r-th row is
    written to out[r, t] (True = H).

    A call holds three one-chunk buffers, refilled in place at every step:
    the uniforms, their table values and the H flags.  A chunk's counts are
    in the narrowest unsigned dtype that holds di (uint8 up to 255), so the
    flags' byte view adds into them without a cast.
    """
    import numpy as np

    bit_generator = np.random.PCG64DXSM(state.seed)
    if state.jumps:
        bit_generator = bit_generator.jumped(state.jumps)
    rng, pos = np.random.Generator(bit_generator), 0   # pos: the draw read next
    total, width = state.diag.shape
    diag = list(state.diag)
    size = min(BLOCK, samples)
    buffer, threshold = np.empty(size), np.empty(size)
    flags = np.empty(size, dtype=bool)
    count = np.min_scalar_type(width - 1)
    first = g = state.rows
    stop = state.rows = first + samples
    while g < stop:
        row = g % BLOCK
        n = min(BLOCK - row, stop - g)
        index = (g - row) * total + row   # the draw of row g's first step
        uniform, p, take_h = buffer[:n], threshold[:n], flags[:n]
        ones = take_h.view(np.uint8)   # True reads as 1
        a = np.zeros(n, dtype=count)
        for t in range(steps):
            at = index + t * BLOCK
            if at > pos:
                bit_generator.advance(at - pos)
            rng.random(out=uniform)
            pos = at + n
            # 0 <= a <= di always, so clipping never acts; mode "raise" would
            # copy into a fresh buffer
            diag[t].take(a, out=p, mode="clip")
            np.less(uniform, p, out=take_h)
            if out is not None:
                out[g - first:g - first + n, t] = take_h
            a += ones
        yield a
        g += n


def sample_step_matrix(state: SamplerState, samples: int) -> np.ndarray:
    """Batch draw: samples x total_steps boolean matrix, True = H.

    Row r is the step word of the state's next path.  Each step of a row
    reads the uniform its (row, step) address gives, so the paths do not
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
    advancing the state's stream; each starts at `state.start`.

    The step matrix becomes one 4-byte character code per step, so each row
    reads as one numpy `U{T}` string and a single `tolist` builds every word.
    """
    import numpy as np

    matrix = sample_step_matrix(state, samples)
    total = matrix.shape[1]
    if not total:
        return [""] * samples
    codes = matrix.astype(np.int32)
    codes *= ord(H_STEP) - ord(V_STEP)
    codes += ord(V_STEP)
    return codes.view(f"U{total}").ravel().tolist()


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
    at the radius, builds no step matrix and counts the hits chunk by chunk.
    Its rows are those `sample_step_matrix(state, samples)` would draw, cut at
    the radius: it draws samples x radius uniforms and advances `state.rows`
    by `samples`, so the draws after it are alike too.  A radius outside
    [0, total steps] draws nothing and leaves `state.rows` as it was.
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
