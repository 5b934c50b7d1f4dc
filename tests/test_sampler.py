"""Exact path sampling and Monte Carlo estimators against the exact layer."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from spinpaths import (CorrelationQuery, DegenerateEnsemble,
                       InterfaceXXZ, PinnedRep1, PinnedRep2, Point,
                       SamplerState, backward_table, crossing_probability, enumerate_paths,
                       estimate_crossing, partition_dp, sample_path,
                       sample_paths, sample_step_matrix)
from spinpaths.sampler import BLOCK, sample_words
from sweep_reference import fixed_q_values, reference_words

ORIGIN = Point(0, 0)
HALF = Fraction(1, 2)


def make_state(end=Point(1, 1), scheme=None, seed=11, q0=HALF):
    return SamplerState(scheme or InterfaceXXZ(), ORIGIN, end, q0, seed)


def layout_uniforms(seed, first, samples, total, substream=None):
    """uniforms[r, t] for step t of row g = first + r, read from a fresh
    PCG64DXSM stream (jumped k + 1 times for substream k) at the draw
    (g // BLOCK)·BLOCK·total + t·BLOCK + g % BLOCK."""
    g = np.arange(first, first + samples)[:, None]
    index = (g // BLOCK) * BLOCK * total + np.arange(total) * BLOCK + g % BLOCK
    bit_generator = np.random.PCG64DXSM(seed)
    if substream is not None:
        bit_generator = bit_generator.jumped(substream + 1)
    return np.random.Generator(bit_generator).random(int(index.max(initial=-1)) + 1)[index]


def masked_step_matrix(state, samples, first=0):
    """The batch kernel with explicit boundary masks over (a, b) coordinates,
    reading rows first .. first + samples - 1 by their (row, step) address:
    the slow reference for `sample_step_matrix`."""
    di = state.end.i - state.start.i
    dj = state.end.j - state.start.j
    uniform = layout_uniforms(state.seed, first, samples, di + dj)
    out = np.empty((samples, di + dj), dtype=bool)
    ai = np.zeros(samples, dtype=np.intp)
    bj = np.zeros(samples, dtype=np.intp)
    for t in range(di + dj):
        take_h = uniform[:, t] < state.diag[ai + bj, ai]
        take_h[ai == di] = False
        take_h[bj == dj] = True
        out[:, t] = take_h
        ai += take_h
        bj += ~take_h
    return out


def assert_kernels_agree(scheme, start, end, q0, seed, samples):
    state = SamplerState(scheme, start, end, q0, seed)
    assert np.array_equal(sample_step_matrix(state, samples), masked_step_matrix(state, samples))
    # the streams stay in step afterwards
    assert np.array_equal(sample_step_matrix(state, 3), masked_step_matrix(state, 3, samples))


def draw_ensemble(data):
    """A random rectangle, scheme and q0 whose partition values are positive."""
    start = Point(data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
    end = start.translate(data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5)))
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        scheme = InterfaceXXZ()
    elif kind == "rep1":
        # every bond head inside rep1's domain, radius K+L+1
        K = data.draw(st.integers(0, 3))
        scheme = PinnedRep1(K=K, L=max(0, end.i + end.j - K - 1))
    else:
        scheme = PinnedRep2()
    q0 = Fraction(data.draw(st.integers(1, 12)), 13)
    return scheme, start, end, q0


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flat_kernel_matches_masked_reference(data):
    assert_kernels_agree(*draw_ensemble(data), data.draw(st.integers(0, 2**64)),
                         data.draw(st.integers(0, 300)))


def test_flat_kernel_matches_masked_reference_over_blocks():
    assert_kernels_agree(InterfaceXXZ(), ORIGIN, Point(3, 4), Fraction(7, 13), 3, BLOCK + 5)


@pytest.mark.parametrize("di", [255, 256, 300])
def test_flat_kernel_matches_masked_reference_past_a_byte(di):
    # the walk counts H steps in uint8 while di <= 255 and in a wider dtype
    # beyond; a count that wrapped past 255 would misread the table by 300
    assert_kernels_agree(InterfaceXXZ(), ORIGIN, Point(di, 3), Fraction(1), 5, 40)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 2**64),
       st.lists(st.one_of(st.integers(0, 40), st.sampled_from([BLOCK - 3, BLOCK + 2])),
                min_size=1, max_size=3))
@example(0, 0, 1, [2, BLOCK + 1])        # start == end: every word is empty
@example(3, 4, 5, [BLOCK - 3, 7])        # the second call crosses a chunk boundary
def test_words_match_the_slicing_reference(di, dj, seed, counts):
    end = Point(di, min(dj, 9 - di))
    fast, slow = make_state(end=end, seed=seed), make_state(end=end, seed=seed)
    for n in counts:
        words = sample_words(fast, n)
        assert words == reference_words(slow, n)
        assert all(type(word) is str for word in words)


@pytest.mark.parametrize("seed, substream, drawn, count, g, t", [
    (3, None, 0, 1, 0, 0),                         # a single row
    (3, None, 0, BLOCK, 2, 6),                     # a whole chunk, its last step
    (5, 0, 10, 5, 13, 3),                          # a part of a chunk, after a call that read further
    (5, 2, BLOCK - 3, 6, BLOCK + 1, 4),            # a call across a chunk boundary
    (8, None, BLOCK, BLOCK, BLOCK + 7, 2),         # the whole second chunk
    (8, 1, 2 * BLOCK + 1, 1, 2 * BLOCK + 1, 5),    # a single row in the third chunk
])
def test_walk_reads_the_layout_address(seed, substream, drawn, count, g, t):
    """Step t of row g reads the uniform at its (row, step) address."""
    u = layout_uniforms(seed, g, 1, 14, substream)[0, t]
    # step t is H exactly when its uniform lies below the table's value, so a
    # table row of u gives V and one of the next double above u gives H, and
    # no other uniform gives both.  On the 7x7 square no walk meets an edge
    # before step 7, so any value may stand in the rows before it
    for threshold, take_h in ((u, False), (np.nextafter(u, 1.0), True)):
        state = make_state(end=Point(7, 7), seed=seed)
        if substream is not None:
            state = state.substream(substream)
        state.diag = state.diag.copy()
        state.diag[t] = threshold
        sample_step_matrix(state, drawn)
        assert sample_step_matrix(state, count)[g - drawn, t] == take_h


class TestSamplePath:
    def test_two_path_square(self):
        state = make_state(seed=101)
        counts = {"HV": 0, "VH": 0}
        n = 40000
        for _ in range(n):
            counts[sample_path(state).steps] += 1
        # exact P(HV) = 4/5; binomial 4 sigma band
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(counts["HV"] / n - 0.8) <= 4 * sigma

    def test_deterministic_rectangle(self):
        state = make_state(end=Point(0, 4))
        assert sample_path(state).steps == "VVVV"

    def test_seed_determinism(self):
        a = make_state(end=Point(3, 3), seed=99)
        b = make_state(end=Point(3, 3), seed=99)
        assert [sample_path(a).steps for _ in range(50)] == \
            [sample_path(b).steps for _ in range(50)]

    def test_degenerate_ensemble(self):
        with pytest.raises(DegenerateEnsemble):
            make_state(end=Point(-1, 2))

    def test_batch_matches_stream_determinism(self):
        a = make_state(end=Point(2, 2), seed=5)
        b = make_state(end=Point(2, 2), seed=5)
        assert [p.steps for p in sample_paths(a, 20)] == \
            [p.steps for p in sample_paths(b, 20)]

    def test_single_draws_are_the_batch_rows(self):
        a = make_state(end=Point(3, 2), seed=5)
        b = make_state(end=Point(3, 2), seed=5)
        assert [sample_path(a) for _ in range(25)] == sample_paths(b, 25)
        # and the streams stay in step afterwards
        assert sample_paths(a, 7) == [sample_path(b) for _ in range(7)]

    def test_substreams_are_disjoint(self):
        base = make_state(end=Point(3, 3), seed=7)
        others = [base.substream(k) for k in range(4)]
        assert all(other.diag is base.diag for other in others)
        seqs = [[sample_path(state).steps for _ in range(30)] for state in [base, *others]]
        assert all(a != b for a, b in itertools.combinations(seqs, 2))

    @pytest.mark.parametrize("index", [-1, -2])
    def test_negative_substream(self, index):
        # -1 would jump 0 times and hand back the base stream itself
        with pytest.raises(ValueError, match=f"substream index {index} "):
            make_state().substream(index)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} "):
            make_state(seed=seed)

    @pytest.mark.parametrize("seed", [1.5, Fraction(3)])
    def test_seed_the_generator_refuses(self, seed):
        # refused at construction, as PCG64DXSM itself would refuse it at the first walk
        with pytest.raises(TypeError):
            make_state(seed=seed)

    def test_negative_sample_count(self):
        with pytest.raises(ValueError, match="-3"):
            sample_step_matrix(make_state(), -3)


class TestWholePathDistribution:
    def test_chi_square_small_rectangles(self):
        # every rectangle with at most 20 paths: per-path 4 sigma plus chi-square
        for end in (Point(2, 2), Point(3, 2)):
            paths = enumerate_paths(ORIGIN, end)
            assert len(paths) <= 20
            z = partition_dp(InterfaceXXZ(), ORIGIN, end).evaluate(HALF)
            probs = {p.steps: float(InterfaceXXZ().path_weight(p).evaluate(HALF) / z)
                     for p in paths}
            state = make_state(end=end, seed=1)
            n = 100000
            words = ["".join("H" if h else "V" for h in row)
                     for row in sample_step_matrix(state, n)]
            counts = {}
            for w in words:
                counts[w] = counts.get(w, 0) + 1
            observed, expected = [], []
            for steps, prob in probs.items():
                c = counts.get(steps, 0)
                sigma = math.sqrt(n * prob * (1 - prob))
                assert abs(c - n * prob) <= 4 * sigma, (end, steps)
                observed.append(c)
                expected.append(n * prob)
            assert sum(counts.values()) == n
            _, pvalue = stats.chisquare(observed, expected)
            assert pvalue > 1e-3


def reference_crossing(state, point, samples):
    """The estimator summing the whole step matrix up to the radius: the slow
    reference for `estimate_crossing`."""
    radius = (point.i - state.start.i) + (point.j - state.start.j)
    total = (state.end.i - state.start.i) + (state.end.j - state.start.j)
    hits = 0
    if 0 <= radius <= total:
        h_at_radius = sample_step_matrix(state, samples)[:, :radius].sum(axis=1)
        hits = int(np.count_nonzero(h_at_radius == point.i - state.start.i))
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)


def assert_estimates_agree(scheme, start, end, q0, seed, point, samples):
    fast = SamplerState(scheme, start, end, q0, seed)
    slow = SamplerState(scheme, start, end, q0, seed)
    assert estimate_crossing(fast, point, samples) == reference_crossing(slow, point, samples)
    # the streams stay in step afterwards
    assert np.array_equal(sample_step_matrix(fast, 3), sample_step_matrix(slow, 3))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_estimate_matches_step_matrix_reference(data):
    scheme, start, end, q0 = draw_ensemble(data)
    # points inside, beside and beyond the rectangle, so radii fall on both
    # sides of [0, total] too
    point = Point(data.draw(st.integers(start.i - 2, end.i + 2)),
                  data.draw(st.integers(start.j - 2, end.j + 2)))
    assert_estimates_agree(scheme, start, end, q0, data.draw(st.integers(0, 2**64)), point,
                           data.draw(st.integers(1, 300)))


def test_estimate_matches_step_matrix_reference_over_blocks():
    assert_estimates_agree(InterfaceXXZ(), ORIGIN, Point(3, 4), Fraction(7, 13), 3,
                           Point(2, 1), 2 * BLOCK + 5)


def test_estimate_counts_past_a_byte():
    # a target of 270 H steps needs counts wider than uint8; about 3 rows in 10 hit it
    end, point = Point(300, 20), Point(270, 18)
    assert_estimates_agree(InterfaceXXZ(), ORIGIN, end, Fraction(1), 1, point, 2000)
    assert 0.2 < estimate_crossing(make_state(end=end, seed=1, q0=Fraction(1)), point, 2000)[0] < 0.4


class CountingGenerator:
    """Passes every call on to a generator, counting the uniforms drawn into
    its counter."""

    def __init__(self, rng, counter):
        self.rng = rng
        self.counter = counter

    def random(self, *args, **kwargs):
        values = self.rng.random(*args, **kwargs)
        self.counter.drawn += values.size
        return values

    def __getattr__(self, name):
        return getattr(self.rng, name)


class DrawCounter:
    """Stands in for `np.random.Generator`: builds the real generator in a
    `CountingGenerator`, so `drawn` counts the uniforms every walk reads."""

    def __init__(self, generator):
        self.generator = generator
        self.drawn = 0

    def __call__(self, bit_generator):
        return CountingGenerator(self.generator(bit_generator), self)


def test_estimate_draws_only_what_it_reads(monkeypatch):
    # T = 7; the estimates start 3 rows short of a chunk boundary and cross it
    state = make_state(end=Point(3, 4), seed=2)
    sample_step_matrix(state, BLOCK - 3)
    counting = DrawCounter(np.random.Generator)
    monkeypatch.setattr(np.random, "Generator", counting)
    samples = BLOCK + 10
    for point, radius in ((Point(2, 1), 3), (ORIGIN, 0), (Point(5, 5), None), (Point(3, 4), 7),
                          (Point(4, -1), 3), (Point(-1, 0), None), (Point(0, 1), 1)):
        rows, drawn = state.rows, counting.drawn
        estimate_crossing(state, point, samples)
        if radius is None:   # outside [0, T]: nothing drawn, no row taken
            assert (state.rows, counting.drawn) == (rows, drawn), point
        else:
            assert (state.rows, counting.drawn) == (rows + samples, drawn + samples * radius), point


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_split_into_calls_gives_the_same_rows(data):
    end, total = Point(3, 4), 7
    seed = data.draw(st.integers(0, 2**64))
    n = data.draw(st.integers(0, 2 * BLOCK + 5))
    whole = make_state(end=end, seed=seed)
    rows = sample_step_matrix(whole, n)
    following = sample_step_matrix(whole, 3)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    split = make_state(end=end, seed=seed)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if data.draw(st.booleans()):   # an estimate outside [0, T] takes no rows
            assert estimate_crossing(split, Point(total, 1), 5) == (0.0, 0.0)
        if hi == lo or data.draw(st.booleans()):
            assert np.array_equal(sample_step_matrix(split, hi - lo), rows[lo:hi])
        else:
            radius = data.draw(st.integers(0, total))
            i = data.draw(st.integers(-1, radius + 1))
            h_at_radius = rows[lo:hi, :radius].sum(axis=1)
            est, _ = estimate_crossing(split, Point(i, radius - i), hi - lo)
            assert est == np.count_nonzero(h_at_radius == i) / (hi - lo)
    assert np.array_equal(sample_step_matrix(split, 3), following)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_calls_interleaved_across_streams_give_each_stream_its_rows(data):
    # the base stream (None) and substreams 0-2, each drawn in one call and in
    # a random split into calls, the calls of all four in a random order; each
    # substream is taken from the split base when its first call comes
    end, keys = Point(3, 4), [None, 0, 1, 2]
    seed = data.draw(st.integers(0, 2**64))
    whole = make_state(end=end, seed=seed)
    rows, sizes = {}, {}
    for key in keys:
        n = data.draw(st.integers(0, 2 * BLOCK + 5))
        rows[key] = sample_step_matrix(whole if key is None else whole.substream(key), n)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        sizes[key] = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
    order = data.draw(st.permutations([key for key in keys for _ in sizes[key]]))
    base = make_state(end=end, seed=seed)
    split, got = {None: base}, {key: [] for key in keys}
    for key in order:
        if key not in split:
            split[key] = base.substream(key)
        got[key].append(sample_step_matrix(split[key], sizes[key].pop(0)))
    for key in keys:
        assert np.array_equal(np.concatenate(got[key]), rows[key]), key


def full_table_diag(scheme, start, end, q0):
    """The step table built the way it was when the sampler held the whole
    backward table: every cell, then each bond's weight times its head."""
    table = backward_table(scheme, start, end, q0)
    cells = table.values
    di, dj = end.i - start.i, end.j - start.j
    diag = np.zeros((di + dj, di + 1))
    for a in range(di + 1):
        for b in range(dj + 1):
            i, j = start.i + a, start.j + b
            z = cells[i, j]
            if (a, b) != (di, dj) and z:
                h = table.times(a + b, cells[i + 1, j]) if a < di else 0
                v = cells[i, j + 1] if b < dj else 0
                assert h + v == z
                diag[a + b, a] = h / z
    return diag


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_streamed_step_table_matches_the_full_table(data):
    start = Point(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    end = start.translate(data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7)))
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        scheme = InterfaceXXZ()
    elif kind == "rep1":
        K = data.draw(st.integers(0, 5))
        scheme = PinnedRep1(K=K, L=max(0, end.i + end.j - K - 1))
    else:
        scheme = PinnedRep2()
    q0 = data.draw(fixed_q_values)
    state = SamplerState(scheme, start, end, q0, 0)
    np.testing.assert_array_equal(state.diag, full_table_diag(scheme, start, end, q0))


@pytest.mark.parametrize("scheme, start, end, q0, digest", [
    (PinnedRep2(), Point(-10, -10), Point(10, 10), Fraction(4, 5),
     "1c9e07e2dbcf995f709dbc0571078a6196528c3bab2dc51f9053fa89b9391219"),
    (InterfaceXXZ(), ORIGIN, Point(40, 40), HALF,
     "7e474197cd802b7333baaf4d7eb4bde4610188977f653a1342e4684f088f8b7c"),
], ids=["rep2-20x20", "interface-40x40"])
def test_step_table_bytes_are_pinned(scheme, start, end, q0, digest):
    # the exact layer under the stream: neither the generator nor the seed
    # enters the step table, so its doubles stay these whatever draws from it
    for seed in (0, 2**128 - 1):
        diag = SamplerState(scheme, start, end, q0, seed).diag
        assert hashlib.sha256(diag.tobytes()).hexdigest() == digest


def test_step_table_holds_two_diagonals():
    # tracemalloc peak; the sampler that held the whole backward table took 13 MiB
    tracemalloc.start()
    try:
        SamplerState(InterfaceXXZ(), ORIGIN, Point(100, 100), HALF, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_estimate_memory_stays_within_a_block():
    state = make_state(end=Point(8, 8), seed=3)
    tracemalloc.start()
    try:
        estimate_crossing(state, Point(4, 4), 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestEstimateCrossing:
    def test_through_start(self):
        est, stderr = estimate_crossing(make_state(end=Point(2, 2)), ORIGIN, 100)
        assert est == 1.0 and stderr == 0.0

    def test_outside_rectangle(self):
        est, stderr = estimate_crossing(make_state(end=Point(2, 2)), Point(5, 5), 100)
        assert est == 0.0 and stderr == 0.0

    def test_matches_exact_crossing(self):
        end = Point(2, 3)
        scheme = PinnedRep1(K=2, L=2)
        state = SamplerState(scheme, ORIGIN, end, HALF, seed=31415)
        for idx, point in enumerate(Point(i, j) for i in range(3) for j in range(4)):
            exact = float(crossing_probability(
                CorrelationQuery(scheme, ORIGIN, end, (point,)), HALF))
            est, stderr = estimate_crossing(state.substream(idx), point, 100000)
            if stderr == 0.0:
                assert est == exact
            else:
                assert abs(est - exact) <= 3 * stderr, (point, est, exact)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            estimate_crossing(make_state(), Point(1, 0), 0)


def test_step_probabilities_are_exact_before_float():
    # construction checks that the exact rational step probabilities sum to 1;
    # reaching here means every interior point passed that check
    state = make_state(end=Point(3, 2), scheme=PinnedRep1(K=3, L=2))
    # the walk's table holds them by anti-diagonal: diag[a + b, a] for (a, b)
    assert state.diag.shape == (5, 4)
    assert 0.0 <= state.diag.min() and state.diag.max() <= 1.0
    for t in range(5):
        for a in range(4):
            b = t - a
            if not 0 <= b <= 2:
                assert state.diag[t, a] == 0.0   # a cell no walk reaches
            elif a == 3:
                assert state.diag[t, a] == 0.0   # the far vertical edge
            elif b == 2:
                assert state.diag[t, a] == 1.0   # the far horizontal edge
