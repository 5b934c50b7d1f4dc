"""Crossing probabilities, Markov factorization, and magnetization profiles."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinpaths import (CorrelationQuery, DegenerateEnsemble,
                       InterfaceXXZ, LaurentPoly, PinnedInstance, PinnedRep1,
                       PinnedRep2, Point, SamplerState, amplitude,
                       backward_table, conditioned_partition,
                       crossing_probability, enumerate_paths, forward_table,
                       magnetization_profile, partition_dp,
                       pinning_distribution, sector_configs, sphere)
from spinpaths.partition import rep1_tables
from spinpaths import partition
from spinpaths.lattice import H_STEP
from sweep_reference import reference_tables

ORIGIN = Point(0, 0)
HALF = Fraction(1, 2)


def query(scheme, end, *waypoints, start=ORIGIN):
    return CorrelationQuery(scheme, start, end, tuple(waypoints))


class TestConditionedPartition:
    def test_single_waypoint(self):
        value = conditioned_partition(query(InterfaceXXZ(), Point(1, 1), Point(1, 0)))
        assert value == LaurentPoly({2: 1})

    def test_no_waypoints_gives_full_partition(self):
        q = query(PinnedRep2(), Point(2, 2))
        assert conditioned_partition(q) == partition_dp(PinnedRep2(), ORIGIN, Point(2, 2))

    def test_waypoint_at_start(self):
        q = query(InterfaceXXZ(), Point(2, 1), ORIGIN)
        assert conditioned_partition(q) == partition_dp(InterfaceXXZ(), ORIGIN, Point(2, 1))

    def test_outside_rectangle_is_zero(self):
        assert not conditioned_partition(query(InterfaceXXZ(), Point(1, 1), Point(2, 0)))

    def test_matches_filtered_enumeration(self):
        # Markov factorization against the direct filtered sum
        end = Point(3, 3)
        paths = enumerate_paths(ORIGIN, end)
        for scheme in (InterfaceXXZ(), PinnedRep1(K=3, L=2), PinnedRep2()):
            for w1 in [Point(1, 1), Point(2, 0), Point(0, 3)]:
                brute = LaurentPoly.zero()
                for p in paths:
                    if p.passes_through(w1):
                        brute = brute + scheme.path_weight(p)
                assert conditioned_partition(query(scheme, end, w1)) == brute
            # two ordered waypoints
            brute = LaurentPoly.zero()
            for p in paths:
                if p.passes_through(Point(1, 0)) and p.passes_through(Point(2, 2)):
                    brute = brute + scheme.path_weight(p)
            assert conditioned_partition(
                query(scheme, end, Point(1, 0), Point(2, 2))) == brute


class TestCrossingProbability:
    def test_spec_value(self):
        p = crossing_probability(query(InterfaceXXZ(), Point(1, 1), Point(1, 0)), HALF)
        assert p == Fraction(4, 5)

    def test_through_start_is_one(self):
        assert crossing_probability(query(InterfaceXXZ(), Point(2, 2), ORIGIN), HALF) == 1

    def test_outside_rectangle_is_zero(self):
        assert crossing_probability(query(InterfaceXXZ(), Point(1, 1), Point(2, 0)), HALF) == 0

    def test_degenerate_ensemble(self):
        with pytest.raises(DegenerateEnsemble):
            crossing_probability(query(InterfaceXXZ(), Point(-1, 0)), HALF)

    def test_total_probability_over_spheres(self):
        end = Point(3, 2)
        for scheme in (InterfaceXXZ(), PinnedRep1(K=2, L=2), PinnedRep2()):
            for radius in range(6):
                total = Fraction(0)
                for pt in sphere(ORIGIN, radius):
                    if pt.i <= end.i and pt.j <= end.j:
                        total += crossing_probability(query(scheme, end, pt), HALF)
                assert total == 1, (scheme.name, radius)

    def test_bounds(self):
        end = Point(3, 3)
        for i in range(4):
            for j in range(4):
                p = crossing_probability(query(InterfaceXXZ(), end, Point(i, j)),
                                         Fraction(3, 10))
                assert 0 <= p <= 1

    def test_monotone_coupling_bound(self):
        # conditioning on two waypoints can only cut probability
        end = Point(3, 3)
        w1, w2 = Point(1, 1), Point(2, 2)
        both = crossing_probability(query(InterfaceXXZ(), end, w1, w2), HALF)
        assert both <= crossing_probability(query(InterfaceXXZ(), end, w1), HALF)
        assert both <= crossing_probability(query(InterfaceXXZ(), end, w2), HALF)


def spin_profile_oracle(inst, q0):
    """Ground-state per-site down probability by brute force over configurations."""
    norm = Fraction(0)
    site_mass = {x: Fraction(0) for x in range(-inst.L, inst.K + 1)}
    for config in sector_configs(inst.L, inst.K, inst.N):
        w = amplitude(config).evaluate(q0) ** 2
        norm += w
        for x in range(-inst.L, inst.K + 1):
            if config.at(x):
                site_mass[x] += w
    return [(x, site_mass[x] / norm) for x in range(-inst.L, inst.K + 1)]


class TestMagnetizationProfile:
    def test_spec_values(self):
        profile = magnetization_profile(PinnedInstance(K=1, L=1, N=1), HALF)
        assert profile == [(-1, Fraction(1, 6)), (0, Fraction(2, 3)), (1, Fraction(1, 6))]

    def test_sums_to_down_count(self):
        for K, L, N in ((2, 1, 2), (1, 3, 3), (2, 2, 4), (0, 2, 1)):
            profile = magnetization_profile(PinnedInstance(K=K, L=L, N=N), Fraction(2, 5))
            assert sum(p for _, p in profile) == N

    def test_symmetric_instance(self):
        profile = dict(magnetization_profile(PinnedInstance(K=2, L=2, N=2), HALF))
        for x in range(-2, 3):
            assert profile[x] == profile[-x]

    def test_matches_spin_oracle(self):
        for K in range(4):
            for L in range(4):
                for N in range(K + L + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    for q0 in (Fraction(3, 10), HALF):
                        assert magnetization_profile(inst, q0) == \
                            spin_profile_oracle(inst, q0), (K, L, N, q0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            magnetization_profile(PinnedInstance(K=1, L=1, N=1), Fraction(3, 2))


@pytest.mark.parametrize("observable", [magnetization_profile, pinning_distribution])
def test_pinned_observables_sweep_two_tables(observable, monkeypatch):
    # the forward and backward rep1 tables, whatever the instance
    calls = []
    real = partition._sweep

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partition, "_sweep", counted)
    for inst in (PinnedInstance(K=3, L=2, N=3), PinnedInstance(K=4, L=4, N=5)):
        calls.clear()
        observable(inst, HALF)
        assert len(calls) == 2, inst


def test_rep1_tables_encode_once(monkeypatch):
    # both tables read one encoding of the same rectangle
    calls = []
    real = partition._encoding

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partition, "_encoding", counted)
    fwd, bwd = rep1_tables(PinnedInstance(K=3, L=2, N=3), HALF)
    assert len(calls) == 1
    end = Point(3, 3)
    scheme = PinnedRep1(K=3, L=2)
    assert fwd.values == forward_table(scheme, ORIGIN, end, HALF).values
    assert bwd.values == backward_table(scheme, ORIGIN, end, HALF).values


def full_table_pinning(inst, q0):
    """pinning_distribution as it was read from both whole rep1 tables."""
    fwd, bwd = rep1_tables(inst, q0)
    f, b = fwd.values, bwd.values
    return [(n, Fraction(f[n, inst.K - n] * b[n, inst.K - n], f[inst.N, inst.M]))
            for n in range(max(0, inst.K - inst.M), min(inst.K, inst.N) + 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data(),
       st.builds(Fraction, st.integers(1, 12), st.integers(13, 24)))
def test_pinning_matches_the_full_tables(K, L, data, q0):
    inst = PinnedInstance(K=K, L=L, N=data.draw(st.integers(0, K + L + 1)))
    assert pinning_distribution(inst, q0) == full_table_pinning(inst, q0)


def full_table_profile(inst, q0):
    """magnetization_profile as it was read from both whole rep1 tables: per
    site, the sum over the horizontal bonds onto its sphere of forward cell
    at the tail times the bond's weight times backward cell at the head."""
    fwd, bwd = rep1_tables(inst, q0)
    f, b = fwd.values, bwd.values
    profile = []
    for x in range(-inst.L, inst.K + 1):
        s = x if x > 0 else x + inst.sites
        acc = sum(f[i, s - 1 - i] * bwd.times(s - 1, b[i + 1, s - 1 - i])
                  for i in range(max(0, s - 1 - inst.M), min(inst.N - 1, s - 1) + 1))
        profile.append((x, Fraction(acc, f[inst.N, inst.M])))
    return profile


rationals_in_unit_interval = st.integers(2, 40).flatmap(
    lambda r: st.builds(Fraction, st.integers(1, r - 1), st.just(r)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data(), rationals_in_unit_interval)
def test_profile_matches_the_full_tables(K, L, data, q0):
    inst = PinnedInstance(K=K, L=L, N=data.draw(st.integers(0, K + L + 1)))
    assert magnetization_profile(inst, q0) == full_table_profile(inst, q0)


def test_profile_holds_one_table_of_lists():
    # tracemalloc peak; the profile that read both whole tables by point took 3.6 MiB
    tracemalloc.start()
    try:
        magnetization_profile(PinnedInstance(K=60, L=60, N=60), HALF)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_pinning_sweeps_one_rectangle_and_the_sphere(monkeypatch):
    # the two sweeps meet on the sphere of radius K, and each stops there
    swept = []
    real = partition._sweep

    def counted(*args):
        for s, lo, cells in real(*args):
            swept.append(len(cells))
            yield s, lo, cells

    monkeypatch.setattr(partition, "_sweep", counted)
    for K, L, N in ((0, 0, 1), (3, 2, 3), (4, 6, 2), (6, 1, 8)):
        inst = PinnedInstance(K=K, L=L, N=N)
        swept.clear()
        pinning_distribution(inst, HALF)
        sphere_cells = min(K, N) - max(0, K - inst.M) + 1
        assert sum(swept) == (N + 1) * (inst.M + 1) + sphere_cells


# -- fixed-q consumers against polynomial tables evaluated cell by cell ------------


def poly_pinning(inst, q0):
    scheme = PinnedRep1(K=inst.K, L=inst.L)
    end = Point(inst.N, inst.M)
    fwd, bwd = forward_table(scheme, ORIGIN, end), backward_table(scheme, ORIGIN, end)
    return [(n, fwd[Point(n, inst.K - n)].evaluate(q0) * bwd[Point(n, inst.K - n)].evaluate(q0)
             / fwd[end].evaluate(q0))
            for n in range(max(0, inst.K - inst.M), min(inst.K, inst.N) + 1)]


def poly_profile(inst, q0):
    scheme = PinnedRep2()
    totals = {x: Fraction(0) for x in range(-inst.L, inst.K + 1)}
    z = Fraction(0)
    for a in range(0, min(inst.N, inst.L + 1) + 1):
        if inst.N - a > inst.K:
            continue
        start, end = Point(-a, -(inst.L + 1 - a)), Point(inst.N - a, inst.K - inst.N + a)
        parts = [(lo, hi, forward_table(scheme, lo, hi), backward_table(scheme, lo, hi))
                 for lo, hi in ((start, ORIGIN), (ORIGIN, end))]
        z_parts = [fwd[hi].evaluate(q0) for _, hi, fwd, _ in parts]
        z += z_parts[0] * z_parts[1]
        for x in totals:
            k = int(x > 0)
            lo, hi, fwd, bwd = parts[k]
            crossing = sum((fwd[h.translate(-1, 0)].evaluate(q0)
                            * scheme.bond_weight(h.i - 1, h.j, H_STEP).evaluate(q0)
                            * bwd[h].evaluate(q0)
                            for h in (Point(i, x - i) for i in range(lo.i + 1, hi.i + 1))
                            if lo.j <= h.j <= hi.j), Fraction(0))
            totals[x] += crossing * z_parts[1 - k]
    return [(x, totals[x] / z) for x in totals]


def poly_step_probabilities(scheme, start, end, q0):
    _, bwd = reference_tables(scheme, start, end)
    out = {}
    for i in range(start.i, end.i):
        for j in range(start.j, end.j + 1):
            here = Point(i, j)
            if bwd[here].evaluate(q0):
                out[here] = (scheme.bond_weight(i, j, H_STEP).evaluate(q0)
                             * bwd[here.translate(1, 0)].evaluate(q0) / bwd[here].evaluate(q0))
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixed_q_consumers_match_polynomial_tables(data):
    q0 = Fraction(data.draw(st.integers(1, 12)), 13)
    K, L = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    inst = PinnedInstance(K=K, L=L, N=data.draw(st.integers(0, K + L + 1)))
    assert pinning_distribution(inst, q0) == poly_pinning(inst, q0)
    assert magnetization_profile(inst, q0) == poly_profile(inst, q0)

    start = Point(data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
    end = start.translate(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
    cells = [Point(i, j) for i in range(start.i, end.i + 1) for j in range(start.j, end.j + 1)]
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        scheme = InterfaceXXZ()
    elif kind == "rep1":
        # keep every bond head inside rep1's domain, radius K+L+1
        scheme = PinnedRep1(K=K, L=max(L, end.i + end.j - K - 1))
    else:
        scheme = PinnedRep2()
    waypoints = tuple(data.draw(st.lists(st.sampled_from(cells), max_size=2)))
    q = CorrelationQuery(scheme, start, end, waypoints)
    assert crossing_probability(q, q0) == \
        conditioned_partition(q).evaluate(q0) / partition_dp(scheme, start, end).evaluate(q0)

    state = SamplerState(scheme, start, end, q0, 0)
    for here, p_h in poly_step_probabilities(scheme, start, end, q0).items():
        a, b = here.i - start.i, here.j - start.j
        assert state.diag[a + b, a] == float(p_h)


@pytest.mark.parametrize("scheme", [InterfaceXXZ(), PinnedRep1(K=2, L=3), PinnedRep2()],
                         ids=["interface", "rep1", "rep2"])
def test_sweeps_and_observables_build_no_bond(scheme, monkeypatch):
    # weights are asked by coordinates, so no Bond is built on the way
    start, end = Point(-1, 0), Point(2, 2)
    inst = PinnedInstance(K=2, L=2, N=3)
    query = CorrelationQuery(scheme, start, end, (Point(0, 1),))

    def observe():
        tables = [make(scheme, start, end, q0).values
                  for make in (forward_table, backward_table) for q0 in (None, HALF)]
        return (tables, SamplerState(scheme, start, end, HALF, 0).diag.tolist(),
                magnetization_profile(inst, HALF), pinning_distribution(inst, HALF),
                crossing_probability(query, HALF))

    before = observe()

    def refuse(bond):
        raise AssertionError(f"built {bond}")

    monkeypatch.setattr("spinpaths.lattice.Bond.__post_init__", refuse)
    assert observe() == before
