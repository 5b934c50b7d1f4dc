"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Every polynomial identity is checked for exact equality (no tolerances);
the two numeric criteria pin their bounds here: ground-state residual
<= 1e-10, sampler agreement within 3 standard errors and whole-path
chi-square p-value > 1e-3.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats

from spinpaths import (CorrelationQuery, EnsembleTooLarge, InterfaceXXZ,
                       LaurentPoly, PinnedInstance, PinnedRep1, PinnedRep2,
                       Point, SamplerState, build_hamiltonian,
                       conditioned_partition, crossing_probability,
                       enumerate_paths, estimate_crossing, forward_table,
                       interface_closed_form, norm_squared,
                       partition_bruteforce, partition_dp, pinned_rep1,
                       pinned_rep2, pinned_via_convolution, rec1_readings,
                       sample_step_matrix, sphere, translated_interface,
                       verify_average_representation, verify_ground_state,
                       verify_rec2)

ORIGIN = Point(0, 0)
RESIDUAL_BOUND = 1e-10
SAMPLER_SIGMA = 3.0
CHI_SQUARE_P_FLOOR = 1e-3


def test_criterion_1_closed_form_equivalence():
    """Closed form == DP == enumeration for all 0 <= n, m <= 8, exactly."""
    scheme = InterfaceXXZ()
    for n in range(9):
        for m in range(9):
            closed = interface_closed_form(n, m)
            assert closed == forward_table(scheme, ORIGIN, Point(n, m)).far_corner(), (n, m)
            assert closed == partition_bruteforce(scheme, ORIGIN, Point(n, m)), (n, m)
    print("PASS criterion 1: closed form = DP = enumeration on n,m <= 8 (exact)")


def test_criterion_2_triple_agreement_pinned_chain():
    """norm^2 == first representation == second representation, K,L <= 4."""
    for K in range(5):
        for L in range(5):
            for N in range(K + L + 2):
                inst = PinnedInstance(K=K, L=L, N=N)
                nsq = norm_squared(L, K, N)
                assert nsq == pinned_rep1(inst) == pinned_rep2(inst), (K, L, N)
    spot = PinnedInstance(K=1, L=1, N=1)
    assert pinned_rep1(spot) == LaurentPoly({0: 1, 2: 2})
    print("PASS criterion 2: norm = rep1 = rep2 on K,L <= 4; spot 1+2q^2 (exact)")


def test_criterion_3_identity_suite():
    """Convolution and sphere-K recursion exact on K,L <= 4; one-step
    recursion holds under the fixed-weights reading (documented)."""
    reinstanced_any = False
    for K in range(5):
        for L in range(5):
            for N in range(K + L + 2):
                inst = PinnedInstance(K=K, L=L, N=N)
                assert pinned_rep2(inst) == pinned_via_convolution(inst), (K, L, N)
                assert verify_rec2(inst), (K, L, N)
                if 1 <= N <= K + L:
                    readings = rec1_readings(inst)
                    assert readings["fixed_weights"], (K, L, N)
                    for key in ("reinstanced_shrink_K", "reinstanced_shrink_L"):
                        if readings[key]:
                            reinstanced_any = True
    print("PASS criterion 3: pf and rec2 exact on K,L <= 4; rec1 holds under the "
          "fixed-weights reading (re-instanced reading "
          f"{'also holds somewhere' if reinstanced_any else 'fails, as expected'})")


def test_criterion_4_translation_property():
    """Translation identity exact for every rectangle and reference point in
    [-3, 3]^2 satisfying the precondition."""
    pts = [Point(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    scheme = InterfaceXXZ()
    checked = 0
    for start in pts:
        for end in pts:
            if not end.dominates(start):
                continue
            direct = forward_table(scheme, start, end).far_corner()
            for ref in pts:
                if ref.i <= start.i and ref.j <= start.j:
                    assert translated_interface(start, end, ref) == direct
                    checked += 1
    assert checked > 0
    print(f"PASS criterion 4: translation identity exact on {checked} "
          "(I, F, P) triples in [-3,3]^2")


def test_criterion_5_markov_and_sphere_laws():
    """Waypoint factorization and sphere decomposition by enumeration on a
    5x5 rectangle for all three weight schemes."""
    end = Point(5, 5)
    schemes = (InterfaceXXZ(), PinnedRep1(K=5, L=5), PinnedRep2())
    paths = enumerate_paths(ORIGIN, end)
    waypoint_sets = [(Point(i, j),) for i in range(6) for j in range(6)]
    waypoint_sets += [(Point(1, 1), Point(3, 2)), (Point(2, 0), Point(2, 3), Point(4, 5)),
                      (Point(0, 2), Point(5, 3))]
    for scheme in schemes:
        z = partition_bruteforce(scheme, ORIGIN, end)
        assert z == partition_dp(scheme, ORIGIN, end)
        for waypoints in waypoint_sets:
            brute = LaurentPoly.zero()
            for p in paths:
                if all(p.passes_through(w) for w in waypoints):
                    brute = brute + scheme.path_weight(p)
            query = CorrelationQuery(scheme, ORIGIN, end, waypoints)
            assert conditioned_partition(query) == brute, (scheme.name, waypoints)
        for radius in range(11):
            total = LaurentPoly.zero()
            for q in sphere(ORIGIN, radius):
                if q.i <= end.i and q.j <= end.j:
                    total = total + partition_dp(scheme, ORIGIN, q) * \
                        partition_dp(scheme, q, end)
            assert total == z, (scheme.name, radius)
    print("PASS criterion 5: Markov factorization and sphere decomposition exact "
          "on 5x5 for interface, rep1, rep2")


def test_criterion_6_average_representation():
    """Canonical-average identity at q in {3/10, 1/2, 4/5} for all K,L <= 3;
    equality is exact (the report would carry the discrepancy ratio if not)."""
    q_values = (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5))
    for K in range(4):
        for L in range(4):
            for N in range(K + L + 2):
                inst = PinnedInstance(K=K, L=L, N=N)
                for q0 in q_values:
                    report = verify_average_representation(inst, q0)
                    assert set(report) >= {"identity", "parameters", "holds",
                                           "lhs", "rhs", "ratio"}
                    assert report["holds"], report
                    assert report["ratio"] == "1"
    print("PASS criterion 6: average representation exact at q = 3/10, 1/2, 4/5 "
          "for K,L <= 3 (no discrepancy found)")


def test_criterion_7_quantum_oracle():
    """Ground-state residual <= 1e-10 on a grid of chains, q in {0.3, 0.5, 0.8}.

    Grid: every (L, K) with L, K <= 5 (all sector dimensions <= 462) plus
    (L, K) = (6, 7) whose central sector reaches dimension 3432; the
    4096-dimension guard itself is exercised at (7, 7).
    """
    worst = 0.0
    cases = 0
    pairs = [(L, K) for L in range(6) for K in range(6)] + [(6, 7)]
    for L, K in pairs:
        for N in range(L + K + 2):
            for q0 in (0.3, 0.5, 0.8):
                oracle = build_hamiltonian(L, K, N, q0)
                assert oracle.dimension <= 4096
                residual = verify_ground_state(oracle)
                worst = max(worst, residual)
                cases += 1
                assert residual <= RESIDUAL_BOUND, (L, K, N, q0, residual)
    try:
        build_hamiltonian(7, 7, 7, 0.5)
        raise AssertionError("dimension guard did not trigger")
    except EnsembleTooLarge:
        pass
    print(f"PASS criterion 7: residual <= 1e-10 on {cases} sector oracles "
          f"(worst {worst:.3e}); 4096 guard enforced")


def test_criterion_8_sampler_consistency():
    """Fixed-seed sampler agrees with the exact layer: every one-point
    crossing estimate within 3 stderr on the K=L=2 pinned instance, and the
    whole-path chi-square p-value on the (0,0)->(2,2) interface ensemble
    exceeds 1e-3."""
    samples = 100000
    inst = PinnedInstance(K=2, L=2, N=2)
    scheme = PinnedRep1(K=2, L=2)
    end = Point(inst.N, inst.M)
    state = SamplerState(scheme, ORIGIN, end, Fraction(1, 2), seed=20240801)
    for idx, point in enumerate(Point(i, j)
                                for i in range(end.i + 1) for j in range(end.j + 1)):
        exact = float(crossing_probability(
            CorrelationQuery(scheme, ORIGIN, end, (point,)), Fraction(1, 2)))
        est, stderr = estimate_crossing(state.substream(idx), point, samples)
        if stderr == 0.0:
            assert est == exact, (point, est, exact)
        else:
            assert abs(est - exact) <= SAMPLER_SIGMA * stderr, (point, est, exact, stderr)

    scheme2 = InterfaceXXZ()
    end2 = Point(2, 2)
    z = partition_dp(scheme2, ORIGIN, end2).evaluate(Fraction(1, 2))
    state2 = SamplerState(scheme2, ORIGIN, end2, Fraction(1, 2), seed=7)
    matrix = sample_step_matrix(state2, samples)
    codes = (matrix * (1 << np.arange(matrix.shape[1]))).sum(axis=1)
    counts = np.bincount(codes, minlength=1 << matrix.shape[1])
    observed, expected = [], []
    for path in enumerate_paths(ORIGIN, end2):
        code = sum(1 << t for t, s in enumerate(path.steps) if s == "H")
        prob = scheme2.path_weight(path).evaluate(Fraction(1, 2)) / z
        observed.append(int(counts[code]))
        expected.append(float(prob) * samples)
    assert sum(observed) == samples
    assert math.isclose(sum(expected), samples, rel_tol=1e-12)
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > CHI_SQUARE_P_FLOOR, pvalue
    print(f"PASS criterion 8: crossing estimates within 3 stderr (1e5 samples, "
          f"fixed seed); whole-path chi-square p = {pvalue:.3f} > 1e-3")
