"""Spin configurations, amplitudes, bijections, and the Hamiltonian oracle."""

import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from spinpaths import (EnsembleTooLarge, LaurentPoly, PinnedRep1, PinnedRep2,
                       Point, SpinConfig, amplitude, build_hamiltonian,
                       config_to_path_rep1, config_to_path_rep2, norm_squared,
                       pinned_rep1, pinned_rep2, sector_configs,
                       verify_ground_state)
from spinpaths import spin
from spinpaths.partition import PinnedInstance
from spinpaths.spin import check_q, ground_state_vector


def mono(e):
    return LaurentPoly.q_power(e)


def dense_hamiltonian(L, K, N, q0):
    """The sector Hamiltonian as a dense matrix, assembled bond by bond over
    the `sector_configs` basis: the slow reference for the oracle."""
    basis = sector_configs(L, K, N)
    index = {c.alpha: k for k, c in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for col, config in enumerate(basis):
        word = config.alpha
        for x in range(-L, K):
            p = x + L
            if word[p] == word[p + 1]:
                continue
            qx = q0 if x >= 0 else 1.0 / q0
            c = 1.0 / (qx + 1.0 / qx)
            swapped = list(word)
            swapped[p], swapped[p + 1] = word[p + 1], word[p]
            h[col, col] += c * qx if word[p] == 1 else c / qx
            h[index[tuple(swapped)], col] += -c
    return h


def oracle_matrix(oracle):
    return oracle.apply(np.eye(oracle.dimension))


class TestAmplitude:
    def test_down_at_minus_one(self):
        config = SpinConfig.from_down_sites(1, 1, [-1])
        assert amplitude(config) == mono(1)

    def test_all_up(self):
        assert amplitude(SpinConfig(2, 2, (0,) * 5)) == mono(0)

    def test_down_at_origin(self):
        assert amplitude(SpinConfig.from_down_sites(2, 2, [0])) == mono(0)

    def test_additive_exponent(self):
        config = SpinConfig.from_down_sites(3, 2, [-3, -1, 2])
        assert amplitude(config) == mono(6)


class TestNormSquared:
    def test_spec_value(self):
        assert norm_squared(1, 1, 1) == LaurentPoly({0: 1, 2: 2})

    def test_no_down_spins(self):
        assert norm_squared(3, 2, 0) == LaurentPoly.one()

    def test_one_sided_chain(self):
        assert norm_squared(0, 2, 1) == LaurentPoly({0: 1, 2: 1, 4: 1})

    def test_matches_both_representations(self):
        for L in range(4):
            for K in range(4):
                for N in range(L + K + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    nsq = norm_squared(L, K, N)
                    assert nsq == pinned_rep1(inst) == pinned_rep2(inst)

    def test_wide_chain_one_down_spin(self):
        start = time.perf_counter()
        nsq = norm_squared(0, 99_999, 1)
        assert time.perf_counter() - start < 1.0
        assert nsq == LaurentPoly({2 * x: 1 for x in range(100_000)})

    def test_wide_chain_one_up_spin(self):
        start = time.perf_counter()
        nsq = norm_squared(0, 99_998, 99_998)
        assert time.perf_counter() - start < 1.0
        total = 99_998 * 99_999 // 2
        assert nsq == LaurentPoly({2 * (total - x): 1 for x in range(99_999)})

    @pytest.mark.parametrize("L, K", [(0, 100_000), (100_000, 0), (40_000, 60_000)])
    def test_one_configuration_runs_no_pass(self, L, K):
        # tracemalloc peak; sorting the sites' |x| took 3.9 MiB at 10^5 sites
        total = (L * (L + 1) + K * (K + 1)) // 2
        for N, want in ((0, LaurentPoly.one()), (L + K + 1, LaurentPoly({2 * total: 1}))):
            tracemalloc.start()
            try:
                nsq = norm_squared(L, K, N)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert nsq == want
            assert peak <= 64 * 2**10

    def test_matches_per_configuration_sum(self):
        # every sector with K, L <= 6, and every sector of at most 10 sites
        chains = [(L, K) for L in range(10) for K in range(10)
                  if max(L, K) <= 6 or L + K <= 9]
        for L, K in chains:
            for N in range(L + K + 2):
                exponents = Counter(2 * amplitude(config).degree()
                                    for config in sector_configs(L, K, N))
                assert norm_squared(L, K, N) == LaurentPoly(exponents), (L, K, N)

    def test_enumerates_nothing(self, monkeypatch):
        # 705 432 configurations
        def refuse(*args):
            raise AssertionError("configurations enumerated")

        monkeypatch.setattr(spin, "_positions", refuse)
        assert norm_squared(0, 21, 11) == pinned_rep1(PinnedInstance(K=21, L=0, N=11))

    def test_invalid_sector(self):
        with pytest.raises(ValueError, match="N must lie"):
            norm_squared(1, 1, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            norm_squared(-1, 1, 0)


class TestBijections:
    def test_rep1_spec_trace(self):
        config = SpinConfig.from_down_sites(1, 1, [0])
        path = config_to_path_rep1(config)
        assert path.text() == "(0,0):VVH"
        assert PinnedRep1(K=1, L=1).path_weight(path) == mono(0)

    def test_rep1_all_up(self):
        path = config_to_path_rep1(SpinConfig(2, 1, (0, 0, 0, 0)))
        assert path.steps == "VVVV" and path.start == Point(0, 0)

    def test_rep2_spec_trace(self):
        config = SpinConfig.from_down_sites(1, 1, [-1])
        path = config_to_path_rep2(config)
        assert path.text() == "(-1,-1):HVV"
        assert PinnedRep2().path_weight(path) == mono(2)

    def test_rep2_all_up(self):
        path = config_to_path_rep2(SpinConfig(2, 1, (0, 0, 0, 0)))
        assert path.start == Point(0, -3) and path.steps == "VVVV"

    def test_weight_equality_and_injectivity(self):
        for L in range(5):
            for K in range(5):
                rep1, rep2 = PinnedRep1(K=K, L=L), PinnedRep2()
                for N in range(L + K + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    seen1, seen2 = set(), set()
                    total = LaurentPoly.zero()
                    for config in sector_configs(L, K, N):
                        sq = mono(2 * amplitude(config).degree())
                        p1 = config_to_path_rep1(config)
                        assert p1.endpoint() == Point(inst.N, inst.M)
                        assert rep1.path_weight(p1) == sq
                        seen1.add(p1)
                        p2 = config_to_path_rep2(config)
                        assert p2.passes_through(Point(0, 0))
                        assert p2.horizontal_count == N
                        assert rep2.path_weight(p2) == sq
                        seen2.add(p2)
                        total = total + sq
                    dim = math.comb(L + K + 1, N)
                    assert len(seen1) == len(seen2) == dim
                    assert total == pinned_rep1(inst) == pinned_rep2(inst)


class TestHamiltonian:
    def test_positive_semidefinite(self):
        for L, K, N, q0 in ((1, 1, 1, 0.5), (2, 2, 2, 0.3), (2, 3, 3, 0.8)):
            oracle = build_hamiltonian(L, K, N, q0)
            eigenvalues = np.linalg.eigvalsh(oracle_matrix(oracle))
            assert eigenvalues.min() >= -1e-12

    def test_symmetric(self):
        matrix = oracle_matrix(build_hamiltonian(2, 2, 2, 0.4))
        assert np.allclose(matrix, matrix.T, atol=0)

    def test_empty_sector_is_zero_operator(self):
        oracle = build_hamiltonian(1, 2, 0, 0.5)
        assert oracle.dimension == 1
        assert np.all(oracle_matrix(oracle) == 0.0)

    def test_explicit_small_chain(self):
        oracle = build_hamiltonian(1, 1, 1, 0.5)
        psi = np.array([0.5, 1.0, 0.5])  # basis order: word-lex from site -L
        assert np.linalg.norm(oracle_matrix(oracle) @ psi) <= 1e-12

    def test_residual_bound_on_grid(self):
        for L in range(4):
            for K in range(4):
                for N in range(L + K + 2):
                    for q0 in (0.3, 0.5, 0.8):
                        oracle = build_hamiltonian(L, K, N, q0)
                        assert verify_ground_state(oracle) <= 1e-10

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.8])
    def test_matches_dense_reference(self, q0):
        # criterion 7's grid, plus a chain too wide for a 64-bit occupation mask
        sectors = [(L, K, N) for L in range(6) for K in range(6) for N in range(L + K + 2)]
        sectors += [(6, 7, N) for N in range(15)] + [(0, 70, 2)]
        for L, K, N in sectors:
            oracle = build_hamiltonian(L, K, N, q0)
            dense = dense_hamiltonian(L, K, N, q0)
            dim = oracle.dimension
            assert dense.shape == (dim, dim)
            for lo in range(0, dim, 512):
                # the identity's columns lo .. lo+511, without the whole identity
                block = np.eye(dim, min(512, dim - lo), -lo)
                assert np.abs(oracle.apply(block) - dense[:, lo:lo + 512]).max() <= 1e-12
            psi = np.array([q0 ** amplitude(c).degree() for c in sector_configs(L, K, N)])
            dense_residual = np.linalg.norm(dense @ psi) / np.linalg.norm(psi)
            assert abs(verify_ground_state(oracle) - dense_residual) <= 1e-12, (L, K, N)

    def test_apply_keeps_the_shape(self):
        oracle = build_hamiltonian(2, 3, 2, 0.5)
        psi = np.arange(oracle.dimension, dtype=float)
        assert oracle.apply(psi).shape == psi.shape
        assert np.array_equal(oracle.apply(psi[:, None])[:, 0], oracle.apply(psi))

    def test_memory_stays_linear(self):
        tracemalloc.start()
        try:
            oracle = build_hamiltonian(6, 7, 7, 0.5)
            residual = verify_ground_state(oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.dimension == 3432 and residual <= 1e-10
        assert peak < 5 * 2**20  # the dense matrix alone is 94 MB

    def test_holds_the_minority_species(self):
        # 4 095 down spins and one up spin: rows of the down sites alone take 128 MB
        tracemalloc.start()
        try:
            oracle = build_hamiltonian(0, 4095, 4095, 0.5)
            residual = verify_ground_state(oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle.positions.shape == (4096, 1) and residual <= 1e-10
        assert peak < 50 * 2**20

    def test_residual_where_every_amplitude_underflows(self):
        # q0^780 < 1e-400: unscaled, the state vector is all zeros and the
        # residual 0/0 is NaN
        oracle = build_hamiltonian(0, 40, 40, 0.3)
        assert verify_ground_state(oracle) <= 1e-10

    def test_residual_zero_for_trivial_sector(self):
        oracle = build_hamiltonian(2, 2, 0, 0.5)
        assert verify_ground_state(oracle) == 0.0

    def test_perturbation_is_detected(self):
        oracle = build_hamiltonian(2, 2, 2, 0.5)
        psi = ground_state_vector(oracle)
        psi[0] += 0.05
        residual = np.linalg.norm(oracle_matrix(oracle) @ psi) / np.linalg.norm(psi)
        assert residual > 1e-6

    def test_dimension_limit(self):
        # binomial(15, 7) = 6435 > 4096
        with pytest.raises(EnsembleTooLarge):
            build_hamiltonian(7, 7, 7, 0.5)

    def test_q0_range(self):
        with pytest.raises(ValueError):
            build_hamiltonian(1, 1, 1, 1.5)

    def test_invalid_sector(self):
        with pytest.raises(ValueError, match="N must lie"):
            build_hamiltonian(1, 1, -1, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            build_hamiltonian(-1, 1, 0, 0.5)


class TestSectorConfigs:
    def test_lexicographic_order(self):
        words = [c.alpha for c in sector_configs(1, 1, 1)]
        assert words == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_counts(self):
        for L, K in ((2, 2), (0, 4)):
            for N in range(L + K + 2):
                assert len(sector_configs(L, K, N)) == math.comb(L + K + 1, N)

    def test_invalid_sector(self):
        with pytest.raises(ValueError):
            sector_configs(1, 1, 5)

    def test_limit_counts_every_slot(self, monkeypatch):
        # 10^5 configurations pass a count-only guard, but their words take 10^10 slots
        def refuse(*args):
            raise AssertionError("enumeration started past the guard")

        monkeypatch.setattr(spin, "itertools", SimpleNamespace(combinations=refuse))
        with pytest.raises(EnsembleTooLarge):
            sector_configs(0, 99_999, 1)


def test_spin_config_validation():
    with pytest.raises(ValueError):
        SpinConfig(1, 1, (0, 1))
    with pytest.raises(ValueError):
        SpinConfig(1, 1, (0, 2, 0))
    for L, K in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="^K and L must be nonnegative$"):
            SpinConfig(L, K, (0,))
    config = SpinConfig(1, 2, (1, 0, 1, 0))
    assert config.at(-1) == 1 and config.at(1) == 1 and config.down_count == 2


class TestCheckQ:
    @pytest.mark.parametrize("q0", [0.3, Fraction(1, 2), Fraction(999, 1000)])
    def test_returns_q_unchanged(self, q0):
        assert check_q(q0) is q0

    @pytest.mark.parametrize("q0", [0, 1, Fraction(3, 2), -0.5, 0.0, 1.0, float("nan")])
    def test_refuses_q_outside_the_unit_interval(self, q0):
        with pytest.raises(ValueError, match=r"^q0 must lie in \(0, 1\)$"):
            check_q(q0)
