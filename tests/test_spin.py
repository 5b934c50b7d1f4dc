"""Spin configurations, amplitudes, bijections, and the Hamiltonian oracle."""

import itertools
import math

import numpy as np
import pytest

from spinpaths import (EnsembleTooLarge, LaurentPoly, PinnedRep1, PinnedRep2,
                       Point, SpinConfig, amplitude, build_hamiltonian,
                       config_to_path_rep1, config_to_path_rep2, norm_squared,
                       pinned_rep1, pinned_rep2, sector_configs,
                       verify_ground_state)
from spinpaths.partition import PinnedInstance
from spinpaths.spin import eigen_ratio_check, ground_state_vector


def mono(e):
    return LaurentPoly.q_power(e)


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


class TestEigenRatio:
    def test_left_of_pin(self):
        config = SpinConfig.from_down_sites(1, 1, [-1])
        assert eigen_ratio_check(config, -1)

    def test_right_of_pin(self):
        config = SpinConfig.from_down_sites(1, 1, [0])
        assert eigen_ratio_check(config, 0)

    def test_exhaustive_sweep(self):
        for L in range(6):
            for K in range(6):
                sites = L + K + 1
                for word in itertools.product((0, 1), repeat=sites):
                    config = SpinConfig(L, K, word)
                    for x in range(-L, K):
                        assert eigen_ratio_check(config, x), (L, K, word, x)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            eigen_ratio_check(SpinConfig(1, 1, (0, 0, 0)), 1)


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
            eigenvalues = np.linalg.eigvalsh(oracle.matrix)
            assert eigenvalues.min() >= -1e-12

    def test_symmetric(self):
        oracle = build_hamiltonian(2, 2, 2, 0.4)
        assert np.allclose(oracle.matrix, oracle.matrix.T, atol=0)

    def test_empty_sector_is_zero_operator(self):
        oracle = build_hamiltonian(1, 2, 0, 0.5)
        assert oracle.dimension == 1
        assert np.all(oracle.matrix == 0.0)

    def test_explicit_small_chain(self):
        oracle = build_hamiltonian(1, 1, 1, 0.5)
        psi = np.array([0.5, 1.0, 0.5])  # basis order: word-lex from site -L
        assert np.linalg.norm(oracle.matrix @ psi) <= 1e-12

    def test_residual_bound_on_grid(self):
        for L in range(4):
            for K in range(4):
                for N in range(L + K + 2):
                    for q0 in (0.3, 0.5, 0.8):
                        oracle = build_hamiltonian(L, K, N, q0)
                        assert verify_ground_state(oracle) <= 1e-10

    def test_residual_zero_for_trivial_sector(self):
        oracle = build_hamiltonian(2, 2, 0, 0.5)
        assert verify_ground_state(oracle) == 0.0

    def test_perturbation_is_detected(self):
        oracle = build_hamiltonian(2, 2, 2, 0.5)
        psi = ground_state_vector(oracle)
        psi[0] += 0.05
        residual = np.linalg.norm(oracle.matrix @ psi) / np.linalg.norm(psi)
        assert residual > 1e-6

    def test_dimension_limit(self):
        # binomial(15, 7) = 6435 > 4096
        with pytest.raises(EnsembleTooLarge):
            build_hamiltonian(7, 7, 7, 0.5)

    def test_q0_range(self):
        with pytest.raises(ValueError):
            build_hamiltonian(1, 1, 1, 1.5)


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


def test_spin_config_validation():
    with pytest.raises(ValueError):
        SpinConfig(1, 1, (0, 1))
    with pytest.raises(ValueError):
        SpinConfig(1, 1, (0, 2, 0))
    config = SpinConfig(1, 2, (1, 0, 1, 0))
    assert config.at(-1) == 1 and config.at(1) == 1 and config.down_count == 2
