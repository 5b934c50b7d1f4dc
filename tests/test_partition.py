"""Partition functions: DP vs enumeration, closed form, translation,
pinned-chain representations, and the recursion identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinpaths import (CustomTable, InterfaceXXZ, LaurentPoly, PinnedInstance,
                       PinnedRep1, PinnedRep2, Point, backward_table,
                       enumerate_paths,
                       forward_table, interface_closed_form,
                       partition_bruteforce, partition_dp,
                       pinned_rep1, pinned_rep2, pinned_via_convolution,
                       pinning_distribution, rec1_readings, sphere,
                       translated_interface, verify_average_representation,
                       verify_rec2)
from spinpaths.lattice import horizontal_bond, vertical_bond
from spinpaths.partition import verify_rec1

ORIGIN = Point(0, 0)

open_unit_rationals = st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 12),
                                st.integers(1, 12))


def poly(terms):
    return LaurentPoly(terms)


class TestPartitionDP:
    def test_unit_square_interface(self):
        assert partition_dp(InterfaceXXZ(), ORIGIN, Point(1, 1)) == poly({2: 1, 4: 1})

    def test_single_column(self):
        for scheme in (InterfaceXXZ(), PinnedRep1(K=1, L=3), PinnedRep2()):
            assert partition_dp(scheme, ORIGIN, Point(0, 4)) == LaurentPoly.one()

    def test_two_by_one_interface(self):
        assert partition_dp(InterfaceXXZ(), ORIGIN, Point(2, 1)) == poly({6: 1, 8: 1, 10: 1})

    def test_empty_rectangle_is_zero(self):
        assert not partition_dp(InterfaceXXZ(), ORIGIN, Point(-1, 3))

    def test_matches_bruteforce_all_schemes(self):
        cases = [
            (InterfaceXXZ(), ORIGIN, Point(4, 4)),
            (InterfaceXXZ(), Point(-2, -1), Point(2, 2)),
            (PinnedRep1(K=3, L=4), ORIGIN, Point(4, 4)),
            (PinnedRep2(), Point(-2, -2), Point(3, 2)),
        ]
        for scheme, start, end in cases:
            assert partition_dp(scheme, start, end) == partition_bruteforce(scheme, start, end)

    def test_custom_table_counts_paths(self):
        # all weights 1: the partition function is the path count
        scheme = CustomTable()
        for n in range(4):
            for m in range(4):
                z = partition_dp(scheme, ORIGIN, Point(n, m))
                assert z == LaurentPoly({0: len(enumerate_paths(ORIGIN, Point(n, m)))})

    def test_custom_table_vertical_weights_respected(self):
        scheme = CustomTable(table={vertical_bond(ORIGIN): poly({1: 1})})
        assert partition_dp(scheme, ORIGIN, Point(0, 1)) == poly({1: 1})
        assert partition_dp(scheme, ORIGIN, Point(0, 1)) == partition_bruteforce(
            scheme, ORIGIN, Point(0, 1))


class TestBruteforce:
    def test_point_rectangle(self):
        assert partition_bruteforce(InterfaceXXZ(), ORIGIN, ORIGIN) == LaurentPoly.one()

    def test_matches_dp_on_unit_square(self):
        assert partition_bruteforce(InterfaceXXZ(), ORIGIN, Point(1, 1)) == \
            partition_dp(InterfaceXXZ(), ORIGIN, Point(1, 1))


class TestPartitionTables:
    def test_forward_values_match_enumeration(self):
        scheme = PinnedRep2()
        start, end = Point(-1, -1), Point(2, 1)
        fwd = forward_table(scheme, start, end)
        bwd = backward_table(scheme, start, end)
        assert fwd[start] == LaurentPoly.one()
        assert bwd[end] == LaurentPoly.one()
        for i in range(start.i, end.i + 1):
            for j in range(start.j, end.j + 1):
                q = Point(i, j)
                assert fwd[q] == partition_bruteforce(scheme, start, q)
                assert bwd[q] == partition_bruteforce(scheme, q, end)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_cell_matches_enumeration(self, data):
        start = Point(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
        # a side of -1 makes the rectangle empty
        end = start.translate(data.draw(st.integers(-1, 6)), data.draw(st.integers(-1, 6)))
        cells = [Point(i, j) for i in range(start.i, end.i + 1)
                 for j in range(start.j, end.j + 1)]
        kind = data.draw(st.sampled_from(["interface", "rep1", "rep2", "custom"]))
        if kind == "interface":
            scheme = InterfaceXXZ()
        elif kind == "rep2":
            scheme = PinnedRep2()
        elif kind == "rep1":
            K = data.draw(st.integers(0, 3))
            # rep1 is defined up to radius K+L+1; keep every bond head inside it
            L = max(data.draw(st.integers(0, 3)), end.i + end.j - K - 1)
            scheme = PinnedRep1(K=K, L=L)
        else:
            bonds = [make(q) for q in cells for make in (horizontal_bond, vertical_bond)]
            monomial = st.builds(lambda c, e: poly({e: c}), st.integers(-2, 2),
                                 st.integers(-3, 3))
            table = data.draw(st.dictionaries(st.sampled_from(bonds), monomial)) if bonds else {}
            scheme = CustomTable(table=table)
        q0 = data.draw(open_unit_rationals)
        fwd = forward_table(scheme, start, end)
        bwd = backward_table(scheme, start, end)
        fwd_q = forward_table(scheme, start, end, q0)
        bwd_q = backward_table(scheme, start, end, q0)
        assert len(fwd.values) == len(bwd.values) == len(fwd_q.values) == len(bwd_q.values) \
            == len(cells)
        for q in cells:
            to_q = partition_bruteforce(scheme, start, q)
            from_q = partition_bruteforce(scheme, q, end)
            assert fwd[q] == to_q
            assert bwd[q] == from_q
            assert fwd_q[q] == to_q.evaluate(q0) and type(fwd_q[q]) is Fraction
            assert bwd_q[q] == from_q.evaluate(q0) and type(bwd_q[q]) is Fraction
        # off the rectangle each table reads as the zero of its own ring
        outside = end.translate(1, 0)
        assert fwd[outside] == LaurentPoly.zero()
        assert fwd_q[outside] == 0 and type(fwd_q[outside]) is Fraction
        assert partition_dp(scheme, start, end, q0) == fwd_q[end]


class TestClosedForm:
    def test_one_one(self):
        assert interface_closed_form(1, 1) == poly({2: 1, 4: 1})

    def test_zero_n_is_one(self):
        for m in range(6):
            assert interface_closed_form(0, m) == LaurentPoly.one()

    def test_two_one(self):
        assert interface_closed_form(2, 1) == poly({6: 1, 8: 1, 10: 1})

    def test_negative_arguments_are_zero(self):
        assert not interface_closed_form(-1, 2)
        assert not interface_closed_form(2, -1)

    def test_equals_both_computations(self):
        for n in range(6):
            for m in range(6):
                z = interface_closed_form(n, m)
                assert z == partition_dp(InterfaceXXZ(), ORIGIN, Point(n, m))
                assert z == partition_bruteforce(InterfaceXXZ(), ORIGIN, Point(n, m))


class TestTranslation:
    def test_spec_rectangle(self):
        # shifting [(1,0),(2,1)] by -(1,0) costs q^2 per horizontal step
        value = translated_interface(Point(1, 0), Point(2, 1), Point(1, 0))
        assert value == poly({4: 1, 6: 1})
        assert value == partition_dp(InterfaceXXZ(), Point(1, 0), Point(2, 1))

    def test_zero_reference_is_identity(self):
        value = translated_interface(Point(0, 1), Point(2, 3), ORIGIN)
        assert value == partition_dp(InterfaceXXZ(), Point(0, 1), Point(2, 3))

    def test_degenerate_rectangle(self):
        assert translated_interface(Point(2, 2), Point(2, 2), Point(-1, 0)) == LaurentPoly.one()

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            translated_interface(Point(0, 0), Point(1, 1), Point(1, 0))

    def test_window(self):
        pts = [Point(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        for start in pts:
            for end in pts:
                if not end.dominates(start):
                    continue
                direct = partition_dp(InterfaceXXZ(), start, end)
                for ref in pts:
                    if ref.i <= start.i and ref.j <= start.j:
                        assert translated_interface(start, end, ref) == direct


class TestSphereDecomposition:
    def test_all_radii_all_schemes(self):
        start, end = ORIGIN, Point(3, 3)
        for scheme in (InterfaceXXZ(), PinnedRep1(K=3, L=2), PinnedRep2()):
            z = partition_dp(scheme, start, end)
            for radius in range(7):
                total = LaurentPoly.zero()
                for q in sphere(start, radius):
                    if q.i <= end.i and q.j <= end.j:
                        total = total + partition_dp(scheme, start, q) * \
                            partition_dp(scheme, q, end)
                assert total == z


class TestPinnedRepresentations:
    def test_rep1_spec_value(self):
        assert pinned_rep1(PinnedInstance(K=1, L=1, N=1)) == poly({0: 1, 2: 2})

    def test_rep1_no_down_spins(self):
        assert pinned_rep1(PinnedInstance(K=2, L=3, N=0)) == LaurentPoly.one()

    def test_rep1_single_site_chain(self):
        # K=L=0, N=1: one horizontal bond on the last sphere, weight 1
        assert pinned_rep1(PinnedInstance(K=0, L=0, N=1)) == LaurentPoly.one()

    def test_rep2_spec_value(self):
        assert pinned_rep2(PinnedInstance(K=1, L=1, N=1)) == poly({0: 1, 2: 2})

    def test_rep2_no_down_spins(self):
        assert pinned_rep2(PinnedInstance(K=3, L=2, N=0)) == LaurentPoly.one()

    def test_rep1_equals_rep2_exhaustive(self):
        for K in range(5):
            for L in range(5):
                for N in range(K + L + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    assert pinned_rep1(inst) == pinned_rep2(inst), (K, L, N)

    def test_rep1_bruteforce_agreement(self):
        # the DP against the enumeration oracle under the pinned weights
        for K, L, N in ((1, 1, 1), (2, 1, 2), (3, 2, 3), (0, 3, 2)):
            inst = PinnedInstance(K=K, L=L, N=N)
            scheme = PinnedRep1(K=K, L=L)
            assert pinned_rep1(inst) == partition_bruteforce(
                scheme, ORIGIN, Point(inst.N, inst.M))


class TestConvolution:
    def test_spec_terms(self):
        assert pinned_via_convolution(PinnedInstance(K=1, L=1, N=1)) == poly({0: 1, 2: 2})

    def test_no_down_spins(self):
        assert pinned_via_convolution(PinnedInstance(K=2, L=2, N=0)) == LaurentPoly.one()

    def test_agrees_with_rep2_exhaustive(self):
        for K in range(5):
            for L in range(5):
                for N in range(K + L + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    assert pinned_via_convolution(inst) == pinned_rep2(inst), (K, L, N)


class TestRec1:
    def test_spec_instance(self):
        assert verify_rec1(PinnedInstance(K=1, L=1, N=1))

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_rec1(PinnedInstance(K=1, L=1, N=0))

    def test_fixed_weights_reading_holds_everywhere(self):
        for K in range(5):
            for L in range(5):
                for N in range(1, K + L + 1):
                    assert verify_rec1(PinnedInstance(K=K, L=L, N=N)), (K, L, N)

    def test_reinstanced_reading_fails(self):
        readings = rec1_readings(PinnedInstance(K=1, L=1, N=1))
        assert readings["fixed_weights"] is True
        assert readings["reinstanced_shrink_K"] is False
        assert readings["reinstanced_shrink_L"] is False

    def test_custom_table_counterexample(self):
        # a final horizontal bond of weight q^2 breaks the recursion,
        # demonstrating that the fixed-weights reading is load-bearing
        scheme = CustomTable(table={horizontal_bond(Point(0, 2)): poly({2: 1})})
        table = forward_table(scheme, ORIGIN, Point(1, 2))
        lhs = table[Point(1, 2)]
        rhs = table[Point(0, 2)] + table[Point(1, 1)]
        assert lhs != rhs


class TestRec2:
    def test_spec_instance(self):
        assert verify_rec2(PinnedInstance(K=1, L=1, N=1))

    def test_no_down_spins(self):
        assert verify_rec2(PinnedInstance(K=2, L=1, N=0))

    def test_exhaustive(self):
        for K in range(5):
            for L in range(5):
                for N in range(K + L + 2):
                    assert verify_rec2(PinnedInstance(K=K, L=L, N=N)), (K, L, N)


class TestPinningDistribution:
    def test_spec_values(self):
        dist = pinning_distribution(PinnedInstance(K=1, L=1, N=1), Fraction(1, 2))
        assert dist == [(0, Fraction(5, 6)), (1, Fraction(1, 6))]

    def test_sums_to_one(self):
        for K, L, N in ((2, 1, 2), (3, 3, 4), (0, 2, 1)):
            dist = pinning_distribution(PinnedInstance(K=K, L=L, N=N), Fraction(3, 10))
            assert sum(p for _, p in dist) == 1

    def test_degenerate_sector(self):
        assert pinning_distribution(PinnedInstance(K=2, L=1, N=0), Fraction(1, 2)) == \
            [(0, Fraction(1))]


class TestAverageRepresentation:
    def test_spec_instance(self):
        report = verify_average_representation(PinnedInstance(K=1, L=1, N=1), Fraction(1, 2))
        assert report["holds"]
        assert report["lhs"] == report["rhs"] == "3/2"

    def test_no_down_spins(self):
        report = verify_average_representation(PinnedInstance(K=2, L=2, N=0), Fraction(1, 2))
        assert report["holds"]
        assert report["lhs"] == "1"

    def test_exhaustive_small_grid(self):
        for K in range(4):
            for L in range(4):
                for N in range(K + L + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    for q0 in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
                        report = verify_average_representation(inst, q0)
                        assert report["holds"], report

    def test_report_shape(self):
        report = verify_average_representation(PinnedInstance(K=1, L=2, N=2), Fraction(1, 2))
        assert set(report) >= {"identity", "parameters", "holds", "lhs", "rhs", "ratio"}
        assert report["ratio"] == "1"


def test_pinned_instance_validation():
    with pytest.raises(ValueError):
        PinnedInstance(K=1, L=1, N=4)
    with pytest.raises(ValueError):
        PinnedInstance(K=-1, L=0, N=0)
    inst = PinnedInstance(K=2, L=1, N=3)
    assert inst.M == 1 and inst.sites == 4
