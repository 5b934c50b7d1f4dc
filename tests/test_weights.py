"""Bond weights and path weights for the three named schemes."""

import pytest
from hypothesis import given, strategies as st

from spinpaths import (CustomTable, InterfaceXXZ, LatticePath, LaurentPoly,
                       OutOfDomain, PinnedRep1, PinnedRep2, Point,
                       enumerate_paths, scheme_from_name)
from spinpaths.lattice import H_STEP, V_STEP, horizontal_bond, vertical_bond


def mono(e):
    return LaurentPoly.q_power(e)


class TestBondWeight:
    def test_interface_right_end(self):
        # horizontal bond ending at (1, 0) weighs q^2
        assert InterfaceXXZ().bond_weight(0, 0, H_STEP) == mono(2)

    def test_rep1_descending_branch(self):
        # K=L=1: bond ending at (3, 0) sits on the last sphere, weight 1
        scheme = PinnedRep1(K=1, L=1)
        assert scheme.bond_weight(2, 0, H_STEP) == mono(0)

    def test_rep2_absolute_value(self):
        assert PinnedRep2().bond_weight(-3, 0, H_STEP) == mono(4)

    def test_vertical_bonds_weigh_one(self):
        for scheme in (InterfaceXXZ(), PinnedRep1(K=2, L=1), PinnedRep2()):
            assert scheme.bond_weight(1, 2, V_STEP) == mono(0)

    def test_rep1_branch_boundary(self):
        # the sphere at radius K takes the rising branch q^(2K)
        scheme = PinnedRep1(K=2, L=0)
        assert scheme.bond_weight(1, 0, H_STEP) == mono(4)
        # strictly above K the falling branch applies
        assert scheme.bond_weight(2, 0, H_STEP) == mono(2 * 3 - 2 * 3)

    def test_rep1_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            PinnedRep1(K=1, L=1).bond_weight(3, 0, H_STEP)

    def test_interface_rep1_agree_inside_radius_k(self):
        interface, rep1 = InterfaceXXZ(), PinnedRep1(K=4, L=2)
        for i in range(5):
            for j in range(5 - i):
                if i + j + 1 <= 4:
                    assert interface.bond_weight(i, j, H_STEP) == rep1.bond_weight(i, j, H_STEP)


class TestPathWeight:
    def test_interface_hv(self):
        assert InterfaceXXZ().path_weight(LatticePath(Point(0, 0), "HV")) == mono(2)

    def test_interface_vh(self):
        assert InterfaceXXZ().path_weight(LatticePath(Point(0, 0), "VH")) == mono(4)

    def test_all_vertical_weighs_one(self):
        path = LatticePath(Point(0, 0), "VVVV")
        for scheme in (InterfaceXXZ(), PinnedRep1(K=2, L=2), PinnedRep2()):
            assert scheme.path_weight(path) == mono(0)

    @given(st.integers(-3, 3), st.integers(-3, 3),
           st.text(alphabet="HV", max_size=8), st.text(alphabet="HV", max_size=8))
    def test_multiplicative_under_concatenation(self, i, j, word1, word2):
        scheme = PinnedRep2()
        first = LatticePath(Point(i, j), word1)
        second = LatticePath(first.endpoint(), word2)
        assert scheme.path_weight(first.concat(second)) == \
            scheme.path_weight(first) * scheme.path_weight(second)

    def test_weights_are_nonnegative_monomials(self):
        for scheme, end in ((InterfaceXXZ(), Point(3, 3)),
                            (PinnedRep1(K=3, L=2), Point(3, 3)),
                            (PinnedRep2(), Point(3, 3))):
            for path in enumerate_paths(Point(0, 0), end):
                w = scheme.path_weight(path)
                assert w.is_monomial() and w.valuation() >= 0
                assert w.coefficient(w.degree()) == 1


class TestCustomTable:
    def test_lookup_and_default(self):
        scheme = CustomTable(table={horizontal_bond(Point(0, 0)): mono(7)})
        assert scheme.bond_weight(0, 0, H_STEP) == mono(7)
        assert scheme.bond_weight(0, 0, V_STEP) == mono(0)

    def test_nontrivial_vertical_weight(self):
        bond = vertical_bond(Point(0, 0))
        scheme = CustomTable(table={bond: LaurentPoly({0: 3})})
        assert scheme.path_weight(LatticePath(Point(0, 0), "V")) == LaurentPoly({0: 3})


def test_scheme_from_name():
    assert scheme_from_name("interface") == InterfaceXXZ()
    assert scheme_from_name("rep1", K=2, L=1) == PinnedRep1(K=2, L=1)
    assert scheme_from_name("rep2") == PinnedRep2()
    with pytest.raises(ValueError):
        scheme_from_name("rep1")
    with pytest.raises(ValueError):
        scheme_from_name("nope")


def test_rep1_negative_parameters_rejected():
    with pytest.raises(ValueError):
        PinnedRep1(K=-1, L=0)
