"""Partition functions: DP vs enumeration, closed form, translation,
pinned-chain representations, and the recursion identities."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spinpaths import (CorrelationQuery, CustomTable, InterfaceXXZ, LaurentPoly,
                       PinnedInstance, PinnedRep1, PinnedRep2, Point, SamplerState,
                       ZeroToNegativePower, backward_table, conditioned_partition,
                       crossing_probability, enumerate_paths,
                       forward_table, interface_closed_form,
                       partition_bruteforce, partition_dp,
                       pinned_rep1, pinned_rep2, pinned_via_convolution,
                       pinning_distribution, rec1_readings, sphere,
                       translated_interface, verify_average_representation,
                       verify_rec2)
from spinpaths import partition
from spinpaths.lattice import H_STEP, V_STEP, horizontal_bond
from spinpaths.partition import rec1_sides, rec2_rhs
from spinpaths.qpoly import ZERO
from sweep_reference import fixed_q_values, reference_convolution, reference_tables

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
                z = partition_bruteforce(scheme, ORIGIN, Point(n, m))
                assert z == LaurentPoly({0: len(enumerate_paths(ORIGIN, Point(n, m)))})


# every caller of the sweep, each fed a scheme and the rectangle [start, end]
SWEEP_CALLERS = {
    "forward_table": forward_table,
    "backward_table": backward_table,
    "partition_dp": partition_dp,
    "conditioned_partition": lambda scheme, start, end: conditioned_partition(
        CorrelationQuery(scheme, start, end)),
    "crossing_probability": lambda scheme, start, end: crossing_probability(
        CorrelationQuery(scheme, start, end), Fraction(1, 2)),
    "SamplerState": lambda scheme, start, end: SamplerState(scheme, start, end,
                                                            Fraction(1, 2), 0),
}
FAR_CORNERS = {"nonempty": Point(2, 3), "empty": Point(-1, 2)}


@pytest.mark.parametrize("caller, end", [
    pytest.param(caller, end, id=f"{caller}-{kind}")
    for caller in SWEEP_CALLERS for kind, end in FAR_CORNERS.items()
    # SamplerState refuses an empty ensemble before it asks for a table
    if not (caller == "SamplerState" and kind == "empty")])
def test_the_sweep_refuses_a_custom_table(caller, end, monkeypatch):
    # the refusal comes before any sweep, and before the empty-rectangle shortcut
    def swept(table):
        raise AssertionError("swept a CustomTable")

    monkeypatch.setattr(partition, "_sweep", swept)
    with pytest.raises(TypeError, match=r"^the sweep needs a named scheme, not 'custom'; "
                                        r"use partition_bruteforce$"):
        SWEEP_CALLERS[caller](CustomTable(), ORIGIN, end)


def _drawn_scheme(data, end):
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        return InterfaceXXZ()
    if kind == "rep2":
        return PinnedRep2()
    K = data.draw(st.integers(0, 4))
    # rep1 is defined up to radius K+L+1; keep every bond head inside it
    return PinnedRep1(K=K, L=max(data.draw(st.integers(0, 4)), end.i + end.j - K - 1))


class TestStreamedSweep:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_partition_dp_matches_the_table_and_enumeration(self, data):
        # partition_dp holds one diagonal at a time, a table holds every cell,
        # and enumeration sums the paths; up to C(10, 5) = 252 of them
        start = Point(data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4)))
        # a side of -1 makes the rectangle empty
        end = start.translate(data.draw(st.integers(-1, 5)), data.draw(st.integers(-1, 5)))
        scheme = _drawn_scheme(data, end)
        want = partition_bruteforce(scheme, start, end)
        q0 = data.draw(st.none() | st.builds(Fraction, st.integers(-12, 12).filter(bool),
                                               st.integers(1, 12)))
        if q0 is not None:
            want = want.evaluate(q0)
        got = partition_dp(scheme, start, end, q0)
        assert got == want and type(got) is type(want)
        assert forward_table(scheme, start, end, q0)[end] == want
        backward = backward_table(scheme, start, end, q0)
        assert backward.far_corner() == want and backward[start] == want

    def test_a_stopped_sweep_matches_the_table(self):
        scheme, end = PinnedRep1(K=3, L=4), Point(5, 3)
        for make in (forward_table, backward_table):
            table = make(scheme, ORIGIN, end, Fraction(2, 5))
            for radius in range(end.i + end.j + 1):
                diagonals = list(itertools.islice(table.sweep(), radius + 1))
                assert len(diagonals) == radius + 1
                for s, lo, cells in diagonals:
                    assert cells == [table.values[i, s - i] for i in range(lo, lo + len(cells))]

    # tracemalloc peaks; a sweep that held every cell took 85 MiB and 93 MiB
    @pytest.mark.parametrize("scheme, end, bound", [
        (InterfaceXXZ(), Point(60, 60), 10 * 2**20),
        (PinnedRep2(), Point(600, 1), 8 * 2**20),
    ], ids=["interface-60x60", "rep2-600x1"])
    def test_partition_dp_holds_one_diagonal(self, scheme, end, bound):
        tracemalloc.start()
        try:
            partition_dp(scheme, ORIGIN, end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


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
        kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
        if kind == "interface":
            scheme = InterfaceXXZ()
        elif kind == "rep2":
            scheme = PinnedRep2()
        else:
            K = data.draw(st.integers(0, 3))
            # rep1 is defined up to radius K+L+1; keep every bond head inside it
            L = max(data.draw(st.integers(0, 3)), end.i + end.j - K - 1)
            scheme = PinnedRep1(K=K, L=L)
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_sweep_matches_dict_polynomial_sweep(data):
    # every cell of both rings against the slow path, on rectangles up to 12x12
    start = Point(data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6)))
    end = start.translate(data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12)))
    cells = [Point(i, j) for i in range(start.i, end.i + 1) for j in range(start.j, end.j + 1)]
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        scheme = InterfaceXXZ()
    elif kind == "rep2":
        scheme = PinnedRep2()
    else:
        K = data.draw(st.integers(0, 8))
        scheme = PinnedRep1(K=K, L=max(0, end.i + end.j - K - 1))
    q0 = Fraction(data.draw(st.integers(-12, 12).filter(bool)), data.draw(st.integers(1, 12)))
    fwd_ref, bwd_ref = reference_tables(scheme, start, end)
    fwd, bwd = forward_table(scheme, start, end), backward_table(scheme, start, end)
    fwd_q, bwd_q = forward_table(scheme, start, end, q0), backward_table(scheme, start, end, q0)
    for q in cells:
        assert fwd[q] == fwd_ref[q] and bwd[q] == bwd_ref[q]
        assert fwd_q[q] == fwd_ref[q].evaluate(q0) and bwd_q[q] == bwd_ref[q].evaluate(q0)


class TestWeightCodes:
    @pytest.mark.parametrize("scheme", [InterfaceXXZ(), PinnedRep1(K=9, L=12), PinnedRep2()])
    def test_named_scheme_asked_once_per_diagonal(self, scheme, monkeypatch):
        asked = []
        real = type(scheme).h_exponent

        def counted(self, s):
            asked.append(s)
            return real(self, s)

        def refused(self, i, j, orientation):
            raise AssertionError("a named scheme is not asked bond by bond")

        monkeypatch.setattr(type(scheme), "h_exponent", counted)
        monkeypatch.setattr(type(scheme), "bond_weight", refused)
        start, end = Point(-3, -2), Point(9, 7)   # 12 x 9: 234 bonds
        for q0 in (None, Fraction(1, 3)):
            for make in (forward_table, backward_table):
                asked.clear()
                make(scheme, start, end, q0).far_corner()
                # once per head diagonal of a horizontal bond, s = -4..16
                assert sorted(asked) == list(range(-4, 17))

    @pytest.mark.parametrize("scheme", [InterfaceXXZ(), PinnedRep2()])
    @pytest.mark.parametrize("q0", [None, Fraction(2, 5)])
    def test_a_cell_splits_over_its_two_bonds(self, scheme, q0):
        start, end = Point(-1, 0), Point(2, 2)
        table = backward_table(scheme, start, end, q0)
        cells = table.values
        for i in range(start.i, end.i + 1):
            for j in range(start.j, end.j + 1):
                if (i, j) != end:
                    # the paths from (i, j) take one of its two bonds first
                    d = i + j - start.i - start.j
                    h = table.times(d, cells[i + 1, j]) if i < end.i else 0
                    v = cells[i, j + 1] if j < end.j else 0
                    assert h + v == cells[i, j]

    # the interface's cells grow with the square of the width, so its
    # rectangles are narrower
    @pytest.mark.parametrize("scheme, corners", [
        (InterfaceXXZ(), (Point(0, 0), Point(300, 1))),
        (InterfaceXXZ(), (Point(-1, 0), Point(1, 300))),
        (PinnedRep2(), (Point(-1, -1000), Point(0, 1000))),
    ])
    def test_wide_and_tall_tables_count_their_codes(self, scheme, corners):
        start, end = corners
        for q0 in (None, Fraction(1, 3)):
            table = backward_table(scheme, start, end, q0)
            # the horizontal weight, once per tail diagonal
            assert len(table._codes) == end.i - start.i + end.j - start.j
            # a bond read at (0, 0), at (0, 1) or next to the far corner carries
            # its own weight
            for i, j in ((0, 0), (0, 1), (end.i - 1, end.j - 1)):
                for o, head in ((H_STEP, Point(i + 1, j)), (V_STEP, Point(i, j + 1))):
                    if not end.dominates(head):
                        continue   # the bond leaves the rectangle
                    weight = scheme.bond_weight(i, j, o)
                    want = weight * table[head] if q0 is None else weight.evaluate(q0) * table[head]
                    got = table.values[head]
                    if o == H_STEP:
                        got = table.times(i + j - start.i - start.j, got)
                    assert table._decode(got, end.i - i) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_named_scheme_sweeps_as_the_reference(data):
    # the packed sweep against the dict-polynomial sweep, cell for cell in both
    # rings and both directions, through partition_dp and the sampler's step
    # probabilities too
    start = Point(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    end = start.translate(data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6)))
    kind = data.draw(st.sampled_from(["interface", "rep1", "rep2"]))
    if kind == "interface":
        scheme = InterfaceXXZ()
    elif kind == "rep2":
        scheme = PinnedRep2()
    else:
        # every head lies within K+L+1
        K = data.draw(st.integers(0, 8))
        scheme = PinnedRep1(K=K, L=max(0, end.i + end.j - K - 1) + data.draw(st.integers(0, 2)))
    fwd_ref, bwd_ref = reference_tables(scheme, start, end)
    q0 = data.draw(open_unit_rationals)
    for q in (None, q0):
        def ref(z):
            return z if q is None else z.evaluate(q)

        fwd, bwd = forward_table(scheme, start, end, q), backward_table(scheme, start, end, q)
        for cell in fwd_ref:
            assert fwd[cell] == ref(fwd_ref[cell]) and bwd[cell] == ref(bwd_ref[cell]), cell
        assert partition_dp(scheme, start, end, q) == ref(fwd_ref[end])
    # the step table: P(H) at (i, j) is diag[a + b, a], (a, b) = (i, j) - start,
    # and 0.0 where no step is drawn
    diag = SamplerState(scheme, start, end, q0, 0).diag.tolist()
    want = [[0.0] * len(row) for row in diag]
    for (i, j), z in bwd_ref.items():
        if i < end.i and z.evaluate(q0):
            a, b = i - start.i, j - start.j
            want[a + b][a] = float(scheme.bond_weight(i, j, H_STEP).evaluate(q0)
                                   * bwd_ref[i + 1, j].evaluate(q0) / z.evaluate(q0))
    assert diag == want


@settings(max_examples=40, deadline=None)
@given(K=st.integers(0, 6), L=st.integers(0, 6), data=st.data())
def test_pinning_reads_as_the_reference(K, L, data):
    # the pinning's int products on the sphere of radius K against the
    # through-point ratios of the dict-polynomial tables
    inst = PinnedInstance(K=K, L=L, N=data.draw(st.integers(0, K + L + 1)))
    q0 = data.draw(open_unit_rationals)
    end = Point(inst.N, inst.M)
    fwd, bwd = reference_tables(PinnedRep1(K=K, L=L), ORIGIN, end)
    z = fwd[end].evaluate(q0)
    assert pinning_distribution(inst, q0) == [
        (n, fwd[n, K - n].evaluate(q0) * bwd[n, K - n].evaluate(q0) / z)
        for n in range(max(0, K - inst.M), min(inst.N, K) + 1)]


class TestZeroQ:
    def test_negative_power_is_refused(self):
        # left of the anti-diagonal the interface weighs negative powers of q
        start, end = Point(-2, -2), Point(1, 1)
        for sweep in (forward_table, backward_table, partition_dp):
            with pytest.raises(ZeroToNegativePower):
                sweep(InterfaceXXZ(), start, end, 0)
        with pytest.raises(ZeroToNegativePower):
            SamplerState(InterfaceXXZ(), start, end, 0, 0)

    def test_nonnegative_powers_sweep(self):
        assert partition_dp(InterfaceXXZ(), ORIGIN, Point(2, 1), 0) == 0
        assert partition_dp(InterfaceXXZ(), ORIGIN, Point(0, 3), 0) == 1
        # a rectangle without bonds weighs nothing, so nothing is refused
        assert partition_dp(InterfaceXXZ(), Point(-2, -2), Point(-2, -2), 0) == 1


class TestInterfaceAtFixedQ:
    """An interface Z or step table at q0 != 0 is read from the closed form."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def swept(table):
            raise AssertionError("swept")

        monkeypatch.setattr(partition, "_sweep", swept)

    def test_partition_dp_needs_no_sweep(self):
        start, end, q0 = Point(-3, 1), Point(4, 3), Fraction(3, 7)
        assert partition_dp(InterfaceXXZ(), start, end, q0) == \
            partition_bruteforce(InterfaceXXZ(), start, end).evaluate(q0)

    def test_crossing_probability_needs_no_sweep(self):
        scheme, end, through, q0 = InterfaceXXZ(), Point(4, 3), Point(2, 1), Fraction(-5, 4)
        z = partition_bruteforce(scheme, ORIGIN, end).evaluate(q0)
        via = (partition_bruteforce(scheme, ORIGIN, through)
               * partition_bruteforce(scheme, through, end)).evaluate(q0)
        query = CorrelationQuery(scheme, ORIGIN, end, (through,))
        assert crossing_probability(query, q0) == via / z

    @pytest.mark.parametrize("q0", [Fraction(1), Fraction(1, 3), Fraction(-9, 4)])
    def test_sampler_state_needs_no_sweep(self, q0):
        # n H and m V steps left take H with probability (1 - x^n) / (1 - x^(n+m)),
        # x = q0^2, and n / (n + m) at x = 1
        di, dj = 5, 3
        diag = SamplerState(InterfaceXXZ(), Point(-2, 1), Point(-2 + di, 1 + dj), q0, 0).diag
        x = q0 * q0
        for t in range(di + dj):
            for a in range(max(0, t - dj), min(di, t) + 1):
                n, m = di - a, dj - t + a
                p = Fraction(n, n + m) if x == 1 else (1 - x**n) / (1 - x**(n + m))
                assert diag[t, a] == float(p)

    def test_q_zero_still_sweeps(self):
        with pytest.raises(AssertionError, match="swept"):
            partition_dp(InterfaceXXZ(), ORIGIN, Point(2, 1), 0)
        with pytest.raises(AssertionError, match="swept"):
            SamplerState(InterfaceXXZ(), ORIGIN, Point(2, 1), 0, 0)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 4), fixed_q_values)
def test_interface_partition_matches_the_swept_far_corner(corners, q0):
    # the fixed-q closed form against the sweep it replaces, in value and in
    # type, empty rectangles included
    start, end = Point(*corners[:2]), Point(*corners[2:])
    got = partition_dp(InterfaceXXZ(), start, end, q0)
    want = forward_table(InterfaceXXZ(), start, end, q0).far_corner()
    assert got == want and type(got) is type(want)


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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-2, 14), st.integers(-2, 14))
    def test_matches_sweep(self, n, m):
        # a negative argument is an empty rectangle: both sides are 0
        assert interface_closed_form(n, m) == partition_dp(InterfaceXXZ(), ORIGIN, Point(n, m))

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

    @settings(deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_rep2_equals_the_per_split_sum(self, K, L):
        # the slow path: each admissible split swept on its own two rectangles
        scheme = PinnedRep2()
        for N in range(K + L + 2):
            want = ZERO
            for a in range(min(N, L + 1) + 1):
                if N - a <= K:
                    want = want + partition_dp(scheme, Point(-a, a - L - 1), ORIGIN) * \
                        partition_dp(scheme, ORIGIN, Point(N - a, K - N + a))
            assert pinned_rep2(PinnedInstance(K=K, L=L, N=N)) == want, (K, L, N)

    def test_rep2_sweeps_one_table(self, monkeypatch):
        # one forward table from the sphere of radius L+1
        calls = []
        real = partition._sweep

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(partition, "_sweep", counted)
        for inst in (PinnedInstance(K=0, L=0, N=0), PinnedInstance(K=3, L=2, N=3),
                     PinnedInstance(K=2, L=4, N=7)):
            calls.clear()
            pinned_rep2(inst)
            assert len(calls) == 1, inst

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
        for K in range(7):
            for L in range(7):
                for N in range(K + L + 2):
                    inst = PinnedInstance(K=K, L=L, N=N)
                    assert pinned_via_convolution(inst) == pinned_rep2(inst), (K, L, N)

    @given(st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
        lambda kl: st.builds(PinnedInstance, K=st.just(kl[0]), L=st.just(kl[1]),
                             N=st.integers(0, kl[0] + kl[1] + 1))))
    @example(PinnedInstance(K=0, L=0, N=0))
    @example(PinnedInstance(K=0, L=5, N=6))
    @example(PinnedInstance(K=6, L=0, N=0))
    @example(PinnedInstance(K=8, L=8, N=17))
    @example(PinnedInstance(K=8, L=8, N=8))
    def test_packed_equals_dict_convolution(self, inst):
        want = reference_convolution(inst)
        # the suite's packer, at the width of the grid up to (K, L)
        sites = inst.K + inst.L + 1
        width = math.comb(sites, sites // 2).bit_length()
        grid = functools.cache(partition._closed_form_packer(width))
        assert partition._convolution(inst, grid, width) == want
        # the public one, at the instance's own width C(sites, N)
        assert pinned_via_convolution(inst) == want

    def test_sums_only_nonzero_terms(self, monkeypatch):
        # each term asks for its bracket's two closed forms, then Z_if(n, K - n)
        calls = []
        closed_form = partition.interface_closed_form
        monkeypatch.setattr(partition, "interface_closed_form",
                            lambda n, m: calls.append((n, m)) or closed_form(n, m))
        for K in range(5):
            for L in range(5):
                for N in range(K + L + 2):
                    calls.clear()
                    pinned_via_convolution(PinnedInstance(K=K, L=L, N=N))
                    assert len(calls) % 3 == 0
                    for first, second, factor in zip(*[iter(calls)] * 3):
                        assert min(factor) >= 0, (K, L, N, factor)
                        assert max(min(first), min(second)) >= 0, (K, L, N, first, second)


class TestRec1:
    def test_spec_instance(self):
        lhs, rhs = rec1_sides(PinnedInstance(K=1, L=1, N=1))
        assert lhs == rhs

    def test_precondition(self):
        with pytest.raises(ValueError):
            rec1_sides(PinnedInstance(K=1, L=1, N=0))

    def test_fixed_weights_reading_holds_everywhere(self):
        for K in range(5):
            for L in range(5):
                for N in range(1, K + L + 1):
                    lhs, rhs = rec1_sides(PinnedInstance(K=K, L=L, N=N))
                    assert lhs == rhs, (K, L, N)

    def test_reinstanced_reading_fails(self):
        readings = rec1_readings(PinnedInstance(K=1, L=1, N=1))
        assert readings["fixed_weights"] is True
        assert readings["reinstanced_shrink_K"] is False
        assert readings["reinstanced_shrink_L"] is False

    def test_custom_table_counterexample(self):
        # a final horizontal bond of weight q^2 breaks the recursion,
        # demonstrating that the fixed-weights reading is load-bearing
        scheme = CustomTable(table={horizontal_bond(Point(0, 2)): poly({2: 1})})
        lhs = partition_bruteforce(scheme, ORIGIN, Point(1, 2))
        rhs = partition_bruteforce(scheme, ORIGIN, Point(0, 2)) + \
            partition_bruteforce(scheme, ORIGIN, Point(1, 1))
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

    def test_sphere_k_sum_is_the_convolution_term_for_term(self):
        # the sphere-K sum as first written, indexed by the crossing point
        # (n, K - n), against the convolution's term n over N' = N - n
        def sphere_term(inst, n):
            if n > inst.K:
                return ZERO
            m = inst.K - n
            return interface_closed_form(n, m) * (
                interface_closed_form(inst.N - n, inst.M - m - 1)
                + interface_closed_form(inst.N - n - 1, inst.M - m))

        def convolution_term(inst, n):
            if n > inst.N:
                return ZERO
            np_ = inst.N - n
            return interface_closed_form(n, inst.K - n) * (
                interface_closed_form(np_ - 1, inst.L - np_ + 1)
                + interface_closed_form(np_, inst.L - np_))

        instances = [PinnedInstance(K=K, L=L, N=N)
                     for K in range(6) for L in range(6) for N in range(K + L + 2)]
        assert len(instances) == 252
        for inst in instances:
            terms = [sphere_term(inst, n) for n in range(max(inst.K, inst.N) + 1)]
            assert terms == [convolution_term(inst, n) for n in range(len(terms))], inst
            assert rec2_rhs(inst) == sum(terms, ZERO), inst


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


def average_report_by_subsets(inst, q0, rep2):
    """The ave report with its right side summed over every N-subset of the
    N+M interface sites, as the identity is first written (reference)."""
    lhs = rep2.evaluate(q0)
    z_if = weighted = Fraction(0)
    for downs in itertools.combinations(range(1, inst.N + inst.M + 1), inst.N):
        w = q0 ** (2 * sum(downs))
        s = sum(1 for x in downs if x > inst.K)
        z_if += w
        weighted += w * q0 ** (-2 * (inst.K + 1) * s)
    return {
        "identity": "ave",
        "parameters": {"K": inst.K, "L": inst.L, "N": inst.N, "M": inst.M,
                       "q0": str(q0), "s_reading": "down spins at sites -L..0"},
        "holds": lhs == weighted,
        "lhs": str(lhs),
        "rhs": str(weighted),
        "ratio": str(lhs / weighted),
        "interface_partition": str(z_if),
        "expectation": str(weighted / z_if),
    }


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

    def test_q_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^q0 must lie in \(0, 1\)$"):
            verify_average_representation(PinnedInstance(K=1, L=1, N=1), Fraction(3, 2))

    def test_report_shape(self):
        report = verify_average_representation(PinnedInstance(K=1, L=2, N=2), Fraction(1, 2))
        assert set(report) >= {"identity", "parameters", "holds", "lhs", "rhs", "ratio"}
        assert report["ratio"] == "1"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_key_matches_the_subset_sum(self, data):
        K, L = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        inst = PinnedInstance(K=K, L=L, N=data.draw(st.integers(0, K + L + 1)))
        q0 = data.draw(open_unit_rationals)
        assert verify_average_representation(inst, q0) == \
            average_report_by_subsets(inst, q0, pinned_rep2(inst))

    def test_enumerates_nothing(self):
        # C(61, 31), about 2.3e17 subsets of the interface sites: no sum over
        # them would finish
        report = verify_average_representation(PinnedInstance(K=30, L=30, N=31),
                                               Fraction(1, 2))
        assert report["holds"] and report["ratio"] == "1"


def test_pinned_instance_validation():
    with pytest.raises(ValueError):
        PinnedInstance(K=1, L=1, N=4)
    with pytest.raises(ValueError):
        PinnedInstance(K=-1, L=0, N=0)
    inst = PinnedInstance(K=2, L=1, N=3)
    assert inst.M == 1 and inst.sites == 4
