"""Laurent polynomial arithmetic: frozen examples plus ring properties."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spinpaths import LaurentPoly, NotDivisible, ZeroToNegativePower
from spinpaths.qpoly import PACK_MIN_TERMS, _packed_product, pack, qsquare_factorial_product, unpack

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def poly(terms):
    return LaurentPoly(terms)


polys = st.builds(LaurentPoly, st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9), max_size=6))

nonzero_polys = polys.filter(bool)

# nonzero: Laurent polynomials with negative exponents are undefined at 0
rationals = st.builds(Fraction,
                      st.integers(min_value=-12, max_value=12).filter(bool),
                      st.integers(min_value=1, max_value=12))


class TestAdd:
    def test_cancellation(self):
        assert poly({0: 1, 2: 1}) + poly({2: -1}) == ONE

    def test_identity(self):
        p = poly({-3: 2, 5: 7})
        assert ZERO + p == p

    def test_disjoint_supports(self):
        assert poly({2: 1, 4: 1}) + poly({6: 1}) == poly({2: 1, 4: 1, 6: 1})


class TestMul:
    def test_hand_expansion(self):
        p = poly({0: 1, 2: 1})
        assert p * p == poly({0: 1, 2: 2, 4: 1})

    def test_exponent_cancellation(self):
        assert poly({-2: 1}) * poly({2: 1}) == ONE

    def test_telescoping(self):
        assert poly({0: 1, 2: -1}) * poly({0: 1, 2: 1, 4: 1}) == poly({0: 1, 6: -1})

    @given(e=st.integers(-6, 6), c=st.integers(-9, 9).filter(bool), p=polys)
    def test_monomial_factor_matches_double_loop(self, e, c, p):
        m = poly({e: c})
        product: dict[int, int] = {}
        for ea, ca in m.items():
            for eb, cb in p.items():
                product[ea + eb] = product.get(ea + eb, 0) + ca * cb
        expected = poly(product)
        assert m * p == expected
        assert p * m == expected


def double_loop(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The product term by term: the slow path the packed product replaces."""
    product: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            product[ea + eb] = product.get(ea + eb, 0) + ca * cb
    return poly(product)


# coefficients that fill a packed product's slots up to their edges: a run of
# equal ones makes the middle product coefficient equal the slot bound, and a
# power of two lifts the bound's bit length by one
edge_coeffs = st.sampled_from([1, -1, 2**7 - 1, -(2**7 - 1), 2**7, -2**7,
                               2**40 - 1, -(2**40 - 1), 2**40, -2**40])


@st.composite
def product_operands(draw, size):
    """A polynomial of `size` terms: Laurent, strided, dense or sparse, signed."""
    low = draw(st.integers(-40, 40))
    stride = draw(st.sampled_from([1, 2, 3, 7]))
    if draw(st.booleans()):
        slots = range(size)
    else:
        slots = draw(st.lists(st.integers(0, 4 * size + 8), min_size=size, max_size=size,
                              unique=True))
    coeff = st.one_of(st.integers(-9, 9).filter(bool), edge_coeffs)
    if draw(st.booleans()):
        coeffs = [draw(coeff)] * size   # all equal: the slot bound is met
    else:
        coeffs = draw(st.lists(coeff, min_size=size, max_size=size))
    return poly({low + stride * s: c for s, c in zip(slots, coeffs)})


class TestPackedProduct:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_double_loop(self, data):
        # sizes on both sides of the threshold, monomials and 0 included
        small = data.draw(st.sampled_from([0, 1, 2, PACK_MIN_TERMS - 1, PACK_MIN_TERMS])
                          | st.integers(0, 3 * PACK_MIN_TERMS))
        a = data.draw(product_operands(small))
        b = data.draw(product_operands(data.draw(st.integers(small, 4 * PACK_MIN_TERMS))))
        expected = double_loop(a, b)
        assert a * b == expected and b * a == expected
        if a and b:
            # the packed path itself, below the threshold too, unless it declines
            packed = _packed_product(a._terms, b._terms)
            assert packed is None or packed == expected

    @pytest.mark.parametrize("ca, cb", [(3, 1), (-3, 1), (257, -3), (-257, -3),
                                        (2**40, 2**40), (-(2**40 - 1), 2**40 - 1)])
    @pytest.mark.parametrize("alternate", [False, True])
    def test_slot_edges(self, ca, cb, alternate):
        # 85 equal coefficients times 85 more: the middle product coefficient
        # is 85 * ca * cb, the slot bound itself, and 85 * 3 = 2^8 - 1 fills a
        # slot to its edge.  The slots are unsigned, so operands with a
        # negative coefficient, such as b with alternating signs, are declined
        # and take the double loop
        n = 85
        a = poly({2 * k - 5: ca for k in range(n)})
        b = poly({2 * k: -cb if alternate and k % 2 else cb for k in range(n)})
        packed = ca > 0 and cb > 0 and not alternate
        assert (_packed_product(a._terms, b._terms) is not None) == packed
        assert a * b == double_loop(a, b)

    @pytest.mark.parametrize("size, coeff, packed", [
        (PACK_MIN_TERMS, 1, True),
        (90, 2**400, False), (91, 2**400, True),   # 807-bit slots: 807 // 12 = 67 more
    ])
    def test_threshold_grows_with_width(self, size, coeff, packed):
        a = poly({k: coeff for k in range(size)})
        assert (_packed_product(a._terms, a._terms) is not None) == packed
        assert a * a == double_loop(a, a)

    def test_a_negative_coefficient_takes_the_double_loop(self):
        # 91 terms at 807-bit slots meet the threshold above, but one -1
        # does not fit an unsigned slot
        a = poly({k: 2**400 for k in range(90)} | {90: -1})
        assert _packed_product(a._terms, a._terms) is None
        assert a * a == double_loop(a, a)

    def test_sparse_operands_take_the_double_loop(self):
        # exponents 1 apart at the bottom and 10^6 apart above: the slots would
        # outnumber the double loop's steps by far
        a = poly({0: 1, **{10**6 * k + 1: 1 for k in range(PACK_MIN_TERMS)}})
        assert _packed_product(a._terms, a._terms) is None
        assert a * a == double_loop(a, a)

    @given(st.dictionaries(st.integers(-20, 20), st.integers(0, 2**13 - 1),
                           max_size=10), st.sampled_from([1, 2, 5]))
    @example({3: 2**13 - 1, 4: 2**13 - 1}, 2)
    def test_pack_is_the_substitution_unpack_inverts(self, terms, stride):
        p = poly({stride * e: c for e, c in terms.items()})
        shift = min(p._terms, default=0) - stride * 2
        n = pack(p.items(), 13, stride, shift)
        assert n == sum(c << 13 * ((e - shift) // stride) for e, c in p.items())
        assert unpack(n, 13, stride, shift) == p


class TestDivExact:
    def test_geometric_factor(self):
        assert poly({0: 1, 6: -1}).div_exact(poly({0: 1, 2: -1})) == poly({0: 1, 2: 1, 4: 1})

    def test_divide_by_one(self):
        p = poly({-1: 3, 4: -2})
        assert p.div_exact(ONE) == p

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            poly({2: 1, 4: 1}).div_exact(poly({0: 1, 4: 1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ONE.div_exact(ZERO)


class TestEvaluate:
    def test_direct_substitution(self):
        assert poly({0: 1, 2: 1}).evaluate(Fraction(1, 2)) == Fraction(5, 4)

    def test_negative_exponent(self):
        assert poly({-2: 1}).evaluate(Fraction(1, 2)) == 4

    def test_zero_to_negative_power(self):
        with pytest.raises(ZeroToNegativePower):
            poly({-1: 1, 2: 3}).evaluate(0)

    def test_zero_base_nonnegative_exponents(self):
        assert poly({0: 7, 3: 5}).evaluate(0) == 7
        assert poly({2: 7, 3: 5}).evaluate(0) == 0 and ZERO.evaluate(0) == 0

    @given(st.dictionaries(st.integers(-15, 15), st.integers(-2**70, 2**70), max_size=12),
           st.one_of(rationals, st.just(Fraction(0)), st.integers(-5, 5)))
    def test_matches_term_by_term_sum(self, terms, q0):
        p = poly(terms)
        if q0 == 0 and p and p.valuation() < 0:
            with pytest.raises(ZeroToNegativePower):
                p.evaluate(q0)
            return
        value = p.evaluate(q0)
        assert type(value) is Fraction
        assert value == sum((c * Fraction(q0) ** e for e, c in p.items()), Fraction(0))


class TestQSquareFactorialProduct:
    def test_empty_product(self):
        assert qsquare_factorial_product(0) == ONE

    def test_single_factor(self):
        assert qsquare_factorial_product(1) == poly({0: 1, 2: -1})

    def test_two_factors(self):
        assert qsquare_factorial_product(2) == poly({0: 1, 2: -1, 4: -1, 6: 1})


class TestRingProperties:
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, nonzero_polys)
    def test_div_exact_inverts_mul(self, a, b):
        assert (a * b).div_exact(b) == a

    @given(polys, polys, rationals)
    def test_evaluate_is_homomorphism(self, a, b, q0):
        assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
        assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


class TestJsonForm:
    def test_round_trip(self):
        p = poly({-2: 3, 0: -1, 10: 12345678901234567890})
        assert LaurentPoly.from_json_obj(p.to_json_obj()) == p

    def test_sorted_ascending_decimal_strings(self):
        obj = poly({4: 2, -1: 1}).to_json_obj()
        assert list(obj.items()) == [("-1", "1"), ("4", "2")]

    @given(polys)
    def test_round_trip_property(self, p):
        assert LaurentPoly.from_json_obj(p.to_json_obj()) == p


def test_canonical_form_drops_zeros():
    assert poly({3: 0, 1: 2}) == poly({1: 2})
    assert not (poly({2: 1}) + poly({2: -1}))


def test_power():
    p = poly({0: 1, 1: 1})
    assert p * p * p == poly({0: 1, 1: 3, 2: 3, 3: 1})


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(poly({-1: -2, 0: 1, 3: 1})) == "-2*q^-1 + 1 + q^3"


class TestValueContracts:
    @pytest.mark.parametrize("c", [0, 1, 5, -1, -7, 2**70])
    def test_constant_hashes_like_its_int(self, c):
        p = poly({0: c})
        assert p == c
        assert hash(p) == hash(c)
        assert c in {p} and p in {c}

    @pytest.mark.parametrize("terms", [{0: True}, {True: 1}, {1: False}, {False: 2}])
    def test_bool_exponents_and_coefficients_rejected(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_bool_operand_acts_as_its_int(self):
        assert ONE == True  # noqa: E712 - bool is compared as the int it equals
        assert ONE + True == poly({0: 2})

    @given(polys, polys, st.integers(-9, 9))
    def test_subtraction_adds_the_negation(self, a, b, n):
        assert a - b == a + (-b)
        assert -(-a) == a
        assert (a - b) + b == a
        assert n - a == -(a - n)

    @given(polys, polys)
    def test_equal_polys_hash_equal(self, a, b):
        c = (a + b) - b   # equal to a, built apart from it
        assert c == a and hash(c) == hash(a)
        assert len({a, c}) == 1

    @given(polys)
    def test_hash_ignores_insertion_order(self, a):
        backwards = LaurentPoly(dict(reversed(list(a.items()))))
        assert backwards == a and hash(backwards) == hash(a)

    @given(st.integers(-2**70, 2**70), polys)
    def test_constant_equals_and_hashes_like_its_int(self, n, a):
        c = (a + n) - a
        assert c == n and n == c and hash(c) == hash(n)
        assert len({c, n}) == 1

    @given(polys)
    def test_repr_round_trips(self, a):
        assert eval(repr(a), {"LaurentPoly": LaurentPoly}) == a
        assert len(a) == len(a.items())

    @given(polys)
    def test_foreign_operands_are_not_implemented(self, a):
        for op in (lambda: a + "x", lambda: a - "x", lambda: "x" - a, lambda: a * "x"):
            with pytest.raises(TypeError):
                op()
        assert (a == "x") is False


class TestRefusals:
    def test_factorial_product_of_a_negative_count(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            qsquare_factorial_product(-1)

    def test_zero_has_no_degree_or_valuation(self):
        with pytest.raises(ValueError, match="zero polynomial has no degree"):
            ZERO.degree()
        with pytest.raises(ValueError, match="zero polynomial has no valuation"):
            ZERO.valuation()


@given(st.integers(2, 12), st.integers(1, 3), st.integers(-20, 20), st.data())
@example(4, 1, 0, None)
def test_unpack_inverts_packing(width, stride, shift, data):
    # coefficients fill their slots up to the edge; two full slots over two
    # empty ones leave empty low slots to drop and a multi-slot rest
    full = (1 << width) - 1
    if data is None:
        coeffs = [0, 0, full, full]
    else:
        slot = st.integers(0, full)
        coeffs = data.draw(st.lists(st.one_of(slot, st.sampled_from([0, full])), max_size=8))
    n = sum(c << width * s for s, c in enumerate(coeffs))
    expected = LaurentPoly({shift + stride * s: c for s, c in enumerate(coeffs)})
    assert unpack(n, width, stride, shift) == expected

