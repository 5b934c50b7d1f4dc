"""Exact Laurent polynomial arithmetic in the formal variable q.

A Laurent polynomial is a finite integer combination of powers q^e with
integer exponents of either sign.  Coefficients are Python ints, so all
arithmetic is arbitrary precision and exact; nothing in this module ever
rounds.  Rational evaluation returns ``fractions.Fraction``.

Canonical form: zero coefficients are never stored, and the zero
polynomial stores no terms at all.  Instances are immutable and safe to
share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Mapping

# the fewest terms of the smaller operand of a product taken by Kronecker
# substitution; wide slots need more (see _packed_product)
PACK_MIN_TERMS = 24


class NotDivisible(ArithmeticError):
    """No exact polynomial quotient exists (nonzero remainder)."""


class ZeroToNegativePower(ZeroDivisionError):
    """A negative power of q was evaluated at q = 0."""


class LaurentPoly:
    """Sparse Laurent polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if type(e) is bool or type(c) is bool \
                        or not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be int")
                if c != 0:
                    clean[e] = c
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentPoly":
        """The monomial q^exponent."""
        if type(exponent) is not int:
            return cls({exponent: 1})   # a bool or a non-int goes through the checks
        # path_weight builds one monomial per bond of an enumerated path: skip the
        # term checks
        return _unchecked({exponent: 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, exponents ascending."""
        return sorted(self._terms.items())

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _unchecked(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _unchecked({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) >= PACK_MIN_TERMS:
            out = _packed_product(a, b)
            if out is not None:
                return out
        terms: dict[int, int] = {}
        if len(a) == 1:
            # a monomial shifts the exponents: products of nonzero ints are
            # nonzero and distinct exponents stay distinct, so nothing cancels
            # (a plain loop: most products are of two monomials, where a
            # comprehension's own frame costs more than the loop)
            (ea, ca), = a.items()
            for eb, cb in b.items():
                terms[ea + eb] = ca * cb
        else:
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = ea + eb
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
        return _unchecked(terms)

    __rmul__ = __mul__

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor.

        Long division from the lowest exponent after normalizing the
        Laurent shifts of both operands.  Raises NotDivisible on any
        nonzero remainder; the result is never an approximation.
        """
        divisor = _coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero()
        shift = divisor.valuation()
        b = {e - shift: c for e, c in divisor._terms.items()}
        b_deg = max(b)
        b_low = b[0]
        rem = {e - shift: c for e, c in self._terms.items()}
        # quotient exponents cannot exceed deg(rem) - deg(b)
        max_quot_exp = max(rem) - b_deg
        quot: dict[int, int] = {}
        while rem:
            v = min(rem)
            if v > max_quot_exp:
                raise NotDivisible("nonzero remainder")
            c, r = divmod(rem[v], b_low)
            if r:
                raise NotDivisible("nonzero remainder")
            quot[v] = c
            for e, cb in b.items():
                s = rem.get(v + e, 0) - c * cb
                if s:
                    rem[v + e] = s
                else:
                    rem.pop(v + e, None)
        return LaurentPoly(quot)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0 (int or Fraction).

        With q0 = p/r, lo = min(0, valuation) and hi = max(0, degree), the
        value is numerator(terms, p, r, lo, hi) over p^(-lo) * r^hi: one
        Fraction, made at the end.
        """
        q0 = Fraction(q0)
        terms = self._terms
        if not terms:
            return Fraction(0)
        p, r = q0.numerator, q0.denominator
        lo, hi = min(0, min(terms)), max(0, max(terms))
        if p == 0 and lo < 0:
            raise ZeroToNegativePower("negative power of q at q = 0")
        return Fraction(numerator(terms.items(), p, r, lo, hi), p ** -lo * r ** hi)

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict[str, str]:
        """JSON form: exponent string -> coefficient string, exponents ascending."""
        return {str(e): str(c) for e, c in self.items()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, str]) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in obj.items()})

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if not terms or (len(terms) == 1 and 0 in terms):
            # a constant equals its int, so it must hash like it
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))   # insertion order is not compared

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def __str__(self) -> str:
        return text_form([(e, str(c)) for e, c in self.items()])


def text_form(terms: list[tuple[int, str]]) -> str:
    """str() of the polynomial with these (exponent, coefficient string) pairs,
    exponents ascending, such as '-2*q^-1 + 1 + q^2'; the CLI's "text" too."""
    parts = []
    for e, c in terms:
        if c[0] == "-":
            sign, c = " - ", c[1:]
        else:
            sign = " + "
        if e:
            power = "q" if e == 1 else f"q^{e}"
            parts.append(sign + power if c == "1" else f"{sign}{c}*{power}")
        else:
            parts.append(sign + c)
    text = "".join(parts)
    return "-" + text[3:] if text[1:2] == "-" else text[3:] or "0"


def _unchecked(terms: dict[int, int]) -> LaurentPoly:
    """A LaurentPoly holding terms as given, unchecked: int keys and values, none 0."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: int(value)})  # int() turns a bool into the int it equals
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def numerator(terms: Collection[tuple[int, int]], p: int, r: int, lo: int, hi: int) -> int:
    """The int sum of c * p^(e - lo) * r^(hi - e) over the (e, c) pairs, each e
    in [lo, hi]: the value at q = p/r times p^(-lo) * r^hi.

    Horner's rule, from the top exponent down, so the powers of p are
    multiplied in as the exponents fall.
    """
    num, r_pow, prev = 0, 1, hi
    for e, c in sorted(terms, reverse=True):
        r_pow *= r ** (prev - e)
        num = num * p ** (prev - e) + c * r_pow
        prev = e
    return num * p ** (prev - lo)


def pack(terms: Collection[tuple[int, int]], width: int, stride: int, shift: int) -> int:
    """Kronecker substitution, the inverse of unpack: the int sum of
    c * 2^(width * (e - shift) / stride) over the (e, c) pairs.

    Every exponent must lie on the stride above shift, and every c in
    [0, 2^width).  The slots from the highest term down to the lowest are
    rendered as one binary string of width-bit fields, read by one int()
    and shifted into place, so this is linear in the size of the result.
    """
    if not terms:
        return 0
    (low, _), (top, _) = min(terms), max(terms)
    dense = [0] * ((top - low) // stride + 1)
    for e, c in terms:
        dense[(top - e) // stride] = c
    n = int("".join(map(f"{{:0{width}b}}".format, dense)), 2)
    return n << width * ((low - shift) // stride)


def _packed_product(a: dict[int, int], b: dict[int, int]) -> LaurentPoly | None:
    """The product of two term dicts, a the smaller, as one int product of
    their packings; None when the double loop is expected to be faster, or
    when a coefficient is negative.

    Both operands are strided by the gcd of their offset exponents.  A
    product coefficient is at most min(sum(a) * max(b), sum(b) * max(a)),
    so slots of that many bits never carry into each other.  The packing
    costs more per term as the slots widen, so a needs PACK_MIN_TERMS
    terms and one more per 12 bits of width.  Operands so sparse that the
    packed product would hold more slots than the double loop takes steps
    are declined too.
    """
    ca, cb = a.values(), b.values()
    if min(ca) < 0 or min(cb) < 0:
        return None
    low_a, low_b = min(a), min(b)
    stride = math.gcd(*(e - low_a for e in a), *(e - low_b for e in b)) or 1
    if (max(a) - low_a + max(b) - low_b) // stride + 1 > len(a) * len(b):
        return None
    width = min(sum(ca) * max(cb), sum(cb) * max(ca)).bit_length()
    if len(a) < PACK_MIN_TERMS + width // 12:
        return None
    n = pack(a.items(), width, stride, low_a) * pack(b.items(), width, stride, low_b)
    return unpack(n, width, stride, low_a + low_b)


def unpack(n: int, width: int, stride: int, shift: int) -> LaurentPoly:
    """Invert a Kronecker substitution: the polynomial whose coefficient at
    q^(shift + stride*s) is slot s of n, the s-th width-bit field from the
    low end, in [0, 2^width).  One binary rendering of n and one int() per
    slot keep this linear in the size of n.
    """
    if not n:
        return ZERO
    # drop the empty low slots; what is left is often a single slot
    empty = ((n & -n).bit_length() - 1) // width
    n >>= width * empty
    shift += stride * empty
    if n < 1 << width:
        return _unchecked({shift: n})   # one slot left: n is its coefficient
    bits = format(n, "b")
    bits = bits.zfill(-(-len(bits) // width) * width)
    top = shift + stride * (len(bits) // width - 1)
    terms = {}
    for k in range(0, len(bits), width):
        c = int(bits[k:k + width], 2)
        if c:
            terms[top - stride * (k // width)] = c
    return _unchecked(terms)


def qsquare_factorial_product(k: int) -> LaurentPoly:
    """The product of (1 - q^(2i)) for i = 1..k; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    result = LaurentPoly.one()
    for i in range(1, k + 1):
        result = result * LaurentPoly({0: 1, 2 * i: -1})
    return result
