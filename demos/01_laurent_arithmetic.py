"""Exact Laurent polynomial arithmetic: the value type everything else uses.

Coefficients are arbitrary-precision integers and exponents may be
negative; evaluation at a rational point returns an exact Fraction.
"""

from fractions import Fraction

from spinpaths import LaurentPoly, NotDivisible
from spinpaths.qpoly import qsquare_factorial_product

one = LaurentPoly.one()
q2 = LaurentPoly.q_power(2)

p = one + q2
print("p              =", p)
print("p * p          =", p * p)
print("p - p          =", p - p)
print("q^-2 * q^2     =", LaurentPoly.q_power(-2) * q2)

geometric = LaurentPoly({0: 1, 6: -1})
factor = LaurentPoly({0: 1, 2: -1})
print("\n(1 - q^6) / (1 - q^2) =", geometric.div_exact(factor))

try:
    LaurentPoly({2: 1, 4: 1}).div_exact(LaurentPoly({0: 1, 4: 1}))
except NotDivisible as exc:
    print("inexact division raises:", exc)

print("\nproduct of (1 - q^(2i)), i = 1..3:", qsquare_factorial_product(3))

value = (p * p).evaluate(Fraction(1, 2))
print("\n(1 + q^2)^2 at q = 1/2 =", value)
print("JSON form of p*p:", (p * p).to_json_obj())
