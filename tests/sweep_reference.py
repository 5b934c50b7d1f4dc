"""The dict-polynomial slow paths that the packed sweep and the packed
convolution replace, shared by the tests that check them, and the q0 values
the tests of the fixed-q ring draw.

Import them from a test module as
``from sweep_reference import fixed_q_values, reference_convolution, reference_tables``.
"""

from fractions import Fraction

from hypothesis import strategies as st

from spinpaths.lattice import H_STEP, V_STEP
from spinpaths.partition import interface_closed_form
from spinpaths.qpoly import ONE, ZERO

# 1, values above 1, negative and dyadic values, and two large denominators
fixed_q_values = st.one_of(
    st.sampled_from([Fraction(1), Fraction(999, 1000), Fraction(1, 1000000)]),
    st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 20)),
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-64, 64).filter(bool),
              st.integers(0, 6)))


def reference_tables(scheme, start, end):
    """Forward and backward tables by the dict-polynomial sweep over any
    scheme's bond_weight: dicts of LaurentPoly keyed by (i, j)."""
    cells = [(i, j) for i in range(start.i, end.i + 1) for j in range(start.j, end.j + 1)]
    fwd, bwd = {}, {}
    for i, j in cells:   # left and below come first
        z = ONE if (i, j) == start else ZERO
        if i > start.i:
            z = z + scheme.bond_weight(i - 1, j, H_STEP) * fwd[i - 1, j]
        if j > start.j:
            z = z + scheme.bond_weight(i, j - 1, V_STEP) * fwd[i, j - 1]
        fwd[i, j] = z
    for i, j in reversed(cells):   # right and above come first
        z = ONE if (i, j) == end else ZERO
        if i < end.i:
            z = z + scheme.bond_weight(i, j, H_STEP) * bwd[i + 1, j]
        if j < end.j:
            z = z + scheme.bond_weight(i, j, V_STEP) * bwd[i, j + 1]
        bwd[i, j] = z
    return fwd, bwd


def reference_convolution(inst):
    """The pinned partition function as a convolution of interface closed
    forms, summed as LaurentPoly products."""
    total = ZERO
    # a term with n > K, or with N - n > L + 1, has a zero factor
    for n in range(max(0, inst.N - inst.L - 1), min(inst.N, inst.K) + 1):
        np_ = inst.N - n
        bracket = interface_closed_form(np_ - 1, inst.L - np_ + 1) + \
            interface_closed_form(np_, inst.L - np_)
        total = total + interface_closed_form(n, inst.K - n) * bracket
    return total
