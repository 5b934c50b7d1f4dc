"""The dict-polynomial slow paths that the packed sweep and the packed
convolution replace, shared by the tests that check them, the q0 values the
tests of the fixed-q ring draw, the dict-building JSON rendering that
the CLI's streaming writer replaces, and the sliced step words that the
sampler's one-`tolist` words replace.

Import them from a test module as
``from sweep_reference import fixed_q_values, reference_convolution, reference_tables``.
"""

import json
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from spinpaths.lattice import H_STEP, V_STEP
from spinpaths.partition import interface_closed_form
from spinpaths.qpoly import ONE, ZERO, LaurentPoly
from spinpaths.sampler import sample_step_matrix

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


def reference_text(p):
    """p's text form, built term by term from the int coefficients."""
    parts = []
    for e, c in p.items():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def poly_json(p):
    """p's spinpaths/polynomial/1 object as a dict."""
    return {"schema": "spinpaths/polynomial/1", "terms": p.to_json_obj(),
            "text": reference_text(p)}


def rendered(entry):
    """A verify report entry with its sides as JSON: polynomial objects,
    other values (the ave sides' Fractions) as strings."""
    def render(v):
        return poly_json(v) if isinstance(v, LaurentPoly) else str(v)
    return {**entry, "lhs": render(entry["lhs"]), "rhs": render(entry["rhs"])}


def reference_json(obj):
    """obj as json.dumps(..., indent=2) prints it once every LaurentPoly in it
    is a poly_json dict and every Fraction a string: the pure-Python encoder."""
    def plain(v):
        if isinstance(v, LaurentPoly):
            return poly_json(v)
        if isinstance(v, Fraction):
            return str(v)
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return v
    return json.dumps(plain(obj), indent=2)


def reference_words(state, samples):
    """`sampler.sample_words` by slicing: the step matrix as one byte
    string, cut into one word per row."""
    matrix = sample_step_matrix(state, samples)
    total = matrix.shape[1]
    words = np.where(matrix, ord(H_STEP), ord(V_STEP)).astype(np.uint8).tobytes().decode()
    return [words[r * total:(r + 1) * total] for r in range(samples)]
