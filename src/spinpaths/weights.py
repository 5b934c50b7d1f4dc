"""Bond-local weight schemes and path weights.

A scheme is asked by coordinates: bond_weight(i, j, orientation) weighs
the bond whose tail is (i, j), the point horizontal_bond/vertical_bond take.
The named schemes weigh every vertical bond as 1, and a horizontal bond as
q^h_exponent(s), s = i + 1 + j the diagonal of its right end (i+1, j), the
head of the step; bond_weight derives from that int, and the sweep's encoder
reads it once per diagonal.  A CustomTable has no such rule: the sweep
refuses it, and path_weight and partition_bruteforce serve it.
Path weights are the product of bond weights, so weights multiply under
path concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .lattice import Bond, H_STEP, LatticePath
from .qpoly import LaurentPoly, ONE
from .spin import PinnedInstance


class OutOfDomain(ValueError):
    """A bond lies outside the weight scheme's stated domain."""


class WeightScheme:
    """Base class: a rule assigning a monomial weight to every bond."""

    name = "abstract"
    # a named scheme's h_exponent(s), the exponent of the horizontal weight on
    # the head diagonal s; None for a scheme that the sweep refuses
    h_exponent = None

    def bond_weight(self, i: int, j: int, orientation: str) -> LaurentPoly:
        """Weight of the bond with tail (i, j) and orientation H_STEP or V_STEP."""
        raise NotImplementedError

    def path_weight(self, path: LatticePath) -> LaurentPoly:
        """Product of bond weights along the path; the empty path weighs 1."""
        w = ONE
        i, j = path.start
        for s in path.steps:
            w = w * self.bond_weight(i, j, s)
            if s == H_STEP:
                i += 1
            else:
                j += 1
        return w


def _head_weight(scheme: WeightScheme, i: int, j: int, orientation: str) -> LaurentPoly:
    """A named scheme's bond_weight: 1 for a vertical bond, and
    q^h_exponent(i + 1 + j) for a horizontal one."""
    if orientation != H_STEP:
        return ONE
    return LaurentPoly.q_power(scheme.h_exponent(i + 1 + j))


@dataclass(frozen=True)
class InterfaceXXZ(WeightScheme):
    """Horizontal bond with right end (i+1, j) weighs q^(2(i+1+j))."""

    name = "interface"
    bond_weight = _head_weight

    def h_exponent(self, s: int) -> int:
        return 2 * s


@dataclass(frozen=True)
class PinnedRep1(WeightScheme):
    """Weights constant on lattice spheres around the origin, rising up to
    radius K and falling back to 1 at radius K+L+1.

    The two regimes meet at radius K; that sphere is assigned the rising
    branch q^(2K).  Bonds beyond radius K+L+1 are out of domain.
    """

    K: int
    L: int

    name = "rep1"
    bond_weight = _head_weight

    def __post_init__(self):
        PinnedInstance(K=self.K, L=self.L, N=0)   # the chain's rule on K and L

    def h_exponent(self, s: int) -> int:
        if s <= self.K:
            return 2 * s
        if s <= self.K + self.L + 1:
            return 2 * (self.K + self.L + 1) - 2 * s
        raise OutOfDomain(f"bond at radius {s} exceeds K+L+1 = {self.K + self.L + 1}")


@dataclass(frozen=True)
class PinnedRep2(WeightScheme):
    """Horizontal bond with right end (i+1, j) weighs q^(2|i+1+j|)."""

    name = "rep2"
    bond_weight = _head_weight

    def h_exponent(self, s: int) -> int:
        return 2 * abs(s)


@dataclass(frozen=True)
class CustomTable(WeightScheme):
    """Explicit bond -> weight map; bonds not in the table get `default`.

    Testing hook for weight systems that none of the named schemes
    produce, nontrivial vertical weights included.  path_weight and
    partition_bruteforce serve it; the sweep refuses it.
    """

    table: Mapping[Bond, LaurentPoly] = field(default_factory=dict)
    default: LaurentPoly = ONE

    name = "custom"

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))
        # bond_weight is asked by coordinates; key a copy of the table that way once
        object.__setattr__(self, "_by_tail", {(b.tail.i, b.tail.j, b.orientation): w
                                              for b, w in self.table.items()})

    def __hash__(self):
        return hash((tuple(sorted(self._by_tail.items())), self.default))

    def bond_weight(self, i: int, j: int, orientation: str) -> LaurentPoly:
        return self._by_tail.get((i, j, orientation), self.default)


def scheme_from_name(name: str, K: int | None = None, L: int | None = None) -> WeightScheme:
    """Resolve the CLI/config scheme names 'interface', 'rep1', 'rep2'.

    rep1 needs K and L; the other two take neither."""
    if name == "rep1":
        if K is None or L is None:
            raise ValueError("scheme 'rep1' requires K and L")
        return PinnedRep1(K=K, L=L)
    if name not in ("interface", "rep2"):
        raise ValueError(f"unknown scheme {name!r}")
    if K is not None or L is not None:
        raise ValueError(f"scheme {name!r} takes no K or L")
    return InterfaceXXZ() if name == "interface" else PinnedRep2()
