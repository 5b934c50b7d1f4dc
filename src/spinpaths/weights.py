"""Bond-local weight schemes and path weights.

A scheme is asked by coordinates: bond_weight(i, j, orientation) weighs
the bond whose tail is (i, j), the point horizontal_bond/vertical_bond take.
The named schemes weigh vertical bonds as 1, and a horizontal bond by a
monomial in q determined by the diagonal of its right end (i+1, j), the
head of the step; they declare that with ``by_diagonal``.
Path weights are the product of bond weights, so weights multiply under
path concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .lattice import Bond, H_STEP, LatticePath
from .qpoly import LaurentPoly, ONE


class OutOfDomain(ValueError):
    """A bond lies outside the weight scheme's stated domain."""


class WeightScheme:
    """Base class: a rule assigning a monomial weight to every bond."""

    name = "abstract"
    # True when a bond's weight depends only on its orientation and its
    # tail's diagonal i + j, so one bond per diagonal stands for the rest
    by_diagonal = False

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


@dataclass(frozen=True)
class InterfaceXXZ(WeightScheme):
    """Horizontal bond with right end (i+1, j) weighs q^(2(i+1+j))."""

    name = "interface"
    by_diagonal = True

    def bond_weight(self, i: int, j: int, orientation: str) -> LaurentPoly:
        if orientation != H_STEP:
            return ONE
        return LaurentPoly.q_power(2 * (i + 1 + j))


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
    by_diagonal = True

    def __post_init__(self):
        if self.K < 0 or self.L < 0:
            raise ValueError("K and L must be nonnegative")

    def bond_weight(self, i: int, j: int, orientation: str) -> LaurentPoly:
        if orientation != H_STEP:
            return ONE
        s = i + 1 + j
        if s <= self.K:
            return LaurentPoly.q_power(2 * s)
        if s <= self.K + self.L + 1:
            return LaurentPoly.q_power(2 * (self.K + self.L + 1) - 2 * s)
        raise OutOfDomain(f"bond at radius {s} exceeds K+L+1 = {self.K + self.L + 1}")


@dataclass(frozen=True)
class PinnedRep2(WeightScheme):
    """Horizontal bond with right end (i+1, j) weighs q^(2|i+1+j|)."""

    name = "rep2"
    by_diagonal = True

    def bond_weight(self, i: int, j: int, orientation: str) -> LaurentPoly:
        if orientation != H_STEP:
            return ONE
        return LaurentPoly.q_power(2 * abs(i + 1 + j))


@dataclass(frozen=True)
class CustomTable(WeightScheme):
    """Explicit bond -> weight map; bonds not in the table get `default`.

    Testing hook: lets the generic machinery run on weight systems that
    none of the named schemes produce (including nontrivial vertical
    weights).
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
    """Resolve the CLI/config scheme names 'interface', 'rep1', 'rep2'."""
    if name == "interface":
        return InterfaceXXZ()
    if name == "rep1":
        if K is None or L is None:
            raise ValueError("scheme 'rep1' requires K and L")
        return PinnedRep1(K=K, L=L)
    if name == "rep2":
        return PinnedRep2()
    raise ValueError(f"unknown scheme {name!r}")
