"""Numerical semigroup arithmetic.

A numerical semigroup is an additive submonoid of the nonnegative integers
with finite complement, written here by its unique minimal generating set
g_1 < ... < g_k (the atoms). Construction rejects anything that is not a
minimal generating set with gcd 1, because every length computation in this
package assumes generators == atoms.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    ContainsOneError,
    DegenerateError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NotMinimalError,
)


class AperyTable:
    """Least semigroup element in each residue class for a modulus in S.

    entries[j] is the smallest element of S congruent to j mod modulus, so
    entries[0] == 0 and entries[j] - modulus is never in S.
    """

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, entries: tuple[int, ...]) -> None:
        self.modulus = modulus
        self.entries = entries

    def __len__(self) -> int:
        return self.modulus

    def max(self) -> int:
        return max(self.entries)


def _apery(m: int, gens) -> tuple[int, ...]:
    """Least element of <gens> in each class mod m, for m in <gens>, in O(k * m).

    Round robin (Boecker and Liptak, "The money changing problem revisited"):
    generator a joins the classes into gcd(m, a) cycles r -> r + a, and one
    pass around a cycle from its least entry makes every entry final.
    """
    ap: list = [0] + [None] * (m - 1)
    for a in gens:
        d = gcd(m, a)
        for p in range(d):
            n = min((w for w in ap[p::d] if w is not None), default=None)
            if n is None:
                continue
            for _ in range(m // d - 1):
                n += a
                r = n % m
                if ap[r] is not None and ap[r] < n:
                    n = ap[r]
                else:
                    ap[r] = n
    return tuple(ap)


class NumericalSemigroup:
    """The additive monoid generated by a minimal gcd-1 set of integers >= 2."""

    __slots__ = ("generators", "_ap", "_apery_cache", "_table_cache")

    def __init__(self, raw_generators):
        gens = sorted(set(int(g) for g in raw_generators))
        if not gens:
            raise ValueError("need at least one generator")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        if gens == [1]:
            raise DegenerateError(
                "the full monoid of nonnegative integers has only trivial factorizations"
            )
        if gens[0] == 1:
            raise ContainsOneError("1 cannot appear alongside other generators")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise GcdNotOneError(f"gcd of generators is {g}, not 1")
        self.generators = tuple(gens)
        self._ap = _apery(gens[0], gens)
        self._apery_cache = {gens[0]: AperyTable(gens[0], self._ap)}
        # (p, mode) -> the extremal tables factor builds and grows over S
        self._table_cache: dict = {}
        # x is generated by the others iff x - g lies in S for a smaller
        # generator g: the parts of x - g are all below x
        for x in gens:
            if any(g < x and self.contains(x - g) for g in gens):
                raise NotMinimalError(f"{x} is generated by the other generators")

    def contains(self, n: int) -> bool:
        """n is in S iff n >= Ap(S, g_1)[n mod g_1]: O(1) time and memory."""
        if n < 0:
            raise ValueError("membership is defined for n >= 0")
        return n >= self._ap[n % self.generators[0]]

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def apery(self, modulus: int) -> AperyTable:
        """Smallest element of S in each residue class mod modulus.

        The modulus must itself lie in S. Round robin, O(k * modulus).
        """
        if modulus < 1 or not self.contains(modulus):
            raise ModulusNotInSemigroupError(f"{modulus} is not in the semigroup")
        cached = self._apery_cache.get(modulus)
        if cached is not None:
            return cached
        table = AperyTable(modulus, _apery(modulus, self.generators))
        self._apery_cache[modulus] = table
        return table

    def frobenius(self) -> int:
        """Largest integer outside S, via the first-generator residue table."""
        return self.apery(self.generators[0]).max() - self.generators[0]

    def to_json(self) -> dict:
        return {"generators": list(self.generators)}

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NumericalSemigroup)
            and other.generators == self.generators
        )

    def __hash__(self) -> int:
        return hash(self.generators)
