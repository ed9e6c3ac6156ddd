"""Numerical semigroup arithmetic.

A numerical semigroup is an additive submonoid of the nonnegative integers
with finite complement, written here by its unique minimal generating set
g_1 < ... < g_k (the atoms). Construction rejects anything that is not a
minimal generating set with gcd 1, because every length computation in this
package assumes generators == atoms.
"""

from __future__ import annotations

import sys
from math import gcd

from .common import TABLE_BYTE_LIMIT, check_integer
from .errors import (
    BudgetExceededError,
    ContainsOneError,
    DegenerateError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NotMinimalError,
)


def _apery_bytes(m: int, gens) -> int:
    """Bytes _apery(m, gens) allocates, at most: per class a slot of the
    list it is built in, a slot of the tuple it is returned as, and an int
    object below m * g_k, which a sum allocates one digit longer than it
    needs; and 1 KiB for object headers and the generator each cycle is
    scanned with."""
    return m * (16 + sys.getsizeof(m * max(gens)) + sys.int_info.sizeof_digit) + 1024


def _apery(m: int, gens) -> tuple[int, ...]:
    """Least element of <gens> in each class mod m, for m in <gens>, in O(k * m).

    Round robin (Boecker and Liptak, "The money changing problem revisited"):
    generator a joins the classes into gcd(m, a) cycles r -> r + a, and one
    pass around a cycle from its least entry makes every entry final.
    Raises BudgetExceededError, before allocating, when _apery_bytes is
    more than TABLE_BYTE_LIMIT.
    """
    need = _apery_bytes(m, gens)
    if need > TABLE_BYTE_LIMIT:
        raise BudgetExceededError(
            f"an Apery table mod {m} would take {need} bytes, over the limit of {TABLE_BYTE_LIMIT}"
        )
    ap: list = [0] + [None] * (m - 1)
    for a in gens:
        d = gcd(m, a)
        for p in range(d):
            n = min((ap[r] for r in range(p, m, d) if ap[r] is not None), default=None)
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
        gens = sorted({check_integer(g, "generator") for g in raw_generators})
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
        self._apery_cache = {gens[0]: self._ap}
        # (p, mode) -> the extremal tables factor builds and grows over S;
        # "min2" -> what factor's integer minimizer needs of S alone
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

    def apery(self, modulus: int) -> tuple[int, ...]:
        """Smallest element of S in each residue class mod modulus: entry j
        is the least element congruent to j, so entry 0 is 0 and entry j
        minus the modulus is never in S.

        The modulus must itself lie in S. Round robin, O(k * modulus).
        """
        if modulus < 1 or not self.contains(modulus):
            raise ModulusNotInSemigroupError(f"{modulus} is not in the semigroup")
        table = self._apery_cache.get(modulus)
        if table is None:
            table = self._apery_cache[modulus] = _apery(modulus, self.generators)
        return table

    def frobenius(self) -> int:
        """Largest integer outside S, via the first-generator residue table."""
        return max(self._ap) - self.generators[0]

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
