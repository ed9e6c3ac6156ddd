"""Numerical semigroup arithmetic.

A numerical semigroup is an additive submonoid of the nonnegative integers
with finite complement, written here by its unique minimal generating set
g_1 < ... < g_k (the atoms). Construction rejects anything that is not a
minimal generating set with gcd 1, because every length computation in this
package assumes generators == atoms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import gcd

from .errors import (
    ContainsOneError,
    DegenerateError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NotMinimalError,
)


@dataclass(frozen=True)
class AperyTable:
    """Least semigroup element in each residue class for a modulus in S.

    entries[j] is the smallest element of S congruent to j mod modulus, so
    entries[0] == 0 and entries[j] - modulus is never in S.
    """

    modulus: int
    entries: tuple[int, ...]

    def __len__(self) -> int:
        return self.modulus

    def max(self) -> int:
        return max(self.entries)


class NumericalSemigroup:
    """The additive monoid generated by a minimal gcd-1 set of integers >= 2."""

    __slots__ = ("generators", "_member", "_lock", "_apery_cache")

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
        # membership table, grown geometrically on demand
        self._member = bytearray(1)
        self._member[0] = 1
        self._lock = threading.Lock()
        self._apery_cache: dict[int, AperyTable] = {}
        # x is generated by the others iff x - g lies in S for a smaller
        # generator g: the parts of x - g are all below x
        self._grow(gens[-1])
        for x in gens:
            if any(g < x and self._member[x - g] for g in gens):
                raise NotMinimalError(f"{x} is generated by the other generators")

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def _grow(self, n: int) -> None:
        with self._lock:
            if n < len(self._member):
                return
            new_len = max(n + 1, 2 * len(self._member))
            table = bytearray(new_len)
            table[: len(self._member)] = self._member
            for m in range(len(self._member), new_len):
                for g in self.generators:
                    if g <= m and table[m - g]:
                        table[m] = 1
                        break
            self._member = table

    def contains(self, n: int) -> bool:
        """Membership by dynamic programming over the generators."""
        if n < 0:
            raise ValueError("membership is defined for n >= 0")
        if n >= len(self._member):
            self._grow(n)
        return bool(self._member[n])

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def apery(self, modulus: int) -> AperyTable:
        """Smallest element of S in each residue class mod modulus.

        The modulus must itself lie in S.
        """
        if modulus < 1 or not self.contains(modulus):
            raise ModulusNotInSemigroupError(f"{modulus} is not in the semigroup")
        cached = self._apery_cache.get(modulus)
        if cached is not None:
            return cached
        entries: list[int | None] = [None] * modulus
        remaining = modulus
        n = 0
        while remaining:
            if entries[n % modulus] is None and self.contains(n):
                entries[n % modulus] = n
                remaining -= 1
            n += 1
        table = AperyTable(modulus, tuple(entries))  # type: ignore[arg-type]
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
