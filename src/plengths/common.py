"""The pieces both command families use: p-lengths, integer factoring and
the run settings.

The numerical-semigroup side (factor, quasipoly) and the congruence-monoid
side (acm, acm46) each load this module, and neither loads the other's.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import NamedTuple

from .errors import BudgetExceededError

INF = math.inf

# Largest table (factor's extremal tables, an Apery table) a query may build,
# in bytes as its builder counts them.
TABLE_BYTE_LIMIT = 1 << 30

# Trial division stops at this divisor; a cofactor below its square is prime.
TRIAL_DIVISION_LIMIT = 10**6

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


FORMATS = ("json", "csv")


class RunConfig(NamedTuple):
    """The run settings the command line sets: the factorization enumeration
    cap, an explicit lo..hi window for windowed sweeps, the sampling seed
    (it picks which n are sampled, never a computed value), and the output
    format of `acm growth`. Each claim's own bounds live in its registry row
    or beside its check."""

    budget: int = 10_000_000
    window: tuple[int, int] | None = None
    seed: int = 1729
    fmt: str = "json"


class ExtremalResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def check_exponent(p) -> None:
    if p == INF:
        return
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"exponent must be a nonnegative integer or inf, got {p!r}")


def check_integer(value, what: str) -> int:
    """value as an int, for any integer type (operator.index); anything else,
    such as 7.0 or 2.5, raises ValueError rather than being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_mode(mode: str) -> None:
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


def plength(z, p) -> int:
    """p-length of an exponent vector: sum of p-th powers, max for p == inf."""
    check_exponent(p)
    if p == INF:
        return max(z, default=0) if z else 0
    if p == 0:
        return sum(1 for v in z if v)
    if p == 1:
        return sum(z)
    return sum(v**p for v in z)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(x: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of x, ascending by prime.

    Raises BudgetExceededError when the part of x without prime factors up
    to TRIAL_DIVISION_LIMIT is neither below that limit squared nor proven
    prime, i.e. it has two or more large prime factors or is too large for
    the exact primality test.
    """
    out = []
    for d in chain((2,), range(3, TRIAL_DIVISION_LIMIT + 1, 2)):
        if d * d > x:
            break
        if x % d == 0:
            e = 0
            while x % d == 0:
                e += 1
                x //= d
            out.append((d, e))
    if x > 1:
        if x > TRIAL_DIVISION_LIMIT**2 and not (x < _MR_EXACT_BELOW and _is_prime(x)):
            raise BudgetExceededError(
                f"cannot factor {x}: no prime factor up to {TRIAL_DIVISION_LIMIT}"
                " and not provably prime"
            )
        out.append((x, 1))
    return out
