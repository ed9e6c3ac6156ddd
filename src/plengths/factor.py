"""Factorizations in a numerical semigroup and their extremal p-lengths.

A factorization of n is an exponent vector z with sum(z[i] * g[i]) == n.
For an exponent p the p-length of z is sum(z[i] ** p) (with 0 ** 0 taken as
0, so p == 0 counts the distinct generators used) and max(z) for p == inf.
This module provides the full enumeration of the solution set, an exact
dynamic-programming solver for the minimum and maximum p-length, the
closed-form fast paths with their validity thresholds, and the shifted
least-squares minimizer over all integer (possibly negative) solutions.

All arithmetic is on Python integers, so nothing here can overflow.
"""

from __future__ import annotations

import math
import threading
from math import gcd, isqrt
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    NotInSemigroupError,
    ThresholdNotMetError,
)
from .semigroup import NumericalSemigroup

INF = math.inf

DEFAULT_ENUM_CAP = 10_000_000

_MODES = ("min", "max")


class ExtremalResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def check_exponent(p) -> None:
    if p == INF:
        return
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"exponent must be a nonnegative integer or inf, got {p!r}")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
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


def is_factorization(S: NumericalSemigroup, n: int, z) -> bool:
    """z is a valid exponent vector for n over the generators of S."""
    gens = S.generators
    return (
        len(z) == len(gens)
        and all(isinstance(v, int) and v >= 0 for v in z)
        and sum(v * g for v, g in zip(z, gens)) == n
    )


def factorizations(
    S: NumericalSemigroup, n: int, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[int, ...]]:
    """Every exponent vector z >= 0 with sum(z[i] * g[i]) == n.

    Bounded recursion, one generator per level, exponents enumerated in
    decreasing order so the output is in decreasing lexicographic order.
    Empty list exactly when n is not in S. Raises BudgetExceededError once
    more than cap solutions would be produced.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gens = S.generators
    k = len(gens)
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, acc: tuple[int, ...]) -> None:
        if i == k - 1:
            g = gens[i]
            if rem % g == 0:
                out.append(acc + (rem // g,))
                if len(out) > cap:
                    raise BudgetExceededError(
                        f"more than {cap} factorizations of {n}"
                    )
            return
        g = gens[i]
        for z in range(rem // g, -1, -1):
            rec(i + 1, rem - z * g, acc + (z,))

    rec(0, n, ())
    return out


# ---------------------------------------------------------------------------
# Exact extremal solver.
#
# best(m, i) = opt over z >= 0 of combine(cost(z), best(m - z * g_i, i + 1)),
# combining with + for finite p and with max for p == inf. The tables below
# materialize best(., i) for every amount up to a requested bound; they are
# cached per (generators, p, mode) and regrown geometrically, so sweeping a
# window of n values costs one table build instead of one recursion per n.
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, tuple[int, list]] = {}
_TABLE_LOCK = threading.Lock()


def _coord_cost(z: int, p) -> int:
    if p == 1:
        return z
    if p == 0:
        return 1 if z else 0
    return z**p


def _build_tables(gens: tuple[int, ...], n_max: int, p, mode: str) -> list:
    k = len(gens)
    want_min = mode == "min"
    tables: list[list] = [None] * k  # type: ignore[list-item]

    g = gens[-1]
    last: list = [None] * (n_max + 1)
    if p == INF:
        for m in range(0, n_max + 1, g):
            last[m] = m // g
    else:
        for m in range(0, n_max + 1, g):
            last[m] = _coord_cost(m // g, p)
    tables[-1] = last

    for i in range(k - 2, -1, -1):
        g = gens[i]
        nxt = tables[i + 1]
        row: list = [None] * (n_max + 1)
        if p == INF:
            for m in range(n_max + 1):
                best = None
                off = m
                for z in range(m // g + 1):
                    sub = nxt[off]
                    off -= g
                    if sub is None:
                        continue
                    v = sub if sub > z else z
                    if best is None or (v < best if want_min else v > best):
                        best = v
                row[m] = best
        else:
            costs = [_coord_cost(z, p) for z in range(n_max // g + 1)]
            for m in range(n_max + 1):
                best = None
                off = m
                for z in range(m // g + 1):
                    sub = nxt[off]
                    off -= g
                    if sub is not None:
                        v = costs[z] + sub
                        if best is None or (v < best if want_min else v > best):
                            best = v
                row[m] = best
        tables[i] = row
    return tables


def _tables(S: NumericalSemigroup, n_max: int, p, mode: str) -> list:
    key = (S.generators, p, mode)
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(key)
        if hit is not None and hit[0] >= n_max:
            return hit[1]
    size = n_max if hit is None else max(n_max, hit[0] + hit[0] // 2)
    built = _build_tables(S.generators, size, p, mode)
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(key)
        if hit is None or hit[0] < size:
            _TABLE_CACHE[key] = (size, built)
            return built
        return hit[1]


def extremal_values(S: NumericalSemigroup, n_max: int, p, mode: str) -> list:
    """Extremal p-lengths for every amount 0..n_max (None where n is not in S)."""
    check_exponent(p)
    _check_mode(mode)
    return _tables(S, n_max, p, mode)[0][: n_max + 1]


def _reconstruct(
    gens: tuple[int, ...], tables: list, n: int, p, mode: str
) -> tuple[int, ...]:
    """Lexicographically greatest witness attaining tables[0][n]."""
    want_min = mode == "min"
    k = len(gens)
    z: list[int] = []
    m = n
    for i in range(k - 1):
        g = gens[i]
        target = tables[i][m]
        nxt = tables[i + 1]
        for cand in range(m // g, -1, -1):
            sub = nxt[m - cand * g]
            if sub is None:
                continue
            if p == INF:
                v = sub if sub > cand else cand
            else:
                v = _coord_cost(cand, p) + sub
            if v == target:
                z.append(cand)
                m -= cand * g
                break
        else:  # pragma: no cover - tables are internally consistent
            raise RuntimeError("witness reconstruction failed")
    z.append(m // gens[-1])
    return tuple(z)


def extremal_plength(S: NumericalSemigroup, n: int, p, mode: str) -> ExtremalResult:
    """Exact optimum of the p-length over all factorizations of n, with witness.

    Among optimal factorizations the witness is the lexicographically
    greatest exponent vector (largest first coordinate, then the next).
    Raises NotInSemigroupError when n has no factorization.
    """
    check_exponent(p)
    _check_mode(mode)
    if n < 0:
        raise ValueError("n must be >= 0")
    tables = _tables(S, n, p, mode)
    value = tables[0][n]
    if value is None:
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    witness = _reconstruct(S.generators, tables, n, p, mode)
    return ExtremalResult(value, witness)


def result_to_json(n: int, p, mode: str, res: ExtremalResult) -> dict:
    return {
        "n": n,
        "p": "inf" if p == INF else p,
        "mode": mode,
        "value": res.value,
        "witness": list(res.witness),
    }


# ---------------------------------------------------------------------------
# Closed forms with strict validity thresholds. Below its threshold each
# raises ThresholdNotMetError; callers fall back to extremal_plength.
# ---------------------------------------------------------------------------


def closed_max_inf(S: NumericalSemigroup, n: int) -> int:
    """Maximum coordinate bound (n - a) / g_1, a the residue entry mod g_1.

    Valid only for n in S with n > g_1^2 * (g_1 + ... + g_k).
    """
    gens = S.generators
    g1 = gens[0]
    g = sum(gens)
    if n <= g1 * g1 * g:
        raise ThresholdNotMetError(f"need n > {g1 * g1 * g}, got {n}")
    if not S.contains(n):
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    a = S.apery(g1).entries[n % g1]
    return (n - a) // g1


def closed_min_inf(S: NumericalSemigroup, n: int) -> int:
    """Minimum coordinate bound (n + a) / g with g = g_1 + ... + g_k.

    a is the residue entry of -n mod g. Valid only for n in S with n > g^2.
    """
    gens = S.generators
    g = sum(gens)
    if n <= g * g:
        raise ThresholdNotMetError(f"need n > {g * g}, got {n}")
    if not S.contains(n):
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    a = S.apery(g).entries[(-n) % g]
    return (n + a) // g


def closed_len_recurrence(S: NumericalSemigroup, n: int, mode: str) -> int:
    """Ordinary length (p == 1) by unwinding its step-one recurrence.

    The minimum length drops by 1 every g_k below n while n stays above
    (g_1 - 1) * g_k; the maximum length drops by 1 every g_1 above
    (g_{k-1} - 1) * g_k. The unwinding stops early if the next argument
    would leave the semigroup, then finishes with the exact solver.
    """
    _check_mode(mode)
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    if mode == "min":
        threshold = (g1 - 1) * gk
        step = gk
    else:
        threshold = (gens[-2] - 1) * gk
        step = g1
    if n <= threshold:
        raise ThresholdNotMetError(f"need n > {threshold}, got {n}")
    if not S.contains(n):
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    steps = 0
    m = n
    while m > threshold and m - step >= 0 and S.contains(m - step):
        m -= step
        steps += 1
    return extremal_plength(S, m, 1, mode).value + steps


# ---------------------------------------------------------------------------
# Sum-of-squares minimization over ALL integer solutions (negatives allowed)
# of z_1 g_1 + ... + z_k g_k = n, and the shift property it satisfies: adding
# (g_1, ..., g_k) to a minimizer for n gives a minimizer for n + N where
# N = g_1^2 + ... + g_k^2.
#
# Scaled objective J(z) = sum (N z_i - n g_i)^2 = N^2 * l2(z) - n^2 * N is a
# nonnegative integer, minimized at the same z, and bounds each coordinate:
# (N z_i - n g_i)^2 <= J. A Bezout start plus local descent gives a small J,
# then a depth-first box search certifies the global optimum exactly.
# ---------------------------------------------------------------------------


def _bezout_combination(gens: tuple[int, ...]) -> list[int]:
    """Integer coefficients c with sum(c[i] * gens[i]) == 1."""
    coeff = [1]
    g = gens[0]
    for gi in gens[1:]:
        a, b = g, gi
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        coeff = [c * x0 for c in coeff] + [y0]
        g = gcd(g, gi)
    assert g == 1
    return coeff


def min2_integer_minimizer(S: NumericalSemigroup, n: int) -> ExtremalResult:
    """Exact minimizer of sum(z_i^2) over all of Z^k with sum(z_i g_i) == n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    gens = S.generators
    k = len(gens)
    N = sum(g * g for g in gens)

    def J(z: list[int]) -> int:
        return sum((N * zi - n * gi) ** 2 for zi, gi in zip(z, gens))

    z = [c * n for c in _bezout_combination(gens)]
    moves = []
    for i in range(k):
        for j in range(i + 1, k):
            d = gcd(gens[i], gens[j])
            v = [0] * k
            v[i] = gens[j] // d
            v[j] = -gens[i] // d
            moves.append(v)
    improved = True
    while improved:
        improved = False
        for v in moves:
            num = sum(
                (N * zi - n * gi) * N * vi for zi, gi, vi in zip(z, gens, v)
            )
            den = sum((N * vi) ** 2 for vi in v)
            t = round(-num / den)
            if t:
                z2 = [zi + t * vi for zi, vi in zip(z, v)]
                if J(z2) < J(z):
                    z = z2
                    improved = True

    best_j = J(z)
    best_z = tuple(z)
    gk = gens[-1]

    def dfs(i: int, partial: list[int], acc: int) -> None:
        nonlocal best_j, best_z
        if acc > best_j:
            return
        if i == k - 1:
            rem = n - sum(pv * gv for pv, gv in zip(partial, gens[:-1]))
            if rem % gk:
                return
            zk = rem // gk
            tot = acc + (N * zk - n * gk) ** 2
            if tot < best_j:
                best_j = tot
                best_z = tuple(partial + [zk])
            return
        gi = gens[i]
        s = isqrt(best_j)
        lo = -((s - n * gi) // N)
        hi = (n * gi + s) // N
        center = round(n * gi / N)
        for zv in sorted(range(lo, hi + 1), key=lambda v: abs(v - center)):
            w = (N * zv - n * gi) ** 2
            dfs(i + 1, partial + [zv], acc + w)

    dfs(0, [], 0)
    value = sum(v * v for v in best_z)
    return ExtremalResult(value, best_z)


def min2_shift_check(S: NumericalSemigroup, n: int) -> bool:
    """Does the n-minimizer shifted by the generator vector minimize for n + N?"""
    gens = S.generators
    N = sum(g * g for g in gens)
    base = min2_integer_minimizer(S, n)
    shifted = [zi + gi for zi, gi in zip(base.witness, gens)]
    target = min2_integer_minimizer(S, n + N)
    return sum(v * v for v in shifted) == target.value
