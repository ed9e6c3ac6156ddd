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
import sys
import threading
from array import array
from math import gcd, isqrt
from operator import add
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    NotInSemigroupError,
    ThresholdNotMetError,
)
from .semigroup import NumericalSemigroup

INF = math.inf

DEFAULT_ENUM_CAP = 10_000_000

# Largest table a query may build, in bytes as _bytes_per_amount counts them.
TABLE_BYTE_LIMIT = 1 << 30

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
# materialize best(., i) for every amount up to a requested bound. Row i is
# filled from next = best(., i + 1) by a recurrence fitted to the exponent:
#
#   p == 1        best(m, i) = opt(next[m], best(m - g_i, i) + 1)
#   p == 0        best(m, i) = opt(next[m], R + 1), R the optimum of next
#                 over the smaller amounts of m's residue class mod g_i
#   p == inf max  best(m, i) = max(R, (m - f) // g_i), R the largest next
#                 over the class up to m and f its first feasible amount
#   p >= 2 min    z ** p is convex, so along a residue class the candidates
#                 cost(j - t) + next[t] form a Monge matrix whose leftmost
#                 argmin is monotone in j: divide and conquer over rows;
#                 each cell also keeps its z = j - t for witnesses
#   otherwise     (p == inf min, p >= 2 max) a scan over z; for inf min it
#                 stops once z reaches the best value found
#
# A table costs O(n) cells for p in {0, 1} and inf max and O(n log n) per
# residue class for p >= 2 min. Each semigroup holds its own tables per
# (p, mode), which go with it, and they grow geometrically. Every cell reads
# only smaller amounts, so regrowth extends the rows in place, resuming from
# the O(g_i) values of state each row keeps; sweeping a window of n values
# costs one table build.
# ---------------------------------------------------------------------------


class _TableSet:
    """Rows best(., i) over amounts 0..size for each generator index i, and
    the state each row's next fill resumes from (None before the first)."""

    __slots__ = ("gens", "size", "rows", "states")

    def __init__(self, gens: tuple[int, ...]) -> None:
        self.gens = gens
        self.size = -1
        self.rows: list[list] = [[] for _ in gens]
        self.states: list = [None] * len(gens)


_TABLE_LOCK = threading.Lock()


def _coord_cost(z: int, p) -> int:
    if p == 1:
        return z
    if p == 0:
        return 1 if z else 0
    return z**p


def _better(v, best, want_min: bool) -> bool:
    """v improves on best, where None (infeasible) loses to everything."""
    return v is not None and (best is None or (v < best if want_min else v > best))


def _stores_coords(p, mode: str) -> bool:
    """The fill keeps each cell's witness coordinate in the row's state."""
    return mode == "min" and p != INF and p >= 2


def _bytes_per_amount(gens: tuple[int, ...], size: int, p, mode: str) -> int:
    """Bytes one amount of the tables over 0..size takes, at most.

    Each row takes a list slot, and an int object of its own wherever the
    row can hold values above 255 (Python shares the smaller ones): row i
    holds at most (size // g_i) ** p, or size // g_i for p == inf, and is
    charged an int of that many bits. p >= 2 min also stores a coordinate
    per row but the last.
    """
    per_amount = 8 * len(gens)
    digit_bits, digit_bytes = sys.int_info.bits_per_digit, sys.int_info.sizeof_digit
    for g in gens:
        bits = (size // g).bit_length() * (1 if p == INF else p)
        if bits > 8:
            per_amount += sys.getsizeof(1) + (bits - 1) // digit_bits * digit_bytes
    if _stores_coords(p, mode):
        per_amount += (len(gens) - 1) * array("l").itemsize
    return per_amount


def _fill_row(row: list, nxt: list, g: int, lo: int, hi: int, p, want_min: bool, state):
    """Set row[lo..hi] to best(m, i) from nxt = best(., i + 1) over 0..hi.

    row already holds best(m, i) for m < lo. state is what the previous fill
    of this row returned (None before the first); the new state is returned.
    """
    if p == 1:
        for m in range(lo, hi + 1):
            best = nxt[m]
            prev = row[m - g] if m >= g else None
            if prev is not None and _better(prev + 1, best, want_min):
                best = prev + 1
            row[m] = best
        return None
    if p == 0:
        run = state or [None] * g  # per class: opt of nxt over amounts < m
        for m in range(lo, hi + 1):
            r = m % g
            best, prev = nxt[m], run[r]
            if prev is not None and _better(prev + 1, best, want_min):
                best = prev + 1
            row[m] = best
            if _better(nxt[m], prev, want_min):
                run[r] = nxt[m]
        return run
    if p == INF and not want_min:
        run, first = state or ([None] * g, [None] * g)  # per class: max, first feasible
        for m in range(lo, hi + 1):
            r = m % g
            sub = nxt[m]
            if sub is not None:
                if first[r] is None:
                    first[r] = m
                if run[r] is None or sub > run[r]:
                    run[r] = sub
            if first[r] is None:
                row[m] = None
            else:
                z = (m - first[r]) // g
                row[m] = run[r] if run[r] > z else z
        return run, first
    if p == INF:
        for m in range(lo, hi + 1):
            best = nxt[m]
            z, off = 1, m - g
            while off >= 0 and (best is None or z < best):
                sub = nxt[off]
                if sub is not None:
                    v = sub if sub > z else z
                    if best is None or v < best:
                        best = v
                z += 1
                off -= g
            row[m] = best
        return None
    costs = [z**p for z in range(hi // g + 1)]
    if not want_min:
        low = -costs[-1] - 1  # stands in for None: every candidate using it is < 0
        b = [low if v is None else v for v in nxt[: hi + 1]]
        for m in range(lo, hi + 1):
            best = max(map(add, costs, b[m::-g]))
            row[m] = best if best >= 0 else None
        return None
    return _fill_convex_min(row, nxt, g, lo, hi, costs, state)


def _fill_convex_min(row: list, nxt: list, g: int, lo: int, hi: int, costs: list, state):
    """The p >= 2 min case of _fill_row, one residue class r at a time.

    With b[t] = nxt[r + t*g], best(r + j*g) = min over t <= j of
    costs[j - t] + b[t]. An infeasible b[t] becomes `big`, above every finite
    candidate, so the matrix stays Monge and its leftmost argmin stays
    monotone in j. The state is (argmin, argz): argmin[r] is that argmin at
    the last amount filled in class r, a lower bound on the argmin of every
    later amount, and argz[m] is the largest optimal z = j - t at m = r + j*g,
    t the leftmost argmin: the coordinate a witness takes there.
    """
    big = costs[-1] + max((v for v in nxt[: hi + 1] if v is not None), default=0) + 1
    argmin, argz = state or ([0] * g, array("l"))
    argz.frombytes(bytes((hi + 1 - lo) * argz.itemsize))
    for r in range(min(g, hi + 1)):
        j0, j1 = max(0, -((r - lo) // g)), (hi - r) // g
        if j0 > j1:
            continue
        b = [big if v is None else v for v in nxt[r : hi + 1 : g]]
        pending = [(j0, j1, argmin[r], j1)]  # rows jl..jh, argmins within tl..th
        while pending:
            jl, jh, tl, th = pending.pop()
            j = (jl + jh) // 2
            top = min(th, j)
            cand = list(map(add, costs[j - top : j - tl + 1][::-1], b[tl : top + 1]))
            best = min(cand)
            t = tl + cand.index(best)
            row[r + j * g] = best if best < big else None
            argz[r + j * g] = j - t
            if j == j1:
                argmin[r] = t
            if jl < j:
                pending.append((jl, j - 1, tl, t))
            if j < jh:
                pending.append((j + 1, jh, t, th))
    return argmin, argz


def _extend(ts: _TableSet, size: int, p, mode: str) -> None:
    """Grow every row of ts to amounts 0..size, the last generator first."""
    lo, gens, rows = ts.size + 1, ts.gens, ts.rows
    want_min = mode == "min"
    g = gens[-1]
    last = rows[-1]
    last.extend([None] * (size + 1 - lo))
    for m in range(-(-lo // g) * g, size + 1, g):
        last[m] = m // g if p == INF else _coord_cost(m // g, p)
    for i in range(len(gens) - 2, -1, -1):
        rows[i].extend([None] * (size + 1 - lo))
        ts.states[i] = _fill_row(rows[i], rows[i + 1], gens[i], lo, size, p, want_min, ts.states[i])
    ts.size = size


def _table_set(S: NumericalSemigroup, n_max: int, p, mode: str) -> _TableSet:
    """S's tables of (p, mode), grown to cover amounts 0..n_max.

    Raises BudgetExceededError, before allocating, when tables reaching
    n_max would take more than TABLE_BYTE_LIMIT bytes.
    """
    key, gens = (p, mode), S.generators
    with _TABLE_LOCK:
        ts = S._table_cache.get(key)
        if ts is not None and ts.size >= n_max:
            return ts
        need = (n_max + 1) * _bytes_per_amount(gens, n_max, p, mode)
        if need > TABLE_BYTE_LIMIT:
            raise BudgetExceededError(
                f"tables up to {n_max} would take {need} bytes,"
                f" over the limit of {TABLE_BYTE_LIMIT}"
            )
        if ts is None:
            ts = S._table_cache[key] = _TableSet(gens)
            size = n_max
        else:
            # grow by half, or to the most the limit admits; the count per
            # amount never falls as the size grows
            size = ts.size + ts.size // 2
            cap = TABLE_BYTE_LIMIT // _bytes_per_amount(gens, size, p, mode) - 1
            size = max(n_max, min(size, cap))
        try:
            _extend(ts, size, p, mode)
        except BaseException:
            del S._table_cache[key]  # a half-extended table must not be reused
            raise
        return ts


def _tables(S: NumericalSemigroup, n_max: int, p, mode: str) -> list:
    return _table_set(S, n_max, p, mode).rows


def extremal_values(S: NumericalSemigroup, n_max: int, p, mode: str) -> list:
    """Extremal p-lengths for every amount 0..n_max (None where n is not in S)."""
    check_exponent(p)
    _check_mode(mode)
    return _tables(S, n_max, p, mode)[0][: n_max + 1]


def _reconstruct(ts: _TableSet, n: int, p, mode: str) -> tuple[int, ...]:
    """A witness attaining ts.rows[0][n], built one coordinate at a time.

    Coordinate i takes the largest value whose combination with the
    optimum of the remainder over the later generators equals the target;
    the remainder's own optimum, ts.rows[i + 1][m], is the next target.
    Where the fill stored that value in the row's state it is read.
    """
    gens, tables = ts.gens, ts.rows
    stored = _stores_coords(p, mode)
    z: list[int] = []
    m = n
    for i in range(len(gens) - 1):
        g = gens[i]
        if stored:
            cand = ts.states[i][1][m]
        else:
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
                    break
            else:  # pragma: no cover - tables are internally consistent
                raise RuntimeError("witness reconstruction failed")
        z.append(cand)
        m -= cand * g
    z.append(m // gens[-1])
    return tuple(z)


def extremal_plength(S: NumericalSemigroup, n: int, p, mode: str) -> ExtremalResult:
    """Exact optimum of the p-length over all factorizations of n, with witness.

    The witness takes the largest first coordinate of any optimal
    factorization, then the same rule for the remainder against the
    remainder's own optimum over the later generators. For finite p that is
    the lexicographically greatest optimal exponent vector. For p == inf
    the remainder's optimum can lie inside the bound, and the witness can
    be a smaller optimal vector: on (5, 7, 9, 11), n = 58, min gives
    (3, 2, 2, 1) where (3, 3, 0, 2) is also optimal.
    Raises NotInSemigroupError when n has no factorization.
    """
    check_exponent(p)
    _check_mode(mode)
    if n < 0:
        raise ValueError("n must be >= 0")
    ts = _table_set(S, n, p, mode)
    value = ts.rows[0][n]
    if value is None:
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    return ExtremalResult(value, _reconstruct(ts, n, p, mode))


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
    (g_{k-1} - 1) * g_k. Both exceed the Frobenius number, so the unwinding
    jumps in O(1) to the last step above the threshold, takes one more step
    if that stays in the semigroup, then finishes with the exact solver.
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
    steps = (n - threshold - 1) // step
    m = n - steps * step
    if S.contains(m - step):  # m - step <= threshold, and >= 0 as step <= threshold
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


def _round_div(a: int, b: int) -> int:
    """a / b (b > 0) rounded to the nearest integer, ties to even, exactly:
    round(a / b) without the float, so any size of integer works."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


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
            t = _round_div(-num, den)
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
        center = _round_div(n * gi, N)
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
