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

import sys
import threading
from array import array
from itertools import repeat
from math import gcd, isqrt
from operator import add

from .common import (
    INF,
    TABLE_BYTE_LIMIT,
    ExtremalResult,
    check_exponent,
    check_integer,
    check_mode,
)
from .errors import (
    BudgetExceededError,
    NotInSemigroupError,
    ThresholdNotMetError,
)
from .semigroup import NumericalSemigroup

DEFAULT_ENUM_CAP = 10_000_000


def factorizations(
    S: NumericalSemigroup, n: int, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[int, ...]]:
    """Every exponent vector z >= 0 with sum(z[i] * g[i]) == n.

    Bounded recursion, one generator per level, exponents enumerated in
    decreasing order so the output is in decreasing lexicographic order.
    Empty list exactly when n is not in S. Raises BudgetExceededError once
    more than cap solutions would be produced.
    """
    n = check_integer(n, "n")
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
#   p == 2 min    (j - t)^2 + next[t] = j^2 + (next[t] + t^2 - 2tj) along a
#                 residue class: a monotone lower envelope of lines, one per
#                 feasible t, queried at increasing j
#   p >= 3 min    z ** p is convex, so along a residue class the candidates
#                 cost(j - t) + next[t] form a Monge matrix whose leftmost
#                 argmin is monotone in j: divide and conquer over rows;
#                 both min fills keep each cell's z = j - t for witnesses
#   p == inf min  a scan out from the balanced z = m // (g_i + rest), rest
#                 the sum of the later generators, over the z that leave a
#                 multiple of the later generators' gcd, bounded by z < best
#                 upwards and by next[x] >= ceil(x / rest) downwards
#   p >= 2 max    a scan down from the largest z that leaves a feasible
#                 next, over the z that leave a multiple of the later
#                 generators' gcd, bounded by next[x] * g_{i+1}^p <= x^p:
#                 it stops once no smaller z can win
#
# A table costs O(n) cells for p in {0, 1}, inf max and 2 min, O(n log n)
# per residue class for p >= 3 min, and for inf min and p >= 2 max a few z
# per cell. Each semigroup holds its own tables per (p, mode), which go
# with it, and they grow geometrically. Every cell reads only smaller
# amounts, so regrowth extends the rows in place, resuming from the O(g_i)
# values of state each row keeps; sweeping a window of n values costs one
# table build.
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


def _stores_coords(p, mode: str) -> bool:
    """The fill keeps each cell's witness coordinate in the row's state."""
    return mode == "min" and p != INF and p >= 2


def _int_bytes(bits: int) -> int:
    """Bytes of an int object of that many bits; 0 up to 8 bits, the ints
    Python shares."""
    if bits <= 8:
        return 0
    digit_bits, digit_bytes = sys.int_info.bits_per_digit, sys.int_info.sizeof_digit
    return sys.getsizeof(1) + (bits - 1) // digit_bits * digit_bytes


def _bytes_per_amount(gens: tuple[int, ...], size: int, p, mode: str) -> int:
    """Bytes one amount of the tables over 0..size takes, at most.

    Each row takes a list slot, and an int object of its own wherever the
    row can hold values above 255 (Python shares the smaller ones): row i
    holds at most (size // g_i) ** p, or size // g_i for p == inf, and is
    charged an int of that many bits. One more slot is for the copy of
    row 0 that extremal_values returns. p >= 2 min also stores a coordinate
    per row but the last, and while it fills a residue class of row i it
    holds up to four lists over the class's size // g_i + 1 amounts, two of
    them with an int object per slot of at most (p + 1) * bits(size // g_i)
    + 2 bits; that is charged to every amount at the rate of the longest
    classes, those of g_1.
    """
    per_amount = 8 * (len(gens) + 1)
    for g in gens:
        per_amount += _int_bytes((size // g).bit_length() * (1 if p == INF else p))
    if _stores_coords(p, mode):
        per_amount += (len(gens) - 1) * array("l").itemsize
        per_class = 4 * 8 + 2 * _int_bytes((size // gens[0]).bit_length() * (p + 1) + 2)
        per_amount += -(-per_class // gens[0])
    return per_amount


def _fixed_bytes(gens: tuple[int, ...]) -> int:
    """Bytes of tables that do not grow with their size, at most: per row
    256 for list and object headers and two slots per residue class for the
    state its fill keeps."""
    return sum(256 + 16 * g for g in gens)


def _fill_row(
    row: list, nxt: list, g: int, later: tuple, lo: int, hi: int, p, want_min: bool, state
):
    """Set row[lo..hi] to best(m, i) from nxt = best(., i + 1) over 0..hi.

    g is g_i and later the generators after it. row already holds best(m, i)
    for m < lo. state is what the previous fill of this row returned (None
    before the first); the new state is returned.
    """
    # None is infeasible: it loses every comparison below
    if p == 1:
        for m in range(lo, hi + 1):
            best = nxt[m]
            prev = row[m - g] if m >= g else None
            if prev is not None:
                v = prev + 1
                if best is None or (v < best if want_min else v > best):
                    best = v
            row[m] = best
        return None
    if p == 0:
        run = state or [None] * g  # per class: opt of nxt over amounts < m
        for m in range(lo, hi + 1):
            r = m % g
            sub, prev = nxt[m], run[r]
            best = sub
            if prev is not None:
                v = prev + 1
                if best is None or (v < best if want_min else v > best):
                    best = v
                if sub is not None and (sub < prev if want_min else sub > prev):
                    run[r] = sub
            elif sub is not None:
                run[r] = sub
            row[m] = best
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
        return _fill_inf_min(row, nxt, g, later, lo, hi)
    if not want_min:
        return _fill_power_max(row, nxt, g, later, lo, hi, p, state)
    if p == 2:
        return _fill_square_min(row, nxt, g, lo, hi, state)
    return _fill_convex_min(row, nxt, g, lo, hi, p, state)


def _fill_inf_min(row: list, nxt: list, g: int, later: tuple, lo: int, hi: int) -> None:
    """The p == inf min case of _fill_row.

    rest is the sum of the later generators, so nxt[x] >= ceil(x / rest).
    nxt is feasible only on multiples of d, the gcd of the later generators:
    with e = gcd(d, g) and s = d / e, m is infeasible unless e divides it,
    and then z leaves a multiple of d exactly when
    z = (m / e) * (g / e)^-1 (mod s). The scan takes those z from the first
    at or above the balanced z0 = m // (g + rest): up while z can still beat
    the best value found, down while the lower bound on nxt still can.
    """
    rest, d = sum(later), gcd(*later)
    e = gcd(d, g)
    s = d // e
    inv = pow(g // e, -1, s)
    step = s * g
    for m in range(lo, hi + 1):
        if m % e:
            continue  # row[m] stays None
        best = None
        z0 = m // (g + rest)
        top = z0 + (m // e * inv - z0) % s
        z, off = top, m - top * g
        while off >= 0 and (best is None or z < best):
            sub = nxt[off]
            if sub is not None:
                v = sub if sub > z else z
                if best is None or v < best:
                    best = v
            z += s
            off -= step
        z, off = top - s, m - (top - s) * g
        while z >= 0 and (best is None or -(-off // rest) < best):
            sub = nxt[off]
            if sub is not None:
                v = sub if sub > z else z
                if best is None or v < best:
                    best = v
            z -= s
            off += step
        row[m] = best


def _fill_power_max(row: list, nxt: list, g: int, later: tuple, lo: int, hi: int, p: int, state):
    """The p >= 2 max case of _fill_row.

    nxt is feasible only on multiples of d, the gcd of the later
    generators, so z leaves a feasible remainder only in steps of
    s = d / gcd(d, g); and no z above (m - first[r]) // g, first[r] the
    least feasible amount of nxt in m's class r mod g, which that z leaves
    exactly. The state is first. Every later generator is >= g_next = later[0]
    and sum(z_j^p) <= (sum z_j)^p, so nxt[x] * h <= x^p with h = g_next^p,
    and z is worth at most B(z) / h, B(z) = z^p h + (m - z g)^p. B is
    convex, so over the progression z0 < ... < z of the z >= 1 left to
    scan, z0 = z mod s or s, it is at most max(B(z0), B(z)): z scans down
    from the largest and stops once best * h reaches that.
    """
    d = gcd(*later)
    s = d // gcd(d, g)
    h = later[0] ** p
    step = s * g
    first = state or [None] * g
    for m in range(lo, hi + 1):
        r = m % g
        best = nxt[m]
        f = first[r]
        if f is None:
            if best is not None:
                first[r] = m
            row[m] = best
            continue
        z = (m - f) // g
        z0 = z % s or s
        b0 = z0**p * h + (m - z0 * g) ** p
        off = m - z * g
        while z > 0:
            c = z**p
            if best is not None:
                bz = c * h + off**p
                if best * h >= (bz if bz > b0 else b0):
                    break
            sub = nxt[off]
            if sub is not None and (best is None or c + sub > best):
                best = c + sub
            z -= s
            off += step
        row[m] = best
    return first


def _fill_square_min(row: list, nxt: list, g: int, lo: int, hi: int, state):
    """The p == 2 min case of _fill_row, one residue class r at a time.

    With b[t] = nxt[r + t*g], best(r + j*g) = min over t <= j of
    (j - t)^2 + b[t] = j^2 + min over t of (c_t - 2tj), c_t = b[t] + t^2:
    the lower envelope at j of one line of slope -2t per feasible t. Lines
    enter in increasing t, so in decreasing slope, and are read at
    increasing j, so the envelope is a list whose front only moves on. Line
    t enters at the back; the back line t2, with t1 before it, leaves when
    (c_t - c_t2)(t2 - t1) <= (c_t2 - c_t1)(t - t2), that is when t meets t2
    no later than t1 does, so that t2 is never below both; all in integers.
    Ties go to the smaller t: t2 also leaves when all three meet in one
    point, where t1 attains the value, and the front moves on only where the
    next line is strictly lower at j. The front line is so the leftmost
    argmin, and argz[m] = j - t the largest optimal z, as _fill_convex_min
    stores them, with the same state (argmin, argz). The leftmost argmin
    never decreases in j, so a regrowth rebuilds class r from line
    argmin[r] on.
    """
    argmin, argz = state or ([0] * g, array("l"))
    argz.frombytes(bytes((hi + 1 - lo) * argz.itemsize))
    for r in range(min(g, hi + 1)):
        j0, j1 = max(0, -((r - lo) // g)), (hi - r) // g
        if j0 > j1:
            continue
        b = nxt[r : hi + 1 : g]
        ts: list[int] = []  # the envelope's lines from the front f on: t and c_t
        cs: list[int] = []
        f = 0
        for j in range(argmin[r], j1 + 1):
            v = b[j]
            if v is not None:
                c = v + j * j
                while len(ts) - f > 1:
                    t2, c2 = ts[-1], cs[-1]
                    if (c - c2) * (t2 - ts[-2]) > (c2 - cs[-2]) * (j - t2):
                        break
                    ts.pop()
                    cs.pop()
                ts.append(j)
                cs.append(c)
            if j < j0 or f == len(ts):
                continue
            t, y = ts[f], cs[f] - 2 * ts[f] * j
            while f + 1 < len(ts):
                y2 = cs[f + 1] - 2 * ts[f + 1] * j
                if y2 >= y:
                    break
                f += 1
                t, y = ts[f], y2
            m = r + j * g
            row[m] = y + j * j
            argz[m] = j - t
        if f < len(ts):
            argmin[r] = ts[f]
    return argmin, argz


def _fill_convex_min(row: list, nxt: list, g: int, lo: int, hi: int, p: int, state):
    """The p >= 3 min case of _fill_row, one residue class r at a time.

    With b[t] = nxt[r + t*g], best(r + j*g) = min over t <= j of
    (j - t)^p + b[t]. An infeasible b[t] becomes `big`, above every finite
    candidate, so the matrix stays Monge and its leftmost argmin stays
    monotone in j. Each candidate is encoded as the key value * W + t, with
    W = hi // g + 2 > t, so the least key carries both the least value and
    its leftmost argmin, and divmod(key, W) reads them back. The state is
    (argmin, argz): argmin[r] is that argmin at the last amount filled in
    class r, a lower bound on the argmin of every later amount, and argz[m]
    is the largest optimal z = j - t at m = r + j*g, t the leftmost argmin:
    the coordinate a witness takes there.
    """
    top_z = hi // g
    W = top_z + 2
    big = top_z**p + max((v for v in nxt if v is not None), default=0) + 1
    # rcost[top_z - z] = z^p * W: the costs of t = tl..th at row j are the
    # slice rcost[top_z - j + tl : top_z - j + th + 1]
    rcost = [z**p * W for z in range(top_z, -1, -1)]
    argmin, argz = state or ([0] * g, array("l"))
    argz.frombytes(bytes((hi + 1 - lo) * argz.itemsize))
    for r in range(min(g, hi + 1)):
        j0, j1 = max(0, -((r - lo) // g)), (hi - r) // g
        if j0 > j1:
            continue
        keys = [(big if v is None else v) * W + t for t, v in enumerate(nxt[r : hi + 1 : g])]
        pending = [(j0, j1, argmin[r], j1)]  # rows jl..jh, argmins within tl..th
        while pending:
            jl, jh, tl, th = pending.pop()
            j = (jl + jh) // 2
            top = th if th < j else j
            off = top_z - j
            best, t = divmod(min(map(add, rcost[off + tl : off + top + 1], keys[tl : top + 1])), W)
            m = r + j * g
            row[m] = best if best < big else None
            argz[m] = j - t
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
    last.extend(repeat(None, size + 1 - lo))
    for m in range(-(-lo // g) * g, size + 1, g):
        last[m] = m // g if p == INF else _coord_cost(m // g, p)
    for i in range(len(gens) - 2, -1, -1):
        rows[i].extend(repeat(None, size + 1 - lo))
        ts.states[i] = _fill_row(
            rows[i], rows[i + 1], gens[i], gens[i + 1 :], lo, size, p, want_min, ts.states[i]
        )
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
        need = (n_max + 1) * _bytes_per_amount(gens, n_max, p, mode) + _fixed_bytes(gens)
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
            free = TABLE_BYTE_LIMIT - _fixed_bytes(gens)
            cap = free // _bytes_per_amount(gens, size, p, mode) - 1
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
    n_max = check_integer(n_max, "n_max")
    check_exponent(p)
    check_mode(mode)
    return _tables(S, n_max, p, mode)[0][: n_max + 1]


def _reconstruct(ts: _TableSet, n: int, p, mode: str) -> tuple[int, ...]:
    """A witness attaining ts.rows[0][n], built one coordinate at a time.

    Coordinate i takes the largest value whose combination with the
    optimum of the remainder over the later generators equals the target;
    the remainder's own optimum, ts.rows[i + 1][m], is the next target.
    Where the fill stored that value in the row's state it is read. For
    p in {1, inf} a coordinate never exceeds the target it combines to, so
    the scan starts at the target when that lies below m // g_i. For p == 1
    every part of the remainder is at most g_k, so its length is at least
    (m - z g_i) / g_k, and z + that length <= target bounds z by
    (target g_k - m) // (g_k - g_i), which for a minimum lies near the
    answer where m // g_i lies Θ(m / g_k) above it. For p == 0 min every
    z >= 1 costs 1, so the largest leaves the least remainder in m's class
    mod g_i whose optimum is target - 1, and z = 0 when there is none; one
    list.index over the class finds it.
    """
    gens, tables = ts.gens, ts.rows
    gk = gens[-1]
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
            if p == 1:
                top = min(m // g, target, (target * gk - m) // (gk - g))
            elif p == INF:
                top = min(m // g, target)
            elif p == 0 and mode == "min":
                try:
                    top = m // g - nxt[m % g : max(m - g + 1, 0) : g].index(target - 1)
                except ValueError:
                    top = 0
            else:
                top = m // g
            for cand in range(top, -1, -1):
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
    n = check_integer(n, "n")
    check_exponent(p)
    check_mode(mode)
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


def step_rule(S: NumericalSemigroup, p, mode: str) -> tuple[int, int]:
    """(threshold, step) of the closed form of the (p, mode) extremal length
    for p in {1, inf}: above the threshold each value exceeds the one a step
    below it by exactly 1.

    p == 1   min: ((g_1 - 1) g_k, g_k)    max: ((g_{k-1} - 1) g_k, g_1)
    p == inf min: (g^2, g)                max: (g_1^2 g, g_1)
    with g = g_1 + ... + g_k.
    """
    check_mode(mode)
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    if p == 1:
        return ((g1 - 1) * gk, gk) if mode == "min" else ((gens[-2] - 1) * gk, g1)
    if p == INF:
        g = sum(gens)
        return (g * g, g) if mode == "min" else (g1 * g1 * g, g1)
    raise ValueError(f"closed forms exist for p in {{1, inf}}, not {p!r}")


def _above_threshold(S: NumericalSemigroup, n: int, p, mode: str) -> tuple[int, int]:
    """step_rule(S, p, mode), once n is found above its threshold and in S."""
    threshold, step = step_rule(S, p, mode)
    if n <= threshold:
        raise ThresholdNotMetError(f"need n > {threshold}, got {n}")
    if not S.contains(n):
        raise NotInSemigroupError(f"{n} is not in {S!r}")
    return threshold, step


def closed_max_inf(S: NumericalSemigroup, n: int) -> int:
    """Maximum coordinate bound (n - a) / g_1, a the residue entry mod g_1.
    Valid only for n in S above the threshold of step_rule(S, inf, "max")."""
    n = check_integer(n, "n")
    g1 = S.generators[0]
    _above_threshold(S, n, INF, "max")
    a = S.apery(g1)[n % g1]
    return (n - a) // g1


def closed_min_inf(S: NumericalSemigroup, n: int) -> int:
    """Minimum coordinate bound (n + a) / g with g = g_1 + ... + g_k, a the
    residue entry of -n mod g. Valid only for n in S above the threshold of
    step_rule(S, inf, "min")."""
    n = check_integer(n, "n")
    _, g = _above_threshold(S, n, INF, "min")
    a = S.apery(g)[(-n) % g]
    return (n + a) // g


def closed_len_recurrence(S: NumericalSemigroup, n: int, mode: str) -> int:
    """Ordinary length (p == 1) by unwinding its step-one recurrence.

    Above the threshold of step_rule(S, 1, mode), which exceeds the
    Frobenius number, the length drops by 1 every step below n. The
    unwinding jumps in O(1) to the last step above the threshold, takes one
    more step if that stays in the semigroup, then finishes with the exact
    solver.
    """
    n = check_integer(n, "n")
    threshold, step = _above_threshold(S, n, 1, mode)
    steps = (n - threshold - 1) // step
    m = n - steps * step
    if S.contains(m - step):  # m - step <= threshold, and >= 0 as step <= threshold
        m -= step
        steps += 1
    return _table_set(S, m, 1, mode).rows[0][m] + steps


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


def _min2_setup(S: NumericalSemigroup) -> tuple:
    """What min2_integer_minimizer needs of S alone, built once and kept on
    S beside its tables: N, the Bezout vector, the descent moves, the tails
    G_i = g_i^2 + ... + g_k^2, and for the last free coordinate
    e = gcd(g_{k-1}, g_k), s = g_k / e and the inverse of g_{k-1} / e mod s."""
    setup = S._table_cache.get("min2")
    if setup is None:
        gens = S.generators
        k = len(gens)
        N = sum(g * g for g in gens)
        moves = []  # z += t * v, v = g_j / d at i and -g_i / d at j
        for i in range(k):
            for j in range(i + 1, k):
                d = gcd(gens[i], gens[j])
                vi, vj = gens[j] // d, -gens[i] // d
                moves.append((i, j, vi, vj, N * N * (vi * vi + vj * vj)))
        tail = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            tail[i] = tail[i + 1] + gens[i] * gens[i]
        e = gcd(gens[-2], gens[-1])
        s = gens[-1] // e
        setup = (N, _bezout_combination(gens), moves, tail, e, s, pow(gens[-2] // e, -1, s))
        S._table_cache["min2"] = setup
    return setup


def min2_integer_minimizer(S: NumericalSemigroup, n: int) -> ExtremalResult:
    """Exact minimizer of sum(z_i^2) over all of Z^k with sum(z_i g_i) == n."""
    n = check_integer(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    gens = S.generators
    k = len(gens)
    N, bezout, moves, tail, e, s, inv = _min2_setup(S)

    z = [c * n for c in bezout]
    r = [N * zi - n * gi for zi, gi in zip(z, gens)]  # J(z) = sum(r_i^2)
    improved = True
    while improved:
        improved = False
        for i, j, vi, vj, den in moves:
            # J(z + t v) - J(z) = 2 t num + t^2 den
            num = N * (r[i] * vi + r[j] * vj)
            t = _round_div(-num, den)
            if t and 2 * t * num + t * t * den < 0:
                z[i] += t * vi
                z[j] += t * vj
                r[i] += t * N * vi
                r[j] += t * N * vj
                improved = True

    best_j = sum(ri * ri for ri in r)
    best_z = tuple(z)
    gk = gens[-1]
    # With acc the J of coordinates < i and rem what they leave, the real
    # minimum of J over the coordinates >= i is acc + D^2 / G_i,
    # D = N rem - n G_i: no leaf below a node with D^2 >= (best_j - acc) G_i
    # can come in under best_j.
    partial = [0] * k

    def dfs(i: int, rem: int, acc: int) -> None:
        nonlocal best_j, best_z
        gi = gens[i]
        root = isqrt(best_j)
        lo = -((root - n * gi) // N)
        hi = (n * gi + root) // N
        center = _round_div(n * gi, N)
        if i == k - 2:
            # rem - z g_{k-1} is a multiple of g_k only for z = (rem / e) inv
            # mod s, and for no z when e does not divide rem: walk that class
            # by distance from center, the lower one first on a tie, and take
            # each leaf that strictly improves. A z outside lo..hi has
            # (N z - n g_i)^2 > best_j, so it never does.
            if rem % e:
                return
            down = center - (center - rem // e * inv) % s
            up = down + s
            while down >= lo or up <= hi:
                if up > hi or (down >= lo and center - down <= up - center):
                    zv, down = down, down - s
                else:
                    zv, up = up, up + s
                zk = (rem - zv * gi) // gk
                total = acc + (N * zv - n * gi) ** 2 + (N * zk - n * gk) ** 2
                if total < best_j:
                    partial[i], partial[i + 1] = zv, zk
                    best_j = total
                    best_z = tuple(partial)
            return
        G = tail[i + 1]
        for d in range(max(center - lo, hi - center) + 1):
            # lo..hi by distance from center, the lower one first on a tie
            for zv in (center - d, center + d) if d else (center,):
                if lo <= zv <= hi:
                    sub_acc = acc + (N * zv - n * gi) ** 2
                    sub_rem = rem - zv * gi
                    D = N * sub_rem - n * G
                    if D * D < (best_j - sub_acc) * G:
                        partial[i] = zv
                        dfs(i + 1, sub_rem, sub_acc)

    dfs(0, n, 0)
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
