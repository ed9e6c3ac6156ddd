"""Reference min2 minimizer: local descent, then a sorted depth-first box search.

The library keeps residuals in place, prunes the box search by the real
relaxation of the remaining coordinates and walks each box outward from its
center. This module keeps the plain version it started from, which
recomputes J for every move and sorts every box, so the tests can check that
the library returns the same value and the same witness: the witness is
printed, so a tie broken differently would change the output.
"""

from math import gcd, isqrt

from plengths.common import ExtremalResult
from plengths.factor import _bezout_combination, _round_div


def min2_integer_minimizer(S, n: int) -> ExtremalResult:
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
