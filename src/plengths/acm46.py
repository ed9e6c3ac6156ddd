"""The congruence monoid of 4 mod 6, restricted to {2,5,7}-smooth elements.

Elements are kept as exponent triples (e2, e5, e7) for 2^e2 * 5^e5 * 7^e7;
the powers studied here leave machine words almost immediately. Membership
and atomhood have a complete exponent test: u lies in the monoid iff e2 >= 1
and e2 + e5 is even, and a member is an atom iff (e2, e5) == (2, 0) or
e2 == 1 with e5 odd, so the atoms dividing a power come in closed form. The
least and greatest total (p = 1) and peak (p = inf) multiplicity of a power
are read off the suffix tables of acm.ExponentLattice over those atoms. The
distinct-atom maximum (p = 0) is one exact table over the count and the
five-sum of the atoms 2 * 5^b * 7^c: it reaches powers such as 70^1000,
whose exponent lattice is far beyond the lattice's size limit. The rest is
theory: closed forms for the distinct-atom maximum of powers of 28 and of
40, a self-verifying factorization family for powers of 70, good and evil
atoms, and growth-series experiments.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import add
from typing import NamedTuple

from .acm import ExponentLattice
from .common import INF, TABLE_BYTE_LIMIT, check_bytes, check_integer, check_mode
from .errors import ConstructionInvalidError, NotInMonoidError, ThresholdNotMetError


class SmoothElement(NamedTuple):
    e2: int
    e5: int
    e7: int

    def value(self) -> int:
        return 2**self.e2 * 5**self.e5 * 7**self.e7

    def to_json(self) -> dict:
        return {"e2": self.e2, "e5": self.e5, "e7": self.e7}


def smooth_from_int(x: int) -> SmoothElement:
    x = check_integer(x, "x")
    if x < 1:
        raise ValueError("not a {2,5,7}-smooth integer")
    e = [0, 0, 0]
    for i, p in enumerate((2, 5, 7)):
        while x % p == 0:
            e[i] += 1
            x //= p
    if x != 1:
        raise ValueError("not a {2,5,7}-smooth integer")
    return SmoothElement(*e)


def smooth_is_member(u: SmoothElement) -> bool:
    """2^e2 5^e5 7^e7 is congruent to 4 mod 6 iff e2 >= 1 and e2 + e5 is even."""
    return u.e2 >= 1 and (u.e2 + u.e5) % 2 == 0


def smooth_is_atom(u: SmoothElement) -> bool:
    """Atoms are exactly 4 * 7^r and 2 * 5^q * 7^r with q odd."""
    if u == (0, 0, 0) or not smooth_is_member(u):
        raise NotInMonoidError(f"{tuple(u)} is not a non-unit member")
    return (u.e2 == 2 and u.e5 == 0) or (u.e2 == 1 and u.e5 % 2 == 1)


def _power(x: SmoothElement, n: int) -> SmoothElement:
    return SmoothElement(x.e2 * n, x.e5 * n, x.e7 * n)


def atom_divisors(x: SmoothElement) -> list[SmoothElement]:
    """All atoms dividing x componentwise, ascending by integer value."""
    if not smooth_is_member(x):
        raise NotInMonoidError(f"{tuple(x)} is not a member")
    out = []
    if x.e2 >= 2:
        out += [SmoothElement(2, 0, r) for r in range(x.e7 + 1)]
    if x.e2 >= 1:
        out += [
            SmoothElement(1, q, r)
            for q in range(1, x.e5 + 1, 2)
            for r in range(x.e7 + 1)
        ]
    out.sort(key=SmoothElement.value)
    return out


def ell0_max_exact(x: SmoothElement, n: int) -> int:
    """Largest number of distinct atoms over all factorizations of x^n.

    Let e = x^n. A set D of distinct atoms is the support part of some
    factorization iff its sum s fits under e and e - s is the identity or a
    member. The fives of D sum to its number of type-B atoms mod 2, so
    e - s always has e2 + e5 even: it is a member iff its e2 is >= 1.

    The atoms are A_c = 4 * 7^c and B_(b,c) = 2 * 5^b * 7^c with b odd. By
    exchange, t_A type-A atoms take c = 0 .. t_A - 1, and the type-B atoms
    fill rows c = 0, 1, ... of L_c atoms, b = 1, 3, ..., 2 L_c - 1: a row
    costs L_c^2 fives and c * L_c sevens. least[u][s5] is the least
    seven-sum of u type-B atoms whose five-sum is s5; a new bottom row of L
    atoms lifts the u - L atoms above it by one seven each. min(least[u])
    only grows with u, so rows stop once it cannot fit.

    The answer is the largest t_A + t_B whose five and seven sums fit, with
    2 t_A + t_B <= e2 - 1, or == e2 for an exact fit: raising c of the atom
    with the largest c, or b of the type-B atom with the largest b (the five
    slack is even), absorbs any slack, so the same least sums decide it;
    with t_B = 0 it also needs e5 == 0. A table of (min(e2, e5) + 1) *
    (e5 + 1) slots past TABLE_BYTE_LIMIT raises BudgetExceededError unbuilt.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    e2, e5, e7 = e = _power(x, n)
    if not smooth_is_member(e):
        raise NotInMonoidError(f"{tuple(e)} is not a member")
    top = min(e2, e5)
    never = e7 + 1  # any larger seven-sum cannot fit
    # a slot: its pointer and an int object below never + top^2, one digit long
    slot = 8 + sys.getsizeof(never + top * top) + sys.int_info.sizeof_digit
    what = f"a distinct-atom table for {tuple(e)}"
    check_bytes((top + 1) * (e5 + 1) * slot, TABLE_BYTE_LIMIT, what)
    least, best = [], 0
    for t_b in range(top + 1):
        row = [never] * (e5 + 1) if t_b else [0] + [never] * e5
        for size in range(1, min(t_b, math.isqrt(e5)) + 1):
            lifted = map(add, least[t_b - size], repeat(t_b - size))
            row[size * size :] = map(min, row[size * size :], lifted)
        least.append(row)
        room = e7 - min(row)
        if room < 0:
            break
        t_a = (math.isqrt(8 * room + 1) + 1) // 2  # most type-A atoms the sevens allow
        half, odd = divmod(e2 - t_b, 2)
        exact = not odd and half <= t_a and (t_b or not e5)
        # with t_b == e2 and no exact fit, t_b - 1 was reached at t_b - 1
        best = max(best, t_b + (half if exact else min(t_a, (e2 - 1 - t_b) // 2)))
    return best


def _triangular(k: int) -> int:
    return k * (k + 1) // 2


def ell0_max_28_closed(n: int) -> int:
    """k + 1 where the k-th triangular number is the last one <= n. Needs n >= 3."""
    if n < 3:
        raise ThresholdNotMetError("closed form for base 28 starts at n = 3")
    return (math.isqrt(8 * n + 1) - 1) // 2 + 1


def ell0_max_40_closed(n: int) -> int:
    """k + 1 where k^2 is the last square <= n. Valid from n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.isqrt(n) + 1


def construct_70_factorization(
    k: int,
) -> tuple[int, tuple[tuple[SmoothElement, int], ...]]:
    """A factorization of 70^n with T_k + 1 distinct atoms, n = sum of squares.

    For even k >= 2 the atoms 2 * 5^(2i-1) * 7^(2(a-i)+1) over 1 <= i <= a <= k
    contribute matching five and seven exponents that total n = k(k+1)(2k+1)/6,
    and a balancing power of 4 tops the exponent of 2 up to n. The product is
    re-verified exponentwise before returning; a mismatch raises instead of
    returning a bad certificate.
    """
    k = check_integer(k, "k")
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    n = sum(a * a for a in range(1, k + 1))
    odd_atoms = [
        SmoothElement(1, 2 * i - 1, 2 * (a - i) + 1)
        for a in range(1, k + 1)
        for i in range(1, a + 1)
    ]
    two_deficit = n - len(odd_atoms)
    if two_deficit < 0 or two_deficit % 2:
        raise ConstructionInvalidError("power of 4 cannot balance the exponent of 2")
    pairs = [(SmoothElement(2, 0, 0), two_deficit // 2)] + [(u, 1) for u in odd_atoms]
    total = [0, 0, 0]
    for u, m in pairs:
        for i in range(3):
            total[i] += u[i] * m
    if total != [n, n, n]:
        raise ConstructionInvalidError(f"product is {total}, wanted 70^{n}")
    distinct = {u for u, _ in pairs}
    if len(distinct) != _triangular(k) + 1 or len(distinct) != len(pairs):
        raise ConstructionInvalidError("atom multiset is not T_k + 1 distinct atoms")
    for u in distinct:
        if not smooth_is_atom(u):
            raise ConstructionInvalidError(f"{tuple(u)} is not an atom")
    pairs.sort(key=lambda t: t[0].value())
    return n, tuple(pairs)


# ---------------------------------------------------------------------------
# Good and evil atoms. Relative to a fixed base x with x.e2 >= 1, the atom u
# is good when x.e2 * (u.e5 + u.e7) <= 3 * u.e2 * (x.e5 + x.e7); only
# finitely many atoms are good, and every factorization of a power of x
# leans on them: evil slots never outnumber good slots by more than 2 to 1.
# ---------------------------------------------------------------------------


def classify_atom(x: SmoothElement, u: SmoothElement) -> str:
    """'good' or 'evil' for the atom u relative to the base x."""
    if x.e2 < 1:
        raise ValueError("base must have e2 >= 1")
    if not smooth_is_atom(u):
        raise NotInMonoidError(f"{tuple(u)} is not an atom")
    lhs = x.e2 * (u.e5 + u.e7)
    rhs = 3 * u.e2 * (x.e5 + x.e7)
    return "good" if lhs <= rhs else "evil"


def good_atoms(x: SmoothElement) -> list[SmoothElement]:
    """Every good atom relative to x (a finite set), ascending by value."""
    if x.e2 < 1:
        raise ValueError("base must have e2 >= 1")
    a = x.e2
    w = x.e5 + x.e7
    out = []
    # e2 == 2 atoms 4 * 7^r: a * r <= 6 * w
    r_top = (6 * w) // a
    out += [SmoothElement(2, 0, r) for r in range(r_top + 1)]
    # e2 == 1 atoms 2 * 5^q * 7^r with q odd: a * (q + r) <= 3 * w
    s_top = (3 * w) // a
    out += [
        SmoothElement(1, q, r)
        for q in range(1, s_top + 1, 2)
        for r in range(s_top - q + 1)
    ]
    out.sort(key=SmoothElement.value)
    return out


# ---------------------------------------------------------------------------
# Exact extremal multiplicities for powers.
# ---------------------------------------------------------------------------


def power_extremal(x: SmoothElement, n: int, p, mode: str) -> int:
    """Exact extremal p-length of x^n for p in {0, 1, inf}.

    p == 0 is supported for mode 'max' only (ell0_max_exact's table). The
    base x need not be a member when x^n is: x^n that is no member raises
    NotInMonoidError.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    check_mode(mode)
    if p == 0:
        if mode != "max":
            raise ValueError("p = 0 is only supported with mode 'max'")
        return ell0_max_exact(x, n)
    if p not in (1, INF):
        raise ValueError("supported exponents for powers are 0, 1 and inf")
    e = _power(x, n)
    return ExponentLattice(e).optimum(atom_divisors(e), p, mode)


class GrowthSeries(NamedTuple):
    """Exact values of one extremal functional on x^1 .. x^n_max, with a fit.

    The fitted exponent is the least-squares slope of log(value) against
    log(n) over the upper half of the sampled range; the residual is the
    root-mean-square deviation of that fit. Both are diagnostics, the
    points themselves are exact.
    """

    x: SmoothElement
    p: object
    mode: str
    points: tuple[tuple[int, int], ...]
    fitted_exponent: float
    residual: float

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "p": "inf" if self.p == INF else self.p,
            "mode": self.mode,
            "points": [[n, v] for n, v in self.points],
            "fitted_exponent": self.fitted_exponent,
            "residual": self.residual,
        }

    def to_csv(self) -> str:
        lines = ["n,value"]
        lines += [f"{n},{v}" for n, v in self.points]
        return "\n".join(lines) + "\n"


def _loglog_fit(points: list[tuple[int, int]]) -> tuple[float, float]:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0, 0.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    sq = sum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(sq / len(xs))


def growth_series(x: SmoothElement, p, mode: str, n_max: int) -> GrowthSeries:
    """Exact values of the extremal functional at x^n for n = 1 .. n_max."""
    n_max = check_integer(n_max, "n_max")
    if n_max < 2:
        raise ValueError("need n_max >= 2 to fit anything")
    points = [(n, power_extremal(x, n, p, mode)) for n in range(1, n_max + 1)]
    upper = [pt for pt in points[len(points) // 2 :] if pt[1] > 0]
    slope, residual = _loglog_fit(upper)
    return GrowthSeries(x, p, mode, tuple(points), slope, residual)
