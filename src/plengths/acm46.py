"""The congruence monoid of 4 mod 6, restricted to {2,5,7}-smooth elements.

Elements are kept as exponent triples (e2, e5, e7) for 2^e2 * 5^e5 * 7^e7;
the powers studied here leave machine words almost immediately. Membership
and atomhood have a complete exponent test: u lies in the monoid iff e2 >= 1
and e2 + e5 is even, and a member is an atom iff (e2, e5) == (2, 0) or
e2 == 1 with e5 odd, so the atoms dividing a power come in closed form. The
least and greatest total (p = 1) and peak (p = inf) multiplicity of a power
are read off the suffix tables of acm.ExponentLattice over those atoms. The
distinct-atom maximum (p = 0) is a branch and bound over atom subsets: it
reaches powers such as 70^385, whose exponent lattice is far beyond the
tables' size limit. The rest is theory: closed forms for the distinct-atom
maximum of powers of 28 and of 40, a self-verifying factorization family for
powers of 70, good and evil atoms, and growth-series experiments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .acm import ExponentLattice
from .common import INF
from .errors import (
    BudgetExceededError,
    ConstructionInvalidError,
    NotInMonoidError,
    ThresholdNotMetError,
)

DEFAULT_NODE_BUDGET = 5_000_000


class SmoothElement(NamedTuple):
    e2: int
    e5: int
    e7: int

    def value(self) -> int:
        return 2**self.e2 * 5**self.e5 * 7**self.e7

    def to_json(self) -> dict:
        return {"e2": self.e2, "e5": self.e5, "e7": self.e7}


def smooth_from_int(x: int) -> SmoothElement:
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


def _residual_ok(e2: int, e5: int, e7: int) -> bool:
    """Leftover exponents form the identity or a member (hence factorable)."""
    if e2 == e5 == e7 == 0:
        return True
    return e2 >= 1 and (e2 + e5) % 2 == 0


def ell0_max_exact(x: SmoothElement, n: int) -> int:
    """Largest number of distinct atoms over all factorizations of x^n.

    A set D of distinct atoms is the support part of some factorization iff
    the componentwise sum of D fits under the exponents of x^n and the
    leftover is the identity or again a member. The search walks subset
    sizes downward with weight-sorted branch and bound, so the first
    feasible size is the answer. It raises BudgetExceededError past
    DEFAULT_NODE_BUDGET nodes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = _power(x, n)
    atoms = atom_divisors(e)
    atoms.sort(key=lambda u: (u.e5 + u.e7, u.e2))
    na = len(atoms)
    weights = [u.e5 + u.e7 for u in atoms]
    budget57 = e.e5 + e.e7
    nodes = 0

    # largest size worth trying: lightest atoms must fit both budgets
    hi = 0
    acc = 0
    for w in weights:
        if acc + w > budget57 or hi + 1 > e.e2:
            break
        acc += w
        hi += 1

    def dfs(t: int, start: int, cnt: int, s2: int, s5: int, s7: int, wsum: int) -> bool:
        """Whether t - cnt more atoms from atoms[start:] complete a support."""
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_NODE_BUDGET:
            raise BudgetExceededError("distinct-atom search exceeded node budget")
        if cnt == t:
            return _residual_ok(e.e2 - s2, e.e5 - s5, e.e7 - s7)
        need = t - cnt
        for j in range(start, na - need + 1):
            u = atoms[j]
            if s2 + u.e2 > e.e2 or s5 + u.e5 > e.e5 or s7 + u.e7 > e.e7:
                continue
            rest = sum(weights[j + 1 : j + need])
            if wsum + weights[j] + rest > budget57:
                break  # atoms are weight-sorted, later ones only heavier
            if dfs(t, j + 1, cnt + 1, s2 + u.e2, s5 + u.e5, s7 + u.e7, wsum + weights[j]):
                return True
        return False

    for t in range(hi, 0, -1):  # t <= hi fits both budgets with the lightest atoms
        if dfs(t, 0, 0, 0, 0, 0, 0):
            return t
    return 0


def _triangular(k: int) -> int:
    return k * (k + 1) // 2


def ell0_max_28_closed(n: int) -> int:
    """k + 1 where the k-th triangular number is the last one <= n. Needs n >= 3."""
    if n < 3:
        raise ThresholdNotMetError("closed form for base 28 starts at n = 3")
    k = 2
    while _triangular(k + 1) <= n:
        k += 1
    return k + 1


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


def count_good_atoms(x: SmoothElement) -> int:
    """Number of good atoms relative to x; always finite, 1 when e5 + e7 = 0."""
    return len(good_atoms(x))


# ---------------------------------------------------------------------------
# Exact extremal multiplicities for powers.
# ---------------------------------------------------------------------------


def power_extremal(x: SmoothElement, n: int, p, mode: str) -> int:
    """Exact extremal p-length of x^n for p in {0, 1, inf}.

    p == 0 is supported for mode 'max' only (the distinct-atom search). The
    base x need not be a member when x^n is: x^n that is no member raises
    NotInMonoidError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
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
    if n_max < 2:
        raise ValueError("need n_max >= 2 to fit anything")
    points = [(n, power_extremal(x, n, p, mode)) for n in range(1, n_max + 1)]
    upper = [pt for pt in points[len(points) // 2 :] if pt[1] > 0]
    slope, residual = _loglog_fit(upper)
    return GrowthSeries(x, p, mode, tuple(points), slope, residual)
