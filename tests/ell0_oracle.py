"""Reference distinct-atom maximum: a branch and bound over atom subsets.

The library answers with one table over the count and the five-sum of the
atoms 2 * 5^b * 7^c, which rests on an exchange argument. This module keeps
the search it replaced, which tries subsets of all atoms dividing x^n with
no argument beyond the support test, so the tests can check the table
against it on small powers. Its time swings with the base and grows fast
with n: (1, 4, 4)^6 takes seconds.
"""

from plengths.acm46 import SmoothElement, _power, atom_divisors


def _residual_ok(e2: int, e5: int, e7: int) -> bool:
    """Leftover exponents form the identity or a member (hence factorable)."""
    if e2 == e5 == e7 == 0:
        return True
    return e2 >= 1 and (e2 + e5) % 2 == 0


def ell0_max_search(x: SmoothElement, n: int) -> int:
    """Largest number of distinct atoms over all factorizations of x^n.

    A set D of distinct atoms is the support part of some factorization iff
    the componentwise sum of D fits under the exponents of x^n and the
    leftover is the identity or again a member. The search walks subset
    sizes downward with weight-sorted branch and bound, so the first
    feasible size is the answer.
    """
    e = _power(x, n)
    atoms = atom_divisors(e)
    atoms.sort(key=lambda u: (u.e5 + u.e7, u.e2))
    na = len(atoms)
    weights = [u.e5 + u.e7 for u in atoms]
    budget57 = e.e5 + e.e7

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
