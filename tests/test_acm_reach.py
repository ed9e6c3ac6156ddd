"""Differential tests of the exponent-lattice suffix tables.

The memoized recursions below are the searches acm46 used before its bitset
tables; they are kept here as slow, obvious oracles for power_extremal.
Acm.extremal_plength at p in {0, 1, inf} is checked against the optimum over
the full enumeration, value and witness. The enumeration finds its atoms with
the same sumset as the tables, so it is checked in turn against a recursion
over all divisors that tests each one with the per-element Acm.is_atom, and
the atom sieve against trial division.
"""

import itertools
import math
import time
import tracemalloc
from collections import Counter
from math import isqrt

import pytest

from plengths import Acm, BudgetExceededError, NotInMonoidError
from plengths import acm as acm_mod
from plengths.acm import ExponentLattice
from plengths.acm46 import (
    SmoothElement,
    _power,
    atom_divisors,
    ell0_max_exact,
    power_extremal,
    smooth_from_int,
)
from plengths.common import TRIAL_DIVISION_LIMIT, _prime_powers, plength

INF = math.inf


def memo_l1_power(x: SmoothElement, n: int, mode: str) -> int:
    e = _power(x, n)
    atoms = atom_divisors(e)
    want_min = mode == "min"
    memo: dict[SmoothElement, int | None] = {}

    def rec(rem: SmoothElement) -> int | None:
        if rem == (0, 0, 0):
            return 0
        if rem in memo:
            return memo[rem]
        best = None
        for u in atoms:
            if u.e2 <= rem.e2 and u.e5 <= rem.e5 and u.e7 <= rem.e7:
                sub = rec(SmoothElement(rem.e2 - u.e2, rem.e5 - u.e5, rem.e7 - u.e7))
                if sub is not None:
                    v = sub + 1
                    if best is None or (v < best if want_min else v > best):
                        best = v
        memo[rem] = best
        return best

    val = rec(e)
    if val is None:
        raise NotInMonoidError(f"{tuple(x)}^{n} has no factorization")
    return val


def memo_linf_min_power(x: SmoothElement, n: int) -> int:
    e = _power(x, n)
    atoms = atom_divisors(e)
    na = len(atoms)

    def feasible(cap: int) -> bool:
        memo: dict[tuple[int, SmoothElement], bool] = {}

        def rec(i: int, rem: SmoothElement) -> bool:
            if rem == (0, 0, 0):
                return True
            if i == na:
                return False
            key = (i, rem)
            hit = memo.get(key)
            if hit is not None:
                return hit
            ok = rec(i + 1, rem)
            if not ok:
                u = atoms[i]
                for m in range(1, cap + 1):
                    if u.e2 * m > rem.e2 or u.e5 * m > rem.e5 or u.e7 * m > rem.e7:
                        break
                    if rec(
                        i + 1,
                        SmoothElement(
                            rem.e2 - u.e2 * m, rem.e5 - u.e5 * m, rem.e7 - u.e7 * m
                        ),
                    ):
                        ok = True
                        break
            memo[key] = ok
            return ok

        return rec(0, e)

    cap = 1
    while not feasible(cap):
        cap += 1
        if cap > e.e2:
            raise NotInMonoidError(f"{tuple(x)}^{n} has no factorization")
    return cap


def outcome(fn, *args):
    """The value fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except NotInMonoidError as exc:
        return type(exc)


def enumerated_optimum(M: Acm, x: int, p, mode: str):
    """First optimum of the p-length in canonical order."""
    best = best_fz = None
    for fz in M.factorizations(x):
        v = plength([m for _, m in fz], p)
        if best is None or (v < best if mode == "min" else v > best):
            best, best_fz = v, fz
    return best, best_fz


def brute_factorizations(M: Acm, x: int) -> list:
    """Canonical multisets of atoms with product x, by recursion over the
    divisors of x in nondecreasing order, each tested with M.is_atom."""
    divs = sorted({d for i in range(1, isqrt(x) + 1) if x % i == 0 for d in (i, x // i)})
    atoms = [d for d in divs if d > 1 and M.contains(d) and M.is_atom(d)]

    def rec(rem: int, lo: int) -> list:
        if rem == 1:
            return [()]
        out = []
        for i in range(lo, len(atoms)):
            if rem % atoms[i] == 0:
                out += [(atoms[i],) + rest for rest in rec(rem // atoms[i], i)]
        return out

    return sorted(tuple(sorted(Counter(t).items())) for t in rec(x, 0))


def trial_division_is_atom(M: Acm, x: int) -> bool:
    return not any(
        x % d == 0 and M.contains(d) and M.contains(x // d) for d in range(2, x // 2 + 1)
    )


# 20 and 98 are no members, but their even powers are: odd n checks the
# "no factorization" error. The minimum peak of 4^n is n, so its cap grows.
POWER_BASES = (28, 40, 70, 490, 4, 10, 20, 98)
MONOIDS = ((4, 6), (1, 4), (6, 6), (1, 3), (3, 6), (1, 10))
# (monoid, {base: largest power}) compared with enumeration at p in {0, inf}
POWER_CASES = (
    ((4, 6), {70: 8, 28: 8, 40: 8, 490: 5}),
    ((1, 4), {441: 8, 225: 8}),
    ((6, 6), {72: 8, 108: 7}),
)


class TestLattice:
    def test_sums_never_carry(self):
        lat = ExponentLattice((2, 0, 3))
        assert lat.strides == (1, 6, 12)
        assert lat.nbits == 6 * 2 * 8
        assert bin(lat.valid).count("1") == 3 * 1 * 4
        u, v = lat.index((1, 0, 2)), lat.index((1, 0, 1))
        assert lat.index((2, 0, 3)) == u + v
        # (1,0,2) + (1,0,2) exceeds e, so the mask drops it
        assert ((1 << u) << u) & lat.valid == 0

    def test_mask_is_the_repunit_product(self):
        # the mask as one repunit division per digit, which is quadratic
        small = (e for k in range(4) for e in itertools.product(range(7), repeat=k))
        for e in (*small, *((k, k, k) for k in range(1, 31))):  # 70^k = 2^k 5^k 7^k
            lat = ExponentLattice(e)
            want = 1
            for ej, stride in zip(lat.e, lat.strides):
                want *= ((1 << (ej + 1) * stride) - 1) // ((1 << stride) - 1)
            assert lat.valid == want, e

    def test_layers_count_atoms(self):
        lat = ExponentLattice((4, 0, 2))
        atoms = atom_divisors(SmoothElement(4, 0, 2))
        # every atom has e2 = 2, so exactly two atoms sum to (4, 0, 2)
        assert [lat.optimum(atoms, 1, mode) for mode in ("min", "max")] == [2, 2]
        assert lat.least_optimum(atoms, 1, "min") == (2, [(0, 1), (2, 1)])

    def test_no_sum_raises(self):
        lat = ExponentLattice((1, 1))
        for p in (0, 1, INF):
            for mode in ("min", "max"):
                with pytest.raises(NotInMonoidError):
                    lat.optimum([(1, 0)], p, mode)

    def test_shifts_add_one_atom_at_a_time(self):
        # 1125 = 3^2 * 5^3 in M(1, 4), whose atoms here are 5 and 9, and whose
        # peak maximum is 3. The digit of 3 holds six values, 0..5, so adding
        # three 9s in one shift would carry 3^6 out of it and mark 9^3 as 5.
        res = Acm(1, 4).extremal_plength(1125, INF, "max")
        assert (res.value, res.witness) == (3, ((5, 3), (9, 1)))
        assert (res.value, res.witness) == enumerated_optimum(Acm(1, 4), 1125, INF, "max")


class TestPowerSearchesMatchMemoOracles:
    @pytest.mark.parametrize("base", POWER_BASES)
    def test_total_multiplicity(self, base):
        x = smooth_from_int(base)
        for n in range(1, 11):
            for mode in ("min", "max"):
                assert outcome(power_extremal, x, n, 1, mode) == outcome(
                    memo_l1_power, x, n, mode
                ), (base, n, mode)

    @pytest.mark.parametrize("base", POWER_BASES)
    def test_min_peak(self, base):
        x = smooth_from_int(base)
        for n in range(1, 11):
            assert outcome(power_extremal, x, n, INF, "min") == outcome(
                memo_linf_min_power, x, n
            ), (base, n)

    def test_min_peak_of_four_grows(self):
        x = smooth_from_int(4)
        assert [power_extremal(x, n, INF, "min") for n in range(1, 11)] == list(range(1, 11))

    @pytest.mark.parametrize("base", (28, 40, 70, 490))
    def test_matches_generic_monoid(self, base):
        # acm46's closed-form atoms and the branch and bound against Acm(4, 6)
        M, x = Acm(4, 6), smooth_from_int(base)
        for n in range(1, 7):
            assert ell0_max_exact(x, n) == M.extremal_plength(base**n, 0, "max").value, n
            for p in (1, INF):
                for mode in ("min", "max"):
                    got = power_extremal(x, n, p, mode)
                    assert got == M.extremal_plength(base**n, p, mode).value, (n, p, mode)


class TestLengthMatchesEnumeration:
    @pytest.mark.parametrize("a,b", MONOIDS)
    def test_members_below_3000(self, a, b):
        M = Acm(a, b)
        for x in range(2, 3000):
            if not M.contains(x):
                continue
            for p in (0, 1, INF):
                for mode in ("min", "max"):
                    res = M.extremal_plength(x, p, mode)
                    want = enumerated_optimum(M, x, p, mode)
                    assert (res.value, res.witness) == want, (x, p, mode)

    @pytest.mark.parametrize(
        "monoid,bases", POWER_CASES, ids=[f"{a}-{b}" for (a, b), _ in POWER_CASES]
    )
    def test_powers(self, monoid, bases):
        M = Acm(*monoid)
        for base, top in bases.items():
            for n in range(1, top + 1):
                for p in (0, INF):
                    for mode in ("min", "max"):
                        res = M.extremal_plength(base**n, p, mode)
                        want = enumerated_optimum(M, base**n, p, mode)
                        assert (res.value, res.witness) == want, (base, n, p, mode)

    @pytest.mark.parametrize("a,b", MONOIDS)
    def test_enumeration_matches_divisor_recursion(self, a, b):
        M = Acm(a, b)
        for x in range(2, 3000):
            if M.contains(x):
                assert M.factorizations(x) == brute_factorizations(M, x), x

    @pytest.mark.parametrize("a,b", MONOIDS)
    def test_atom_sieve_matches_trial_division(self, a, b):
        M = Acm(a, b)
        members = [x for x in range(2, 3001) if M.contains(x)]
        assert M.atoms_up_to(3000) == [x for x in members if trial_division_is_atom(M, x)]
        assert [x for x in members if M.is_atom(x)] == M.atoms_up_to(3000)
        assert M.atoms_up_to(members[0] - 1) == []

    @pytest.mark.parametrize("a,b", MONOIDS)
    def test_unit_and_non_member(self, a, b):
        M = Acm(a, b)
        for mode in ("min", "max"):
            assert M.extremal_plength(1, 1, mode) == (0, ())
            outsider = next(x for x in range(2, 100) if not M.contains(x))
            with pytest.raises(NotInMonoidError):
                M.extremal_plength(outsider, 1, mode)

    def test_power_of_70(self):
        M = Acm(4, 6)
        for p in (0, 1, INF):
            for mode in ("min", "max"):
                res = M.extremal_plength(70**8, p, mode)
                assert (res.value, res.witness) == enumerated_optimum(M, 70**8, p, mode)

    def test_argument_errors_come_first(self):
        M = Acm(4, 6)
        with pytest.raises(ValueError):
            M.extremal_plength(70, -1, "min")
        with pytest.raises(ValueError):
            M.extremal_plength(70, 1, "median")
        with pytest.raises(ValueError):
            M.extremal_plength(0, 1, "min")


class TestBudgets:
    @pytest.mark.parametrize(
        "p,n",
        # 70^22: 277 rows of 23 bitsets of 97 336 bits, about 77 MB, for
        # p in {0, 1}; p = inf has 2 bitsets a row, and 70^36 has 704 rows
        # of 405 224 bits, about 71 MB
        [
            pytest.param(0, 22, id="0"),
            pytest.param(1, 22, id="1"),
            pytest.param(INF, 36, id="inf"),
        ],
    )
    def test_reach_size_refused_before_layers_are_built(self, p, n):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                Acm(4, 6).extremal_plength(70**n, p, "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < acm_mod.REACH_BYTE_LIMIT // 4

    def test_lattice_refused_before_its_mask_is_built(self):
        # 70^385 has 772^3 bits per set, 57 MB: two sets pass the limit, and
        # the big-int division that builds the mask would take minutes
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(BudgetExceededError):
                power_extremal(smooth_from_int(70), 385, 1, "min")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and time.perf_counter() - t0 < 1.0

    def test_atom_sieve_refused_before_it_is_allocated(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                Acm(1, 4).atoms_up_to(10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_prime_factors_fast(self):
        p = 100_000_000_000_097  # prime, 1 mod 4, far above the trial limit squared
        t0 = time.perf_counter()
        res = Acm(1, 4).extremal_plength(p, 1, "max")
        assert time.perf_counter() - t0 < 1.0
        assert res == (1, ((p, 1),))
        assert _prime_powers(12 * p) == [(2, 2), (3, 1), (p, 1)]

    def test_two_large_primes_refused(self):
        x = 1_000_003 * 1_000_033  # both prime and above TRIAL_DIVISION_LIMIT
        assert x > TRIAL_DIVISION_LIMIT**2
        with pytest.raises(BudgetExceededError):
            _prime_powers(x)
        with pytest.raises(BudgetExceededError):
            Acm(1, 4).extremal_plength(3 * x, 1, "min")

    def test_strong_pseudoprime_to_twelve_bases_refused(self):
        # composite, and passes Miller-Rabin for every prime base up to 37
        with pytest.raises(BudgetExceededError):
            _prime_powers(318_665_857_834_031_151_167_461)

    def test_cofactor_below_limit_squared_is_prime(self):
        q = 999_983  # largest prime below 10**6
        assert _prime_powers(q * q) == [(q, 2)]
        assert _prime_powers(2 * 1_000_003) == [(2, 1), (1_000_003, 1)]
