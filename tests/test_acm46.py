import itertools
import math
import tracemalloc

import pytest
from ell0_oracle import ell0_max_search

from plengths import Acm, BudgetExceededError, NotInMonoidError, ThresholdNotMetError, acm46
from plengths.acm46 import (
    SmoothElement,
    atom_divisors,
    classify_atom,
    construct_70_factorization,
    ell0_max_28_closed,
    ell0_max_40_closed,
    ell0_max_exact,
    good_atoms,
    growth_series,
    power_extremal,
    smooth_from_int,
    smooth_is_atom,
    smooth_is_member,
)
from plengths.common import check_bytes

INF = math.inf

X28 = SmoothElement(2, 0, 1)
X40 = SmoothElement(3, 1, 0)
X70 = SmoothElement(1, 1, 1)

# distinct-atom maxima of powers of 70, cross-checked against the generic
# divisor-search monoid in test_classifier_agrees_with_divisor_search
SUPPORT_MAX_70 = [1, 2, 3, 3, 4, 5, 6, 6, 7, 8, 8, 9]


class TestClassifier:
    def test_members(self):
        assert smooth_is_member(SmoothElement(1, 1, 0))  # 10
        assert not smooth_is_member(SmoothElement(1, 0, 1))  # 14
        assert smooth_is_member(X28)

    def test_atoms(self):
        assert smooth_is_atom(SmoothElement(2, 0, 0))  # 4
        assert smooth_is_atom(SmoothElement(1, 3, 0))  # 250
        assert not smooth_is_atom(SmoothElement(2, 2, 0))  # 100 = 10 * 10

    def test_atom_requires_member(self):
        with pytest.raises(NotInMonoidError):
            smooth_is_atom(SmoothElement(1, 0, 1))
        with pytest.raises(NotInMonoidError):
            smooth_is_atom(SmoothElement(0, 0, 0))

    def test_from_int(self):
        assert smooth_from_int(28) == X28
        with pytest.raises(ValueError):
            smooth_from_int(12)

    def test_classifier_agrees_with_divisor_search(self):
        M = Acm(4, 6)
        limit = 100_000
        v2 = 2
        while v2 <= limit:
            v25 = v2
            while v25 <= limit:
                v = v25
                while v <= limit:
                    u = smooth_from_int(v)
                    member = M.contains(v)
                    assert member == smooth_is_member(u), v
                    if member:
                        assert M.is_atom(v) == smooth_is_atom(u), v
                    v *= 7
                v25 *= 5
            v2 *= 2


class TestAtomDivisors:
    def test_square_of_28(self):
        got = atom_divisors(SmoothElement(4, 0, 2))
        assert got == [SmoothElement(2, 0, 0), SmoothElement(2, 0, 1), SmoothElement(2, 0, 2)]

    def test_40(self):
        assert atom_divisors(X40) == [SmoothElement(2, 0, 0), SmoothElement(1, 1, 0)]

    def test_atom_itself(self):
        assert atom_divisors(SmoothElement(2, 0, 0)) == [SmoothElement(2, 0, 0)]


class TestSupportMaximum:
    def test_examples(self):
        assert ell0_max_exact(X28, 3) == 3
        assert ell0_max_exact(X40, 4) == 3
        assert ell0_max_exact(X28, 1) == 1

    def test_70_series(self):
        assert [ell0_max_exact(X70, n) for n in range(1, 13)] == SUPPORT_MAX_70

    def test_matches_subset_search(self):
        """The table equals the branch and bound over all atom subsets on
        every member power of an exponent triple in {0..4}^3 up to n = 4,
        and on powers of 28, 40, 70 and 490 up to n = 40."""
        small = [
            (SmoothElement(*t), n)
            for t in itertools.product(range(5), repeat=3)
            for n in range(1, 5)
            if smooth_is_member(SmoothElement(t[0] * n, t[1] * n, t[2] * n))
        ]
        powers = [(smooth_from_int(b), n) for b in (28, 40, 70, 490) for n in range(1, 41)]
        for x, n in small + powers:
            assert ell0_max_exact(x, n) == ell0_max_search(x, n), (x, n)

    @pytest.mark.parametrize(
        "x,n,value",
        # the subset search took 2.9 s, 0.23 s and 2.3 s on these
        [(SmoothElement(1, 4, 4), 6, 6), (X70, 385, 79), (SmoothElement(1, 1, 2), 385, 101)],
        ids=["(1,4,4)^6", "70^385", "490^385"],
    )
    def test_powers_the_search_was_slow_on(self, x, n, value):
        assert ell0_max_exact(x, n) == value

    def test_table_refused_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^a distinct-atom table for "):
                ell0_max_exact(X70, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "x,n", [(X70, 200), (SmoothElement(1, 1, 2), 200)], ids=["70^200", "490^200"]
    )
    def test_charge_covers_the_traced_peak(self, monkeypatch, x, n):
        """The bytes the table is charged cover what it allocates: a pointer
        and an int object per slot."""
        charged = []

        def record(need, limit, what):
            charged.append(need)
            check_bytes(need, limit, what)

        monkeypatch.setattr(acm46, "check_bytes", record)
        ell0_max_exact(X70, 2)  # allocations made once per process
        tracemalloc.start()
        try:
            ell0_max_exact(x, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged[-1]

    def test_non_member_power(self):
        with pytest.raises(NotInMonoidError):
            ell0_max_exact(SmoothElement(1, 0, 1), 1)  # 14
        with pytest.raises(NotInMonoidError):
            ell0_max_exact(SmoothElement(0, 1, 0), 3)  # 125
        assert ell0_max_exact(SmoothElement(1, 0, 1), 2) == 1  # 196 = 4 * 7^2, an atom

    def test_enumeration_cross_check(self):
        """Support maximum agrees with brute enumeration over the generic monoid."""
        M = Acm(4, 6)
        for x, n in ((28, 4), (40, 4), (70, 3), (490, 2)):
            fzs = M.factorizations(x**n)
            brute = max(len(fz) for fz in fzs)
            assert ell0_max_exact(smooth_from_int(x), n) == brute

    def test_closed_28(self):
        assert ell0_max_28_closed(3) == 3
        assert ell0_max_28_closed(10) == 5
        with pytest.raises(ThresholdNotMetError):
            ell0_max_28_closed(2)

    def test_closed_40(self):
        assert ell0_max_40_closed(4) == 3
        assert ell0_max_40_closed(1) == 2

    def test_closed_matches_exact_prefix(self):
        for n in range(3, 16):
            assert ell0_max_28_closed(n) == ell0_max_exact(X28, n)
        for n in range(1, 13):
            assert ell0_max_40_closed(n) == ell0_max_exact(X40, n)


class TestConstruction70:
    def test_smallest(self):
        n, pairs = construct_70_factorization(2)
        assert n == 5
        atoms = {u for u, _ in pairs}
        assert atoms == {
            SmoothElement(2, 0, 0),
            SmoothElement(1, 1, 1),
            SmoothElement(1, 1, 3),
            SmoothElement(1, 3, 1),
        }

    def test_k4(self):
        n, pairs = construct_70_factorization(4)
        assert n == 30 and len(pairs) == 11

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            construct_70_factorization(3)

    def test_product_and_distinctness(self):
        for k in (2, 4, 6, 8, 10):
            n, pairs = construct_70_factorization(k)
            total = [0, 0, 0]
            for u, m in pairs:
                assert smooth_is_atom(u)
                for i in range(3):
                    total[i] += u[i] * m
            assert total == [n, n, n]
            assert len({u for u, _ in pairs}) == k * (k + 1) // 2 + 1


class TestGoodEvil:
    def test_examples(self):
        assert classify_atom(X70, SmoothElement(2, 0, 0)) == "good"
        assert classify_atom(X70, SmoothElement(1, 1, 5)) == "good"
        assert classify_atom(X70, SmoothElement(1, 7, 0)) == "evil"

    def test_counts(self):
        # base 70: e2 = 2 atoms need r <= 12, e2 = 1 atoms need q + r <= 6
        assert len(good_atoms(X70)) == 13 + (6 + 4 + 2)
        # base 28: 2(q + r) <= 3p gives r <= 3 at p = 2 and only (1, 1, 0) at p = 1
        assert len(good_atoms(X28)) == 5
        assert len(good_atoms(SmoothElement(2, 0, 0))) == 1

    def test_good_set_matches_classifier(self):
        for x in (X28, X40, X70):
            expected = set(good_atoms(x))
            top = 20
            for e2 in (1, 2):
                for q in range(0 if e2 == 2 else 1, top, 1 if e2 == 1 else top):
                    for r in range(top):
                        u = SmoothElement(e2, q, r)
                        if e2 == 2 and q:
                            continue
                        if e2 == 1 and q % 2 == 0:
                            continue
                        got = classify_atom(x, u) == "good"
                        assert got == (u in expected), (x, u)


class TestPowerExtremal:
    def test_min_totals(self):
        assert [power_extremal(X70, n, 1, "min") for n in range(1, 11)] == [
            1, 2, 2, 3, 3, 4, 4, 5, 5, 6,
        ]
        assert [power_extremal(X28, n, 1, "min") for n in range(1, 8)] == list(range(1, 8))

    def test_min_peaks(self):
        assert [power_extremal(X28, n, INF, "min") for n in range(1, 11)] == [
            1, 1, 1, 2, 2, 2, 3, 3, 3, 4,
        ]
        assert all(power_extremal(X70, n, INF, "min") == 1 for n in range(1, 11))

    def test_max_modes(self):
        assert [power_extremal(X40, n, 1, "max") for n in range(1, 6)] == [2, 4, 6, 8, 10]
        assert [power_extremal(X40, n, INF, "max") for n in range(1, 6)] == [1, 2, 4, 5, 7]

    def test_power_sandwich_to_twelve(self):
        from plengths.acm_claims import omega

        for base in (28, 40, 70):
            x = smooth_from_int(base)
            kp = omega(base)
            for n in range(1, 13):
                linf = power_extremal(x, n, INF, "max")
                l1 = power_extremal(x, n, 1, "max")
                assert n <= linf <= l1 <= kp * n, (base, n)

    def test_agrees_with_enumeration(self):
        M = Acm(4, 6)
        for x, n_top in ((28, 4), (40, 4), (70, 3)):
            u = smooth_from_int(x)
            for n in range(1, n_top + 1):
                fzs = M.factorizations(x**n)
                mults = [[m for _, m in fz] for fz in fzs]
                assert power_extremal(u, n, 1, "min") == min(sum(m) for m in mults)
                assert power_extremal(u, n, 1, "max") == max(sum(m) for m in mults)
                assert power_extremal(u, n, INF, "min") == min(max(m) for m in mults)
                assert power_extremal(u, n, INF, "max") == max(max(m) for m in mults)

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            power_extremal(X70, 3, 0, "min")
        with pytest.raises(ValueError):
            power_extremal(X70, 3, 2, "max")


class TestGrowthSeries:
    def test_values_match_closed_form(self):
        series = growth_series(X28, 0, "max", 12)
        for n, v in series.points:
            if n >= 3:
                assert v == ell0_max_28_closed(n)

    def test_70_exponent_interval(self):
        series = growth_series(X70, 0, "max", 12)
        assert [v for _, v in series.points] == SUPPORT_MAX_70
        assert 0.5 <= series.fitted_exponent <= 0.85

    def test_min_peak_bound(self):
        G = len(good_atoms(X28))
        series = growth_series(X28, INF, "min", 10)
        for n, v in series.points:
            assert 3 * G * v >= n

    def test_csv(self):
        series = growth_series(X70, 1, "min", 4)
        assert series.to_csv().splitlines()[:3] == ["n,value", "1,1", "2,2"]
