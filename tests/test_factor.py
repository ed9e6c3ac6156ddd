import math
import sys
import tracemalloc

import pytest
from min2_oracle import min2_integer_minimizer as min2_oracle

from plengths import (
    Acm,
    BudgetExceededError,
    NotInSemigroupError,
    NumericalSemigroup,
    ThresholdNotMetError,
    closed_len_recurrence,
    closed_max_inf,
    closed_min_inf,
    extremal_plength,
    extremal_values,
    factorizations,
    min2_integer_minimizer,
    min2_shift_check,
    plength,
)
from plengths import RunConfig, acm46, factor
from plengths.ns_claims import SEMIGROUP_CLAIMS

INF = math.inf


def is_factorization(S: NumericalSemigroup, n: int, z) -> bool:
    """z is a valid exponent vector for n over the generators of S."""
    gens = S.generators
    return (
        len(z) == len(gens)
        and all(isinstance(v, int) and v >= 0 for v in z)
        and sum(v * g for v, g in zip(z, gens)) == n
    )


class TestPlength:
    def test_square_sum(self):
        assert plength((3, 2), 2) == 13

    def test_max_coordinate(self):
        assert plength((3, 2), INF) == 3
        assert plength((), INF) == 0

    def test_support_count(self):
        assert plength((3, 0), 0) == 1
        assert plength((0, 0, 0), 0) == 0
        assert plength((1, 2, 3), 0) == 3

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            plength((1, 2), -1)
        with pytest.raises(ValueError):
            plength((1, 2), 1.5)

    def test_one_message_for_a_bad_mode(self, semigroups):
        calls = (
            lambda: extremal_values(semigroups[(2, 3)], 10, 1, "mid"),
            lambda: Acm(4, 6).extremal_plength(28, 1, "mid"),
            lambda: acm46.power_extremal(acm46.smooth_from_int(70), 2, 1, "mid"),
        )
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "mode must be 'min' or 'max', got 'mid'"


class TestFactorizations:
    def test_two_ways_to_six(self, semigroups):
        assert set(factorizations(semigroups[(2, 3)], 6)) == {(3, 0), (0, 2)}

    def test_identity_has_empty_factorization(self, semigroups):
        assert factorizations(semigroups[(2, 3)], 0) == [(0, 0)]

    def test_gap_has_none(self, semigroups):
        assert factorizations(semigroups[(2, 3)], 1) == []

    def test_all_solutions_sum_back(self, semigroups):
        for gens, S in semigroups.items():
            for n in (0, 17, 60, 121):
                for z in factorizations(S, n):
                    assert is_factorization(S, n, z)

    def test_is_factorization_rejects(self, semigroups):
        S = semigroups[(2, 3)]
        assert not is_factorization(S, 6, (3, 1))
        assert not is_factorization(S, 6, (3,))
        assert not is_factorization(S, 6, (-3, 4))

    def test_budget(self, semigroups):
        with pytest.raises(BudgetExceededError):
            factorizations(semigroups[(2, 3)], 300, cap=3)


class TestExtremal:
    def test_min_square_example(self, semigroups):
        res = extremal_plength(semigroups[(2, 3)], 12, 2, "min")
        assert res.value == 13 and res.witness == (3, 2)

    def test_min_max_coordinate(self, semigroups):
        assert extremal_plength(semigroups[(2, 3)], 26, INF, "min").value == 6

    def test_max_max_coordinate_with_witness(self, semigroups):
        res = extremal_plength(semigroups[(2, 3)], 21, INF, "max")
        assert res.value == 9 and res.witness == (9, 1)

    def test_gap_raises(self, semigroups):
        with pytest.raises(NotInSemigroupError):
            extremal_plength(semigroups[(6, 9, 20)], 43, 1, "min")

    def test_witness_attains_value(self, semigroups):
        for S in semigroups.values():
            for n in (44, 100, 155):
                for p in (0, 1, 2, 3, INF):
                    for mode in ("min", "max"):
                        res = extremal_plength(S, n, p, mode)
                        assert plength(res.witness, p) == res.value

    def test_matches_enumeration_up_to_400(self, semigroups):
        """Solver equals the full-enumeration optimum for every member."""
        exps = (0, 1, 2, 3, INF)
        for gens, S in semigroups.items():
            tables = {
                (p, mode): extremal_values(S, 400, p, mode)
                for p in exps
                for mode in ("min", "max")
            }
            for n in range(401):
                zs = factorizations(S, n)
                if not zs:
                    assert all(t[n] is None for t in tables.values())
                    continue
                for p in exps:
                    lengths = [plength(z, p) for z in zs]
                    assert tables[(p, "min")][n] == min(lengths), (gens, n, p)
                    assert tables[(p, "max")][n] == max(lengths), (gens, n, p)

    def test_monotone_sandwich(self, semigroups):
        for gens, S in semigroups.items():
            k = len(gens)
            for n in (50, 123, 200):
                for z in factorizations(S, n):
                    linf, l1 = plength(z, INF), plength(z, 1)
                    assert linf <= l1 <= k * linf


def _vectors(gens: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    if len(gens) == 1:
        return [(m // gens[0],)] if m % gens[0] == 0 else []
    return [
        (z,) + rest
        for z in range(m // gens[0], -1, -1)
        for rest in _vectors(gens[1:], m - z * gens[0])
    ]


def _optimum(gens, m, p, mode):
    vals = [plength(z, p) for z in _vectors(gens, m)]
    return (min if mode == "min" else max)(vals) if vals else None


def _rule_witness(gens, m, p, mode):
    """Largest coordinate that meets the target with the remainder's optimum,
    then the remainder's own witness against that optimum."""
    if len(gens) == 1:
        return (m // gens[0],)
    target = _optimum(gens, m, p, mode)
    for c in range(m // gens[0], -1, -1):
        sub = _optimum(gens[1:], m - c * gens[0], p, mode)
        if sub is not None and (max(c, sub) if p == INF else plength((c,), p) + sub) == target:
            return (c,) + _rule_witness(gens[1:], m - c * gens[0], p, mode)
    raise AssertionError("no coordinate meets the target")


class TestWitnessRule:
    @pytest.mark.parametrize("gens,top", [((3, 5, 7), 60), ((5, 7, 9, 11), 70)])
    def test_brute_force(self, gens, top):
        S = NumericalSemigroup(gens)
        for n in range(top):
            zs = _vectors(gens, n)
            if not zs:
                continue
            for p in (0, 1, 2, 3, INF):
                for mode in ("min", "max"):
                    w = extremal_plength(S, n, p, mode).witness
                    assert w == _rule_witness(gens, n, p, mode), (n, p, mode)
                    if p != INF:
                        best = _optimum(gens, n, p, mode)
                        assert w == max(z for z in zs if plength(z, p) == best), (n, p, mode)

    def test_inf_witness_need_not_be_greatest(self):
        S = NumericalSemigroup((5, 7, 9, 11))
        for n, mode, got, greatest in ((58, "min", (3, 2, 2, 1), (3, 3, 0, 2)),
                                       (38, "max", (4, 0, 2, 0), (4, 1, 0, 1))):
            res = extremal_plength(S, n, INF, mode)
            assert res.witness == got
            optimal = [z for z in _vectors(S.generators, n) if plength(z, INF) == res.value]
            assert max(optimal) == greatest


# (p, mode): the claim that replays the closed form, and the closed form
CLOSED_FORMS = {
    (1, "min"): ("l1min-recurrence", lambda S, n: closed_len_recurrence(S, n, "min")),
    (1, "max"): ("l1max-recurrence", lambda S, n: closed_len_recurrence(S, n, "max")),
    (INF, "min"): ("linfmin-closed-form", closed_min_inf),
    (INF, "max"): ("linfmax-closed-form", closed_max_inf),
}


class TestClosedForms:
    @pytest.mark.parametrize("p, mode", sorted(CLOSED_FORMS, key=str), ids=str)
    def test_step_rule_sets_claim_and_closed_form_thresholds(self, semigroups, p, mode):
        claim, closed = CLOSED_FORMS[p, mode]
        _, _, check, *args = next(row for row in SEMIGROUP_CLAIMS if row[0] == claim)
        for S in semigroups.values():
            threshold, _ = factor.step_rule(S, p, mode)
            window, _ = check(S, RunConfig(), *args)
            assert window["threshold"] == threshold
            with pytest.raises(ThresholdNotMetError):
                closed(S, threshold)
            n = next(n for n in range(threshold + 1, threshold + S.generators[0] + 1)
                     if S.contains(n))
            assert closed(S, n) == extremal_values(S, n, p, mode)[n]

    def test_max_inf_examples(self, semigroups):
        assert closed_max_inf(semigroups[(2, 3)], 21) == 9
        assert closed_max_inf(semigroups[(2, 3)], 22) == 11
        assert closed_max_inf(semigroups[(3, 5, 7)], 136) == 43

    def test_max_inf_threshold(self, semigroups):
        with pytest.raises(ThresholdNotMetError):
            closed_max_inf(semigroups[(2, 3)], 20)
        with pytest.raises(ThresholdNotMetError):
            closed_max_inf(semigroups[(3, 5, 7)], 135)

    def test_min_inf_examples(self, semigroups):
        S = semigroups[(2, 3)]
        assert closed_min_inf(S, 26) == 6
        assert closed_min_inf(S, 27) == 6
        assert closed_min_inf(S, 30) == 6

    def test_min_inf_threshold(self, semigroups):
        with pytest.raises(ThresholdNotMetError):
            closed_min_inf(semigroups[(2, 3)], 25)

    def test_len_recurrence_examples(self, semigroups):
        S = semigroups[(2, 3)]
        assert closed_len_recurrence(S, 100, "min") == 34
        assert closed_len_recurrence(S, 100, "max") == 50
        with pytest.raises(ThresholdNotMetError):
            closed_len_recurrence(semigroups[(3, 5, 7)], 7, "max")

    def test_len_recurrence_base_stays_inside(self, semigroups):
        # unwinding from 4 in (2, 3) must stop at 4, not step to the gap at 1
        S = semigroups[(2, 3)]
        assert closed_len_recurrence(S, 4, "min") == 2

    def test_closed_forms_match_solver(self, semigroups):
        for gens, S in semigroups.items():
            g1, g = gens[0], sum(gens)
            t_max = g1 * g1 * g
            for n in range(t_max + 1, t_max + 60):
                if S.contains(n):
                    assert closed_max_inf(S, n) == extremal_plength(S, n, INF, "max").value
            t_min = g * g
            for n in range(t_min + 1, t_min + 60):
                if S.contains(n):
                    assert closed_min_inf(S, n) == extremal_plength(S, n, INF, "min").value

    @pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (6, 9, 20), (5, 7, 9, 11)])
    def test_len_recurrence_matches_table(self, gens):
        S = NumericalSemigroup(gens)
        for mode, threshold in (
            ("min", (gens[0] - 1) * gens[-1]),
            ("max", (gens[-2] - 1) * gens[-1]),
        ):
            row = extremal_values(S, 3000, 1, mode)
            for n in range(threshold + 1, 3001):
                if row[n] is not None:
                    assert closed_len_recurrence(S, n, mode) == row[n], (n, mode)

    @pytest.mark.parametrize("n", [10**12, 10**100])
    def test_huge_n_in_constant_memory(self, n):
        S = NumericalSemigroup((6, 9, 20))
        tracemalloc.start()
        try:
            closed_max_inf(S, n)
            closed_min_inf(S, n)
            lengths = [closed_len_recurrence(S, n, mode) for mode in ("min", "max")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # n = 20 * (n // 20), and n = 6 * (n // 6 - 6) + 20 + 20 is longest
        assert lengths == [n // 20, n // 6 - 4]


class TestTableByteLimit:
    @pytest.mark.parametrize("p,mode", [(2, "max"), (1, "min"), (2, "min"), (INF, "min")])
    def test_huge_n_refused_before_allocating(self, p, mode):
        S = NumericalSemigroup((3, 5, 7))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="over the limit"):
                extremal_plength(S, 10**9, p, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_growth_stops_at_the_limit(self, monkeypatch):
        S = NumericalSemigroup((3, 5, 7))
        # 1001 amounts of 3 row slots, a slot of the returned copy and one int
        # object, and the fixed bytes: up to 1200 only the row of 3 holds
        # values above 255 (at most 1200 // 3 = 400)
        limit = (4 * 8 + sys.getsizeof(400)) * 1001 + factor._fixed_bytes(S.generators)
        monkeypatch.setattr(factor, "TABLE_BYTE_LIMIT", limit)
        extremal_values(S, 800, 1, "min")
        extremal_values(S, 900, 1, "min")  # growing by half would reach 1200
        assert S._table_cache[(1, "min")].size == 1000
        assert extremal_plength(S, 1000, 1, "min").value == 144
        with pytest.raises(BudgetExceededError):
            extremal_values(S, 1001, 1, "min")

    def test_estimate_covers_the_traced_peak(self):
        """The count includes the int objects of a p >= 1 table's values, the
        copy extremal_values returns and the rows' fixed bytes, which are all
        a p = 0 table has beyond its slots, and for p >= 2 min the lists a
        fill holds over one residue class."""
        for p, mode, n in [
            (0, "min", 10**5),
            (1, "max", 10**5),
            (2, "min", 10**4),
            (3, "min", 10**4),
            (2, "max", 3 * 10**4),
            (3, "max", 3 * 10**4),
            (INF, "min", 3 * 10**4),
        ]:
            # a small build first: allocations made once per process, such as
            # the frame CPython 3.10 keeps per function after its first call,
            # are not table bytes
            extremal_values(NumericalSemigroup((3, 5, 7)), 100, p, mode)
            S = NumericalSemigroup((3, 5, 7))
            tracemalloc.start()
            try:
                extremal_values(S, n, p, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_amount = factor._bytes_per_amount(S.generators, n, p, mode)
            assert (n + 1) * per_amount + factor._fixed_bytes(S.generators) >= peak, (p, mode)

    def test_table_goes_with_its_semigroup(self):
        S = NumericalSemigroup((3, 5, 7))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            extremal_values(S, 10**5, 1, "max")
            built = tracemalloc.get_traced_memory()[0]
            del S
            freed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert built - before > 5 << 20
        assert freed - before < 64 << 10

    def test_limit_admits_the_largest_verified_table(self):
        """ns verify on (11, 13, 17, 19, 23) samples its p = 0 min row up to
        3 197 084: five rows of that many slots must fit."""
        assert 5 * 8 * 3_197_085 <= factor.TABLE_BYTE_LIMIT


class TestMin2:
    def brute_integer_min(self, gens, n, radius=30):
        """exhaustive box around the scaled projection, small n only"""
        k = len(gens)
        N = sum(g * g for g in gens)
        best = None
        centers = [round(n * g / N) for g in gens]

        def rec(i, acc, partial):
            nonlocal best
            if i == k - 1:
                rem = n - sum(p * g for p, g in zip(partial, gens[:-1]))
                if rem % gens[-1]:
                    return
                v = acc + (rem // gens[-1]) ** 2
                if best is None or v < best:
                    best = v
                return
            for z in range(centers[i] - radius, centers[i] + radius + 1):
                rec(i + 1, acc + z * z, partial + [z])

        rec(0, 0, [])
        return best

    def test_matches_brute_force(self, semigroups):
        for gens in ((2, 3), (3, 5, 7)):
            S = semigroups[gens]
            for n in range(0, 40):
                res = min2_integer_minimizer(S, n)
                assert sum(z * g for z, g in zip(res.witness, gens)) == n
                assert res.value == sum(z * z for z in res.witness)
                assert res.value == self.brute_integer_min(gens, n)

    def test_never_above_nonnegative_minimum(self, semigroups):
        S = semigroups[(2, 3)]
        vals = extremal_values(S, 80, 2, "min")
        for n in range(81):
            if vals[n] is not None:
                assert min2_integer_minimizer(S, n).value <= vals[n]

    def test_shift_examples(self, semigroups):
        assert min2_shift_check(semigroups[(2, 3)], 0)
        assert min2_shift_check(semigroups[(2, 3)], 12)
        assert min2_shift_check(semigroups[(3, 5, 7)], 40)

    @pytest.mark.parametrize(
        "gens",
        [(2, 3), (3, 5, 7), (6, 9, 20), (5, 7, 9, 11), (4, 6, 9), (7, 8, 9, 10, 11)],
        ids=lambda g: ",".join(map(str, g)),
    )
    def test_matches_oracle(self, gens):
        """Same value and same witness as the plain sorted box search: the
        witness is printed, so a tie broken differently changes the output."""
        S = NumericalSemigroup(gens)
        for n in [*range(1000), 10**6 + 7, 10**30 + 1]:
            assert min2_integer_minimizer(S, n) == min2_oracle(S, n), n

    def test_huge_n_is_exact(self, semigroups):
        gens = (3, 5, 7)
        n = 10**400
        res = min2_integer_minimizer(semigroups[gens], n)
        assert sum(z * g for z, g in zip(res.witness, gens)) == n
        assert res.value == sum(z * z for z in res.witness)
