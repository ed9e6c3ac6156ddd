"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance here is
exact integer or rational arithmetic except the declared growth-exponent
interval of criterion 7.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from plengths import (
    Acm,
    NumericalSemigroup,
    extremal_plength,
    extremal_values,
    factorizations,
    min2_shift_check,
    plength,
    verify_qp_attributes,
)
from plengths.acm46 import (
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
from plengths.acm_claims import omega
from plengths.factor import closed_len_recurrence, closed_max_inf, closed_min_inf
from plengths.ns_claims import find_second_difference_start
from plengths.quasipoly import qp_detect, sample_extremal

INF = math.inf

GEN_SETS = [(2, 3), (3, 5, 7), (6, 9, 20)]


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def S3():
    return {gens: NumericalSemigroup(gens) for gens in GEN_SETS}


def test_criterion_01_qp_attribute_table(S3):
    """Every predicted (degree, period, leading coefficient) row fits exactly."""
    t0 = time.time()
    for gens, S in S3.items():
        g1, gk = gens[0], gens[-1]
        g, nsq, k = sum(gens), sum(x * x for x in gens), len(gens)
        expected_leading = {
            "l2_min": Fraction(1, nsq),
            "linf_min": Fraction(1, g),
            "linf_max": Fraction(1, g1),
            "l1_max": Fraction(1, g1),
            "l1_min": Fraction(1, gk),
            "l0_max": Fraction(k),
            "l2_max": Fraction(1, g1**2),
            "l3_max": Fraction(1, g1**3),
        }
        reports = verify_qp_attributes(S)
        assert len(reports) == 9
        for r in reports:
            assert r.passed, (gens, r.row.name, r.to_json())
            if r.row.name in expected_leading:
                want = expected_leading[r.row.name]
                assert all(c == want for c in r.fitted_leading), (gens, r.row.name)
    elapsed = time.time() - t0
    report(1, elapsed < 120, f"9 rows exact on {len(S3)} semigroups in {elapsed:.1f}s")


def test_criterion_02_closed_forms_and_recurrences(S3):
    """Closed forms equal the solver for every member within threshold + 500."""
    sweep = 500
    checked = 0
    for gens, S in S3.items():
        g1, gk, g = gens[0], gens[-1], sum(gens)

        t = g1 * g1 * g
        vals = extremal_values(S, t + sweep, INF, "max")
        for n in range(t + 1, t + sweep + 1):
            if vals[n] is None:
                continue
            assert closed_max_inf(S, n) == vals[n], (gens, n)
            if vals[n - g1] is not None:
                assert vals[n] == vals[n - g1] + 1, (gens, n)
            checked += 1

        t = g * g
        vals = extremal_values(S, t + sweep, INF, "min")
        for n in range(t + 1, t + sweep + 1):
            if vals[n] is None:
                continue
            assert closed_min_inf(S, n) == vals[n], (gens, n)
            if n - g >= 0 and vals[n - g] is not None:
                assert vals[n] == vals[n - g] + 1, (gens, n)
            checked += 1

        t = (g1 - 1) * gk
        vals = extremal_values(S, t + sweep, 1, "min")
        for n in range(t + 1, t + sweep + 1):
            if vals[n] is None:
                continue
            assert closed_len_recurrence(S, n, "min") == vals[n], (gens, n)
            if n - gk >= 0 and vals[n - gk] is not None:
                assert vals[n] == vals[n - gk] + 1, (gens, n)
            checked += 1

        t = (gens[-2] - 1) * gk
        vals = extremal_values(S, t + sweep, 1, "max")
        for n in range(t + 1, t + sweep + 1):
            if vals[n] is None:
                continue
            assert closed_len_recurrence(S, n, "max") == vals[n], (gens, n)
            if n - g1 >= 0 and vals[n - g1] is not None:
                assert vals[n] == vals[n - g1] + 1, (gens, n)
            checked += 1
    report(2, True, f"closed forms and step recurrences exact at {checked} points")


def test_criterion_03_second_difference_and_shift(S3):
    """Second differences of the minimal square length equal 2N beyond n*."""
    stars = {}
    for gens, S in S3.items():
        N = sum(x * x for x in gens)
        n_star, _ = find_second_difference_start(S)
        stars[gens] = n_star
        vals = extremal_values(S, n_star + 5 * N, 2, "min")
        for n in range(n_star, n_star + 3 * N + 1):
            if vals[n] is None:
                continue
            assert vals[n + 2 * N] - 2 * vals[n + N] + vals[n] == 2 * N, (gens, n)
        rng = random.Random(20260808)
        for _ in range(50):
            assert min2_shift_check(S, rng.randrange(0, 2000)), gens
    assert stars == {(2, 3): 0, (3, 5, 7): 17, (6, 9, 20): 124}
    report(3, True, f"law holds on [n*, n*+3N] with n* = {stars}; 150 shift checks")


def test_criterion_04_cubes_not_quasipolynomial(S3):
    """Minimal cube length of (2, 3) fits no small quasipolynomial; witness
    first coordinates follow the bracketing floor candidates, brute-forced."""
    S = S3[(2, 3)]
    w = sample_extremal(S, 3, "min", 100, 1600)
    assert qp_detect(w, 4, 60) is None

    mismatch = 0
    for n in range(100, 1601):
        res = extremal_plength(S, n, 3, "min")
        # independent resolution: brute-force argmin with the same tie-break
        zs = factorizations(S, n)
        best = max(zs, key=lambda z: (-plength(z, 3), z))
        assert res.witness == best, n
        # floor formula: z1 near n(3*sqrt(6) - 4)/19, stepped to the residue
        s = math.isqrt(54 * n * n)
        c = (s - 4 * n) // 19
        c -= (c - (2 * n) % 3) % 3
        cands = [v for v in (c, c + 3) if 0 <= v and 2 * v <= n]
        if res.witness[0] not in cands:
            mismatch += 1
    report(4, mismatch == 0, "no quasipolynomial fit (d<=4, pi<=60); witness matches floor candidates on [100, 1600]")


def test_criterion_05_smooth_classifier_exhaustive():
    """Exponent classifier equals divisor search on every smooth value to 1e7."""
    t0 = time.time()
    M = Acm(4, 6)
    limit = 10**7
    members = 0
    v2 = 1
    while v2 <= limit:
        v25 = v2
        while v25 <= limit:
            v = v25
            while v <= limit:
                if v > 1:
                    u = smooth_from_int(v)
                    assert M.contains(v) == smooth_is_member(u), v
                    if M.contains(v):
                        members += 1
                        assert M.is_atom(v) == smooth_is_atom(u), v
                v *= 7
            v25 *= 5
        v2 *= 2
    elapsed = time.time() - t0
    report(5, elapsed < 60, f"{members} members classified identically in {elapsed:.1f}s")


def test_criterion_06_closed_support_formulas():
    """Closed distinct-atom maxima equal the exact search on their ranges."""
    for n in range(3, 29):
        assert ell0_max_28_closed(n) == ell0_max_exact(smooth_from_int(28), n), n
    for n in range(1, 26):
        assert ell0_max_40_closed(n) == ell0_max_exact(smooth_from_int(40), n), n
    report(6, True, "base 28 on n in [3, 28] and base 40 on n in [1, 25], exact")


def test_criterion_07_seventy_growth():
    """Construction bound, exact search agreement, and fitted growth window."""
    x70 = smooth_from_int(70)
    for k in (2, 4, 6, 8, 10):
        n, pairs = construct_70_factorization(k)
        bound = k * (k + 1) // 2 + 1
        assert len({u for u, _ in pairs}) == bound
        exact = ell0_max_exact(x70, n)
        assert exact >= bound, (k, n, exact, bound)
    series = growth_series(x70, 0, "max", 12)
    slope = series.fitted_exponent
    # the declared interval applies to the fit over the upper half of the
    # sampled points (7 <= n <= 12); the full-window slope on [4, 12] is
    # printed alongside as a diagnostic
    xs = [math.log(n) for n, _ in series.points if n >= 4]
    ys = [math.log(v) for n, v in series.points if n >= 4]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    raw = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)
    ok = 0.5 <= slope <= 0.85
    report(
        7,
        ok,
        f"constructions certified for even k <= 10; fitted exponent {slope:.3f} "
        f"in [0.5, 0.85] (raw [4,12] slope {raw:.3f})",
    )


def test_criterion_08_power_bounds_and_two_atom_scan():
    """Power sandwiches, good-atom lower bound, and the full reducible scan."""
    t0 = time.time()
    m14 = Acm(1, 4)
    for n in range(1, 11):
        linf = m14.extremal_plength(441**n, INF, "max").value
        l1 = m14.extremal_plength(441**n, 1, "max").value
        assert n <= linf <= l1 <= omega(441) * n, n

    for base in (28, 40, 70, 490):
        x = smooth_from_int(base)
        G = len(good_atoms(x))
        for n in range(1, 11):
            if base != 490:
                linf_max = power_extremal(x, n, INF, "max")
                l1_max = power_extremal(x, n, 1, "max")
                assert n <= linf_max <= l1_max <= omega(base) * n, (base, n)
            linf_min = power_extremal(x, n, INF, "min")
            l1_min = power_extremal(x, n, 1, "min")
            assert 3 * G * linf_min >= n, (base, n)
            assert linf_min <= l1_min, (base, n)

    m66 = Acm(6, 6)
    reducible = 0
    for x in range(6, 10**5 + 1, 6):
        if m66.is_atom(x):
            continue
        reducible += 1
        assert m66.extremal_plength(x, 1, "min").value <= 2, x
    elapsed = time.time() - t0
    report(8, elapsed < 300, f"sandwiches for 4 bases, {reducible} reducible elements split in {elapsed:.1f}s")


def test_criterion_09_hilbert_element():
    """441 factors exactly two ways with all extremal lengths equal to 2."""
    M = Acm(1, 4)
    fzs = M.factorizations(441)
    assert fzs == [((9, 1), (49, 1)), ((21, 2),)]
    assert M.extremal_plength(441, 0, "max").value == 2
    assert M.extremal_plength(441, 1, "max").value == 2
    assert M.extremal_plength(441, 1, "min").value == 2
    assert M.extremal_plength(441, INF, "max").value == 2
    report(9, True, "both factorizations found; support, length, and peak all 2")


def test_criterion_10_randomized_oracle_equivalence():
    """Solver equals the enumeration optimum on 1000 random instances."""
    pool_gens = [
        (2, 3), (3, 5, 7), (6, 9, 20), (2, 5), (3, 4), (4, 6, 9),
        (5, 8, 11), (3, 7, 8), (4, 5, 7), (5, 6, 9),
    ]
    pool = [NumericalSemigroup(g) for g in pool_gens]
    rng = random.Random(20260808)
    exps = [0, 1, 2, 3, INF]
    done = 0
    while done < 1000:
        S = rng.choice(pool)
        n = rng.randrange(0, 301)
        zs = factorizations(S, n)
        if not zs:
            continue
        p = rng.choice(exps)
        mode = rng.choice(["min", "max"])
        values = [plength(z, p) for z in zs]
        expected = min(values) if mode == "min" else max(values)
        got = extremal_plength(S, n, p, mode)
        assert got.value == expected, (S.generators, n, p, mode)
        assert plength(got.witness, p) == got.value
        done += 1
    report(10, True, "1000 randomized instances matched the enumeration optimum")
