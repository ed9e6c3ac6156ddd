import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qp_oracle import lagrange_fit, reproduces

from plengths import (
    NumericalSemigroup,
    QuasiPolynomial,
    SampleWindow,
    WindowTooShortError,
    qp_detect,
    qp_fit,
    verify_qp_attributes,
)
from plengths.quasipoly import (
    _period_minimal,
    differences_vanish,
    expected_rows,
    qp_threshold,
    sample_extremal,
)

INF = math.inf


def step(values, period):
    return [b - a for a, b in zip(values, values[period:])]


def oracle_leading(w, degree, period):
    """Exact degree and per-class leading coefficients by interpolation."""
    rows = lagrange_fit(w, degree, period)
    assert reproduces(w, rows)
    return len(rows[0]) - 1, tuple(row[-1] for row in rows)


class TestRecords:
    @pytest.mark.parametrize("start,values", [(-1, (1,)), (0, ())])
    def test_sample_window_rejects(self, start, values):
        with pytest.raises(ValueError):
            SampleWindow(start, values)

    @pytest.mark.parametrize(
        "degree,period,leading,message",
        [
            (-1, 1, (Fraction(1),), "degree >= 0"),
            (1, 0, (), "period >= 1"),
            (1, 2, (Fraction(1),), "one leading coefficient per residue class"),
            (1, 2, (Fraction(0), Fraction(0)), "vanishes in every class"),
        ],
    )
    def test_quasipolynomial_rejects(self, degree, period, leading, message):
        with pytest.raises(ValueError, match=message):
            QuasiPolynomial(degree, period, leading)

    def test_valid_records_keep_their_fields(self):
        w = SampleWindow(3, (1, 2))
        assert (w.start, w.values, len(w), w.end) == (3, (1, 2), 2, 4)
        qp = QuasiPolynomial(0, 2, (Fraction(0), Fraction(1, 2)))
        assert (qp.degree, qp.period, qp.leading_coefficients) == (0, 2, (0, Fraction(1, 2)))


class TestQpFit:
    def test_plain_square(self):
        w = SampleWindow(0, tuple(n * n for n in range(10)))
        rep = qp_fit(w, 2, 1)
        assert rep.fitted
        qp = rep.quasipoly
        assert qp.degree == 2 and qp.period == 1
        assert qp.leading_coefficients == (1,)

    def test_min_square_length(self, semigroups):
        w = sample_extremal(semigroups[(2, 3)], 2, "min", 200, 260)
        rep = qp_fit(w, 2, 13)
        assert rep.fitted
        assert rep.quasipoly.leading_coefficients == (Fraction(1, 13),) * 13

    def test_min_ordinary_length(self, semigroups):
        w = sample_extremal(semigroups[(2, 3)], 1, "min", 10, 40)
        rep = qp_fit(w, 1, 3)
        assert rep.fitted
        assert rep.quasipoly.leading_coefficients == (Fraction(1, 3),) * 3

    def test_rejects_short_window(self):
        with pytest.raises(WindowTooShortError):
            qp_fit(SampleWindow(0, (1, 2, 3, 4)), 2, 2)

    def test_differences_too_short(self):
        with pytest.raises(WindowTooShortError):
            differences_vanish(SampleWindow(0, (1, 2, 3)), 0, 5)
        with pytest.raises(WindowTooShortError):
            differences_vanish(SampleWindow(0, (1, 2, 3, 4, 5)), 1, 3)

    def test_negative_when_not_polynomial(self):
        w = SampleWindow(0, tuple(2**n for n in range(12)))
        rep = qp_fit(w, 2, 1)
        assert not rep.fitted

    def test_trims_inflated_degree(self):
        w = SampleWindow(0, tuple(3 * n + 1 for n in range(12)))
        rep = qp_fit(w, 2, 1)
        assert rep.fitted and rep.quasipoly.degree == 1

    def test_reproduces_every_sample(self, semigroups):
        w = sample_extremal(semigroups[(3, 5, 7)], INF, "min", 230, 320)
        rep = qp_fit(w, 1, 15)
        assert rep.fitted
        qp = rep.quasipoly
        assert (qp.degree, qp.leading_coefficients) == oracle_leading(w, 1, 15)


class TestQpDetect:
    def test_constant_sequence(self):
        rep = qp_detect(SampleWindow(5, (7,) * 30), 2, 5)
        assert rep.fitted
        assert rep.quasipoly.degree == 0 and rep.quasipoly.period == 1

    def test_min_max_coordinate(self, semigroups):
        w = sample_extremal(semigroups[(2, 3)], INF, "min", 30, 100)
        rep = qp_detect(w, 2, 10)
        assert rep.fitted
        assert rep.quasipoly.degree == 1 and rep.quasipoly.period == 5

    def test_min_cubes_not_quasipolynomial_small_grid(self, semigroups):
        w = sample_extremal(semigroups[(2, 3)], 3, "min", 100, 460)
        rep = qp_detect(w, 2, 20)
        assert not rep.fitted
        assert rep.searched_degree == 2 and rep.searched_period == 20

    def test_detect_needs_room_for_whole_grid(self):
        with pytest.raises(WindowTooShortError):
            qp_detect(SampleWindow(0, (1,) * 20), 2, 10)

    def test_minimal_period_divides_other_fits(self):
        coeffs = [(1, 2), (5, 2), (0, 2), (3, 2)]  # degree 1, period 4
        vals = tuple(coeffs[n % 4][0] + coeffs[n % 4][1] * n for n in range(60))
        w = SampleWindow(0, vals)
        rep = qp_detect(w, 2, 12)
        assert rep.fitted and rep.quasipoly.period == 4
        for period in range(1, 13):
            fits = differences_vanish(w, 2, period)
            assert fits == (period % 4 == 0)

    def test_json_round(self, semigroups):
        w = sample_extremal(semigroups[(2, 3)], 2, "min", 200, 260)
        out = qp_fit(w, 2, 13).to_json()
        assert out["outcome"] == "fitted"
        assert out["degree"] == 2 and out["period"] == 13
        assert out["leading_coefficients"] == ["1/13"] * 13

    def test_difference_identity(self, semigroups):
        """d-fold period-step differencing of a fit with constant leading
        coefficient c leaves the constant c * d! * period^d."""
        w = sample_extremal(semigroups[(2, 3)], 2, "min", 200, 280)
        rep = qp_fit(w, 2, 13)
        (c,) = set(rep.quasipoly.leading_coefficients)
        expect = c * 2 * 13**2
        d = step(step(w.values, 13), 13)
        assert all(v == expect for v in d)


class TestAttributeTable:
    def test_all_rows_smallest_semigroup(self, semigroups):
        reports = verify_qp_attributes(semigroups[(2, 3)])
        assert all(r.passed for r in reports)
        by_name = {r.row.name: r for r in reports}
        assert by_name["l2_min"].row.period == 13
        assert by_name["l2_min"].fitted_leading == (Fraction(1, 13),) * 13
        assert by_name["l0_max"].fitted_leading == (Fraction(2),)

    def test_explicit_window(self, semigroups):
        S = semigroups[(2, 3)]
        reports = verify_qp_attributes(S, (200, 600))
        assert all(r.passed for r in reports)

    def test_window_must_clear_threshold(self, semigroups):
        with pytest.raises(ValueError):
            verify_qp_attributes(semigroups[(2, 3)], (10, 600))


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (6, 9, 20), (5, 7, 9, 11), (4, 6, 9)])
def test_fit_matches_interpolation_on_every_row(gens):
    """Degree and leading coefficients read off the difference table equal
    exact interpolation on each predicted row's default window, and the
    interpolated quasipolynomial reproduces every sample."""
    S = NumericalSemigroup(gens)
    thr = qp_threshold(S)
    for row in expected_rows(S):
        lo = thr + 1 + row.period
        w = sample_extremal(S, row.p, row.mode, lo, lo + (row.degree + 2) * row.period - 1)
        qp = qp_fit(w, row.degree, row.period).quasipoly
        got = (qp.degree, qp.leading_coefficients)
        assert got == oracle_leading(w, row.degree, row.period), row.name


def _window(data, period, degree, length):
    """Samples of sum_t c_t(n mod period) * C(n, t) on a window, with one
    sample perturbed half of the time so that some windows fit nothing."""
    rows = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(degree + 1)]
        for _ in range(period)
    ]
    start = data.draw(st.integers(min_value=0, max_value=20))
    vals = [
        sum(c * math.comb(n, t) for t, c in enumerate(rows[n % period]))
        for n in range(start, start + length)
    ]
    if data.draw(st.booleans()):
        vals[data.draw(st.integers(min_value=0, max_value=length - 1))] += 1
    return SampleWindow(start, tuple(vals))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2), st.data())
def test_detect_equals_grid_scan(period, degree, data):
    """Incremental detection equals a from-scratch scan of the grid with
    differences_vanish, smallest period first, then smallest degree."""
    w = _window(data, period, degree, data.draw(st.integers(min_value=24, max_value=40)))
    rep = qp_detect(w, 2, 6)
    scan = next(
        ((d, p) for p in range(1, 7) for d in range(3) if differences_vanish(w, d, p)), None
    )
    if scan is None:
        assert not rep.fitted
    else:
        qp = rep.quasipoly
        assert (qp.degree, qp.period) == scan
        assert (qp.degree, qp.leading_coefficients) == oracle_leading(w, *scan)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([12, 36]), st.integers(min_value=0, max_value=2), st.data())
def test_period_minimal_at_maximal_divisors(period, degree, data):
    """Testing period / q for each prime q | period decides minimality
    exactly as testing every proper divisor does."""
    true_period = data.draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    extra = data.draw(st.integers(min_value=0, max_value=period))
    w = _window(data, true_period, degree, (degree + 2) * period + extra)
    every = not any(differences_vanish(w, degree, d) for d in range(1, period) if period % d == 0)
    assert _period_minimal(w, degree, period) == every
