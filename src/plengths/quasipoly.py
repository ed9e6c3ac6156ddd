"""Quasipolynomial detection and exact fitting for integer sequences.

A quasipolynomial of degree d and period pi is a polynomial of degree at
most d in n on each residue class n mod pi. A window of consecutive samples
agrees with such a function exactly when the (d+1)-fold pi-step difference
of the window vanishes (Stanley, Enumerative Combinatorics I, 4.4). Every
answer here is read off that one table of integer differences: the fitted
degree is its top nonzero level t <= d, and the leading coefficient of class
r is the level-t entry at any n = r (mod pi) divided by t! * pi^t, one exact
Fraction per class. No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, lcm
from operator import sub
from typing import NamedTuple

from . import factor
from .common import _prime_powers
from .errors import WindowTooShortError
from .semigroup import NumericalSemigroup


class SampleWindow:
    """Values f(start), f(start+1), ... on a contiguous integer range."""

    __slots__ = ("start", "values")

    def __init__(self, start: int, values: tuple[int, ...]) -> None:
        if start < 0:
            raise ValueError("window start must be >= 0")
        if not values:
            raise ValueError("window must be nonempty")
        self.start = start
        self.values = values

    def __len__(self) -> int:
        return len(self.values)


def _level_samples(values, t: int, period: int) -> tuple[int, ...]:
    """Entries n = 0, the middle and the last of level t of the period-step
    difference table of values, each the exact binomial sum
    sum over i of (-1)^(t-i) * C(t, i) * values[n + i * period]; () when
    level t is empty. A nonzero sample proves the level is not all zero
    without building it."""
    last = len(values) - t * period - 1
    if last < 0:
        return ()
    coef = [(-1) ** (t - i) * comb(t, i) for i in range(t + 1)]
    return tuple(
        sum(c * values[n + i * period] for i, c in enumerate(coef))
        for n in (0, last // 2, last)
    )


class QuasiPolynomial:
    """Degree, period, and the leading coefficient of each residue class."""

    __slots__ = ("degree", "period", "leading_coefficients")

    def __init__(self, degree: int, period: int, leading_coefficients: tuple) -> None:
        if degree < 0 or period < 1:
            raise ValueError("degree >= 0 and period >= 1 required")
        if len(leading_coefficients) != period:
            raise ValueError("one leading coefficient per residue class required")
        if degree > 0 and not any(leading_coefficients):
            raise ValueError("leading coefficient vanishes in every class")
        self.degree = degree
        self.period = period
        self.leading_coefficients = leading_coefficients


def _read_off(start: int, level, degree: int, period: int) -> QuasiPolynomial:
    """The quasipolynomial whose top nonzero difference level is `level`.

    On that level each class n = r (mod period) holds degree! * period^degree
    times its leading coefficient; class r sits at index (r - start) mod period.
    """
    k = -start % period
    head = level[k:period] + level[:k]
    den = math.factorial(degree) * period**degree
    # the classes share few distinct values: one Fraction per value, not per class
    exact = {v: Fraction(v, den) for v in set(head)}
    return QuasiPolynomial(degree, period, tuple(map(exact.__getitem__, head)))


def _fraction_strings(values) -> list[str]:
    """[str(c) for c in values], printing each distinct object once: classes
    share the Fractions _read_off builds, and hashing one costs more than str."""
    ids = list(map(id, values))
    text = {i: str(c) for i, c in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def qp_fit(w: SampleWindow, degree: int, period: int) -> QuasiPolynomial | None:
    """Fit the window exactly as a quasipolynomial of the given shape.

    Succeeds exactly when the (degree+1)-fold period-step difference of the
    window vanishes; None otherwise. Three sampled entries of that level are
    tried first, and a nonzero one answers None. Otherwise the window is
    differenced level by level up to the first level t >= 1 that is all
    zero; every level above it is zero too, so the fitted degree is t - 1,
    the top level not all zero (0 for an all-zero window), and an inflated
    requested degree is trimmed to the exact one.
    """
    if degree < 0 or period < 1:
        raise ValueError("degree >= 0 and period >= 1 required")
    if len(w) < (degree + 2) * period:
        raise WindowTooShortError(
            f"need at least {(degree + 2) * period} samples, got {len(w)}"
        )
    if any(_level_samples(w.values, degree + 1, period)):
        return None
    level = w.values
    for t in range(1, degree + 2):
        nxt = list(map(sub, level[period:], level))
        if not any(nxt):
            return _read_off(w.start, level, t - 1, period)
        level = nxt
    return None


def qp_detect(w: SampleWindow, degree_max: int, period_max: int) -> QuasiPolynomial | None:
    """Smallest-period fit on the grid, ties broken by smallest degree.

    The first qp_fit(w, degree_max, period) that succeeds for period =
    1, ..., period_max, its degree trimmed to the smallest that fits; None
    after exhausting every (degree, period) with degree <= degree_max and
    period <= period_max.
    """
    if degree_max < 0 or period_max < 1:
        raise ValueError("degree_max >= 0 and period_max >= 1 required")
    if len(w) < (degree_max + 2) * period_max:
        raise WindowTooShortError(
            f"need at least {(degree_max + 2) * period_max} samples, got {len(w)}"
        )
    for period in range(1, period_max + 1):
        qp = qp_fit(w, degree_max, period)
        if qp is not None:
            return qp
    return None


def _period_minimal(w: SampleWindow, degree: int, period: int) -> bool:
    """No proper divisor of period fits the window at this degree.

    A fit at a proper divisor d is also a fit at every multiple of d, and d
    divides period / q for some prime q dividing period, so testing those
    largest proper divisors decides it.
    """
    return all(qp_fit(w, degree, period // q) is None for q, _ in _prime_powers(period))


# ---------------------------------------------------------------------------
# Expected quasipolynomial shape of each extremal length functional, and the
# verification that sampled data fits it exactly.
# ---------------------------------------------------------------------------


class QpRow(NamedTuple):
    """Predicted shape of one extremal length functional of S."""

    name: str
    p: object  # int or math.inf
    mode: str
    degree: int
    period: int
    leading: Fraction | None  # None: no prediction for the leading value
    note: str = ""


def expected_rows(S: NumericalSemigroup) -> tuple[QpRow, ...]:
    """Degree, period, and leading coefficient for each functional of S.

    Minima: the square length has period N = sum of squared generators and
    leading 1/N; the ordinary length has period g_k and leading 1/g_k; the
    max-coordinate length has period g = sum of generators and leading 1/g;
    the support count is periodic with period lcm of the generators.
    Maxima: the support count is eventually the constant k; for finite
    p >= 1 the p-length has degree p, period g_1 and leading 1/g_1^p, and
    the max-coordinate length is linear with period and leading 1/g_1.
    """
    gens = S.generators
    k = len(gens)
    g1, gk = gens[0], gens[-1]
    g = sum(gens)
    nsq = sum(x * x for x in gens)
    power_note = "leading coefficient is 1/g1^p for p >= 2 (1/g1 applies only at p = 1)"
    return (
        QpRow("l0_min", 0, "min", 0, lcm(*gens), None),
        QpRow("l1_min", 1, "min", 1, gk, Fraction(1, gk)),
        QpRow("l2_min", 2, "min", 2, nsq, Fraction(1, nsq)),
        QpRow("linf_min", math.inf, "min", 1, g, Fraction(1, g)),
        QpRow("l0_max", 0, "max", 0, 1, Fraction(k)),
        QpRow("l1_max", 1, "max", 1, g1, Fraction(1, g1)),
        QpRow("l2_max", 2, "max", 2, g1, Fraction(1, g1**2), power_note),
        QpRow("l3_max", 3, "max", 3, g1, Fraction(1, g1**3), power_note),
        QpRow("linf_max", math.inf, "max", 1, g1, Fraction(1, g1)),
    )


def qp_threshold(S: NumericalSemigroup) -> int:
    """Start bound beyond which every functional has settled into its shape."""
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    g = sum(gens)
    return max(gk * gk, g1 * g1 * g, g * g, S.frobenius() + g)


def sample_extremal(
    S: NumericalSemigroup, p, mode: str, lo: int, hi: int
) -> SampleWindow:
    """Window of extremal p-lengths on [lo, hi]; every point must lie in S."""
    if lo > hi:
        raise ValueError("empty window")
    vals = factor.extremal_values(S, hi, p, mode)[lo : hi + 1]
    if None in vals:
        bad = lo + vals.index(None)
        raise ValueError(f"window touches {bad}, which is outside the semigroup")
    return SampleWindow(lo, tuple(vals))


class RowReport(NamedTuple):
    """Verification outcome for one predicted row."""

    row: QpRow
    window_start: int
    window_length: int
    fitted: bool
    degree_ok: bool
    period_minimal: bool
    leading_ok: bool
    fitted_leading: tuple[Fraction, ...] | None
    threshold: int = 0

    @property
    def passed(self) -> bool:
        return self.fitted and self.degree_ok and self.period_minimal and self.leading_ok

    def to_json(self) -> dict:
        out = {
            "row": self.row.name,
            "p": "inf" if self.row.p == math.inf else self.row.p,
            "mode": self.row.mode,
            "degree": self.row.degree,
            "period": self.row.period,
            "expected_leading": None if self.row.leading is None else str(self.row.leading),
            "fitted_leading": None
            if self.fitted_leading is None
            else _fraction_strings(self.fitted_leading),
            "window": {"start": self.window_start, "length": self.window_length},
            "threshold": self.threshold,
            "passed": self.passed,
        }
        if self.row.note:
            out["note"] = self.row.note
        return out


def check_row(
    S: NumericalSemigroup, row: QpRow, thr: int, window: tuple[int, int] | None = None
) -> RowReport:
    """Fit one predicted row on a window past thr = qp_threshold(S) and
    check it exactly.

    With no explicit window the row samples (degree + 2) * period points
    starting one period past the threshold. The row passes when the fit
    succeeds with the exact degree, no proper divisor of the period also
    fits (the period is minimal), and the leading coefficient equals the
    predicted rational in every residue class.
    """
    if window is None:
        lo = thr + 1 + row.period
        hi = lo + (row.degree + 2) * row.period - 1
    else:
        lo, hi = window
        if lo <= thr:
            raise ValueError(f"window must start beyond {thr}")
        if hi - lo + 1 < (row.degree + 2) * row.period:
            raise WindowTooShortError(f"row {row.name} needs more samples")
    w = sample_extremal(S, row.p, row.mode, lo, hi)
    qp = qp_fit(w, row.degree, row.period)
    if qp is None:
        return RowReport(row, lo, len(w), False, False, False, False, None, thr)
    degree_ok = qp.degree == row.degree
    minimal = _period_minimal(w, row.degree, row.period)
    leads = qp.leading_coefficients
    # pad to the requested degree when trimming reduced it
    if qp.degree < row.degree:
        leads = (Fraction(0),) * len(leads)
    leading_ok = row.leading is None or all(c == row.leading for c in leads)
    return RowReport(row, lo, len(w), True, degree_ok, minimal, leading_ok, leads, thr)


def verify_qp_attributes(
    S: NumericalSemigroup, window: tuple[int, int] | None = None
) -> list[RowReport]:
    """check_row on every predicted row of S."""
    thr = qp_threshold(S)
    return [check_row(S, row, thr, window) for row in expected_rows(S)]
