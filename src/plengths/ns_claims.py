"""The claims about numerical semigroups, replayed by verify_semigroup.

Each check takes the semigroup and the run settings and returns the window
it examines and a body for verify._run; SEMIGROUP_CLAIMS at the end lists
them.
"""

from __future__ import annotations

import random
from math import isqrt, lcm
from typing import TYPE_CHECKING

from . import factor
from .common import INF
from .quasipoly import (
    check_row,
    expected_rows,
    qp_detect,
    qp_threshold,
    sample_extremal,
    verify_qp_attributes,
)
from .semigroup import NumericalSemigroup

if TYPE_CHECKING:
    from .verify import RunConfig

SWEEP = 200  # n examined past each threshold when no window is given


def _sweep(details: dict, vals: list, lo: int, hi: int, compare, vacuous=None) -> dict | None:
    """First counterexample compare(n) gives for n = lo..hi in S (vals[n] not
    None), passing over and counting as skipped the n where vacuous(n) holds.
    With none found, details["checked"] grows by the number of n compared."""
    checked = skipped = 0
    for n in range(lo, hi + 1):
        if vals[n] is None:
            continue
        if vacuous is not None and vacuous(n):
            skipped += 1
            continue
        checked += 1
        bad = compare(n)
        if bad is not None:
            return bad
    details["checked"] = details.get("checked", 0) + checked
    if vacuous is not None:
        details["skipped"] = skipped
    return None


def _sweep_range(threshold: int, cfg: RunConfig) -> tuple[int, int]:
    if cfg.window is not None:
        lo, hi = cfg.window
        return max(threshold + 1, lo), hi
    return threshold + 1, threshold + SWEEP


def _check_len_recurrence(S: NumericalSemigroup, cfg: RunConfig, mode: str):
    threshold, step = factor.step_rule(S, 1, mode)
    lo, hi = _sweep_range(threshold, cfg)

    def body(details):
        vals = factor.extremal_values(S, hi, 1, mode)

        def compare(n):
            if vals[n] != vals[n - step] + 1:
                return {"n": n, "value": vals[n], "stepped": vals[n - step]}
            if factor.closed_len_recurrence(S, n, mode) != vals[n]:
                return {"n": n, "closed_form": factor.closed_len_recurrence(S, n, mode)}
            return None

        # where the step leaves the semigroup the claim is vacuous
        return _sweep(details, vals, lo, hi, compare, lambda n: n - step < 0 or vals[n - step] is None)

    return {"lo": lo, "hi": hi, "threshold": threshold}, body


def _check_l0_periodic(S: NumericalSemigroup, cfg: RunConfig):
    gens = S.generators
    period = lcm(*gens)
    threshold = gens[-1] ** 2
    lo, hi = _sweep_range(threshold, cfg)

    def body(details):
        vals = factor.extremal_values(S, hi + period, 0, "min")
        return _sweep(
            details, vals, lo, hi,
            lambda n: None if vals[n] == vals[n + period]
            else {"n": n, "value": vals[n], "shifted": vals[n + period]},
        )

    return {"lo": lo, "hi": hi, "threshold": threshold, "period": period}, body


def _check_l0_constant(S: NumericalSemigroup, cfg: RunConfig):
    gens = S.generators
    k = len(gens)
    threshold = S.frobenius() + sum(gens)
    lo, hi = _sweep_range(threshold, cfg)

    def body(details):
        vals = factor.extremal_values(S, hi, 0, "max")
        gap = next((n for n in range(lo, hi + 1) if vals[n] is None), None)
        if gap is not None:
            return {"n": gap, "error": "gap above the threshold"}
        return _sweep(
            details, vals, lo, hi,
            lambda n: None if vals[n] == k else {"n": n, "value": vals[n], "expected": k},
        )

    return {"lo": lo, "hi": hi, "threshold": threshold}, body


def _check_linfmin_lower_bound(S: NumericalSemigroup, cfg: RunConfig, c_max: int = 20):
    g = sum(S.generators)
    hi = c_max * g + SWEEP

    def body(details):
        vals = factor.extremal_values(S, hi, INF, "min")
        # least value and member count over n = c * g + 1 .. hi, for each c,
        # in one pass down from hi; only a c whose least value fails sweeps,
        # which reports its first n
        least, members, above, suffix = None, 0, hi + 1, {}
        for c in range(c_max, 0, -1):
            part = [v for v in vals[c * g + 1 : above] if v is not None]
            if part:
                least = min(part) if least is None else min(least, *part)
            members += len(part)
            suffix[c] = least, members
            above = c * g + 1
        for c in range(1, c_max + 1):
            least, members = suffix[c]
            if least is not None and least <= c:
                return _sweep(
                    details, vals, c * g + 1, hi,
                    lambda n: None if vals[n] > c else {"c": c, "n": n, "value": vals[n]},
                )
            details["checked"] = details.get("checked", 0) + members
        return None

    return {"hi": hi, "c_max": c_max}, body


def _check_linfmin_apery_bound(S: NumericalSemigroup, cfg: RunConfig):
    g = sum(S.generators)

    def body(details):
        table = S.apery(g)
        vals = factor.extremal_values(S, max(table), INF, "min")
        for a in table:
            if not vals[a] < g:
                return {"apery_element": a, "value": vals[a], "bound": g}
        details.update(checked=len(table))
        return None

    return {"modulus": g}, body


def _check_linf_closed(S: NumericalSemigroup, cfg: RunConfig, mode: str):
    threshold, step = factor.step_rule(S, INF, mode)
    closed = factor.closed_max_inf if mode == "max" else factor.closed_min_inf
    lo, hi = _sweep_range(threshold, cfg)

    def body(details):
        vals = factor.extremal_values(S, hi, INF, mode)

        def compare(n):
            if closed(S, n) != vals[n]:
                return {"n": n, "closed_form": closed(S, n), "solver": vals[n]}
            if n - step >= 0 and vals[n - step] is not None and vals[n] != vals[n - step] + 1:
                return {"n": n, "value": vals[n], "stepped": vals[n - step]}
            return None

        return _sweep(details, vals, lo, hi, compare)

    return {"lo": lo, "hi": hi, "threshold": threshold}, body


def _check_lpmax_quasipoly(S: NumericalSemigroup, cfg: RunConfig):
    thr = qp_threshold(S)

    def body(details):
        rows = [row for row in expected_rows(S) if row.name in ("l2_max", "l3_max")]
        for row in rows:
            rep = check_row(S, row, thr)
            if not rep.degree_ok:
                return {"p": row.p, "fitted": rep.fitted}
            if not rep.leading_ok:
                return {
                    "p": row.p,
                    "leading": [str(c) for c in rep.fitted_leading],
                    "expected": str(row.leading),
                }
        details.update(checked=len(rows))
        return None

    return {"threshold": thr}, body


def find_second_difference_start(S: NumericalSemigroup, span: int = 3) -> tuple[int, int]:
    """Least n, reported with its scan bound, from which the span-checkable
    second difference of the minimal square length with step N equals 2N."""
    N = sum(g * g for g in S.generators)
    scan_to = qp_threshold(S) + (span + 3) * N
    while True:
        vals = factor.extremal_values(S, scan_to, 2, "min")
        last_bad = -1
        for n in range(scan_to - 2 * N + 1):
            if vals[n] is None:
                continue
            if vals[n + 2 * N] - 2 * vals[n + N] + vals[n] != 2 * N:
                last_bad = n
        n_star = last_bad + 1
        if n_star + span * N <= scan_to - 2 * N:
            return n_star, scan_to
        scan_to += (span + 2) * N


def _check_second_difference(S: NumericalSemigroup, cfg: RunConfig):
    N = sum(g * g for g in S.generators)

    def body(details):
        n_star, scan_to = find_second_difference_start(S)
        details.update(n_star=n_star, N=N, scan_to=scan_to)
        vals = factor.extremal_values(S, n_star + 5 * N, 2, "min")
        return _sweep(
            details, vals, n_star, n_star + 3 * N,
            lambda n: None if vals[n + 2 * N] - 2 * vals[n + N] + vals[n] == 2 * N else {"n": n},
        )

    return {"N": N}, body


def _check_shift_invariance(S: NumericalSemigroup, cfg: RunConfig, samples: int):
    def body(details):
        rng = random.Random(cfg.seed)
        for _ in range(samples):
            n = rng.randrange(0, 2000)
            if not factor.min2_shift_check(S, n):
                return {"n": n}
        details.update(checked=samples)
        return None

    return {"samples": samples, "seed": cfg.seed}, body


def cube_min_candidates(n: int) -> list[int]:
    """Feasible first coordinates bracketing the real cube-sum minimizer.

    For generators (2, 3) the real minimizer of z1^3 + z2^3 on the solution
    line of 2 z1 + 3 z2 = n sits at z1 = n (3 sqrt(6) - 4) / 19; feasible
    first coordinates are congruent to 2n mod 3. Exact integer square roots
    keep the bracketing candidates exact.
    """
    s = isqrt(54 * n * n)  # floor of n * sqrt(54), never a perfect square
    c = (s - 4 * n) // 19
    r = (2 * n) % 3
    c -= (c - r) % 3
    while c > n // 2:
        c -= 3
    while c < 0:
        c += 3
    out = [c]
    if 2 * (c + 3) <= n:
        out.append(c + 3)
    return out


def _cube_length(n: int, c: int) -> int:
    return c**3 + ((n - 2 * c) // 3) ** 3


def _check_cube_floor_formula(S: NumericalSemigroup, cfg: RunConfig):
    lo, hi = 100, 1600

    def body(details):
        def compare(n):
            res = factor.extremal_plength(S, n, 3, "min")
            best = max(cube_min_candidates(n), key=lambda c: (-_cube_length(n, c), c))
            if res.witness[0] != best:
                return {"n": n, "witness": list(res.witness), "candidate": best}
            return None

        return _sweep(details, factor.extremal_values(S, hi, 3, "min"), lo, hi, compare)

    return {"lo": lo, "hi": hi}, body


def _check_cube_not_qp(S: NumericalSemigroup, cfg: RunConfig, d_max: int, pi_max: int):
    lo, hi = 100, 1600

    def body(details):
        w = sample_extremal(S, 3, "min", lo, hi)
        qp = qp_detect(w, d_max, pi_max)
        if qp is not None:
            return {"degree": qp.degree, "period": qp.period}
        details.update(searched={"d_max": d_max, "pi_max": pi_max})
        return None

    return {"lo": lo, "hi": hi, "d_max": d_max, "pi_max": pi_max}, body


def _check_qp_table(S: NumericalSemigroup, cfg: RunConfig):
    def body(details):
        reports = verify_qp_attributes(S)
        details["rows"] = [r.to_json() for r in reports]
        for r in reports:
            if not r.passed:
                return {"row": r.row.name}
        return None

    return {"threshold": qp_threshold(S)}, body


# ---------------------------------------------------------------------------
# Claim table: (claim id, the subject it is limited to or None for every
# subject, check, extra check arguments: the mode, base or bounds the claim
# is checked at), in the order the checks run. A semigroup is named by its
# generators.
# ---------------------------------------------------------------------------

SEMIGROUP_CLAIMS = (
    ("l1min-recurrence", None, _check_len_recurrence, "min"),
    ("l1max-recurrence", None, _check_len_recurrence, "max"),
    ("l0min-periodic", None, _check_l0_periodic),
    ("l0max-constant", None, _check_l0_constant),
    ("linfmin-lower-bound", None, _check_linfmin_lower_bound),
    ("linfmin-apery-bound", None, _check_linfmin_apery_bound),
    ("linfmax-closed-form", None, _check_linf_closed, "max"),
    ("linfmin-closed-form", None, _check_linf_closed, "min"),
    ("lpmax-quasipoly", None, _check_lpmax_quasipoly),
    ("l2min-second-difference", None, _check_second_difference),
    ("l2min-shift-invariance", None, _check_shift_invariance, 50),
    ("qp-table", None, _check_qp_table),
    ("l3min-floor-formula", (2, 3), _check_cube_floor_formula),
    ("l3min-not-quasipolynomial", (2, 3), _check_cube_not_qp, 4, 60),
)
