"""Replay of every verified claim as machine-checkable pass/fail results.

Each check returns a CheckResult with the exact window and thresholds it
used and, on failure, a concrete counterexample input. The claim tables at
the end of the module say which claims apply to which subject; reports list
checks sorted by claim id.
"""

from __future__ import annotations

import math
import random
import time
from math import isqrt, lcm
from typing import NamedTuple

from . import acm46, factor
from .acm import Acm, _prime_powers
from .errors import PlengthsError
from .quasipoly import (
    qp_detect,
    qp_fit,
    qp_threshold,
    sample_extremal,
    verify_qp_attributes,
)
from .semigroup import NumericalSemigroup

INF = math.inf

FORMATS = ("json", "csv")


class RunConfig(NamedTuple):
    """The run settings the command line sets: the factorization enumeration
    cap, an explicit lo..hi window for windowed sweeps, the sampling seed
    (it picks which n are sampled, never a computed value), and the output
    format of `acm growth`. Each claim's own bounds live in its registry row
    or beside its check."""

    budget: int = 10_000_000
    window: tuple[int, int] | None = None
    seed: int = 1729
    fmt: str = "json"


class CheckResult(NamedTuple):
    claim: str
    passed: bool
    window: dict
    details: dict
    counterexample: dict | None
    elapsed: float

    def to_json(self, timing: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "passed": self.passed,
            "window": self.window,
            "details": self.details,
            "counterexample": self.counterexample,
        }
        if timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out


class VerificationReport(NamedTuple):
    subject: dict
    checks: list[CheckResult]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, timing: bool = False) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_json(timing) for c in sorted(self.checks, key=lambda c: c.claim)],
        }


def _run(claim: str, window: dict, fn) -> CheckResult:
    """Run one claim's body. A body that reports checking nothing fails:
    an empty window proves nothing."""
    t0 = time.perf_counter()
    details: dict = {}
    try:
        counterexample = fn(details)
        if counterexample is None and details.get("checked") == 0:
            counterexample = {"error": "nothing was examined"}
        passed = counterexample is None
    except PlengthsError as exc:
        counterexample = {"error": str(exc)}
        passed = False
    return CheckResult(claim, passed, window, details, counterexample, time.perf_counter() - t0)


SWEEP = 200  # n examined past each threshold when no window is given


def _sweep_range(threshold: int, cfg: RunConfig) -> tuple[int, int]:
    if cfg.window is not None:
        lo, hi = cfg.window
        return max(threshold + 1, lo), hi
    return threshold + 1, threshold + SWEEP


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


# ---------------------------------------------------------------------------
# Numerical semigroup checks. Each returns the window it examines and a body
# for _run.
# ---------------------------------------------------------------------------


def _check_len_recurrence(S: NumericalSemigroup, cfg: RunConfig, mode: str):
    gens = S.generators
    g1, gk = gens[0], gens[-1]
    if mode == "min":
        threshold, step = (g1 - 1) * gk, gk
    else:
        threshold, step = (gens[-2] - 1) * gk, g1
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
        for c in range(1, c_max + 1):
            bad = _sweep(
                details, vals, c * g + 1, hi,
                lambda n: None if vals[n] > c else {"c": c, "n": n, "value": vals[n]},
            )
            if bad is not None:
                return bad
        return None

    return {"hi": hi, "c_max": c_max}, body


def _check_linfmin_apery_bound(S: NumericalSemigroup, cfg: RunConfig):
    g = sum(S.generators)

    def body(details):
        table = S.apery(g)
        vals = factor.extremal_values(S, table.max(), INF, "min")
        for a in table.entries:
            if not vals[a] < g:
                return {"apery_element": a, "value": vals[a], "bound": g}
        details.update(checked=len(table.entries))
        return None

    return {"modulus": g}, body


def _check_linf_closed(S: NumericalSemigroup, cfg: RunConfig, mode: str):
    gens = S.generators
    g1, g = gens[0], sum(gens)
    if mode == "max":
        threshold, step, closed = g1 * g1 * g, g1, factor.closed_max_inf
    else:
        threshold, step, closed = g * g, g, factor.closed_min_inf
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
    g1 = S.generators[0]
    thr = qp_threshold(S)

    def body(details):
        from fractions import Fraction
        for p in (2, 3):
            lo = thr + 1 + g1
            hi = lo + (p + 2) * g1 - 1
            w = sample_extremal(S, p, "max", lo, hi)
            rep = qp_fit(w, p, g1)
            expected = Fraction(1, g1**p)
            if not rep.fitted or rep.quasipoly.degree != p:
                return {"p": p, "fitted": rep.fitted}
            if any(c != expected for c in rep.quasipoly.leading_coefficients):
                return {
                    "p": p,
                    "leading": [str(c) for c in rep.quasipoly.leading_coefficients],
                    "expected": str(expected),
                }
        details.update(checked=2)
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
        rep = qp_detect(w, d_max, pi_max)
        if rep.fitted:
            return {
                "degree": rep.quasipoly.degree,
                "period": rep.quasipoly.period,
            }
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
# Congruence monoid checks.
# ---------------------------------------------------------------------------


def omega(x: int) -> int:
    """Number of prime factors of x counted with multiplicity."""
    return sum(e for _, e in _prime_powers(x))


def _sandwich_cases(M: Acm) -> list[int]:
    if (M.a, M.b) == (4, 6):
        return [28, 40, 70]
    if (M.a, M.b) == (1, 4):
        return [441, 225]
    start = M.a if M.a > 1 else M.a + M.b
    atoms = set(M.atoms_up_to(M.b * 40))
    out = [x for x in range(start, M.b * 40 + 1, M.b) if x not in atoms][:2]
    return out or [M.b + M.a]


def _check_power_sandwich(M: Acm, cfg: RunConfig, n_max: int):
    cases = _sandwich_cases(M)

    def body(details):
        checked = 0
        for x in cases:
            kp = omega(x)
            for n in range(1, n_max + 1):
                if (M.a, M.b) == (4, 6):
                    u = acm46.smooth_from_int(x)
                    linf = acm46.power_extremal(u, n, INF, "max")
                    l1 = acm46.power_extremal(u, n, 1, "max")
                else:
                    if x**n > 10**12:
                        break
                    linf = M.extremal_plength(x**n, INF, "max").value
                    l1 = M.extremal_plength(x**n, 1, "max").value
                checked += 1
                if not (n <= linf <= l1 <= kp * n):
                    return {"x": x, "n": n, "linf_max": linf, "l1_max": l1, "k_prime": kp}
        details.update(checked=checked)
        return None

    return {"x": cases, "n_max": n_max}, body


def _check_smooth_classifier(M: Acm, cfg: RunConfig, limit: int):
    def body(details):
        checked = 0
        v2 = 1
        while v2 <= limit:
            v25 = v2
            while v25 <= limit:
                v = v25
                while v <= limit:
                    if v > 1:
                        u = acm46.smooth_from_int(v)
                        member = M.contains(v) and v > 1
                        if member != acm46.smooth_is_member(u):
                            return {"x": v, "member": member}
                        if member:
                            checked += 1
                            if M.is_atom(v) != acm46.smooth_is_atom(u):
                                return {"x": v, "divisor_search": M.is_atom(v)}
                    v *= 7
                v25 *= 5
            v2 *= 2
        details.update(checked=checked)
        return None

    return {"limit": limit}, body


def _check_closed_support(M: Acm, cfg: RunConfig, base: int, lo: int, hi: int, closed):
    x = acm46.smooth_from_int(base)

    def body(details):
        for n in range(lo, hi + 1):
            exact = acm46.ell0_max_exact(x, n)
            if closed(n) != exact:
                return {"n": n, "closed": closed(n), "exact": exact}
        details.update(checked=hi - lo + 1)
        return None

    return {"lo": lo, "hi": hi}, body


def _check_construction_70(M: Acm, cfg: RunConfig):
    def body(details):
        rows = []
        for k in (2, 4, 6, 8, 10):
            n, pairs = acm46.construct_70_factorization(k)
            rows.append({"k": k, "n": n, "distinct_atoms": len(pairs)})
        details.update(constructions=rows)
        return None

    return {"k": [2, 4, 6, 8, 10]}, body


def _check_good_atom_bound(M: Acm, cfg: RunConfig, n_max: int):
    bases = [28, 40, 70, 490]

    def body(details):
        counts = {}
        for base in bases:
            x = acm46.smooth_from_int(base)
            G = acm46.count_good_atoms(x)
            counts[base] = G
            for n in range(1, n_max + 1):
                linf = acm46.power_extremal(x, n, INF, "min")
                l1 = acm46.power_extremal(x, n, 1, "min")
                if 3 * G * linf < n or linf > l1:
                    return {"x": base, "n": n, "linf_min": linf, "l1_min": l1, "good_atoms": G}
        details.update(good_atom_counts=counts)
        return None

    return {"x": bases, "n_max": n_max}, body


def _check_evil_slots(M: Acm, cfg: RunConfig, n_max: int):
    bases = [28, 40, 70]

    def body(details):
        checked = 0
        for base in bases:
            x = acm46.smooth_from_int(base)
            for n in range(1, n_max + 1):
                for fz in M.factorizations(base**n, cfg.budget):
                    good = evil = 0
                    for atom, mult in fz:
                        u = acm46.smooth_from_int(atom)
                        if acm46.classify_atom(x, u) == "good":
                            good += mult
                        else:
                            evil += mult
                    checked += 1
                    if evil > 2 * good:
                        return {"x": base, "n": n, "factorization": list(fz)}
        details.update(checked=checked)
        return None

    return {"x": bases, "n_max": n_max}, body


def _check_two_atom_split(M: Acm, cfg: RunConfig, limit: int):
    def body(details):
        atoms = M.atoms_up_to(limit)
        pairs = set()
        for i, u in enumerate(atoms):
            if u * u > limit:
                break
            for v in atoms[i:]:
                if u * v > limit:
                    break
                pairs.add(u * v)
        checked = 0
        start = M.a if M.a > 1 else M.a + M.b
        is_atom = set(atoms)
        for x in range(start, limit + 1, M.b):
            if x in is_atom:
                continue
            checked += 1
            # a member that is neither an atom nor a product of two needs three or more
            if x not in pairs:
                return {"x": x, "l1_min": M.extremal_plength(x, 1, "min").value}
        details.update(checked=checked)
        return None

    return {"limit": limit}, body


def _check_hilbert(M: Acm, cfg: RunConfig):
    def body(details):
        fzs = M.factorizations(441)
        want = [((9, 1), (49, 1)), ((21, 2),)]
        if sorted(fzs) != sorted(want):
            return {"factorizations": [list(f) for f in fzs]}
        values = {
            "l0_max": M.extremal_plength(441, 0, "max").value,
            "l1_max": M.extremal_plength(441, 1, "max").value,
            "l1_min": M.extremal_plength(441, 1, "min").value,
            "linf_max": M.extremal_plength(441, INF, "max").value,
        }
        details.update(values)
        if values != {"l0_max": 2, "l1_max": 2, "l1_min": 2, "linf_max": 2}:
            return values
        return None

    return {"x": 441}, body


def _check_stable_power_atoms(M: Acm, cfg: RunConfig):
    bases = [441, 225]
    n_max = 10

    def body(details):
        for base in bases:
            supports = []
            l0 = []
            for n in range(1, n_max + 1):
                fzs = M.factorizations(base**n, cfg.budget)
                supports.append(sorted({atom for fz in fzs for atom, _ in fz}))
                l0.append(max(len(fz) for fz in fzs))
            if any(s != supports[1] for s in supports[1:]):
                return {"x": base, "supports": supports}
            if any(v != l0[1] for v in l0[1:]):
                return {"x": base, "l0_max": l0}
            details[str(base)] = {"atoms": supports[-1], "l0_max": l0[-1]}
        return None

    return {"x": bases, "n_max": n_max}, body


# ---------------------------------------------------------------------------
# Claim tables: (claim id, the subject it is limited to or None for every
# subject, check, extra check arguments: the mode, base or bounds the claim
# is checked at), in the order the checks run. A semigroup is named by its
# generators, a monoid by (a, b).
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

ACM_CLAIMS = (
    ("power-sandwich", None, _check_power_sandwich, 8),
    ("smooth-classifier", (4, 6), _check_smooth_classifier, 1_000_000),
    ("max-support-closed-28", (4, 6), _check_closed_support, 28, 3, 8, acm46.ell0_max_28_closed),
    ("max-support-closed-40", (4, 6), _check_closed_support, 40, 1, 8, acm46.ell0_max_40_closed),
    ("construction-70", (4, 6), _check_construction_70),
    ("good-atom-lower-bound", (4, 6), _check_good_atom_bound, 8),
    ("evil-slots-bounded", (4, 6), _check_evil_slots, 4),
    ("hilbert-441", (1, 4), _check_hilbert),
    ("stable-power-atoms", (1, 4), _check_stable_power_atoms),
    ("two-atom-split", (6, 6), _check_two_atom_split, 20_000),
)


def _replay(claims, subject, key: tuple, cfg: RunConfig) -> list[CheckResult]:
    checks = [
        _run(claim, *check(subject, cfg, *args))
        for claim, only, check, *args in claims
        if only in (None, key)
    ]
    return sorted(checks, key=lambda c: c.claim)


def verify_semigroup(S: NumericalSemigroup, cfg: RunConfig | None = None) -> VerificationReport:
    """Replay every claim about extremal lengths over S."""
    t0 = time.perf_counter()
    checks = _replay(SEMIGROUP_CLAIMS, S, S.generators, cfg or RunConfig())
    return VerificationReport(
        {"kind": "numerical-semigroup", **S.to_json()}, checks, time.perf_counter() - t0
    )


def verify_acm(M: Acm, cfg: RunConfig | None = None) -> VerificationReport:
    """Replay the claims that apply to the given congruence monoid."""
    t0 = time.perf_counter()
    checks = _replay(ACM_CLAIMS, M, (M.a, M.b), cfg or RunConfig())
    return VerificationReport({"kind": "acm", **M.to_json()}, checks, time.perf_counter() - t0)
