"""Replay of every verified claim as machine-checkable pass/fail results.

Each check returns a CheckResult with the exact window and thresholds it
used and, on failure, a concrete counterexample input. The claims of each
family, and the subjects they apply to, are listed in their own module:
SEMIGROUP_CLAIMS in ns_claims and ACM_CLAIMS in acm_claims, so a process
loads only the family it verifies. Reports list checks sorted by claim id.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

from . import acm_claims, ns_claims
from .common import RunConfig
from .errors import PlengthsError

if TYPE_CHECKING:
    from .acm import Acm
    from .semigroup import NumericalSemigroup


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
    checks = _replay(ns_claims.SEMIGROUP_CLAIMS, S, S.generators, cfg or RunConfig())
    return VerificationReport(
        {"kind": "numerical-semigroup", **S.to_json()}, checks, time.perf_counter() - t0
    )


def verify_acm(M: Acm, cfg: RunConfig | None = None) -> VerificationReport:
    """Replay the claims that apply to the given congruence monoid."""
    t0 = time.perf_counter()
    checks = _replay(acm_claims.ACM_CLAIMS, M, (M.a, M.b), cfg or RunConfig())
    return VerificationReport({"kind": "acm", **M.to_json()}, checks, time.perf_counter() - t0)
