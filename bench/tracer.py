"""Spans around plengths' public functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, start, end, parent span) and adds the span's self time (its
duration minus the part its child spans cover) to a per-name total. A
function imported by name into another module (verify does
`from .quasipoly import qp_detect`) is replaced there too, because callers
look it up in their own module. Methods are replaced on their class.

Consecutive calls of the same leaf function under the same parent are kept
as one span record with a call count, so a loop of millions of membership
tests stays small in memory. Spans are written out only when the run ends.
One span stack serves the process: plengths runs single-threaded here (the
verify harness's default of one job).
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute). Several attributes may share a span name.
TARGETS = (
    ("semigroup.init", "plengths.semigroup", "NumericalSemigroup.__init__"),
    ("semigroup.contains", "plengths.semigroup", "NumericalSemigroup.contains"),
    ("semigroup.apery", "plengths.semigroup", "NumericalSemigroup.apery"),
    ("factor.extremal_values", "plengths.factor", "extremal_values"),
    ("factor.extremal_plength", "plengths.factor", "extremal_plength"),
    ("factor.min2_integer_minimizer", "plengths.factor", "min2_integer_minimizer"),
    ("factor.closed_forms", "plengths.factor", "closed_max_inf"),
    ("factor.closed_forms", "plengths.factor", "closed_min_inf"),
    ("factor.closed_forms", "plengths.factor", "closed_len_recurrence"),
    ("quasipoly.sample_extremal", "plengths.quasipoly", "sample_extremal"),
    ("quasipoly.qp_fit", "plengths.quasipoly", "qp_fit"),
    ("quasipoly.qp_detect", "plengths.quasipoly", "qp_detect"),
    ("quasipoly.verify_qp_attributes", "plengths.quasipoly", "verify_qp_attributes"),
    ("acm.is_atom", "plengths.acm", "Acm.is_atom"),
    ("acm.factorizations", "plengths.acm", "Acm.factorizations"),
    ("acm.extremal_plength", "plengths.acm", "Acm.extremal_plength"),
    ("acm46.power_extremal", "plengths.acm46", "power_extremal"),
    ("acm46.ell0_max_exact", "plengths.acm46", "ell0_max_exact"),
    ("acm46.growth_series", "plengths.acm46", "growth_series"),
    ("verify.run", "plengths.verify", "verify_semigroup"),
    ("verify.run", "plengths.verify", "verify_acm"),
    # Private, but the one place every claim's check runs through: its spans,
    # labelled with the claim id, show which claim each table fill ran under.
    ("verify.claim", "plengths.verify", "_run"),
    ("cli.main", "plengths.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Span record fields. LABEL is the claim id for verify.claim spans.
NAME, PARENT, START, END, CALLS, BUSY, LEAF, LABEL = range(8)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[list] = []  # open spans: [child seconds, record index]
        self.totals: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES}
        self.counters = {
            "factor.extremal_values.cells_requested": 0,
            "acm.factorizations.returned": 0,
            "acm.factorizations.enumerated_for_optimum": 0,
            "verify.checked": 0,
        }
        self.claims: dict[str, float] = {}

    # -- counts taken at the layer boundary ---------------------------------

    def _count(self, name: str, args, kwargs, result, parent: int) -> None:
        if name == "factor.extremal_values":
            n_max = args[1] if len(args) > 1 else kwargs["n_max"]
            self.counters["factor.extremal_values.cells_requested"] += n_max + 1
        elif name == "acm.factorizations":
            self.counters["acm.factorizations.returned"] += len(result)
            if parent >= 0 and self.spans[parent][NAME] == "acm.extremal_plength":
                self.counters["acm.factorizations.enumerated_for_optimum"] += len(result)
        elif name == "verify.run":
            for check in result.checks:
                self.claims[check.claim] = self.claims.get(check.claim, 0.0) + check.elapsed
                checked = check.details.get("checked")
                if isinstance(checked, int):
                    self.counters["verify.checked"] += checked

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        tr = self
        spans, stack, total = self.spans, self.stack, self.totals[name]
        perf = time.perf_counter
        counted = name in ("factor.extremal_values", "acm.factorizations", "verify.run")
        labelled = name == "verify.claim"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            idx = len(spans)
            rec = [name, parent, 0.0, 0.0, 1, 0.0, False, args[0] if labelled else None]
            spans.append(rec)
            frame = [0.0, idx]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                total[0] += 1
                total[1] += dur - frame[0]
                rec[START], rec[END], rec[BUSY] = start - tr.t0, end - tr.t0, dur
                if len(spans) == idx + 1:  # no child span was recorded
                    rec[LEAF] = True
                    prev = spans[idx - 1] if idx else None
                    if prev and prev[LEAF] and prev[NAME] == name and prev[PARENT] == parent:
                        spans.pop()
                        prev[END] = rec[END]
                        prev[CALLS] += 1
                        prev[BUSY] += dur
            if counted:
                tr._count(name, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever plengths' own modules look it up."""
        import plengths.cli  # noqa: F401  (loads every plengths module)

        modules = [m for k, m in sys.modules.items() if k == "plengths" or k.startswith("plengths.")]
        for name, modname, attr in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def export(self) -> dict:
        """Totals, counts, per-claim times and the span records, for output."""
        return {
            "totals": self.totals,
            "counters": self.counters,
            "claims": self.claims,
            "spans": self.spans,
        }
