"""Command-line front end.

Two command families: `ns` for numerical semigroups given by --gens, and
`acm` for congruence monoids given by --a/--b. Output is JSON on stdout
(sorted keys, so identical invocations are byte-identical); growth series
can be emitted as CSV. Exit code 0 on success, 1 when a verification check
fails, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import acm, acm46, factor, quasipoly, semigroup, verify
from .common import FORMATS, RunConfig
from .errors import PlengthsError


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad generator list: {text!r}")


def _parse_p(text: str):
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent: {text!r}")
    if p < 0:
        raise argparse.ArgumentTypeError("exponent must be >= 0")
    return p


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window (want LO:HI): {text!r}")


def _family_flags(subject: dict) -> argparse.ArgumentParser:
    """Parent parser of one command family: its required subject flags, then
    the flags every command takes. Each command gets these through parents=,
    so they are built once per family rather than once per command."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kind in subject.items():
        parent.add_argument(flag, type=kind, required=True)
    defaults = RunConfig._field_defaults
    parent.add_argument("--format", choices=FORMATS, default=defaults["fmt"], dest="fmt")
    parent.add_argument("--out", default=None, help="write output to this file")
    parent.add_argument("--budget", type=int, default=defaults["budget"])
    parent.add_argument("--window", type=_parse_window, default=defaults["window"])
    parent.add_argument("--seed", type=int, default=defaults["seed"])
    parent.add_argument("--timing", action="store_true", help="include timing in reports")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plengths",
        description="exact extremal p-lengths of factorizations, with a verification harness",
    )
    top = parser.add_subparsers(dest="family", required=True)

    ns = top.add_parser("ns", help="numerical semigroup commands")
    nssub = ns.add_subparsers(dest="command", required=True)
    ns_flags = [_family_flags({"--gens": _parse_gens})]
    for name in ("apery", "frobenius", "factorizations", "plength", "verify", "qp-table"):
        sub = nssub.add_parser(name, parents=ns_flags)
        if name == "apery":
            sub.add_argument("--modulus", type=int, required=True)
        if name == "factorizations":
            sub.add_argument("--n", type=int, required=True)
        if name == "plength":
            sub.add_argument("--n", type=int, required=True)
            sub.add_argument("--p", type=_parse_p, required=True)
            sub.add_argument("--mode", choices=("min", "max"), required=True)

    acm_cmds = top.add_parser("acm", help="congruence monoid commands")
    acmsub = acm_cmds.add_subparsers(dest="command", required=True)
    acm_flags = [_family_flags({"--a": int, "--b": int})]
    for name in ("atoms", "factorizations", "plength", "verify", "growth"):
        sub = acmsub.add_parser(name, parents=acm_flags)
        if name == "atoms":
            sub.add_argument("--limit", type=int, required=True)
        if name in ("factorizations", "plength"):
            sub.add_argument("--x", type=int, required=True)
        if name == "plength":
            sub.add_argument("--p", type=_parse_p, required=True)
            sub.add_argument("--mode", choices=("min", "max"), required=True)
        if name == "growth":
            sub.add_argument("--x", type=int, required=True)
            sub.add_argument("--p", type=_parse_p, required=True)
            sub.add_argument("--mode", choices=("min", "max"), required=True)
            sub.add_argument("--nmax", type=int, required=True)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _verified(report, timing: bool) -> tuple[int, str]:
    print(f"verified {len(report.checks)} checks in {report.elapsed:.2f}s", file=sys.stderr)
    return (0 if report.passed else 1), _json_text(report.to_json(timing))


def _run_ns(args, cfg: RunConfig) -> tuple[int, str]:
    S = semigroup.NumericalSemigroup(args.gens)
    if args.command == "apery":
        table = S.apery(args.modulus)
        return 0, _json_text(
            {"semigroup": S.to_json(), "modulus": len(table), "entries": list(table)}
        )
    if args.command == "frobenius":
        return 0, _json_text({"semigroup": S.to_json(), "frobenius": S.frobenius()})
    if args.command == "factorizations":
        fzs = factor.factorizations(S, args.n, cfg.budget)
        return 0, _json_text(
            {"semigroup": S.to_json(), "n": args.n, "factorizations": [list(z) for z in fzs]}
        )
    if args.command == "plength":
        res = factor.extremal_plength(S, args.n, args.p, args.mode)
        return 0, _json_text(
            {"semigroup": S.to_json(), **factor.result_to_json(args.n, args.p, args.mode, res)}
        )
    if args.command == "qp-table":
        reports = quasipoly.verify_qp_attributes(S, cfg.window)
        ok = all(r.passed for r in reports)
        body = {"semigroup": S.to_json(), "passed": ok, "rows": [r.to_json() for r in reports]}
        return (0 if ok else 1), _json_text(body)
    return _verified(verify.verify_semigroup(S, cfg), args.timing)


def _run_acm(args, cfg: RunConfig) -> tuple[int, str]:
    M = acm.Acm(args.a, args.b)
    if args.command == "atoms":
        return 0, _json_text({"acm": M.to_json(), "atoms": M.atoms_up_to(args.limit)})
    if args.command == "factorizations":
        fzs = [acm.factorization_to_json(f) for f in M.factorizations(args.x, cfg.budget)]
        return 0, _json_text({"acm": M.to_json(), "x": args.x, "factorizations": fzs})
    if args.command == "plength":
        res = M.extremal_plength(args.x, args.p, args.mode, cfg.budget)
        return 0, _json_text(
            {
                "acm": M.to_json(),
                "x": args.x,
                "p": "inf" if args.p == math.inf else args.p,
                "mode": args.mode,
                "value": res.value,
                "witness": acm.factorization_to_json(res.witness),
            }
        )
    if args.command == "growth":
        if (M.a, M.b) != (4, 6):
            raise PlengthsError("growth series are implemented for the monoid (4, 6)")
        series = acm46.growth_series(acm46.smooth_from_int(args.x), args.p, args.mode, args.nmax)
        if cfg.fmt == "csv":
            return 0, series.to_csv()
        return 0, _json_text(series.to_json())
    return _verified(verify.verify_acm(M, cfg), args.timing)


def _run_config(args) -> RunConfig:
    """The run settings, from the flags alone; argparse has checked --format."""
    if args.budget < 1:
        raise ValueError("budget must be >= 1")
    if args.window is not None and not 0 <= args.window[0] <= args.window[1]:
        raise ValueError(f"window needs 0 <= start <= end, not {args.window!r}")
    return RunConfig(args.budget, args.window, args.seed, args.fmt)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Inputs are parsed under Python's limit on int string digits; an exact
    # answer may be longer, so the limit is lifted until main returns.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        cfg = _run_config(args)
        t0 = time.perf_counter()
        code, text = _run_ns(args, cfg) if args.family == "ns" else _run_acm(args, cfg)
        _emit(text, args.out)
        print(f"done in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        return code
    except (PlengthsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
