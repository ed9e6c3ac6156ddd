"""ns-query: one long-lived plengths library process answering query batches.

Usage:
  python3 bench/query_worker.py --seed N --setup-only
  python3 bench/query_worker.py --seed N --seconds T
  python3 bench/query_worker.py --seed N --batches B [--trace]

Set-up (timed from before `import plengths`): build every (p, mode) table to
n = 3000 for each semigroup, grow membership to 20 000, compute the Apery
tables the closed forms use, and make the query pools. Then answer batches
of 50 queries against one semigroup each (a fixed set of batches in a seeded
order), either for T seconds or for B batches, and check every answer
against the stored reference digests. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time

import workloads as W


def answer(plengths, S, query) -> str:
    """Canonical text of one answer; a typed error is an answer too."""
    factor = plengths.factor
    kind, n, p, mode = query
    try:
        if kind == "extremal":
            res = factor.extremal_plength(S, n, p, mode)
            return f"{res.value}:{res.witness}"
        if kind == "min2":
            res = factor.min2_integer_minimizer(S, n)
            return f"{res.value}:{res.witness}"
        if kind == "closed_max_inf":
            return str(factor.closed_max_inf(S, n))
        if kind == "closed_min_inf":
            return str(factor.closed_min_inf(S, n))
        return str(factor.closed_len_recurrence(S, n, mode))
    except (plengths.NotInSemigroupError, plengths.ThresholdNotMetError) as exc:
        return "!" + type(exc).__name__


def setup(plengths) -> tuple[dict, dict]:
    """Warm every cache the queries read; return semigroups and query pools."""
    sgs = {}
    for gens in W.SEMIGROUPS:
        S = plengths.NumericalSemigroup(gens)
        for p in W.QUERY_PS:
            for mode in ("min", "max"):
                plengths.factor.extremal_values(S, W.QUERY_TABLE_N, p, mode)
        S.contains(W.QUERY_MEMBER_N)
        S.apery(gens[0])
        S.apery(sum(gens))
        sgs[gens] = S
    return sgs, {gens: W.query_pool(gens) for gens in W.SEMIGROUPS}


def batches(seed: int):
    """Endless (semigroup, pool indices) pairs: each cycle answers every fixed
    batch of every semigroup once, in a fresh seeded order."""
    rng = random.Random(seed)
    fixed = [(gens, idxs) for gens in W.SEMIGROUPS for idxs in W.query_batches(gens)]
    while True:
        rng.shuffle(fixed)
        yield from fixed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--batches", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    plengths = importlib.import_module("plengths")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    refs = W.load_refs()
    sgs, pools = setup(plengths)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        json.dump(result, sys.stdout)
        return

    if refs["query_pool"] != W.pool_digest():
        raise SystemExit("query pools differ from the ones refs.json was made from")
    expect = {tuple(map(int, k.split(","))): v for k, v in refs["ns-query"].items()}
    latencies, failures, failed = [], [], 0
    t_start = time.perf_counter()
    for gens, idxs in batches(args.seed):
        S, pool, ref = sgs[gens], pools[gens], expect[gens]
        t = time.perf_counter()
        try:
            answers = [answer(plengths, S, pool[i]) for i in idxs]
        except Exception as exc:  # an untyped error is a failed operation
            answers = None
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if answers is None:
            failure = {"semigroup": gens, "error": error}
        else:
            failure = next(
                (
                    {"semigroup": gens, "query": pool[i], "answer": text}
                    for i, text in zip(idxs, answers)
                    if W.digest(text.encode())[:8] != ref[8 * i : 8 * i + 8]
                ),
                None,
            )
        if failure is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(failure)
        if args.batches is not None:
            if len(latencies) >= args.batches:
                break
        elif time.perf_counter() - t_start >= args.seconds:
            break
    result.update(
        run_s=time.perf_counter() - t_start,
        wall_s=time.perf_counter() - t0,
        latencies=latencies,
        failed=failed,
        failures=failures,
    )
    if tracer is not None:
        result["trace"] = tracer.export()
    json.dump(result, sys.stdout, default=str)


if __name__ == "__main__":
    main()
