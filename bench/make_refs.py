#!/usr/bin/env python3
"""Write bench/refs.json: the reference answer digests the benchmark checks.

Usage (from the repository root): python3 bench/make_refs.py

Run it only when the benchmark's inputs change, at a commit whose answers
are trusted. Never run it to make a mismatch go away: a mismatch means an
answer changed.
"""

import importlib
import json
import os
import sys

import workloads as W
from query_worker import answer
from run import PY, run_process


def main() -> None:
    cli = {}
    for key in W.all_cli_keys():
        wall, rc, out, err = run_process([PY, "-m", "plengths.cli", *key.split()])
        if b"Traceback" in err:
            raise SystemExit(f"{key}: {err.decode()}")
        cli[key] = {"rc": rc, "digest": W.digest(out)}
        print(f"{wall:7.2f}s rc={rc} {key}", file=sys.stderr)
    sys.path.insert(0, W.SRC)
    plengths = importlib.import_module("plengths")
    queries = {}
    for gens in W.SEMIGROUPS:
        S = plengths.NumericalSemigroup(gens)
        queries[",".join(map(str, gens))] = "".join(
            W.digest(answer(plengths, S, q).encode())[:8] for q in W.query_pool(gens)
        )
    refs = {"cli": cli, "query_pool": W.pool_digest(), "ns-query": queries}
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(W.REFS_PATH, W.ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
