"""Inputs of the three benchmark workloads, and the digests that check them.

Every input is made from the benchmark seed or from fixed pools, so the same
seed gives the same inputs. plengths itself only ever sees the generated
command lines (fresh-process workloads) or call arguments (ns-query).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS_PATH = os.path.join(HERE, "refs.json")
OUT_DIR = os.path.join(HERE, "out")

# The paper's worked numerical semigroups. (11,13,17,19,23) is left out: one
# `ns verify` on it takes minutes.
SEMIGROUPS = ((2, 3), (3, 5, 7), (6, 9, 20), (5, 7, 9, 11))

# ns-verify passes plengths one of these `--seed` values, so every command
# line the workload can issue has a stored reference digest.
VERIFY_SEEDS = tuple(range(8))

# acm plength runs full enumeration on 70^k. Both exponents cost a third or
# less of the growth command, so the slowest operations are always the growth
# runs and the tail percentile does not jump between inputs from run to run.
ACM_POWERS = (11, 12)

# ns-query: tables to QUERY_TABLE_N for every (p, mode), membership to
# QUERY_MEMBER_N, and a fixed pool of queries per semigroup.
QUERY_PS = (0, 1, 2, 3, math.inf)
QUERY_TABLE_N = 3000
QUERY_MEMBER_N = 20_000
QUERY_BATCH = 50
QUERY_POOL_SEED = 20241126
QUERY_POOL_SIZE = 600
# Every run answers the same fixed batches (the seed sets their order), so
# the latency distribution differs between runs only by machine noise.
QUERY_BATCHES_PER_SEMIGROUP = 16


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def source_digest() -> str:
    """Identifies the plengths sources measured, where git is not at hand."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "plengths")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


ACM_VERIFY_KEYS = ("acm verify --a 4 --b 6", "acm verify --a 1 --b 4", "acm verify --a 6 --b 6")
ACM_GROWTH_KEY = "acm growth --a 4 --b 6 --x 70 --p inf --mode min --nmax 16"


def ns_verify_key(gens: tuple[int, ...], seed: int) -> str:
    return f"ns verify --gens {','.join(map(str, gens))} --seed {seed}"


def acm_plength_key(k: int) -> str:
    return f"acm plength --a 4 --b 6 --x {70**k} --p 1 --mode max"


def ns_verify_rotation(rng: random.Random) -> list[str]:
    """One pass over every semigroup, in a seeded order, with seeded --seed."""
    order = list(SEMIGROUPS)
    rng.shuffle(order)
    return [ns_verify_key(gens, rng.choice(VERIFY_SEEDS)) for gens in order]


def acm_rotation(rng: random.Random, rotation: int, powers: list[int]) -> list[str]:
    """One pass over the acm commands; k cycles through a seeded order."""
    keys = [*ACM_VERIFY_KEYS, acm_plength_key(powers[rotation % len(powers)]), ACM_GROWTH_KEY]
    rng.shuffle(keys)
    return keys


def all_cli_keys() -> list[str]:
    """Every command line a fresh-process workload can issue."""
    return (
        [ns_verify_key(gens, s) for gens in SEMIGROUPS for s in VERIFY_SEEDS]
        + [*ACM_VERIFY_KEYS, ACM_GROWTH_KEY]
        + [acm_plength_key(k) for k in ACM_POWERS]
    )


def query_pool(gens: tuple[int, ...]) -> list[tuple]:
    """Fixed pool of ns-query queries for one semigroup.

    About 70% extremal_plength with n <= 3000, 15% min2_integer_minimizer
    and 15% closed forms with n < 20000. Queries are tuples
    (kind, n, p, mode); p and mode are None where they do not apply.
    """
    rng = random.Random(f"{QUERY_POOL_SEED}-{gens}")
    pool = []
    for _ in range(QUERY_POOL_SIZE):
        r = rng.random()
        if r < 0.70:
            p = rng.choice(QUERY_PS)
            pool.append(("extremal", rng.randint(0, QUERY_TABLE_N), p, rng.choice(("min", "max"))))
        elif r < 0.85:
            pool.append(("min2", rng.randrange(QUERY_MEMBER_N), None, None))
        else:
            kind = rng.choice(("closed_max_inf", "closed_min_inf", "closed_len"))
            mode = rng.choice(("min", "max")) if kind == "closed_len" else None
            pool.append((kind, rng.randrange(QUERY_MEMBER_N), None, mode))
    return pool


def query_batches(gens: tuple[int, ...]) -> list[list[int]]:
    """Fixed batches of pool indices for one semigroup."""
    rng = random.Random(f"{QUERY_POOL_SEED}-{gens}-batches")
    return [
        [rng.randrange(QUERY_POOL_SIZE) for _ in range(QUERY_BATCH)]
        for _ in range(QUERY_BATCHES_PER_SEMIGROUP)
    ]


def pool_digest() -> str:
    """Identifies the query pools, so stale references are detected."""
    text = repr([query_pool(g) for g in SEMIGROUPS])
    return digest(text.encode())
