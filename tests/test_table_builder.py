"""Differential test of the extremal table builder against brute force.

`brute_tables` is the direct definition of the tables: best(m, i) is the
optimum over every multiplicity z of generator i, Theta(k * n^2 / g) work.
The library fills the same tables by per-exponent recurrences and extends
them in place when they grow; every cell must agree.
"""

import math
import sys
import threading

import pytest

from plengths import NumericalSemigroup, factor

INF = math.inf

GENERATORS = [(2, 3), (3, 5, 7), (6, 9, 20), (5, 7, 9, 11), (4, 6, 9), (7, 8, 9, 10, 11)]
EXPONENTS = [0, 1, 2, 3, 4, INF]
MODES = ["min", "max"]


def _coord_cost(z, p):
    if p == 1:
        return z
    if p == 0:
        return 1 if z else 0
    return z**p


def brute_tables(gens, n_max, p, mode):
    """Rows best(., i) for amounts 0..n_max, trying every z for every cell."""
    k = len(gens)
    want_min = mode == "min"
    tables = [None] * k

    g = gens[-1]
    last = [None] * (n_max + 1)
    if p == INF:
        for m in range(0, n_max + 1, g):
            last[m] = m // g
    else:
        for m in range(0, n_max + 1, g):
            last[m] = _coord_cost(m // g, p)
    tables[-1] = last

    for i in range(k - 2, -1, -1):
        g = gens[i]
        nxt = tables[i + 1]
        row = [None] * (n_max + 1)
        if p == INF:
            for m in range(n_max + 1):
                best = None
                off = m
                for z in range(m // g + 1):
                    sub = nxt[off]
                    off -= g
                    if sub is None:
                        continue
                    v = sub if sub > z else z
                    if best is None or (v < best if want_min else v > best):
                        best = v
                row[m] = best
        else:
            costs = [_coord_cost(z, p) for z in range(n_max // g + 1)]
            for m in range(n_max + 1):
                best = None
                off = m
                for z in range(m // g + 1):
                    sub = nxt[off]
                    off -= g
                    if sub is not None:
                        v = costs[z] + sub
                        if best is None or (v < best if want_min else v > best):
                            best = v
                row[m] = best
        tables[i] = row
    return tables


def _assert_rows_match(S, steps, p, mode):
    """Grow S's table through steps; after each, compare every row."""
    oracle = brute_tables(S.generators, steps[-1], p, mode)
    for n in steps:
        rows = factor._tables(S, n, p, mode)
        for i, (row, want) in enumerate(zip(rows, oracle)):
            assert row[: n + 1] == want[: n + 1], (S.generators, p, mode, n, i)


@pytest.mark.parametrize("gens", GENERATORS, ids=lambda g: ",".join(map(str, g)))
def test_rows_match_brute_force_grown_in_three_steps(gens):
    S = NumericalSemigroup(gens)
    for p in EXPONENTS:
        for mode in MODES:
            _assert_rows_match(S, [150, 400, 700], p, mode)
            assert S._table_cache[(p, mode)].size == 700


@pytest.mark.parametrize("gens", [(2, 3), (6, 9, 20), (7, 8, 9, 10, 11)])
def test_rows_match_brute_force_grown_from_zero(gens):
    """Many small extensions, most of them shorter than a generator."""
    S = NumericalSemigroup(gens)
    steps = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    for p in EXPONENTS:
        for mode in MODES:
            _assert_rows_match(S, steps, p, mode)


def test_regrowth_keeps_earlier_rows():
    S = NumericalSemigroup((6, 9, 20))
    rows = factor._tables(S, 300, 2, "min")
    before = [row[:] for row in rows]
    assert factor._tables(S, 1000, 2, "min") is rows
    assert [row[:301] for row in rows] == before


def test_concurrent_growth_matches_brute_force():
    """Threads growing one semigroup's table in interleaved steps all read the
    same cells as a fresh brute-force build."""
    S = NumericalSemigroup((3, 5, 7))
    want = brute_tables(S.generators, 600, 2, "min")[0]
    errors = []

    def worker(sizes):
        try:
            for n in sizes:
                assert factor.extremal_values(S, n, 2, "min") == want[: n + 1]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(range(k * 5, 601, 23),)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def _scan_witness(tables, gens, n, p):
    """The witness rule by scanning multiplicities down from m // g against
    the oracle rows: the largest coordinate meeting the target."""
    z, m = [], n
    for i, g in enumerate(gens[:-1]):
        nxt = tables[i + 1]
        c = next(
            c for c in range(m // g, -1, -1)
            if nxt[m - c * g] is not None and _coord_cost(c, p) + nxt[m - c * g] == tables[i][m]
        )
        z.append(c)
        m -= c * g
    return (*z, m // gens[-1])


@pytest.mark.parametrize("gens", GENERATORS, ids=lambda g: ",".join(map(str, g)))
def test_stored_coordinates_match_scan(gens):
    """p >= 2 min witnesses read the argmins stored by the fill; as the table
    regrows under rising n they must equal the scan over the oracle rows."""
    S = NumericalSemigroup(gens)
    for p in (2, 3, 4):
        oracle = brute_tables(gens, 700, p, "min")
        for n in range(701):
            if oracle[0][n] is not None:
                got = factor.extremal_plength(S, n, p, "min").witness
                assert got == _scan_witness(oracle, gens, n, p), (p, n)
