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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plengths import NumericalSemigroup, PlengthsError, factor

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


def _combine(c, sub, p):
    return max(c, sub) if p == INF else _coord_cost(c, p) + sub


def _scan_witness(tables, gens, n, p):
    """The witness rule by scanning multiplicities down from m // g against
    the oracle rows: the largest coordinate meeting the target."""
    z, m = [], n
    for i, g in enumerate(gens[:-1]):
        nxt = tables[i + 1]
        c = next(
            c for c in range(m // g, -1, -1)
            if nxt[m - c * g] is not None and _combine(c, nxt[m - c * g], p) == tables[i][m]
        )
        z.append(c)
        m -= c * g
    return (*z, m // gens[-1])


@pytest.mark.parametrize(
    "gens", [(2, 3), (7, 8, 9, 10, 11), (11, 13, 17, 19, 23)], ids=lambda g: ",".join(map(str, g))
)
def test_bounded_scans_match_brute_force(gens):
    """p >= 2 max and inf min stop their scans on bounds that are tightest
    for few generators, close consecutive generators or large ones."""
    S = NumericalSemigroup(gens)
    for p, mode in ((2, "max"), (3, "max"), (4, "max"), (INF, "min")):
        _assert_rows_match(S, [500, 1200, 2000], p, mode)


@pytest.mark.parametrize(
    "gens", GENERATORS + [(11, 13, 17, 19, 23)], ids=lambda g: ",".join(map(str, g))
)
def test_witness_scans_from_target_match_scan(gens):
    """p in {1, inf} witnesses start their scan at the target when it lies
    below m // g, and p = 1 also at (target * g_k - m) // (g_k - g); p = 0
    min takes the least remainder of m's class whose optimum is the target
    less 1, and p = 0 max scans down from m // g: the result must be the
    scan from m // g over the oracle."""
    S = NumericalSemigroup(gens)
    for p in (0, 1, INF):
        for mode in MODES:
            oracle = brute_tables(gens, 700, p, mode)
            for n in range(701):
                if oracle[0][n] is not None:
                    got = factor.extremal_plength(S, n, p, mode).witness
                    assert got == _scan_witness(oracle, gens, n, p), (p, mode, n)


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



def _assert_keyed_fill_matches(ts, oracle, largest):
    """Every row of a p >= 2 min table set and every coordinate it stored
    equal the oracle rows and the largest optimal z of each feasible cell."""
    size = ts.size
    for i in range(len(ts.gens) - 1):
        want = oracle[i][: size + 1]
        assert ts.rows[i][: size + 1] == want, (size, i)
        argz = ts.states[i][1]
        got = [None if v is None else argz[m] for m, v in enumerate(want)]
        assert got == largest[i][: size + 1], (size, i)


@pytest.mark.parametrize(
    "gens",
    [(3, 5, 7), (4, 5, 6), (5, 7, 9, 11), (7, 8, 9, 10, 11)],
    ids=lambda g: ",".join(map(str, g)),
)
def test_keyed_argmin_through_changing_widths(gens):
    """p >= 3 min fills encode a candidate as value * W + t, W = hi // g + 2
    set afresh by every fill, and decode the least key by divmod. Grown
    through sizes that change W, rows and stored coordinates must equal the
    oracle. For every amount where z = 0 ties with a larger z, a table is
    also grown to end exactly there, so the tie sits at t = hi // g, the
    last position of its class and the largest t a key holds. The p = 2 run
    checks the line envelope's tie rule on the same amounts: of lines equal
    at j the front keeps the smallest t, the largest z, also where the line
    t = j has just entered at the back."""
    hi = 400
    for p in (2, 3):
        oracle = brute_tables(gens, hi, p, "min")
        largest, ties = [], set()
        for i, g in enumerate(gens[:-1]):
            nxt, col = oracle[i + 1], []
            for m, v in enumerate(oracle[i]):
                zs = [
                    z for z in range(m // g + 1)
                    if v is not None and nxt[m - z * g] is not None and z**p + nxt[m - z * g] == v
                ]
                col.append(zs[-1] if zs else None)
                if len(zs) > 1 and zs[0] == 0:
                    ties.add(m)
            largest.append(col)
        assert ties, p
        S = NumericalSemigroup(gens)
        for n in (0, 1, 4, 9, 10, 23, 60, 61, 150, 260):
            _assert_keyed_fill_matches(factor._table_set(S, n, p, "min"), oracle, largest)
        for m in sorted(ties):
            S = NumericalSemigroup(gens)
            for n in (m // 2, m):
                ts = factor._table_set(S, n, p, "min")
                assert ts.size == n
                _assert_keyed_fill_matches(ts, oracle, largest)
            assert factor.extremal_plength(S, m, p, "min").witness == _scan_witness(
                oracle, gens, m, p
            )


def _largest_optimal_z(oracle, gens, p):
    """Per row but the last, the largest optimal z at each feasible amount
    (None elsewhere): the coordinate a p >= 2 min fill stores."""
    out = []
    for i, g in enumerate(gens[:-1]):
        nxt, col = oracle[i + 1], []
        for m, v in enumerate(oracle[i]):
            col.append(
                None if v is None else next(
                    z for z in range(m // g, -1, -1)
                    if nxt[m - z * g] is not None and z**p + nxt[m - z * g] == v
                )
            )
        out.append(col)
    return out


def _assert_grown_tables_match(gens, steps, exponents):
    """Grow fresh tables of each (p, mode), p in exponents, and of (inf, min)
    through steps; after each step every row, and for finite p min every
    stored coordinate, equals the oracle."""
    top = -1  # the size the tables reach: a regrowth adds at least half
    for n in steps:
        if n > top:
            top = n if top < 0 else max(n, top + top // 2)
    for p, mode in [(p, mode) for p in exponents for mode in MODES] + [(INF, "min")]:
        oracle = brute_tables(gens, top, p, mode)
        keyed = mode == "min" and p != INF
        largest = _largest_optimal_z(oracle, gens, p) if keyed else None
        S = NumericalSemigroup(gens)
        for n in steps:
            ts = factor._table_set(S, n, p, mode)
            if keyed:
                _assert_keyed_fill_matches(ts, oracle, largest)
            else:
                for i, (row, want) in enumerate(zip(ts.rows, oracle)):
                    assert row[: ts.size + 1] == want[: ts.size + 1], (p, mode, n, i)


@pytest.mark.parametrize(
    "gens", [(6, 10, 15), (10, 15, 21), (12, 18, 20, 27), (4, 6, 9)],
    ids=lambda g: ",".join(map(str, g)),
)
def test_later_gcd_above_one_matches_brute_force(gens):
    """Where the generators after g_i share a gcd d > 1 the p >= 2 max and
    inf min scans step z by d / gcd(d, g_i) over the feasible z, and inf
    min skips the amounts gcd(d, g_i) does not divide; the p = 2 min
    envelope meets long runs of infeasible lines."""
    _assert_grown_tables_match(gens, [37, 160, 400, 700], (2, 3, 4))


def test_two_close_generators_match_brute_force():
    """(71, 73): the max bound's B(z0) stays above best * h for small z0,
    each residue class of the envelope is sparse below 5039, the Frobenius
    number, and the inf min scan steps z by 73 from the first feasible z at
    or above the balanced one."""
    _assert_grown_tables_match((71, 73), [300, 2000, 5100, 7000], (2, 3))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=24), min_size=2, max_size=4, unique=True),
    st.lists(st.integers(min_value=0, max_value=260), min_size=1, max_size=4),
)
def test_drawn_semigroups_and_cuts_match_brute_force(gens, cuts):
    try:
        S = NumericalSemigroup(gens)
    except PlengthsError:
        assume(False)
    _assert_grown_tables_match(S.generators, sorted(set(cuts)) + [300], (2, 3))
