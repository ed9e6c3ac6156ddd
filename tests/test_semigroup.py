import os
import resource
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plengths import (
    ContainsOneError,
    DegenerateError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NotMinimalError,
    NumericalSemigroup,
)


def brute_members(gens, limit):
    ok = [False] * (limit + 1)
    ok[0] = True
    for m in range(1, limit + 1):
        ok[m] = any(m >= g and ok[m - g] for g in gens)
    return ok


class TestConstruction:
    def test_accepts_minimal_set(self):
        S = NumericalSemigroup([3, 5, 7])
        assert S.generators == (3, 5, 7)

    def test_sorts_and_dedups(self):
        assert NumericalSemigroup([7, 3, 5, 3]).generators == (3, 5, 7)

    def test_rejects_redundant_generator(self):
        with pytest.raises(NotMinimalError):
            NumericalSemigroup([2, 3, 5])  # 5 = 2 + 3

    def test_rejects_common_divisor(self):
        with pytest.raises(GcdNotOneError):
            NumericalSemigroup([4, 6])

    def test_rejects_one_alone(self):
        with pytest.raises(DegenerateError):
            NumericalSemigroup([1])

    def test_rejects_one_among_others(self):
        with pytest.raises(ContainsOneError):
            NumericalSemigroup([1, 3])

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([])
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])

    def test_rejects_non_integral_generator(self):
        # int(2.5) would silently build <2, 3>
        with pytest.raises(ValueError, match="generator must be an integer, got 2.5"):
            NumericalSemigroup([2.5, 3])


class TestMembership:
    def test_small_cases(self, semigroups):
        S = semigroups[(2, 3)]
        assert not S.contains(1)
        assert S.contains(7)  # 2 + 2 + 3
        assert 7 in S

    def test_frobenius_gap(self, semigroups):
        S = semigroups[(6, 9, 20)]
        assert not S.contains(43)
        assert all(S.contains(n) for n in range(44, 200))

    def test_agrees_with_direct_table(self, semigroups):
        for gens, S in semigroups.items():
            ok = brute_members(gens, 250)
            assert [S.contains(n) for n in range(251)] == ok

    def test_negative_rejected(self, semigroups):
        with pytest.raises(ValueError):
            semigroups[(2, 3)].contains(-1)


class TestApery:
    def test_known_tables(self, semigroups):
        assert semigroups[(2, 3)].apery(2) == (0, 3)
        assert semigroups[(3, 5, 7)].apery(3) == (0, 7, 5)
        assert semigroups[(2, 3)].apery(5) == (0, 6, 2, 3, 4)

    def test_modulus_must_be_member(self, semigroups):
        with pytest.raises(ModulusNotInSemigroupError):
            semigroups[(2, 3)].apery(1)
        with pytest.raises(ModulusNotInSemigroupError):
            semigroups[(6, 9, 20)].apery(7)

    def test_definitional_invariants(self, semigroups):
        for gens, S in semigroups.items():
            for m in gens + (sum(gens),):
                table = S.apery(m)
                assert len(table) == m
                assert table[0] == 0
                seen = set()
                for j, a in enumerate(table):
                    assert a % m == j
                    assert S.contains(a)
                    assert a - m < 0 or not S.contains(a - m)
                    seen.add(a % m)
                assert len(seen) == m


class TestFrobenius:
    def test_known_values(self, semigroups):
        assert semigroups[(2, 3)].frobenius() == 1
        assert semigroups[(3, 5, 7)].frobenius() == 4
        assert semigroups[(6, 9, 20)].frobenius() == 43

    def test_agrees_with_brute_scan(self, semigroups):
        for gens, S in semigroups.items():
            limit = gens[0] * gens[-1]
            ok = brute_members(gens, limit)
            brute = max(n for n in range(limit + 1) if not ok[n])
            assert S.frobenius() == brute

    def test_everything_beyond_is_member(self, semigroups):
        for S in semigroups.values():
            f = S.frobenius()
            assert not S.contains(f)
            assert all(S.contains(n) for n in range(f + 1, f + 100))


def brute_apery(ok, m):
    return tuple(min(n for n in range(j, len(ok), m) if ok[n]) for j in range(m))


# Each Apery element mod m is below F + m + 1 <= (g_1 - 1) * g_k + m, so a
# brute table to LIMIT covers every modulus up to MAX_MODULUS.
MAX_GEN, MAX_MODULUS = 30, 90
LIMIT = MAX_GEN * MAX_GEN + MAX_MODULUS
generator_sets = st.lists(
    st.integers(min_value=2, max_value=MAX_GEN), min_size=2, max_size=5, unique=True
).map(sorted)


def _gcd_one(gens):
    g = 0
    for x in gens:
        g = gcd(g, x)
    return g == 1


def _minimal(gens):
    return all(not brute_members([g for g in gens if g != x], x)[x] for x in gens)


class TestAgainstBruteMembers:
    @settings(max_examples=60, deadline=None)
    @given(generator_sets)
    def test_rejects_exactly_the_non_minimal_sets(self, gens):
        assume(_gcd_one(gens))
        if _minimal(gens):
            assert NumericalSemigroup(gens).generators == tuple(gens)
        else:
            with pytest.raises(NotMinimalError):
                NumericalSemigroup(gens)

    @settings(max_examples=60, deadline=None)
    @given(generator_sets, st.data())
    def test_membership_and_apery(self, gens, data):
        assume(_gcd_one(gens) and _minimal(gens))
        S = NumericalSemigroup(gens)
        ok = brute_members(gens, LIMIT)
        assert [S.contains(n) for n in range(LIMIT + 1)] == ok
        others = [m for m in range(1, MAX_MODULUS + 1) if ok[m] and m not in gens]
        for m in data.draw(st.lists(st.sampled_from(others), max_size=4)):
            assert S.apery(m) == brute_apery(ok, m)
        for m in gens:
            assert S.apery(m) == brute_apery(ok, m)

    def test_large_coprime_pair_in_small_memory(self):
        tracemalloc.start()
        try:
            frobenius = NumericalSemigroup((3001, 3011)).frobenius()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frobenius == 3001 * 3011 - 3001 - 3011 == 9_029_999
        assert peak < 1 << 20


# Commands whose Apery table of 10^9 or 10^10 classes would take tens of GB
APERY_TOO_LARGE = (
    ["ns", "apery", "--gens", "3,5,7", "--modulus", "10000000000"],
    ["ns", "frobenius", "--gens", "1000000007,1000000009"],
    ["ns", "plength", "--gens", "1000000007,1000000009", "--n", "5", "--p", "1", "--mode", "min"],
)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", APERY_TOO_LARGE, ids=" ".join)
def test_oversized_apery_table_is_refused(argv):
    """Refused with exit 2 and one error line, before anything is allocated:
    the child's address space is capped at 2 GB, so building the table would
    end in a MemoryError traceback instead."""
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "plengths.cli", *argv],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: an Apery table mod ")


@pytest.mark.parametrize(
    "m,gens",
    [
        (100003, (100003, 100019)),
        (30011, (30011, 30013, 30017)),
        (1009, (1009, 1013, 1019, 1021)),
        (5, (5, 7)),
    ],
    ids=lambda v: str(v),
)
def test_apery_charge_covers_the_traced_peak(m, gens):
    """The bytes _apery checks against the limit cover what it allocates:
    the list it fills, the tuple it returns and the int objects, which a
    sum allocates one digit long; it copies no cycle's slice of the list."""
    from plengths import semigroup

    semigroup._apery(7, (7, 11))  # allocations made once per process
    tracemalloc.start()
    try:
        semigroup._apery(m, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= semigroup._apery_bytes(m, gens)
