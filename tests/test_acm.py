import math

import pytest

from plengths import Acm, BudgetExceededError, NotIdempotentError, NotInMonoidError
from plengths.acm import factorization_to_json
from plengths.acm_claims import omega

INF = math.inf


class TestConstruction:
    def test_residue_one(self):
        M = Acm(1, 4)
        assert (M.a, M.b) == (1, 4)

    def test_four_mod_six(self):
        assert Acm(4, 6).a == 4  # 16 == 4 mod 6

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotentError):
            Acm(2, 4)

    def test_normalizes_residue(self):
        M = Acm(10, 6)
        assert (M.a, M.b) == (4, 6)
        assert Acm(6, 6).a == 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Acm(0, 4)


class TestMembership:
    def test_hilbert_members(self):
        M = Acm(1, 4)
        assert M.contains(9)
        assert M.contains(1)
        assert not M.contains(7)

    def test_four_mod_six(self):
        M = Acm(4, 6)
        assert M.contains(4) and M.contains(10)
        assert not M.contains(14)


class TestAtoms:
    def test_hilbert_atoms(self):
        M = Acm(1, 4)
        assert M.is_atom(9) and M.is_atom(21) and M.is_atom(49)
        assert not M.is_atom(441)  # 9 * 49

    def test_six_mod_six(self):
        M = Acm(6, 6)
        assert M.is_atom(6)
        assert not M.is_atom(36)

    def test_requires_nonunit_member(self):
        M = Acm(1, 4)
        with pytest.raises(NotInMonoidError):
            M.is_atom(1)
        with pytest.raises(NotInMonoidError):
            M.is_atom(7)

    def test_atoms_up_to(self):
        assert Acm(1, 4).atoms_up_to(50) == [5, 9, 13, 17, 21, 29, 33, 37, 41, 49]


class TestFactorizations:
    def test_hilbert_example(self):
        M = Acm(1, 4)
        assert M.factorizations(441) == [((9, 1), (49, 1)), ((21, 2),)]

    def test_contains_composite_pair(self):
        fzs = Acm(6, 6).factorizations(216)
        assert ((12, 1), (18, 1)) in fzs
        assert ((6, 3),) in fzs

    def test_single_atom(self):
        assert Acm(4, 6).factorizations(4) == [((4, 1),)]

    def test_unit(self):
        assert Acm(1, 4).factorizations(1) == [()]

    def test_products_restore_element(self):
        M = Acm(4, 6)
        for x in (4, 16, 40, 100, 160, 250 * 4):
            if not M.contains(x):
                continue
            for fz in M.factorizations(x):
                prod = 1
                for atom, mult in fz:
                    assert M.is_atom(atom)
                    prod *= atom**mult
                assert prod == x

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            Acm(6, 6).factorizations(6**6, cap=2)

    def test_json_shape(self):
        fz = Acm(1, 4).factorizations(441)[0]
        assert factorization_to_json(fz) == [
            {"atom": 9, "mult": 1},
            {"atom": 49, "mult": 1},
        ]


class TestExtremal:
    def test_hilbert_values(self):
        M = Acm(1, 4)
        assert M.extremal_plength(441, 0, "max").value == 2
        res = M.extremal_plength(441, INF, "max")
        assert res.value == 2 and res.witness == ((21, 2),)

    def test_unit_value(self):
        assert Acm(1, 4).extremal_plength(1, 1, "max").value == 0

    def test_bifurcus_sample(self):
        M = Acm(6, 6)
        for x in range(36, 3700, 36):
            assert M.extremal_plength(x, 1, "min").value <= 2

    def test_power_sandwich_small(self):
        M = Acm(6, 6)
        x = 36
        kp = omega(x)
        for n in range(1, 5):
            linf = M.extremal_plength(x**n, INF, "max").value
            l1 = M.extremal_plength(x**n, 1, "max").value
            assert n <= linf <= l1 <= kp * n

    def test_witness_consistency(self):
        M = Acm(4, 6)
        for x in (40, 160, 1000):
            for p in (0, 1, INF):
                for mode in ("min", "max"):
                    res = M.extremal_plength(x, p, mode)
                    mults = [m for _, m in res.witness]
                    from plengths import plength

                    assert plength(mults, p) == res.value
