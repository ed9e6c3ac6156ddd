import math
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from qp_oracle import differences_vanish, lagrange_fit, reproduces

from plengths import (
    NumericalSemigroup,
    SampleWindow,
    extremal_plength,
    factorizations,
    plength,
    qp_detect,
)

INF = math.inf


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6))
def test_length_sandwich(z):
    linf = plength(z, INF)
    l1 = plength(z, 1)
    assert linf <= l1 <= len(z) * linf


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5))
def test_support_below_total(z):
    assert plength(z, 0) <= plength(z, 1)
    assert plength(z, 2) <= plength(z, 1) ** 2


def _valid_semigroup(gens):
    gens = sorted(set(gens))
    if len(gens) < 2 or gens[0] < 2:
        return None
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        return None
    try:
        return NumericalSemigroup(gens)
    except Exception:
        return None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=15), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=80),
    st.sampled_from([0, 1, 2, 3, INF]),
    st.sampled_from(["min", "max"]),
)
def test_solver_equals_enumeration(gens, n, p, mode):
    S = _valid_semigroup(gens)
    if S is None:
        return
    zs = factorizations(S, n)
    if not zs:
        return
    values = [plength(z, p) for z in zs]
    expected = min(values) if mode == "min" else max(values)
    res = extremal_plength(S, n, p, mode)
    assert res.value == expected
    assert plength(res.witness, p) == res.value
    assert res.witness in set(zs)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_detect_recovers_generated_quasipolynomial(degree, period, data):
    rows = [
        [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(degree + 1)]
        for _ in range(period)
    ]
    if all(row[-1] == 0 for row in rows):
        rows[0][-1] = 1
    length = (2 + 2) * 6  # enough for the whole detection grid
    vals = []
    for n in range(length):
        row = rows[n % period]
        vals.append(sum(c * n**t for t, c in enumerate(row)))
    w = SampleWindow(0, tuple(vals))
    qp = qp_detect(w, 2, 6)
    assert qp is not None
    rows = lagrange_fit(w, qp.degree, qp.period)
    assert reproduces(w, rows)
    assert qp.leading_coefficients == tuple(row[-1] for row in rows)
    # the reported period is minimal: it divides the generating one or,
    # when smaller, every other fitting period is one of its multiples
    assert period % qp.period == 0
    for other in range(1, 7):
        if differences_vanish(w, 2, other):
            assert other % qp.period == 0
