"""Reference quasipolynomial fit: exact Lagrange interpolation per residue class,
and the difference test by building the whole table.

The library reads degree and leading coefficients off a table of integer
differences, and tests a level by sampling a few of its entries first. This
module recovers every coefficient of every class the slow, obvious way, and
builds every difference level in full, so the tests can check the library's
answers against it and re-evaluate each sample.
"""

from fractions import Fraction


def interpolate_class(points: list[tuple[int, int]], degree: int) -> list[Fraction]:
    """Exact coefficients c_0..c_degree of the polynomial through the points."""
    pts = points[: degree + 1]
    coeffs = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(pts):
        # Lagrange basis polynomial for xi, accumulated into coeffs.
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= c * xj
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for t, c in enumerate(basis):
            coeffs[t] += scale * c
    return coeffs


def lagrange_fit(w, degree: int, period: int) -> list[list[Fraction]]:
    """Coefficient rows c_0..c_t of each class n mod period, where t <= degree
    is the exact degree: trailing columns that are zero in every class are
    trimmed. Assumes the window does fit the shape."""
    by_class: dict[int, list[tuple[int, int]]] = {}
    for idx, v in enumerate(w.values):
        n = w.start + idx
        by_class.setdefault(n % period, []).append((n, v))
    rows = [interpolate_class(by_class[j], degree) for j in range(period)]
    top = max((t for t in range(degree + 1) if any(row[t] for row in rows)), default=0)
    return [row[: top + 1] for row in rows]


def evaluate(rows: list[list[Fraction]], n: int) -> Fraction:
    """Value at n of the quasipolynomial with these coefficient rows."""
    acc = Fraction(0)
    for c in reversed(rows[n % len(rows)]):
        acc = acc * n + c
    return acc


def reproduces(w, rows: list[list[Fraction]]) -> bool:
    """Every sample of the window equals the quasipolynomial's value."""
    return all(evaluate(rows, w.start + i) == v for i, v in enumerate(w.values))


def difference_levels(values, period: int, depth: int) -> list[list[int]]:
    """Levels 0..depth of the period-step difference table, each in full;
    a level with no entries stays empty."""
    levels = [list(values)]
    for _ in range(depth):
        prev = levels[-1]
        levels.append([b - a for a, b in zip(prev, prev[period:])])
    return levels


def differences_vanish(w, degree: int, period: int) -> bool:
    """Every entry of the (degree+1)-fold period-step difference is zero.
    The caller keeps that level nonempty."""
    level = difference_levels(w.values, period, degree + 1)[-1]
    assert level, "window too short for the difference test"
    return not any(level)
