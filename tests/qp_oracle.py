"""Reference quasipolynomial fit: exact Lagrange interpolation per residue class.

The library reads degree and leading coefficients off a table of integer
differences. This module recovers every coefficient of every class the slow,
obvious way, so the tests can check the library's answers against it and
re-evaluate each sample.
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
