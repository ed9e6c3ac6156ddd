"""The claims about arithmetical congruence monoids, replayed by verify_acm.

Each check takes the monoid and the run settings and returns the window it
examines and a body for verify._run; ACM_CLAIMS at the end lists them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import acm46
from .acm import Acm
from .common import INF, _prime_powers

if TYPE_CHECKING:
    from .verify import RunConfig


def omega(x: int) -> int:
    """Number of prime factors of x counted with multiplicity."""
    return sum(e for _, e in _prime_powers(x))


def _sandwich_cases(M: Acm) -> list[int]:
    if (M.a, M.b) == (4, 6):
        return [28, 40, 70]
    if (M.a, M.b) == (1, 4):
        return [441, 225]
    start = M.a if M.a > 1 else M.a + M.b
    atoms = set(M.atoms_up_to(M.b * 40))
    out = [x for x in range(start, M.b * 40 + 1, M.b) if x not in atoms][:2]
    return out or [M.b + M.a]


def _check_power_sandwich(M: Acm, cfg: RunConfig, n_max: int):
    cases = _sandwich_cases(M)

    def body(details):
        checked = 0
        for x in cases:
            kp = omega(x)
            for n in range(1, n_max + 1):
                if (M.a, M.b) == (4, 6):
                    u = acm46.smooth_from_int(x)
                    linf = acm46.power_extremal(u, n, INF, "max")
                    l1 = acm46.power_extremal(u, n, 1, "max")
                else:
                    if x**n > 10**12:
                        break
                    linf = M.extremal_plength(x**n, INF, "max").value
                    l1 = M.extremal_plength(x**n, 1, "max").value
                checked += 1
                if not (n <= linf <= l1 <= kp * n):
                    return {"x": x, "n": n, "linf_max": linf, "l1_max": l1, "k_prime": kp}
        details.update(checked=checked)
        return None

    return {"x": cases, "n_max": n_max}, body


def _check_smooth_classifier(M: Acm, cfg: RunConfig, limit: int):
    def body(details):
        checked = 0
        v2 = 1
        while v2 <= limit:
            v25 = v2
            while v25 <= limit:
                v = v25
                while v <= limit:
                    if v > 1:
                        u = acm46.smooth_from_int(v)
                        member = M.contains(v) and v > 1
                        if member != acm46.smooth_is_member(u):
                            return {"x": v, "member": member}
                        if member:
                            checked += 1
                            if M.is_atom(v) != acm46.smooth_is_atom(u):
                                return {"x": v, "divisor_search": M.is_atom(v)}
                    v *= 7
                v25 *= 5
            v2 *= 2
        details.update(checked=checked)
        return None

    return {"limit": limit}, body


def _check_closed_support(M: Acm, cfg: RunConfig, base: int, lo: int, hi: int, closed):
    x = acm46.smooth_from_int(base)

    def body(details):
        for n in range(lo, hi + 1):
            exact = acm46.ell0_max_exact(x, n)
            if closed(n) != exact:
                return {"n": n, "closed": closed(n), "exact": exact}
        details.update(checked=hi - lo + 1)
        return None

    return {"lo": lo, "hi": hi}, body


def _check_construction_70(M: Acm, cfg: RunConfig):
    def body(details):
        rows = []
        for k in (2, 4, 6, 8, 10):
            n, pairs = acm46.construct_70_factorization(k)
            rows.append({"k": k, "n": n, "distinct_atoms": len(pairs)})
        details.update(constructions=rows)
        return None

    return {"k": [2, 4, 6, 8, 10]}, body


def _check_good_atom_bound(M: Acm, cfg: RunConfig, n_max: int):
    bases = [28, 40, 70, 490]

    def body(details):
        counts = {}
        for base in bases:
            x = acm46.smooth_from_int(base)
            G = len(acm46.good_atoms(x))
            counts[base] = G
            for n in range(1, n_max + 1):
                linf = acm46.power_extremal(x, n, INF, "min")
                l1 = acm46.power_extremal(x, n, 1, "min")
                if 3 * G * linf < n or linf > l1:
                    return {"x": base, "n": n, "linf_min": linf, "l1_min": l1, "good_atoms": G}
        details.update(good_atom_counts=counts)
        return None

    return {"x": bases, "n_max": n_max}, body


def _check_evil_slots(M: Acm, cfg: RunConfig, n_max: int):
    bases = [28, 40, 70]

    def body(details):
        checked = 0
        for base in bases:
            x = acm46.smooth_from_int(base)
            for n in range(1, n_max + 1):
                for fz in M.factorizations(base**n, cfg.budget):
                    good = evil = 0
                    for atom, mult in fz:
                        u = acm46.smooth_from_int(atom)
                        if acm46.classify_atom(x, u) == "good":
                            good += mult
                        else:
                            evil += mult
                    checked += 1
                    if evil > 2 * good:
                        return {"x": base, "n": n, "factorization": list(fz)}
        details.update(checked=checked)
        return None

    return {"x": bases, "n_max": n_max}, body


def _check_two_atom_split(M: Acm, cfg: RunConfig, limit: int):
    def body(details):
        atoms = M.atoms_up_to(limit)
        pairs = set()
        for i, u in enumerate(atoms):
            if u * u > limit:
                break
            for v in atoms[i:]:
                if u * v > limit:
                    break
                pairs.add(u * v)
        checked = 0
        start = M.a if M.a > 1 else M.a + M.b
        is_atom = set(atoms)
        for x in range(start, limit + 1, M.b):
            if x in is_atom:
                continue
            checked += 1
            # a member that is neither an atom nor a product of two needs three or more
            if x not in pairs:
                return {"x": x, "l1_min": M.extremal_plength(x, 1, "min").value}
        details.update(checked=checked)
        return None

    return {"limit": limit}, body


def _check_hilbert(M: Acm, cfg: RunConfig):
    def body(details):
        fzs = M.factorizations(441)
        want = [((9, 1), (49, 1)), ((21, 2),)]
        if sorted(fzs) != sorted(want):
            return {"factorizations": [list(f) for f in fzs]}
        values = {
            "l0_max": M.extremal_plength(441, 0, "max").value,
            "l1_max": M.extremal_plength(441, 1, "max").value,
            "l1_min": M.extremal_plength(441, 1, "min").value,
            "linf_max": M.extremal_plength(441, INF, "max").value,
        }
        details.update(values)
        if values != {"l0_max": 2, "l1_max": 2, "l1_min": 2, "linf_max": 2}:
            return values
        return None

    return {"x": 441}, body


def _check_stable_power_atoms(M: Acm, cfg: RunConfig):
    bases = [441, 225]
    n_max = 10

    def body(details):
        for base in bases:
            supports = []
            l0 = []
            for n in range(1, n_max + 1):
                fzs = M.factorizations(base**n, cfg.budget)
                supports.append(sorted({atom for fz in fzs for atom, _ in fz}))
                l0.append(max(len(fz) for fz in fzs))
            if any(s != supports[1] for s in supports[1:]):
                return {"x": base, "supports": supports}
            if any(v != l0[1] for v in l0[1:]):
                return {"x": base, "l0_max": l0}
            details[str(base)] = {"atoms": supports[-1], "l0_max": l0[-1]}
        return None

    return {"x": bases, "n_max": n_max}, body


# ---------------------------------------------------------------------------
# Claim table: (claim id, the subject it is limited to or None for every
# subject, check, extra check arguments: the mode, base or bounds the claim
# is checked at), in the order the checks run. A monoid is named by (a, b).
# ---------------------------------------------------------------------------

ACM_CLAIMS = (
    ("power-sandwich", None, _check_power_sandwich, 8),
    ("smooth-classifier", (4, 6), _check_smooth_classifier, 1_000_000),
    ("max-support-closed-28", (4, 6), _check_closed_support, 28, 3, 8, acm46.ell0_max_28_closed),
    ("max-support-closed-40", (4, 6), _check_closed_support, 40, 1, 8, acm46.ell0_max_40_closed),
    ("construction-70", (4, 6), _check_construction_70),
    ("good-atom-lower-bound", (4, 6), _check_good_atom_bound, 8),
    ("evil-slots-bounded", (4, 6), _check_evil_slots, 4),
    ("hilbert-441", (1, 4), _check_hilbert),
    ("stable-power-atoms", (1, 4), _check_stable_power_atoms),
    ("two-atom-split", (6, 6), _check_two_atom_split, 20_000),
)
