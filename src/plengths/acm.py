"""Arithmetical congruence monoids: {1} together with one residue class.

M(a, b) is the multiplicative monoid {1} union {x >= 1 : x == a mod b},
which is closed under multiplication exactly when a^2 == a mod b. The
divisors of x are exponent vectors over its prime support, kept as bitsets
by ExponentLattice; the atoms dividing x are the members that are no sum of
two, found with one sumset. The extremal p-lengths for p in {0, 1, inf}, and
the least factorization attaining each, are read off one suffix table over
those atoms without enumerating; p >= 2 takes the optimum over all
factorizations, enumerated over the atoms in nondecreasing order. Atoms up
to a limit come from one sieve. Elements are factored by trial division up
to a fixed bound with a primality proof for the cofactor left over; an input
whose cofactor is composite or cannot be proven prime raises
BudgetExceededError.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from operator import mul

from .common import (
    INF,
    ExtremalResult,
    _prime_powers,
    check_bytes,
    check_exponent,
    check_integer,
    check_mode,
    plength,
)
from .errors import BudgetExceededError, NotIdempotentError, NotInMonoidError

DEFAULT_ACM_CAP = 1_000_000

# Largest suffix table of ExponentLattice, and largest atom sieve, in bytes.
REACH_BYTE_LIMIT = 64 << 20

AcmFactorization = tuple[tuple[int, int], ...]
"""Canonical multiset of atoms: ((atom, multiplicity), ...) sorted by atom."""


def _divisors(x: int) -> list[int]:
    ds = [1]
    for p, e in _prime_powers(x):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    ds.sort()
    return ds


def _most(e, u) -> int:
    """The largest m with m * u <= e, for a nonzero vector u."""
    return min(ej // uj for ej, uj in zip(e, u) if uj)


class ExponentLattice:
    """Sets of exponent vectors v <= e, each set held as one int.

    Vector v is bit sum(v[j] * strides[j]). Digit j runs over 2 * (e[j] + 1)
    values, so the sum of two vectors <= e never carries into the next digit:
    adding a vector u to every member of a set is a shift by u's index, and
    masking with `valid` keeps the sums that are still <= e. Adding m * u
    takes m such steps, since one shift by m times u's index could carry.

    The extremal p-lengths of e for p in {0, 1, inf} come from one suffix
    table over the atoms u_0, u_1, ... in canonical order: T[i][s] holds the
    vectors that the atoms i, i+1, ... sum to from state s, where the state
    counts what the objective still needs (atoms left for p = 1, distinct
    atoms left for p = 0, nothing for p = inf min at a fixed cap, and whether
    a multiplicity of the maximum is still owed for p = inf max).
    """

    __slots__ = ("e", "strides", "nbits", "valid", "top")

    def __init__(self, e) -> None:
        self.e = tuple(e)
        strides = []
        stride = 1
        for ej in self.e:
            strides.append(stride)
            stride *= 2 * (ej + 1)
        self.strides = tuple(strides)
        self.nbits = stride
        self.check_size(2)  # the mask below, and the fewest bitsets any table holds
        valid = 1
        for ej, stride in zip(self.e, strides):
            # ej + 1 copies of the lower digits' mask, one per value of digit
            # j, by doubling: each step appends up to as many copies as it has
            copies = 1
            while copies <= ej:
                more = min(copies, ej + 1 - copies)
                valid |= (valid & ((1 << more * stride) - 1)) << copies * stride
                copies += more
        self.valid = valid
        self.top = self.index(self.e)

    def index(self, v) -> int:
        return sum(map(mul, v, self.strides))

    def check_size(self, count: int) -> None:
        """Raise BudgetExceededError before count bitsets outgrow REACH_BYTE_LIMIT."""
        check_bytes(
            count * self.nbits // 8, REACH_BYTE_LIMIT, f"reachability over exponents {self.e}"
        )

    def reach(self, s: int, off: int, lo: int = 0, hi: int | None = None) -> int:
        """The union of s + m * u over lo <= m <= hi (m unbounded when hi is
        None), for the vector u with index off."""
        valid = self.valid
        for _ in range(lo):
            s = (s << off) & valid
        out = s
        while s and (hi is None or lo < hi):
            s = (s << off) & valid
            out |= s
            lo += 1
        return out

    def _suffix_table(self, offs: list[int], width: int, row, keep: bool) -> list[list[int]]:
        """T[i] = row(T[i + 1], offs[i]) from T[len(offs)] = [{0}, {}, ...],
        `width` states each: every T[i] when keep, else [T[0]] alone."""
        self.check_size((len(offs) + 1 if keep else 2) * width)
        table = [[1] + [0] * (width - 1)]
        for off in reversed(offs):
            if keep:
                table.append(row(table[-1], off))
            else:
                table[0] = row(table[0], off)
        table.reverse()
        return table

    def _solve(self, atoms: list, p, mode: str, keep: bool):
        """(optimum, suffix table, start state, next state of (state, m)) for
        the atom vectors `atoms`; the table is None when keep is false."""
        offs = [self.index(u) for u in atoms]
        top, valid = self.top, self.valid
        if p == INF and mode == "max":
            full = 1
            for off in offs:
                full = self.reach(full, off)
            # the largest j with j * u <= e and e - j * u a sum of atoms or 0
            best = max(
                (j for u, off in zip(atoms, offs) for j in range(1, _most(self.e, u) + 1)
                 if full >> (top - j * off) & 1),
                default=0,
            )
            if not best:
                raise NotInMonoidError(f"exponents {self.e} are no sum of atoms")
            if not keep:
                return best, None, None, None

            def row(nxt, off):  # state 1: a multiplicity >= best is still owed
                owed = self.reach(nxt[1], off) | self.reach(nxt[0], off, best)
                return [self.reach(nxt[0], off), owed]

            table = self._suffix_table(offs, 2, row, True)
            return best, table, 1, lambda s, m: 0 if m >= best else s
        if p == INF:
            for cap in range(1, max(self.e) + 1):
                table = self._suffix_table(
                    offs, 1, lambda nxt, off: [self.reach(nxt[0], off, 0, cap)], keep
                )
                if table[0][0] >> top & 1:
                    return cap, table, 0, lambda s, m: 0 if m <= cap else None
            raise NotInMonoidError(f"exponents {self.e} are no sum of atoms")
        # k atoms have at least k * min |u| prime factors in all, and at
        # least k * min u_j of prime j
        kmax = sum(self.e) // min(map(sum, atoms))
        for ej, low in zip(self.e, map(min, zip(*atoms))):
            if low:
                kmax = min(kmax, ej // low)
        if p == 1:  # T[i][k]: sums of exactly k atoms from i on

            def row(nxt, off):
                out = [1]
                for k in range(1, len(nxt)):
                    out.append(nxt[k] | ((out[-1] << off) & valid))
                return out

        else:  # T[i][t]: sums with exactly t distinct atoms from i on
            kmax = min(kmax, len(atoms))

            def row(nxt, off):
                return [1] + [nxt[t] | self.reach(nxt[t - 1], off, 1) for t in range(1, len(nxt))]

        table = self._suffix_table(offs, kmax + 1, row, keep)
        hits = [k for k, sums in enumerate(table[0]) if sums >> top & 1]
        if not hits:
            raise NotInMonoidError(f"exponents {self.e} are no sum of atoms")
        value = hits[0] if mode == "min" else hits[-1]
        if p == 1:
            return value, table, value, lambda s, m: s - m if m <= s else None
        return value, table, value, lambda s, m: s - 1 if s else None

    def optimum(self, atoms: list, p, mode: str) -> int:
        """Least or greatest p-length, p in {0, 1, inf}, over the ways to
        write e as a sum of the vectors `atoms`. Raises NotInMonoidError when
        there is none."""
        return self._solve(atoms, p, mode, False)[0]

    def least_optimum(self, atoms: list, p, mode: str) -> tuple[int, list[tuple[int, int]]]:
        """The optimum and, as (atom position, multiplicity) pairs, the
        lexicographically least multiset of `atoms`, taken in their order,
        that attains it: at each atom the least m >= 1 whose remainder the
        later atoms complete, else none of it."""
        value, table, state, step = self._solve(atoms, p, mode, True)
        rem, at = list(self.e), self.top
        out = []
        for i, u in enumerate(atoms):
            off = self.index(u)
            nxt = table[i + 1]
            for m in range(1, _most(rem, u) + 1):
                s = step(state, m)
                if s is not None and nxt[s] >> (at - m * off) & 1:
                    out.append((i, m))
                    state, at = s, at - m * off
                    rem = [r - m * uj for r, uj in zip(rem, u)]
                    break
        return value, out


class Acm:
    """The monoid {1} union {x == a mod b} under multiplication."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        a, b = check_integer(a, "a"), check_integer(b, "b")
        if a < 1 or b < 1:
            raise ValueError("need a, b >= 1")
        if (a * a - a) % b != 0:
            raise NotIdempotentError(f"{a}^2 != {a} mod {b}")
        a = a % b
        self.a = a if a else b
        self.b = b

    def contains(self, x: int) -> bool:
        x = check_integer(x, "x")
        if x < 1:
            raise ValueError("elements are positive integers")
        return x == 1 or x % self.b == self.a % self.b

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def is_atom(self, x: int) -> bool:
        """No divisor pair d * (x/d) with both factors non-unit members."""
        x = check_integer(x, "x")
        if x == 1 or not self.contains(x):
            raise NotInMonoidError(f"{x} is not a non-unit element of {self!r}")
        return not any(1 < d < x and d in self and x // d in self for d in _divisors(x))

    def atoms_up_to(self, limit: int) -> list[int]:
        """All atoms <= limit, ascending: a sieve of one byte per member marks
        each u * v <= limit for members u <= v. Raises BudgetExceededError
        before it would exceed REACH_BYTE_LIMIT bytes."""
        limit = check_integer(limit, "limit")
        b = self.b
        start = self.a if self.a > 1 else self.a + b
        if limit < start:
            return []
        count = (limit - start) // b + 1
        check_bytes(count, REACH_BYTE_LIMIT, f"atom sieve to {limit}")
        atom = bytearray(b"\x01") * count
        # member i is start + i * b; u * (u + j * b) is member (u*u - start) // b + j * u
        for u in range(start, isqrt(limit) + 1, b):
            first = (u * u - start) // b
            atom[first::u] = bytes(len(range(first, count, u)))
        return list(compress(range(start, limit + 1, b), atom))

    def factorizations(self, x: int, cap: int = DEFAULT_ACM_CAP) -> list[AcmFactorization]:
        """All multisets of atoms with product x, each in canonical form.

        x == 1 has exactly the empty factorization. Raises
        BudgetExceededError once more than cap multisets are found.
        """
        x = check_integer(x, "x")
        if not self.contains(x):
            raise NotInMonoidError(f"{x} is not in {self!r}")
        if x == 1:
            return [()]
        atom_divs = [u for u, _, _ in self._atom_divisors(x)[1]]
        atoms = set(atom_divs)
        out: list[AcmFactorization] = []

        def rec(rem: int, lo: int, acc: list[int]) -> None:
            for idx in range(lo, len(atom_divs)):
                d = atom_divs[idx]
                if d * d > rem:
                    break
                if rem % d == 0:
                    q = rem // d
                    # the cofactor splits into atoms >= d or is such an atom
                    rec(q, idx, acc + [d])
            if rem >= (acc[-1] if acc else 2) and rem > 1:
                if rem in atoms:  # rem divides x
                    mult: list[tuple[int, int]] = []
                    for u in acc + [rem]:
                        if mult and mult[-1][0] == u:
                            mult[-1] = (u, mult[-1][1] + 1)
                        else:
                            mult.append((u, 1))
                    out.append(tuple(mult))
                    if len(out) > cap:
                        raise BudgetExceededError(f"more than {cap} factorizations of {x}")

        rec(x, 0, [])
        out.sort()
        return out

    def extremal_plength(
        self, x: int, p, mode: str, cap: int = DEFAULT_ACM_CAP
    ) -> ExtremalResult:
        """Exact optimum of the p-length over all factorizations of x.

        The p-length of a multiset is that of its multiplicity vector. The
        witness is the lexicographically least canonical multiset among the
        optima; for x == 1 the value is 0 with the empty witness. For p in
        {0, 1, inf} both come from the suffix tables of x's divisor lattice
        (ExponentLattice.least_optimum), which raise BudgetExceededError when
        they would exceed REACH_BYTE_LIMIT bytes. p >= 2 stays on enumeration:
        the optimum over factorizations(x, cap).
        """
        x = check_integer(x, "x")
        check_exponent(p)
        check_mode(mode)
        if not self.contains(x):
            raise NotInMonoidError(f"{x} is not in {self!r}")
        if x == 1:
            return ExtremalResult(0, ())
        if p in (0, 1, INF):
            lat, atoms = self._atom_divisors(x)
            value, mults = lat.least_optimum([v for _, _, v in atoms], p, mode)
            return ExtremalResult(value, tuple((atoms[i][0], m) for i, m in mults))

        def length(fz):
            return plength([m for _, m in fz], p)

        # min and max return the first optimum in canonical ascending order
        best = (min if mode == "min" else max)(self.factorizations(x, cap), key=length)
        return ExtremalResult(length(best), best)

    def _atom_divisors(self, x: int):
        """(x's divisor lattice, atoms dividing x ascending as (atom, bit
        index, exponent vector)) for a non-unit member x."""
        pps = _prime_powers(x)
        lat = ExponentLattice([e for _, e in pps])
        divs = [(1, 0, ())]  # (divisor, bit index, exponent vector)
        for (q, e), stride in zip(pps, lat.strides):
            steps = [(q**i, i * stride, i) for i in range(e + 1)]
            divs = [(d * f, at + s, v + (i,)) for d, at, v in divs for f, s, i in steps]
        res = self.a % self.b
        members = [t for t in divs[1:] if t[0] % self.b == res]  # divs[0] is 1
        # an atom of the monoid dividing x is a member that is no sum of two
        bits = bytearray(lat.nbits // 8 + 1)
        for _, at, _ in members:
            bits[at >> 3] |= 1 << (at & 7)
        mset = int.from_bytes(bits, "little")
        sums = 0
        for _, at, _ in members:
            sums |= mset << at
        return lat, sorted(t for t in members if not sums >> t[1] & 1)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"Acm({self.a}, {self.b})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Acm) and (other.a, other.b) == (self.a, self.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))


def factorization_to_json(fz: AcmFactorization) -> list[dict]:
    return [{"atom": atom, "mult": mult} for atom, mult in fz]
