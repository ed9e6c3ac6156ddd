"""Arithmetical congruence monoids: {1} together with one residue class.

M(a, b) is the multiplicative monoid {1} union {x >= 1 : x == a mod b},
which is closed under multiplication exactly when a^2 == a mod b. The
divisors of x are exponent vectors over its prime support, kept as bitsets
by ExponentLattice; the atoms dividing x are the members that are no sum of
two, found with one sumset. Factorizations are enumerated over those atoms in
nondecreasing order; p = 1 is found without enumerating, from one bitset per
k of the sums of exactly k atoms. Atoms up to a limit come from one sieve.
Elements are factored by trial division up to a fixed bound with a primality
proof for the cofactor left over; an input whose cofactor is composite or
cannot be proven prime raises BudgetExceededError.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, isqrt

from . import factor as _factor
from .errors import BudgetExceededError, NotIdempotentError, NotInMonoidError

DEFAULT_ACM_CAP = 1_000_000

# Largest bitset table of the p = 1 search, and largest atom sieve, in bytes.
REACH_BYTE_LIMIT = 64 << 20

# Trial division stops at this divisor; a cofactor below its square is prime.
TRIAL_DIVISION_LIMIT = 10**6

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981

AcmFactorization = tuple[tuple[int, int], ...]
"""Canonical multiset of atoms: ((atom, multiplicity), ...) sorted by atom."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(x: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of x, ascending by prime.

    Raises BudgetExceededError when the part of x without prime factors up
    to TRIAL_DIVISION_LIMIT is neither below that limit squared nor proven
    prime, i.e. it has two or more large prime factors or is too large for
    the exact primality test.
    """
    out = []
    for d in chain((2,), range(3, TRIAL_DIVISION_LIMIT + 1, 2)):
        if d * d > x:
            break
        if x % d == 0:
            e = 0
            while x % d == 0:
                e += 1
                x //= d
            out.append((d, e))
    if x > 1:
        if x > TRIAL_DIVISION_LIMIT**2 and not (x < _MR_EXACT_BELOW and _is_prime(x)):
            raise BudgetExceededError(
                f"cannot factor {x}: no prime factor up to {TRIAL_DIVISION_LIMIT}"
                " and not provably prime"
            )
        out.append((x, 1))
    return out


def _divisors(x: int) -> list[int]:
    ds = [1]
    for p, e in _prime_powers(x):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    ds.sort()
    return ds


class ExponentLattice:
    """Sets of exponent vectors v <= e, each set held as one int.

    Vector v is bit sum(v[j] * strides[j]). Digit j runs over 2 * (e[j] + 1)
    values, so the sum of two vectors <= e never carries into the next digit:
    adding a vector u to every member of a set is a shift by u's index, and
    masking with `valid` keeps the sums that are still <= e.
    """

    __slots__ = ("e", "strides", "nbits", "valid")

    def __init__(self, e) -> None:
        self.e = tuple(e)
        strides = []
        stride = valid = 1
        for ej in self.e:
            strides.append(stride)
            # ej + 1 copies of the lower digits' mask, one per value of digit j
            valid *= ((1 << (ej + 1) * stride) - 1) // ((1 << stride) - 1)
            stride *= 2 * (ej + 1)
        self.strides = tuple(strides)
        self.nbits = stride
        self.valid = valid

    def index(self, v) -> int:
        return sum(vj * s for vj, s in zip(v, self.strides))

    def check_size(self, count: int) -> None:
        """Raise BudgetExceededError before count bitsets outgrow REACH_BYTE_LIMIT."""
        need = count * self.nbits // 8
        if need > REACH_BYTE_LIMIT:
            raise BudgetExceededError(
                f"reachability over exponents {self.e} needs {need} bytes,"
                f" more than {REACH_BYTE_LIMIT}"
            )

    def layers(self, offs: list[int]):
        """Yield L_0 = {0}, L_1, ... until empty: L_k holds the sums of
        exactly k vectors, repetition allowed, from those at indices offs."""
        layer = 1
        while layer:
            yield layer
            nxt = 0
            for off in offs:
                nxt |= layer << off
            layer = nxt & self.valid

    def capped_reach(self, offs: list[int], cap: int) -> int:
        """Sums that use each of the vectors with indices offs at most cap times."""
        reach = 1
        for off in offs:
            step = reach
            for _ in range(cap):
                step = (step << off) & self.valid
                if not step:
                    break
                reach |= step
        return reach

    def suffix_layers(self, offs: list[int], kmax: int) -> list[list[int]]:
        """L[i][k] for k <= kmax: sums of exactly k vectors from offs[i:]."""
        valid = self.valid
        out = [[1] + [0] * kmax]
        for off in reversed(offs):
            nxt = out[-1]
            row = [1]
            for k in range(1, kmax + 1):
                row.append(nxt[k] | ((row[-1] << off) & valid))
            out.append(row)
        out.reverse()
        return out


class Acm:
    """The monoid {1} union {x == a mod b} under multiplication."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError("need a, b >= 1")
        if (a * a - a) % b != 0:
            raise NotIdempotentError(f"{a}^2 != {a} mod {b}")
        a = a % b
        self.a = a if a else b
        self.b = b

    def contains(self, x: int) -> bool:
        if x < 1:
            raise ValueError("elements are positive integers")
        return x == 1 or x % self.b == self.a % self.b

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def is_atom(self, x: int) -> bool:
        """No divisor pair d * (x/d) with both factors non-unit members."""
        if x == 1 or not self.contains(x):
            raise NotInMonoidError(f"{x} is not a non-unit element of {self!r}")
        return not any(1 < d < x and d in self and x // d in self for d in _divisors(x))

    def atoms_up_to(self, limit: int) -> list[int]:
        """All atoms <= limit, ascending: a sieve of one byte per member marks
        each u * v <= limit for members u <= v. Raises BudgetExceededError
        before it would exceed REACH_BYTE_LIMIT bytes."""
        b = self.b
        start = self.a if self.a > 1 else self.a + b
        if limit < start:
            return []
        count = (limit - start) // b + 1
        if count > REACH_BYTE_LIMIT:
            raise BudgetExceededError(
                f"atom sieve to {limit} needs {count} bytes, more than {REACH_BYTE_LIMIT}"
            )
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
        if not self.contains(x):
            raise NotInMonoidError(f"{x} is not in {self!r}")
        if x == 1:
            return [()]
        atom_divs = [u for u, _, _ in self._atom_divisors(x)[2]]
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

    def extremal_plength(self, x: int, p, mode: str) -> _factor.ExtremalResult:
        """Exact optimum of the p-length over all factorizations of x.

        The p-length of a multiset is that of its multiplicity vector. The
        witness is the lexicographically least canonical multiset among the
        optima; for x == 1 the value is 0 with the empty witness. p == 1 is
        solved by reachability over x's divisor lattice and raises
        BudgetExceededError when its bitsets would exceed REACH_BYTE_LIMIT
        bytes; other exponents take the optimum over factorizations(x).
        """
        _factor.check_exponent(p)
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if not self.contains(x):
            raise NotInMonoidError(f"{x} is not in {self!r}")
        if x == 1:
            return _factor.ExtremalResult(0, ())
        if p == 1:
            return self._extremal_length(x, mode)
        best = None
        best_fz = None
        for fz in self.factorizations(x):  # canonical ascending order fixes tie-breaking
            v = _factor.plength([m for _, m in fz], p)
            if best is None or (v < best if mode == "min" else v > best):
                best = v
                best_fz = fz
        if best is None:
            raise NotInMonoidError(f"{x} has no factorization in {self!r}")
        return _factor.ExtremalResult(best, best_fz)

    def _atom_divisors(self, x: int):
        """(prime powers of x, its lattice, atoms dividing x ascending as
        (atom, bit index, number of prime factors)) for a non-unit member x."""
        pps = _prime_powers(x)
        lat = ExponentLattice([e for _, e in pps])
        lat.check_size(2)
        divs = [(1, 0, 0)]  # (divisor, bit index, number of prime factors)
        for (q, e), stride in zip(pps, lat.strides):
            steps = [(q**i, i * stride, i) for i in range(e + 1)]
            divs = [(d * f, at + s, w + i) for d, at, w in divs for f, s, i in steps]
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
        return pps, lat, sorted(t for t in members if not sums >> t[1] & 1)

    def _extremal_length(self, x: int, mode: str) -> _factor.ExtremalResult:
        """The p == 1 case of extremal_plength, for a non-unit member x."""
        pps, lat, atoms = self._atom_divisors(x)
        # k atoms have at least k * min(w) prime factors, and k * v_q(g)
        # factors q for g the gcd of the atoms
        kmax = sum(lat.e) // min(w for _, _, w in atoms)
        g = gcd(*(u for u, _, _ in atoms))
        for q, e in pps:
            low = 0
            while g % q == 0:
                g //= q
                low += 1
            if low:
                kmax = min(kmax, e // low)
        lat.check_size((len(atoms) + 1) * (kmax + 1))
        layers = lat.suffix_layers([at for _, at, _ in atoms], kmax)
        top = lat.index(lat.e)
        hits = [k for k, layer in enumerate(layers[0]) if layer >> top & 1]
        value = k = hits[0] if mode == "min" else hits[-1]  # every member factors
        # least canonical multiset: at each atom in ascending order, the
        # smallest positive multiplicity the later atoms can complete, else 0
        rem, at_rem = x, top
        witness = []
        for i, (u, at, _) in enumerate(atoms):
            if not k:
                break
            nxt = layers[i + 1]
            um = 1
            for m in range(1, k + 1):
                um *= u
                if rem % um:
                    break
                if nxt[k - m] >> (at_rem - m * at) & 1:
                    witness.append((u, m))
                    rem //= um
                    at_rem -= m * at
                    k -= m
                    break
        return _factor.ExtremalResult(value, tuple(witness))

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
