"""Exact scalars, p-adic valuations, and integer-lattice linear algebra.

Rational numbers are plain ``fractions.Fraction`` (always reduced, exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import DomainError


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n.  n must be nonzero."""
    if n == 0:
        raise DomainError("padic_valuation(0, p) is infinite")
    if p < 2:
        raise DomainError(f"{p} is not a prime")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def factorial_valuation(m: int, p: int) -> int:
    """p-adic valuation of m! by the Legendre sum of integer parts
    [m/p] + [m/p^2] + ...
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def binom_valuation(p: int, n: int, k: int) -> int:
    """p-adic valuation of C(p^(n+1), k*p^n) for 0 < k < p.

    Computed from factorial valuations; equals 1 for every valid input
    (the defining property that makes -p/C(p^(n+1), k*p^n) a p-local unit
    multiple of 1/p).
    """
    if not 0 < k < p:
        raise DomainError(f"need 0 < k < p, got k={k}, p={p}")
    top = p ** (n + 1)
    a = k * p**n
    return factorial_valuation(top, p) - factorial_valuation(a, p) - factorial_valuation(top - a, p)


def binom_valuation_direct(p: int, n: int, k: int) -> int:
    """Same quantity as binom_valuation but by factoring the binomial
    coefficient itself; kept as an independent cross-check."""
    if not 0 < k < p:
        raise DomainError(f"need 0 < k < p, got k={k}, p={p}")
    return padic_valuation(comb(p ** (n + 1), k * p**n), p)


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DomainError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DomainError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Basis of the saturated lattice {v in Z^cols : m @ v = 0}.

    Row-reduces [m^T | I] with unimodular integer row operations; the
    identity-part of every row whose m^T-part vanishes is a kernel vector,
    and together they form a basis of ker(m) intersected with Z^cols.

    Work row j is held in three parts: its entry in the column being
    eliminated (``lead[j]``), its m^T entries after that column, and its
    identity part.  The last two are _PackedRows, so reducing every row
    below the pivot is one big-integer multiply-subtract per row and part.
    """
    r, c = m.rows, m.cols
    e = m.entries
    if r == 0:
        return [[int(t == j) for t in range(c)] for j in range(c)]
    lead = list(e[:c])
    tail = _PackedRows([list(e[c + j::c]) for j in range(c)])
    ident = _PackedRows.identity(c)

    pivot_row = 0
    for col in range(r):
        # euclidean elimination of column `col` below pivot_row: the first
        # row of least nonzero |lead| is the pivot; reduce the rest by it
        while True:
            size = list(map(abs, lead[pivot_row:]))
            least = min(filter(None, size), default=0)
            if not least:
                break
            i_min = pivot_row + size.index(least)
            lead[pivot_row], lead[i_min] = lead[i_min], lead[pivot_row]
            piv, below = lead[pivot_row], lead[pivot_row + 1:]
            qs = [a // piv for a in below]
            lead[pivot_row + 1:] = [a % piv for a in below]
            for part in (tail, ident):
                part.swap(pivot_row, i_min)
                part.subtract(pivot_row, qs)
            if not any(lead[pivot_row + 1:]):
                break
        if pivot_row < c and lead[pivot_row]:
            pivot_row += 1
        if col + 1 < r:
            # the rows from pivot_row on are zero in this column and the
            # rows above it are done with: the next column moves into lead
            tail.pop_field(pivot_row, lead)
    return [_sign_normalize(ident.unpack(i)) for i in range(pivot_row, c)]


class _PackedRows:
    """Integer rows of equal length, each packed into one int by Kronecker
    substitution: entry t is a signed field of ``width`` bits at bit
    t*width, so subtracting a multiple of one row from another is one
    big-integer multiply-subtract.

    ``bound`` bounds |entry| in every row still in use.  Before a
    subtraction could reach ``limit`` the rows are measured and, if need
    be, every field is widened, so no entry ever leaves its field and
    every row decodes exactly.
    """

    def __init__(self, rows: list[list[int]]):
        self.fields = len(rows[0]) if rows else 0
        self.bound = max((abs(x) for row in rows for x in row), default=0)
        self._set_width(_room_for(self.bound))
        nbytes, half = self.width // 8, self.limit
        self.rows = [int.from_bytes(b"".join((x + half).to_bytes(nbytes, "little") for x in row),
                                    "little") - self._offset for row in rows]

    @classmethod
    def identity(cls, n: int) -> "_PackedRows":
        packed = cls([])
        packed.fields, packed.bound = n, 1
        packed._set_width(_room_for(1))
        packed.rows = [1 << (t * packed.width) for t in range(n)]
        return packed

    def _set_width(self, width: int) -> None:
        self.width, self.limit = width, 1 << (width - 1)
        self._offset = _field_offset(self.fields, width, width)

    def _raw(self, i: int) -> bytes:
        """Row i as bytes, entry + limit in each field: every field is
        non-negative, so the fields read off without borrows."""
        return (self.rows[i] + self._offset).to_bytes(self.width // 8 * self.fields, "little")

    def unpack(self, i: int) -> list[int]:
        nbytes, half, raw = self.width // 8, self.limit, self._raw(i)
        return [int.from_bytes(raw[t:t + nbytes], "little") - half
                for t in range(0, len(raw), nbytes)]

    def _measure(self, i: int) -> int:
        """A power of two bounding |entry| in row i, at most 2^8 times too
        large: 2^(width - 8k) when the top k bytes of every field are sign
        bytes (0x00 above an entry >= 0, 0xff above a negative one; the
        added limit turns the topmost into 0x80 or 0x7f)."""
        nbytes, raw = self.width // 8, self._raw(i)
        top = raw[nbytes - 1::nbytes]
        if top.translate(None, b"\x7f\x80"):
            return self.limit
        sign = top.translate(_SIGN_BYTE)
        k = 1
        while k < nbytes and raw[nbytes - 1 - k::nbytes] == sign:
            k += 1
        return 1 << (self.width - 8 * k)

    def swap(self, i: int, j: int) -> None:
        rows = self.rows
        rows[i], rows[j] = rows[j], rows[i]

    def subtract(self, j: int, qs: list[int]) -> None:
        """rows[j + 1 + t] -= qs[t] * rows[j] for every t.  The rows above
        j are done with, so ``bound`` need not cover them from now on."""
        q_max = max(map(abs, qs), default=0)
        if not q_max:
            return
        step = q_max * min(self._measure(j), self.bound)
        if self.bound + step >= self.limit:
            # the carried bound overestimates: measure the rows
            self.bound = max(self._measure(i) for i in range(j, len(self.rows)))
            if self.bound + step >= self.limit:
                self._widen(j, _room_for(self.bound + step))
        prow = self.rows[j]
        self.rows[j + 1:] = [x - q * prow if q else x for x, q in zip(self.rows[j + 1:], qs)]
        self.bound += step

    def _widen(self, start: int, width: int) -> None:
        """Give every field ``width`` bits; the rows above start are done
        with and stay as they are."""
        old, new, n = self.width // 8, width // 8, self.fields
        raw = b"".join(self._raw(i) for i in range(start, len(self.rows)))
        # each old field, still offset by the old limit, goes to the low
        # bytes of a new field
        buf = bytearray(new * len(raw) // old)
        for b in range(old):
            buf[b::new] = raw[b::old]
        self._set_width(width)
        shift, size = _field_offset(n, width, 8 * old), new * n
        self.rows[start:] = [int.from_bytes(buf[k:k + size], "little") - shift
                             for k in range(0, len(buf), size)]

    def pop_field(self, start: int, out: list[int]) -> None:
        """Move field 0 of rows start.. into out; the rows above start are
        done with and are not read again."""
        width, half, mask = self.width, self.limit, (1 << self.width) - 1
        rows = self.rows
        for i in range(start, len(rows)):
            x = rows[i]
            low = ((x & mask) ^ half) - half
            out[i] = low
            rows[i] = (x - low) >> width
        self.fields -= 1
        self._offset >>= width


# the top byte of a field, offset by the limit -> the sign byte below it
_SIGN_BYTE = bytes.maketrans(b"\x80\x7f", b"\x00\xff")


def _room_for(bound: int) -> int:
    """A field width, in whole bytes, with 48 bits to spare over bound: the
    measured rows grow by about 20 bits per eliminated column, so a
    widening is rare and each one wastes little."""
    return (bound.bit_length() + 48 + 7) // 8 * 8


def _field_offset(n: int, width: int, bits: int) -> int:
    """2^(bits-1) in each of n fields of width bits."""
    return int.from_bytes((1 << (bits - 1)).to_bytes(width // 8, "little") * n, "little")


def _sign_normalize(v: list[int]) -> list[int]:
    for x in v:
        if x < 0:
            return [-y for y in v]
        if x > 0:
            break
    return list(v)


def solve_unique(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a @ x = b exactly over Q; the solution must exist and be unique
    (full column rank), otherwise DomainError."""
    rows = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(a, b)]
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            raise DomainError("underdetermined system: no unique solution")
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            raise DomainError("inconsistent system")
    return [rows[i][ncols] for i in range(ncols)]


def zlocal_kernel(matrix: list[list[Fraction | int]], p: int) -> list[list[int]]:
    """Basis, as a Z_(p)-module, of {v : matrix @ v = 0} inside the p-local
    lattice.

    All entries must be p-local (denominators coprime to p).  Denominators
    are cleared row by row (row scaling does not change the kernel), an
    integer kernel basis is computed, and each basis vector is divided by p
    while it stays inside the kernel lattice.
    """
    if not matrix:
        return []
    rows = []
    for row in matrix:
        lcm = 1
        for x in row:
            if x.denominator % p == 0:
                raise DomainError(f"entry {x} is not {p}-local")
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
    m = IntMatrix.from_rows(rows)
    basis = kernel_basis(m)
    # saturation backstop: no basis vector may be p times a lattice element
    out = []
    for v in basis:
        while all(x % p == 0 for x in v) and any(v):
            v = [x // p for x in v]
        out.append(v)
    return out
