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
    """
    r, c = m.rows, m.cols
    # work rows: c rows of length r + c
    mt = [[m.entries[i * c + j] for i in range(r)] for j in range(c)]
    work = [mt[j] + [1 if t == j else 0 for t in range(c)] for j in range(c)]

    pivot_row = 0
    for col in range(r):
        # euclidean elimination of column `col` below pivot_row
        while True:
            nz = [i for i in range(pivot_row, c) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(work[i][col]))
            work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
            done = True
            piv = work[pivot_row][col]
            for i in range(pivot_row + 1, c):
                if work[i][col] != 0:
                    q = work[i][col] // piv
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    basis = [row[r:] for row in work[pivot_row:] if all(x == 0 for x in row[:r])]
    return [_sign_normalize(v) for v in basis]


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
        scaled = [Fraction(x) for x in row]
        lcm = 1
        for x in scaled:
            if x.denominator % p == 0:
                raise DomainError(f"entry {x} is not {p}-local")
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        int_row = [int(x * lcm) for x in scaled]
        rows.append(int_row)
    m = IntMatrix.from_rows(rows)
    basis = kernel_basis(m)
    # saturation backstop: no basis vector may be p times a lattice element
    out = []
    for v in basis:
        while all(x % p == 0 for x in v) and any(v):
            v = [x // p for x in v]
        out.append(v)
    return out
