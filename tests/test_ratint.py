import random
from fractions import Fraction
from math import comb, factorial

import pytest
from test_ptypical import _rank_mod_p

from fgl.errors import DomainError
from fgl.ratint import (
    IntMatrix,
    binom_valuation,
    binom_valuation_direct,
    factorial_valuation,
    kernel_basis,
    padic_valuation,
    zlocal_kernel,
)


def test_padic_valuation_basic():
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(-12, 2) == 2
    assert padic_valuation(17147530400, 2) == 5
    assert padic_valuation(7, 2) == 0


def test_padic_valuation_zero_rejected():
    with pytest.raises(DomainError):
        padic_valuation(0, 2)


def test_factorial_valuation_small():
    assert factorial_valuation(4, 2) == 3  # 4! = 24
    assert factorial_valuation(9, 3) == 4  # 9! = 362880 = 3^4 * 4480
    assert factorial_valuation(0, 5) == 0


def test_factorial_valuation_matches_direct_factorial():
    for p in (2, 3, 5):
        for m in range(1, 41):
            assert factorial_valuation(m, p) == padic_valuation(factorial(m), p)


def test_binom_valuation_examples():
    assert binom_valuation(2, 0, 1) == 1  # C(2,1) = 2
    assert binom_valuation(2, 1, 1) == 1  # C(4,2) = 6
    assert binom_valuation(3, 1, 2) == 1  # C(9,6) = 84 = 2^2*3*7
    assert padic_valuation(comb(9, 6), 3) == 1


def test_binom_valuation_always_one():
    for p in (2, 3, 5):
        for n in range(4):
            for k in range(1, p):
                assert binom_valuation(p, n, k) == 1
                assert binom_valuation_direct(p, n, k) == 1


def test_binom_valuation_range_check():
    with pytest.raises(DomainError):
        binom_valuation(3, 1, 3)
    with pytest.raises(DomainError):
        binom_valuation(3, 1, 0)


def test_kernel_basis_simple():
    m = IntMatrix.from_rows([[1, 1]])
    assert kernel_basis(m) == [[1, -1]]
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert kernel_basis(m) == []


def _list_kernel_basis(m: IntMatrix) -> list[list[int]]:
    """The row operations of kernel_basis on plain lists of ints."""
    r, c = m.rows, m.cols
    work = [[m.entries[i * c + j] for i in range(r)] + [int(t == j) for t in range(c)]
            for j in range(c)]
    pivot_row = 0
    for col in range(r):
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
    return [[-x for x in v] if next((x for x in v if x), 0) < 0 else v for v in basis]


def test_kernel_basis_matches_list_elimination():
    # entries from 1 to about 300 bits, so the packed rows widen several times
    rng = random.Random(2024)
    for _ in range(60):
        r, c = rng.randint(0, 8), rng.randint(0, 18)
        size = rng.choice([3, 2**40, 2**300])
        rows = [[rng.randint(-size, size) if rng.random() < 0.7 else 0 for _ in range(c)]
                for _ in range(r)]
        m = IntMatrix.from_rows(rows) if r else IntMatrix(0, c, ())
        basis = kernel_basis(m)
        assert basis == _list_kernel_basis(m), (r, c, size)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_zlocal_kernel_examples():
    assert zlocal_kernel([[1, 1]], 2) == [[1, -1]]
    assert zlocal_kernel([[2, 0], [0, 3]], 2) == []
    assert zlocal_kernel([[Fraction(1, 3), Fraction(-1, 3)]], 2) == [[1, 1]]


def test_zlocal_kernel_rejects_non_local():
    with pytest.raises(DomainError):
        zlocal_kernel([[Fraction(1, 2), 1]], 2)


def test_zlocal_kernel_exactness_and_saturation():
    import random

    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 3, 5, 7])) for _ in range(c)] for _ in range(r)]
        basis = zlocal_kernel(m, 2)
        for v in basis:
            # exact kernel membership
            for row in m:
                assert sum(x * y for x, y in zip(row, v)) == 0
        # saturated: the basis stays independent mod 2
        assert _rank_mod_p(basis, 2) == len(basis)
        # rank check: kernel dim + rank(m) = c over Q
        rank = _rank(m)
        assert len(basis) == c - rank


def _rank(m):
    m = [list(map(Fraction, row)) for row in m]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_zlocal_kernel_spans_lattice():
    # 2a + b = 0 over Z_(2): the lattice is generated by (1, -2)
    basis = zlocal_kernel([[2, 1]], 2)
    assert basis == [[1, -2]]
    # and (0,1,-1) style cancellations are found, not just scaled rref vectors
    basis = zlocal_kernel([[2, 1, 1]], 2)
    assert len(basis) == 2
    for v in basis:
        assert 2 * v[0] + v[1] + v[2] == 0
    # (0, 1, -1) must lie in the Z-span of the returned basis
    from itertools import product

    target = (0, 1, -1)
    found = any(
        tuple(a * basis[0][i] + b * basis[1][i] for i in range(3)) == target
        for a, b in product(range(-4, 5), repeat=2)
    )
    assert found
