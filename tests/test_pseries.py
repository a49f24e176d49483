import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from fgl.abel import AbelContext
from fgl.errors import DomainError
from fgl.mpoly import Fp, Poly, Q, VarTable
from fgl.pseries import (
    Series1,
    Series2,
    _nonzero,
    check_fgl_axioms,
    comp_inverse,
    comp_inverse_iterative,
    fgl_coeff_general,
    fgl_from_log,
    log_from_fgl,
    series_add,
    series_compose,
    series_eval,
    series_mul,
)

M3 = VarTable([("m1", 1), ("m2", 2), ("m3", 3)])
EMPTY = VarTable([])


def _const_series(coeffs, N):
    return Series1.from_coeffs(
        Q, EMPTY, N, {k: Poly.const(Q, EMPTY, c) for k, c in coeffs.items()}
    )


def test_series_compose_identity():
    f = _const_series({1: 1, 2: 1}, 3)  # t + t^2
    ident = Series1.identity(Q, EMPTY, 3)
    assert series_compose(f, ident) == f
    assert series_compose(ident, f) == f


def test_series_compose_hand_example():
    # (t - t^2) + (t - t^2)^2 truncated at 3 = t - 2 t^3
    f = _const_series({1: 1, 2: 1}, 3)
    g = _const_series({1: 1, 2: -1}, 3)
    expect = _const_series({1: 1, 3: -2}, 3)
    assert series_compose(f, g) == expect


def test_comp_inverse_identity():
    ident = Series1.identity(Q, EMPTY, 5)
    assert comp_inverse(ident) == ident


def test_comp_inverse_symbolic():
    # m = t + m1 t^2 => e = t - m1 t^2 + 2 m1^2 t^3 - ...
    m1 = Poly.var(Q, M3, "m1")
    m = Series1.from_coeffs(Q, M3, 4, {1: Poly.const(Q, M3, 1), 2: m1})
    e = comp_inverse(m)
    assert e.coeff(2) == -m1
    assert e.coeff(3) == (m1 * m1).scale(2)
    # general degree 3: e_2 = 2 m1^2 - m2
    m2 = Poly.var(Q, M3, "m2")
    m = Series1.from_coeffs(Q, M3, 4, {1: Poly.const(Q, M3, 1), 2: m1, 3: m2})
    e = comp_inverse(m)
    assert e.coeff(3) == (m1 * m1).scale(2) - m2


def test_comp_inverse_agrees_with_iterative_oracle():
    rng = random.Random(31)
    for trial in range(6):
        N = rng.randint(2, 10)
        coeffs = {1: Poly.const(Q, M3, 1)}
        for k in range(2, N + 1):
            coeffs[k] = _random_poly(rng, M3)
        m = Series1.from_coeffs(Q, M3, N, coeffs)
        assert comp_inverse(m) == comp_inverse_iterative(m)


def _partitions(n, largest=None):
    """Every partition of n as a list of parts, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def _reference_inverse(m):
    """e_n (coefficient of t^(n+1)) as the literal sum over every partition
    of n with multiplicities k_r: (-1)^K (n+K)! / ((n+1)! prod k_r!) *
    prod m_r^(k_r), where K = sum k_r and m_r = m.cs[r]."""
    one = Poly.const(Q, m.vars, 1)
    cs = [one]
    for n in range(1, m.N):
        total = Poly.zero(Q, m.vars)
        for parts in _partitions(n):
            K = len(parts)
            term = one.scale(Fraction((-1) ** K * factorial(n + K), factorial(n + 1)))
            for r, k in Counter(parts).items():
                term = term.scale(Fraction(1, factorial(k))) * m.cs[r] ** k
            total = total + term
        cs.append(total)
    return Series1(Q, m.vars, m.N, cs)


GENERIC = VarTable([(f"m{r}", r) for r in range(1, 12)])


def _generic_log(zero_sizes=()):
    """t + m1 t^2 + ... + m11 t^12 with m_r = 0 for r in zero_sizes."""
    coeffs = {1: Poly.const(Q, GENERIC, 1)}
    for r in range(1, 12):
        if r not in zero_sizes:
            coeffs[r + 1] = Poly.var(Q, GENERIC, f"m{r}")
    return Series1.from_coeffs(Q, GENERIC, 12, coeffs)


LOGS = {
    "generic": _generic_log,
    "m2-m5-zero": lambda: _generic_log((2, 5)),
    "sparse": lambda: _generic_log((1, 2, 4, 5, 6, 8, 9, 10)),
    "abel": lambda: AbelContext(12).log_series(),
}


@pytest.mark.parametrize("log", sorted(LOGS))
def test_comp_inverse_equals_partition_sum(log):
    m = LOGS[log]()
    assert comp_inverse(m) == _reference_inverse(m)


def test_comp_inverse_never_multiplies_series(monkeypatch):
    # comp_inverse_iterative is the oracle because it goes through powers of
    # the series m; comp_inverse must not share that code
    m = _generic_log((2, 5))
    expect = comp_inverse_iterative(m)

    def refuse(self, other):
        raise AssertionError("Series1.mul called")

    monkeypatch.setattr(Series1, "mul", refuse)
    with pytest.raises(AssertionError):
        comp_inverse_iterative(m)
    assert comp_inverse(m) == expect


def test_comp_inverse_round_trip():
    rng = random.Random(41)
    for _ in range(4):
        N = rng.randint(2, 8)
        coeffs = {1: Poly.const(Q, M3, 1)}
        for k in range(2, N + 1):
            coeffs[k] = _random_poly(rng, M3)
        m = Series1.from_coeffs(Q, M3, N, coeffs)
        e = comp_inverse(m)
        assert series_compose(e, m) == Series1.identity(Q, M3, N)


def test_fgl_from_log_additive():
    l = Series1.identity(Q, EMPTY, 4)
    F = fgl_from_log(l, 4)
    assert F.coeff(1, 0) == Poly.const(Q, EMPTY, 1)
    assert F.coeff(0, 1) == Poly.const(Q, EMPTY, 1)
    assert len(F.cf) == 2


def test_fgl_from_log_quadratic_log():
    m1 = Poly.var(Q, M3, "m1")
    l = Series1.from_coeffs(Q, M3, 3, {1: Poly.const(Q, M3, 1), 2: m1})
    F = fgl_from_log(l, 2)
    assert F.coeff(1, 1) == m1.scale(-2)


def test_fgl_coeff_general_matches_series():
    m1 = Poly.var(Q, M3, "m1")
    m2 = Poly.var(Q, M3, "m2")
    m3 = Poly.var(Q, M3, "m3")
    ms = [m1, m2, m3, Poly.zero(Q, M3), Poly.zero(Q, M3), Poly.zero(Q, M3), Poly.zero(Q, M3)]
    assert fgl_coeff_general(1, 1, ms) == m1.scale(-2)
    N = 8
    l = Series1.from_coeffs(
        Q, M3, N, {1: Poly.const(Q, M3, 1), 2: m1, 3: m2, 4: m3}
    )
    F = fgl_from_log(l, N)
    for i in range(1, N):
        for j in range(i, N + 1 - i):
            assert fgl_coeff_general(i, j, ms) == F.coeff(i, j), (i, j)


def test_fgl_coeff_general_additive():
    zeros = [Poly.zero(Q, M3)] * 7
    for i, j in [(1, 2), (2, 2), (3, 4)]:
        assert fgl_coeff_general(i, j, zeros).is_zero()


def test_log_from_fgl_additive_and_multiplicative():
    l = Series1.identity(Q, EMPTY, 4)
    F = fgl_from_log(l, 4)
    assert log_from_fgl(F) == Series1.identity(Q, EMPTY, 4)
    # multiplicative law x + y + xy has log = -log(1-t)... check round trip
    one = Poly.const(Q, EMPTY, 1)
    F = Series2(Q, EMPTY, 5, {(1, 0): one, (0, 1): one, (1, 1): one})
    l = log_from_fgl(F)
    assert fgl_from_log(l, 5) == F


def test_log_from_fgl_round_trip_random():
    rng = random.Random(59)
    for _ in range(3):
        N = rng.randint(3, 8)
        coeffs = {1: Poly.const(Q, M3, 1)}
        for k in range(2, N + 1):
            coeffs[k] = _random_poly(rng, M3)
        l = Series1.from_coeffs(Q, M3, N, coeffs)
        F = fgl_from_log(l, N)
        assert log_from_fgl(F) == l
        rep = check_fgl_axioms(F)
        assert rep.ok, rep.failures


def test_check_fgl_axioms_pass_and_fail():
    one = Poly.const(Q, EMPTY, 1)
    add = Series2(Q, EMPTY, 4, {(1, 0): one, (0, 1): one})
    assert check_fgl_axioms(add).ok
    mult = Series2(Q, EMPTY, 4, {(1, 0): one, (0, 1): one, (1, 1): one})
    assert check_fgl_axioms(mult).ok
    bad = Series2(Q, EMPTY, 4, {(1, 0): one, (0, 1): one, (2, 1): one})
    rep = check_fgl_axioms(bad)
    assert not rep.ok
    assert not rep.commutative_ok
    assert any("(2,1)" in f for f in rep.failures)


def test_check_fgl_axioms_associativity_failure():
    # F = x + y + x^2 y + x y^2 is commutative but fails associativity,
    # first visibly at total degree 5
    one = Poly.const(Q, EMPTY, 1)
    F = Series2(Q, EMPTY, 5, {(1, 0): one, (0, 1): one, (2, 1): one, (1, 2): one})
    rep = check_fgl_axioms(F)
    assert rep.unit_ok and rep.commutative_ok and not rep.associative_ok
    assert rep.failures == ["associativity: first mismatch at x^1 y^1 z^3"]
    assert check_fgl_axioms(F, N=4).ok


def test_check_fgl_axioms_mod_p_scalar_path():
    one = Poly.const(Fp(2), EMPTY, 1)
    F = Series2(Fp(2), EMPTY, 6, {(1, 0): one, (0, 1): one, (1, 1): one})
    assert check_fgl_axioms(F).ok


def test_homogeneity_of_fgl_coefficients():
    # when m_k has weight k, alpha_ij is homogeneous of weight i+j-1
    m1 = Poly.var(Q, M3, "m1")
    m2 = Poly.var(Q, M3, "m2")
    m3 = Poly.var(Q, M3, "m3")
    l = Series1.from_coeffs(Q, M3, 6, {1: Poly.const(Q, M3, 1), 2: m1, 3: m2, 4: m3})
    F = fgl_from_log(l, 6)
    for (i, j), c in F.cf.items():
        if i + j >= 2:
            assert c.weight() == i + j - 1, (i, j, c)


# The kernel is checked against Poly arithmetic, which is separate code: a
# series {(i, j): c} becomes one polynomial in x, y and the coefficient
# variables m1, m2, m3, multiplied by Poly.__mul__ and then cut at degree N.
XYM = VarTable([("x", 1), ("y", 1), ("m1", 1), ("m2", 2), ("m3", 3)])

KERNEL_KINDS = {
    "mod2": (2, lambda rng: rng.randint(-3, 3)),
    "mod3": (3, lambda rng: rng.randint(-5, 5)),
    "fraction": (None, lambda rng: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))),
    "poly": (None, lambda rng: _random_poly(rng, M3)),
}


def _as_poly(cf, ring=Q):
    """The series dict as a Poly in XYM with its coefficients taken as they
    are: a kernel output mod p is compared unreduced, in an F_p container."""
    terms = {}
    for (i, j), c in cf.items():
        for e, v in c.terms.items() if isinstance(c, Poly) else [((0, 0, 0), c)]:
            terms[(i, j) + e] = v
    return Poly(ring, XYM, terms)


def _truncated(poly, N):
    return Poly(Q, XYM, {e: c for e, c in poly.terms.items() if e[0] + e[1] <= N})


def _image(poly, p):
    """poly under the ring map Q -> F_p, or poly itself when p is None."""
    return poly.reduce_mod_p(p) if p else poly


def _random_series(rng, draw, N, density=0.5):
    return {
        (i, j): draw(rng)
        for i in range(N + 1)
        for j in range(N + 1 - i)
        if (i or j) and rng.random() < density
    }


def _check_kernel_output(out, p):
    assert all(out.values())  # no zero coefficient is kept
    if p:
        assert all(0 < c < p for c in out.values())


@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_series_mul_add_match_poly_arithmetic(kind):
    p, draw = KERNEL_KINDS[kind]
    ring = Fp(p) if p else Q
    rng = random.Random(kind)
    for N in range(1, 8):
        for _ in range(4):
            # a constant term, as in the Abel residual, on one or both factors
            a = {(0, 0): draw(rng), **_random_series(rng, draw, N)}
            b = _random_series(rng, draw, N)
            if rng.random() < 0.5:
                b[(0, 0)] = draw(rng)
            prod = series_mul(a, b, N, p)
            _check_kernel_output(prod, p)
            assert _as_poly(prod, ring) == _image(_truncated(_as_poly(a) * _as_poly(b), N), p)
            total = series_add(a, b, p)
            _check_kernel_output(total, p)
            assert _as_poly(total, ring) == _image(_as_poly(a) + _as_poly(b), p)


def test_series_mul_truncation_boundary():
    # (1 + x)(x^2 y + y^4): x^3 y lands on degree N = 4, x y^4 just above it
    a = {(0, 0): 1, (1, 0): 1}
    b = {(2, 1): 1, (0, 4): 1}
    assert series_mul(a, b, 4) == {(2, 1): 1, (3, 1): 1, (0, 4): 1}
    assert series_mul(a, b, 3) == {(2, 1): 1}
    assert series_mul(a, {(2, 1): 2, (0, 4): 1}, 4, 2) == {(0, 4): 1}


@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_series_eval_matches_poly_products(kind):
    p, draw = KERNEL_KINDS[kind]
    rng = random.Random("eval " + kind)
    ring = Fp(p) if p else Q
    for N in range(1, 6):
        cf = _random_series(rng, draw, N)
        A = _random_series(rng, draw, N, density=0.3)
        B = _random_series(rng, draw, N, density=0.3)
        out = series_eval(cf, A, B, N, p)
        _check_kernel_output(out, p)
        pa, pb = _as_poly(A), _as_poly(B)
        expect = Poly.zero(Q, XYM)
        for (i, j), c in cf.items():
            term = _as_poly({(0, 0): c})
            for _ in range(i):
                term = _truncated(term * pa, N)
            for _ in range(j):
                term = _truncated(term * pb, N)
            expect = expect + term
        assert _as_poly(out, ring) == _image(expect, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_series_eval_frobenius_path_matches_integer_route(p):
    # mod p, A^i = frob(A^(i div p)) * A^(i mod p); exponents from p^2 up
    # give nested Frobenius steps, with and without a remainder factor
    rng = random.Random(f"frobenius {p}")
    N = p * p + p + 2

    def draw():
        return rng.randint(-3 * p, 3 * p)

    for _ in range(3):
        exps = [0, 1, p - 1, p, p * p, p * p + 1, p * p + p + 1] + rng.sample(range(2, N), 3)
        cf = {(i, rng.randint(0, 1)): draw() for i in exps}
        A = {(1, 0): draw(), (0, 1): draw(), (1, 1): draw(), (2, 1): draw()}
        B = {(0, 1): draw(), (1, 2): draw()}
        assert series_eval(cf, A, B, N, p) == _nonzero(series_eval(cf, A, B, N), p)


def _random_poly(rng, vars):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(len(vars)))
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if c:
            terms[exps] = c
    return Poly(Q, vars, terms)
