"""The Abel formal group law F(x,y) = x R(y) + y R(x) with
R(x) = 1 + (a1/2) x + a2 x^2 + a3 x^3 + ..., over Q[a1, a2].

Associativity determines a_3, a_4, ... uniquely as polynomials in a1, a2;
this module computes them two independent ways (degree-by-degree solve of
the associativity identity, and the closed product formula), computes the
logarithm three independent ways (reciprocal-and-integrate, the paired
product formula, and the u,v binomial form), and the exponential
e^(ut)(e^(vt) - 1)/v.

The u,v parametrization used for computation is u = b, v = a - b where
a, b are the "roots": a1 = a + b, a2 = -ab/2.  (The source display's
identification u = a1/2, v = sqrt(beta) fails the u=0, v=1 logarithm
specialization and is treated as a recorded erratum; see the reproduce
report.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd

from .errors import DomainError, InternalInvariantError
from .mpoly import Poly, Q, VarTable
from .pseries import Series1, Series2, series_add, series_eval, series_mul

A12 = VarTable([("a1", 1), ("a2", 2)])
UV = VarTable([("u", 1), ("v", 1)])
AB = VarTable([("a", 1), ("b", 1)])


def _a1():
    return Poly.var(Q, A12, "a1")


def _a2():
    return Poly.var(Q, A12, "a2")


# ---------------------------------------------------------------------------
# associativity-driven coefficients


def _assoc_residual(rc: list[Poly], D: int) -> dict:
    """The z-linear part of the associativity identity
    x(R(yR(z)+R(y)z) - R(y)R(z)) = (R(xR(y)+R(x)y) - R(x)R(y))z,
    namely G(x,y) = x[R'(y)((a1/2)y + R(y)) - (a1/2)R(y)]
                    - R(xR(y)+R(x)y) + R(x)R(y),
    truncated at total degree D.  G vanishes identically iff the a_n solve
    the identity through that degree."""
    half_a1 = _a1().scale(Fraction(1, 2))
    rx = {(k, 0): c for k, c in enumerate(rc) if c}
    ry = {(0, k): c for k, c in enumerate(rc) if c}
    x_dry = {(1, k - 1): c.scale(k) for k, c in enumerate(rc) if k and c}  # x R'(y)
    lhs = series_add(
        series_mul(x_dry, series_add({(0, 1): half_a1}, ry), D),
        {(1, k): -(half_a1 * c) for k, c in enumerate(rc) if c and k < D},
    )
    w = series_add(  # x R(y) + R(x) y
        {(1, k): c for (_, k), c in ry.items() if k < D},
        {(k, 1): c for (k, _), c in rx.items() if k < D},
    )
    rhs = series_eval(ry, {}, w, D)  # R(w)
    return series_add(series_add(lhs, series_mul(rx, ry, D)), {ij: -c for ij, c in rhs.items()})


def abel_coeffs_assoc(N: int) -> list[Poly]:
    """a_3..a_N solved degree by degree from the associativity identity.

    At total degree n the identity is linear in the new a_n; the structural
    coefficient of a_n at the monomial x^2 y^(n-2) is -C(n, 2) (a nonzero
    rational), so each step solves one division and then checks that the
    whole degree-n component vanishes."""
    if N < 3:
        raise DomainError("need N >= 3")
    rc = [Poly.const(Q, A12, 1), _a1().scale(Fraction(1, 2)), _a2()]
    out = []
    for n in range(3, N + 1):
        rc.append(Poly.zero(Q, A12))  # a_n = 0 placeholder
        g = _assoc_residual(rc, n)
        rho = {ij: c for ij, c in g.items() if ij[0] + ij[1] == n}
        # lambda_n = n x y^(n-1) - (x+y)^n + x^n + y^n  (coefficient of a_n)
        lam = {(i, n - i): Fraction(-comb(n, i)) for i in range(1, n)}
        lam[(1, n - 1)] += n
        lam = {k: c for k, c in lam.items() if c}
        pivot = (2, n - 2)
        if pivot not in lam:
            raise InternalInvariantError(f"no unit pivot at degree {n}")
        a_n = rho.get(pivot, Poly.zero(Q, A12)).scale(-1 / lam[pivot])
        # consistency: rho + a_n * lambda must vanish at every monomial
        for ij in set(rho) | set(lam):
            resid = rho.get(ij, Poly.zero(Q, A12)) + a_n.scale(lam.get(ij, Fraction(0)))
            if not resid.is_zero():
                raise InternalInvariantError(
                    f"associativity inconsistent at degree {n}, monomial {ij}"
                )
        rc[n] = a_n
        out.append(a_n)
    return out


def abel_coeffs_closed(N: int) -> list[Poly]:
    """a_2..a_N by the closed product formula: with a = a1, b = -2 a2,

        a_n = b * A_n,   A_2 = -1/2,  A_3 = a/3,
        A_n = delta_n / n! * prod_(j=2)^([n/2]) [(j-1)(n-j) a^2 + (n-2j+1)^2 b],
        delta_(2s) = -(2s-1),  delta_(2s+1) = 2 s^2 a.

    The odd-case delta is printed as 2(s+1)s a in the source, which already
    contradicts its own A_3 = a/3 (that forces delta_3 = 2a); 2 s^2 a is the
    value consistent with A_3 and with the displayed a_5..a_9 (recorded
    erratum, cross-checked against the associativity route).
    """
    if N < 2:
        raise DomainError("need N >= 2")
    a = _a1()
    b = _a2().scale(-2)
    a_sq = a * a
    out = []
    for n in range(2, N + 1):
        if n == 2:
            A = Poly.const(Q, A12, Fraction(-1, 2))
        elif n == 3:
            A = a.scale(Fraction(1, 3))
        else:
            if n % 2 == 0:
                s = n // 2
                delta = Poly.const(Q, A12, -(2 * s - 1))
            else:
                s = (n - 1) // 2
                delta = a.scale(2 * s * s)
            A = delta.scale(Fraction(1, factorial(n)))
            for j in range(2, n // 2 + 1):
                A = A * (a_sq.scale((j - 1) * (n - j)) + b.scale((n - 2 * j + 1) ** 2))
        out.append(b * A)
    return out


class AbelContext:
    """Truncation, the coefficient list a_1..a_N, and the logarithm
    coefficients m_1..m_N of the Abel formal group law."""

    def __init__(self, N: int, method: str = "closed"):
        if N < 2:
            raise DomainError("need N >= 2")
        self.N = N
        self.vars = A12
        if method == "closed":
            tail = abel_coeffs_closed(N)  # a_2..a_N
            self.a = [_a1(), _a2()] + tail[1:]
        elif method == "assoc":
            self.a = [_a1(), _a2()] + (abel_coeffs_assoc(N) if N >= 3 else [])
        else:
            raise DomainError(f"unknown method {method!r}")
        self.m = abel_log_integral(N, self.a)

    def a_coeff(self, n: int) -> Poly:
        return self.a[n - 1]

    def m_coeff(self, k: int) -> Poly:
        return self.m[k - 1]

    def r_coeffs(self, upto: int) -> list[Poly]:
        """R(x) coefficients 1, a1/2, a2, a3, ... up to x^upto."""
        rc = [Poly.const(Q, A12, 1), _a1().scale(Fraction(1, 2))]
        rc += [self.a[k - 1] for k in range(2, upto + 1)]
        return rc[: upto + 1]

    def fgl_series(self, N: int | None = None) -> Series2:
        """F = x R(y) + y R(x) as a bivariate series."""
        if N is None:
            N = self.N
        if N > self.N:
            raise DomainError("context truncated below requested degree")
        rc = self.r_coeffs(N - 1)
        cf: dict[tuple[int, int], Poly] = {}
        for k in range(0, N):
            if rc[k].is_zero():
                continue
            cf[(1, k)] = cf.get((1, k), Poly.zero(Q, A12)) + rc[k]
            cf[(k, 1)] = cf.get((k, 1), Poly.zero(Q, A12)) + rc[k]
        return Series2(Q, A12, N, cf)

    def log_series(self, N: int | None = None) -> Series1:
        if N is None:
            N = self.N + 1
        if N > self.N + 1:
            raise DomainError("context truncated below requested degree")
        coeffs = {1: Poly.const(Q, A12, 1)}
        for k in range(1, N):
            coeffs[k + 1] = self.m_coeff(k)
        return Series1.from_coeffs(Q, A12, N, coeffs)


def abel_log_integral(N: int, a_coeffs: list[Poly] | None = None) -> list[Poly]:
    """m_1..m_N from log(x) = integral of dt / (1 + a1 t + a2 t^2 + ...):
    series reciprocal of omega, then termwise integration."""
    if a_coeffs is None:
        a_coeffs = [_a1(), _a2()] + abel_coeffs_closed(max(N, 2))[1:]
    w = [Poly.const(Q, A12, 1)] + list(a_coeffs[:N])
    b = [Poly.const(Q, A12, 1)]
    for k in range(1, N + 1):
        acc = Poly.zero(Q, A12)
        for i in range(1, k + 1):
            if i < len(w) and not w[i].is_zero():
                acc = acc + w[i] * b[k - i]
        b.append(-acc)
    return [b[k].scale(Fraction(1, k + 1)) for k in range(1, N + 1)]


def abel_log(N: int, method: str = "integral") -> list[Poly]:
    """m_1..m_N by the integral, the product formula or (in u, v) abel_log_uv."""
    if N < 1:
        raise DomainError("need N >= 1")
    if method == "product":
        return [abel_log_product(n) for n in range(2, N + 2)]
    return abel_log_uv(N + 1)[1:] if method == "uv" else abel_log_integral(N)


def abel_log_product(n: int) -> Poly:
    """m_(n-1) by the paired product formula: factors j and n-j combine to
    (a1^2 - 2 a2 (n-2j)^2 / (j(n-j))), with a lone factor -a1 at j = n/2
    when n is even, and an overall 1/n."""
    if n < 2:
        raise DomainError("need n >= 2")
    a1, a2 = _a1(), _a2()
    acc = Poly.const(Q, A12, Fraction(1, n))
    for j in range(1, (n - 1) // 2 + 1):
        factor = a1 * a1 - a2.scale(Fraction(2 * (n - 2 * j) ** 2, j * (n - j)))
        acc = acc * factor
    if n % 2 == 0:
        acc = acc * (-a1)
    return acc


def abel_log_uv(N: int) -> list[Poly]:
    """Coefficients of t^k (k = 1..N) of the logarithm in the u,v
    parametrization: ((-1)^(k-1) / k!) * prod_(i=1)^(k-1) (k u + i v)."""
    u, v = Poly.var(Q, UV, "u"), Poly.var(Q, UV, "v")
    out = []
    for k in range(1, N + 1):
        acc = Poly.const(Q, UV, Fraction((-1) ** (k - 1), factorial(k)))
        for i in range(1, k):
            acc = acc * (u.scale(k) + v.scale(i))
        out.append(acc)
    return out


def exp_abel_uv(N: int) -> Series1:
    """The exponential e^(ut)(e^(vt) - 1)/v as a series in t: the
    coefficient of t^k is sum_(j=1)^(k) C(k,j) u^(k-j) v^(j-1) / k!,
    i.e. ((u+v)^k - u^k)/(v k!) expanded without dividing."""
    u, v = Poly.var(Q, UV, "u"), Poly.var(Q, UV, "v")
    cs = []
    for k in range(1, N + 1):
        acc = Poly.zero(Q, UV)
        for j in range(1, k + 1):
            acc = acc + (u ** (k - j) * v ** (j - 1)).scale(Fraction(comb(k, j), factorial(k)))
        cs.append(acc)
    return Series1(Q, UV, N, cs)


def uv_series(N: int) -> Series1:
    return Series1(Q, UV, N, abel_log_uv(N))


def uv_to_a1a2(f: Poly) -> Poly:
    """Rewrite a u,v polynomial in a1, a2 via the roots substitution
    u -> b, v -> a - b (so a1 = a + b, a2 = -ab/2), reducing the symmetric
    result to elementary symmetric polynomials."""
    a, b = Poly.var(Q, AB, "a"), Poly.var(Q, AB, "b")
    g = f.substitute({"u": b, "v": a - b})
    sym = Poly(Q, AB, {(e[1], e[0]): c for e, c in g.terms.items()})
    if sym != g:
        raise DomainError("polynomial is not symmetric in the roots")
    a1, a2 = _a1(), _a2()
    e1, e2 = a + b, a * b
    out = Poly.zero(Q, A12)
    while not g.is_zero():
        exps, c = g.sorted_terms()[-1]  # graded-lex leading term
        al, be = exps
        if al < be:
            raise InternalInvariantError("leading term not in symmetric position")
        out = out + (a1 ** (al - be) * a2.scale(-2) ** be).scale(c)
        g = g - (e1 ** (al - be) * e2**be).scale(c)
    return out


def abel_log_uv_as_a1a2(N: int) -> list[Poly]:
    """The u,v logarithm coefficients rewritten in a1, a2; index k holds
    m_(k-1) (the t^k coefficient), so entry 1 is the constant 1."""
    return [uv_to_a1a2(c) for c in abel_log_uv(N)]


# ---------------------------------------------------------------------------
# numerical membership sampling for the coefficient ring


@dataclass
class MembershipReport:
    symmetric: bool
    pairs: list = field(default_factory=list)  # (k, l, ok, failures)

    @property
    def ok(self) -> bool:
        return self.symmetric and all(entry[2] for entry in self.pairs)

    def summary(self) -> str:
        if not self.symmetric:
            return "FAIL: polynomial is not symmetric"
        lines = []
        for k, l, ok, failures in self.pairs:
            if ok:
                lines.append(f"(k={k}, l={l}): pass")
            else:
                lines.append(f"(k={k}, l={l}): FAIL at " + ", ".join(failures))
        return "; ".join(lines)


def lambda_membership_sample(f: Poly, pairs: list[tuple[int, int]]) -> MembershipReport:
    """For a symmetric polynomial f(a, b), substitute a -> k t, b -> l t for
    each integer pair (k != l) and check each coefficient of the resulting
    polynomial in t lies in Z[(k-l)^(-1)] (denominator's primes all divide
    k - l)."""
    if f.vars != AB:
        raise DomainError("expected a polynomial in the root variables a, b")
    mirrored = Poly(Q, AB, {(e[1], e[0]): c for e, c in f.terms.items()})
    rep = MembershipReport(symmetric=(mirrored == f))
    for k, l in pairs:
        if k == l:
            raise DomainError("need k != l")
        by_degree: dict[int, Fraction] = {}
        for (al, be), c in f.terms.items():
            d = al + be
            by_degree[d] = by_degree.get(d, Fraction(0)) + c * k**al * l**be
        failures = []
        for d in sorted(by_degree):
            den = by_degree[d].denominator
            g = abs(k - l)
            while den > 1:
                common = gcd(den, g)
                if common == 1:
                    break
                while den % common == 0:
                    den //= common
            if den > 1:
                failures.append(f"t^{d} (coefficient {by_degree[d]})")
        rep.pairs.append((k, l, not failures, failures))
    return rep
