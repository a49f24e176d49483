"""The G(s) formal group law, Witt symmetric functions, the Ravenel
fixed-point recursion mod p, and the two approximation statements.

G(s) is BP with every v_i killed except v_s, and v_s set to 1; its logarithm
is x + x^(p^s)/p + x^(p^(2s))/p^2 + ...  The mod-p reduction is the Morava
K(s) formal group law, which this module also computes independently via the
Ravenel relation

    F(x, y) = F(W^(1)(x,y), W^(p)(x,y)^(p^(s-1)), W^(p^2)(x,y)^(p^(2(s-1))), ...)

with multi-ary F read as left-nested binary application.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, InternalInvariantError
from .mpoly import Fp, Poly, Q, VarTable, Z
from .pseries import (
    Series1,
    Series2,
    _frobenius,
    closed_sum,
    fgl_from_log,
    series_add,
    series_eval,
    series_mul,
    weighted_partitions,
)

SCALARS = VarTable([])  # no polynomial variables: coefficients are numbers
XY = VarTable([("x", 1), ("y", 1)])


def gs_log(s: int, p: int, N: int) -> Series1:
    """x + x^(p^s)/p + x^(p^(2s))/p^2 + ... truncated at N (v_s = 1)."""
    if s < 1:
        raise DomainError("need s >= 1")
    coeffs = {1: Poly.const(Q, SCALARS, 1)}
    k = 1
    while p ** (k * s) <= N:
        coeffs[p ** (k * s)] = Poly.const(Q, SCALARS, Fraction(1, p**k))
        k += 1
    return Series1.from_coeffs(Q, SCALARS, N, coeffs)


def gs_fgl_series(p: int, s: int, N: int) -> Series2:
    """F_G(s) as a bivariate rational series: e(log(x) + log(y))."""
    return fgl_from_log(gs_log(s, p, N), N)


def gs_fgl_coeff(p: int, s: int, i: int, j: int) -> Fraction:
    """Coefficient of x^i y^j in F_G(s) by the closed multinomial sum with
    base-p^s compositions and denominators p^(nu_1 + 2 nu_2 + ...)."""
    if i < 1 or j < 1:
        raise DomainError("need i, j >= 1")
    if (i + j - 1) % (p**s - 1) != 0:
        return Fraction(0)
    rmax = 1
    while p ** ((rmax + 1) * s) - 1 <= i + j - 1:
        rmax += 1
    iweights = [p ** (r * s) for r in range(0, rmax + 1)]
    kweights = [p ** (r * s) - 1 for r in range(1, rmax + 1)]
    one = Poly.const(Q, SCALARS, 1)
    total = closed_sum(i, j, iweights, kweights, Q, SCALARS, lambda r, k: one, den_base=p)
    return total.constant_value()


def gs_fgl_coeff_alt(p: int, s: int, i: int, j: int) -> Fraction:
    """The alternate k-indexed form of the G(s) coefficient formula: writes
    j = k(p^s - 1) + 1 - i and enumerates the k_r against the residual
    k - i_1 - j_1 - e_2 (i_2 + j_2) - ... with e_r = (p^(rs)-1)/(p^s-1)."""
    if i < 1 or j < 1:
        raise DomainError("need i, j >= 1")
    if (i + j - 1) % (p**s - 1) != 0:
        return Fraction(0)
    k = (i + j - 1) // (p**s - 1)
    rmax = 1
    while p ** ((rmax + 1) * s) - 1 <= i + j - 1:
        rmax += 1
    iweights = [p ** (r * s) for r in range(0, rmax + 1)]
    es = [(p ** (r * s) - 1) // (p**s - 1) for r in range(1, rmax + 1)]
    from math import factorial

    total = Fraction(0)
    for ipart in weighted_partitions(i, iweights):
        for jpart in weighted_partitions(j, iweights):
            resid = k - sum(e * (ir + jr) for e, ir, jr in zip(es, ipart[1:], jpart[1:]))
            if resid < 0:
                continue
            for kpart in weighted_partitions(resid, es):
                i0, j0 = ipart[0], jpart[0]
                irs, jrs, krs = list(ipart[1:]), list(jpart[1:]), list(kpart)
                T = i0 + j0 + sum(irs) + sum(jrs) + sum(krs)
                den = factorial(i0) * factorial(j0)
                sign = 1
                pexp = 0
                for r in range(len(es)):
                    den *= factorial(irs[r]) * factorial(jrs[r]) * factorial(krs[r])
                    if krs[r] % 2:
                        sign = -sign
                    pexp += (r + 1) * (irs[r] + jrs[r] + krs[r])
                total += Fraction(sign * factorial(T - 1), den * p**pexp)
    return total


def gs_fgl_table(p: int, s: int, N: int):
    from .pseries import FGLTable

    def fn(i, j):
        return Poly.const(Q, SCALARS, gs_fgl_coeff(p, s, i, j))

    return FGLTable.from_coeff_fn(None, N, Q, SCALARS, fn)


# ---------------------------------------------------------------------------
# Witt symmetric functions


_witt_cache: dict[int, Poly] = {}


def witt_symmetric(n: int) -> Poly:
    """The two-variable Witt symmetric function W^(n), defined by
    (x^n + y^n)/n = sum_(d|n) W^(n/d)(x,y)^d / d; integral, homogeneous of
    degree n, and symmetric in x, y."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n in _witt_cache:
        return _witt_cache[n]
    power_sum = Poly.monomial(Q, XY, Fraction(1, n), {"x": n}) + Poly.monomial(
        Q, XY, Fraction(1, n), {"y": n}
    )
    acc = power_sum
    for d in range(2, n + 1):
        if n % d == 0:
            wd = witt_symmetric(n // d).map_coeffs(Q, Fraction)
            acc = acc - (wd**d).scale(Fraction(1, d))
    if acc.den != 1:
        raise InternalInvariantError(f"W^({n}) not integral: denominator {acc.den}")
    result = Poly(Z, XY, acc.num)
    _witt_cache[n] = result
    return result


# ---------------------------------------------------------------------------
# mod-p series are plain dicts {(i, j): int mod p} on the pseries kernel


@dataclass
class MoravaFGL:
    """The K(s)-type formal group law mod p at height s, truncated at N."""

    p: int
    s: int
    N: int
    series: Series2

    def raw(self) -> dict:
        return {ij: c.constant_value() for ij, c in self.series.cf.items()}


def ravenel_weights(p: int, s: int, N: int) -> list[dict]:
    """w_m = W^(p^m)(x,y)^(p^(m(s-1))) mod p for every m with deg w_m <= N."""
    ws = []
    m = 0
    while p ** (m * s) <= N:
        wn = witt_symmetric(p**m).reduce_mod_p(p)
        raw = {(e[0], e[1]): c for e, c in wn.terms.items()}
        ws.append(_frobenius(raw, p ** (m * (s - 1)), N))
        m += 1
    return ws


def ravenel_fgl_modp(p: int, s: int, N: int) -> MoravaFGL:
    """Fixed-point computation of the mod-p formal group law from the
    Ravenel relation, starting at x + y and applying the left-nested
    combination of the w_m until the truncated series stabilizes.

    Pass k runs at truncation T_k = min(N, p^(s-1) T_(k-1) + p^s - 1), with
    T_0 = 1, and the loop exits only when T == N and the pass returns its
    input.  Any schedule is sound: the degree-d slice of the right side
    depends only on slices of F below d, because a degree-d coefficient
    c_ij of F multiplies a term of degree above d whenever some w_m with
    m >= 1 enters it, and c_(d,0) = c_(0,d) = 0 for d > 1.  So the fixed
    point at full N is unique, and a schedule that grows T too fast costs
    passes, never correctness."""
    if s < 1:
        raise DomainError("need s >= 1")
    if N < 1:
        raise DomainError("need N >= 1")
    ws = ravenel_weights(p, s, N)
    schedule, T = [], 1
    while T < N:
        T = min(N, p ** (s - 1) * T + p**s - 1)
        schedule.append(T)
    F = {(1, 0): 1, (0, 1): 1}
    for T in schedule + [N] * (N + 2):
        # left-nested combination F(...F(F(w_0, w_1), w_2)..., w_M); with a
        # single argument the fold is w_0 itself
        G = ws[0]
        for wm in ws[1:]:
            G = series_eval(F, G, wm, T, p)
        if T == N and G == F:
            return MoravaFGL(p, s, N, _raw_to_series2(G, p, N))
        F = G
    raise InternalInvariantError("Ravenel iteration did not converge")


def _raw_to_series2(raw: dict, p: int, N: int) -> Series2:
    ring = Fp(p)
    return Series2(ring, SCALARS, N, {ij: Poly.const(ring, SCALARS, c) for ij, c in raw.items()})


def morava_from_rational(p: int, s: int, N: int) -> Series2:
    """Oracle route: the rational G(s) law reduced mod p."""
    return gs_fgl_series(p, s, N).reduce_mod_p(p)


# ---------------------------------------------------------------------------
# approximation statements


@dataclass
class ApproxReport:
    p: int
    s: int
    N: int
    ok: bool
    approximant: Series2
    detail: str = ""

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{status}: F == {self.approximant} {self.detail}"


def wp_approximant(p: int, s: int, N: int) -> dict:
    """x + y - sum_(0<j<p) p^(-1) C(p,j) x^(j p^(s-1)) y^((p-j) p^(s-1)) mod p."""
    q = p ** (s - 1)
    out = {(1, 0): 1, (0, 1): 1}
    for j in range(1, p):
        c = (-(comb(p, j) // p)) % p
        if c and j * q + (p - j) * q <= N:
            out[(j * q, (p - j) * q)] = c
    return out


def verify_wp_approx(p: int, s: int, N: int) -> ApproxReport:
    """Check F == x + y - sum p^(-1) C(p,j) x^(jp^(s-1)) y^((p-j)p^(s-1))
    modulo the ideal (x^(p^(2(s-1))), y^(p^(2(s-1)))), as mod-p series
    truncated at N."""
    if s <= 1:
        raise DomainError("the approximation needs s > 1")
    F = ravenel_fgl_modp(p, s, N).raw()
    approx = wp_approximant(p, s, N)
    bound = p ** (2 * (s - 1))
    diff = series_add(F, {k: -c for k, c in approx.items()}, p)
    offenders = [k for k in diff if k[0] < bound and k[1] < bound]
    ok = not offenders
    detail = f"mod (x^{bound}, y^{bound})"
    if offenders:
        detail += f"; first offender x^%d y^%d" % min(offenders)
    return ApproxReport(p, s, N, ok, _raw_to_series2(approx, p, N), detail)


def bv_approximant(n: int, N: int) -> dict:
    """x + y + (xy + (x+y)(xy)^(2^(n-1)))^(2^(n-1)) mod 2, truncated at N."""
    q = 2 ** (n - 1)
    xpy = {(1, 0): 1, (0, 1): 1}
    inner = series_add({(1, 1): 1}, series_mul(xpy, _frobenius({(1, 1): 1}, q, N), N, 2), 2)
    return series_add(xpy, _frobenius(inner, q, N), 2)


def _m2_leading(d: dict) -> tuple[int, int]:
    return max(d, key=lambda k: (k[0] + k[1], k[0]))


def _m2_divisible(D: dict, g: dict, p: int) -> bool:
    """Exact divisibility of D by g in F_p[x, y] via single-divisor long
    division on graded-lex leading terms.  For a principal ideal this is a
    complete membership test: if D = h*g then LT(D) = LT(h)*LT(g), so a
    non-divisible leading term certifies non-membership."""
    D = dict(D)
    lg = _m2_leading(g)
    cg_inv = pow(g[lg], -1, p)
    while D:
        lt = _m2_leading(D)
        if lt[0] < lg[0] or lt[1] < lg[1]:
            return False
        quot = (lt[0] - lg[0], lt[1] - lg[1])
        c = (D[lt] * cg_inv) % p
        for k, v in g.items():
            key = (k[0] + quot[0], k[1] + quot[1])
            nv = (D.get(key, 0) - c * v) % p
            if nv:
                D[key] = nv
            elif key in D:
                del D[key]
    return True


def verify_bv_approx(n: int, N: int) -> ApproxReport:
    """Check F(x,y) = x + y + (xy + (x+y)(xy)^(2^(n-1)))^(2^(n-1)) modulo
    ((x+y)xy)^(2^(2n-2)) as mod-2 truncated series: the difference must lie
    in the principal ideal generated by the (homogeneous) modulus."""
    if n < 2:
        raise DomainError("need n >= 2")
    F = ravenel_fgl_modp(2, n, N).raw()
    approx = bv_approximant(n, N)
    diff = series_add(F, approx, 2)  # char 2: subtraction = addition
    q = 2 ** (2 * n - 2)
    gen = {(2 * q, q): 1, (q, 2 * q): 1}  # ((x+y)xy)^q = (x^2 y + x y^2)^q mod 2
    gen_deg = 3 * q
    ok = True
    detail = f"mod ((x+y)xy)^{q} (degree {gen_deg})"
    if diff:
        low = [k for k in diff if k[0] + k[1] < gen_deg]
        if low:
            ok = False
            detail += f"; difference has low-degree term x^%d y^%d" % min(low)
        elif not _m2_divisible(diff, gen, 2):
            ok = False
            detail += "; difference not divisible by the modulus"
    return ApproxReport(2, n, N, ok, _raw_to_series2(approx, 2, N), detail)
