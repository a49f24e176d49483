"""The Brown-Peterson formal group law at a prime p.

The logarithm coefficients l_n live in Q[v_1, v_2, ...] (Hazewinkel
generators, weight of v_n is p^n - 1) and satisfy the recursion

    p*l_n = v_n + v_(n-1)^p * l_1 + v_(n-2)^(p^2) * l_2 + ... + v_1^(p^(n-1)) * l_(n-1).

This module solves the recursion, evaluates its closed-form solution over
compositions of n, expands the formal group coefficients alpha_ij directly
from the closed multinomial sum, and inverts the relationship to write the
Hazewinkel generators as polynomials in chosen alpha's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError, InternalInvariantError
from .mpoly import Poly, Powers, Q, VarTable, require_prime
from .pseries import Series1, closed_sum, weighted_partitions
from .ratint import binom_valuation, solve_unique


def bp_vartable(p: int, n_max: int) -> VarTable:
    return VarTable([(f"v{k}", p**k - 1) for k in range(1, n_max + 1)])


class BPContext:
    """Prime, depth, variable table, and the cached logarithm coefficients
    l_1..l_n_max (computed eagerly by the recursion)."""

    def __init__(self, p: int, n_max: int):
        self.p = p
        self.n_max = n_max
        self.vars = bp_vartable(p, n_max)
        self.ls = self._solve_recursion()

    def _solve_recursion(self) -> list[Poly]:
        p = self.p
        ls: list[Poly] = []
        for n in range(1, self.n_max + 1):
            acc = Poly.var(Q, self.vars, f"v{n}")
            for i in range(1, n):
                v_pow = Poly.var(Q, self.vars, f"v{n - i}") ** (p**i)
                acc = acc + v_pow * ls[i - 1]
            ls.append(acc.scale(Fraction(1, p)))
        return ls

    def l(self, n: int) -> Poly:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"l_{n} outside depth {self.n_max}")
        return self.ls[n - 1]

    def v(self, n: int) -> Poly:
        return Poly.var(Q, self.vars, f"v{n}")

    def log_series(self, N: int) -> Series1:
        """x + l_1 x^p + l_2 x^(p^2) + ... truncated at N."""
        coeffs = {1: Poly.const(Q, self.vars, 1)}
        k = 1
        while self.p**k <= N:
            if k > self.n_max:
                raise DomainError("depth too small for requested truncation")
            coeffs[self.p**k] = self.l(k)
            k += 1
        return Series1.from_coeffs(Q, self.vars, N, coeffs)


@lru_cache(maxsize=None)
def _context(p: int, n_max: int) -> BPContext:
    return BPContext(require_prime(p), n_max)


def bp_log_recursive(p: int, n: int) -> list[Poly]:
    """l_1..l_n by solving the recursion p*l_n = v_n + sum v_(n-i)^(p^i) l_i."""
    if n < 1:
        raise DomainError("need n >= 1")
    return list(_context(p, n).ls)


def _compositions(n: int):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def bp_log_closed(p: int, n: int) -> Poly:
    """The closed solution of the recursion: the sum over compositions
    n_1 + ... + n_k = n of v_(n_1) v_(n_2)^(p^(n_1)) v_(n_3)^(p^(n_1+n_2)) ... / p^k."""
    if n < 1:
        raise DomainError("need n >= 1")
    ctx = _context(p, n)
    total = Poly.zero(Q, ctx.vars)
    for comp in _compositions(n):
        # v_(n_1) * v_(n_2)^(p^(n_1)) * v_(n_3)^(p^(n_1+n_2)) * ... / p^k
        term = Poly.const(Q, ctx.vars, Fraction(1, p ** len(comp)))
        shift = 0
        for part in comp:
            term = term * ctx.v(part) ** (p**shift)
            shift += part
        total = total + term
    return total


def bp_summand_count(p: int, n: int) -> int:
    """Number of summands of the closed form for l_n (2^(n-1))."""
    return sum(1 for _ in _compositions(n))


def _depth_for(p: int, w: int) -> int:
    """Largest r with p^r - 1 <= w, at least 1; p must be a prime."""
    require_prime(p)
    r = 1
    while p ** (r + 1) - 1 <= w:
        r += 1
    return r


def bp_fgl_coeff(p: int, i: int, j: int) -> Poly:
    """Coefficient alpha_ij of the BP formal group law at x^i y^j, by the
    closed multinomial sum with base-p compositions

        i_0 + p i_1 + p^2 i_2 + ... = i,   j_0 + p j_1 + ... = j,
        sum (p^r - 1)(i_r + j_r + k_r) = i + j - 1,

    evaluated in the l's and then substituted with their v-expressions.
    Vanishes unless (p - 1) divides i + j - 1.
    """
    if i < 1 or j < 1:
        raise DomainError("need i, j >= 1")
    depth = _depth_for(p, i + j - 1)
    ctx = _context(p, depth)
    if (i + j - 1) % (p - 1) != 0:
        return Poly.zero(Q, ctx.vars)
    lvars = VarTable([(f"l{r}", p**r - 1) for r in range(1, depth + 1)])
    lpow = Powers([Poly.var(Q, lvars, f"l{r}") for r in range(1, depth + 1)])
    iweights = [p**r for r in range(0, depth + 1)]
    kweights = [p**r - 1 for r in range(1, depth + 1)]
    total = closed_sum(i, j, iweights, kweights, Q, lvars, lpow)
    if total.is_zero():
        return Poly.zero(Q, ctx.vars)
    bindings = {f"l{r}": ctx.l(r) for r in range(1, depth + 1)}
    return total.substitute(bindings)


def bp_fgl_series(p: int, N: int):
    """The BP formal group law as a bivariate Series2 to total degree N,
    built from the logarithm (series route, used as the oracle)."""
    from .pseries import fgl_from_log

    depth = _depth_for(p, N)
    ctx = _context(p, max(depth, 1))
    return fgl_from_log(ctx.log_series(N), N)


def bp_fgl_table(p: int, N: int):
    """Symmetric coefficient table (i, j) -> alpha_ij to total degree N via
    the closed multinomial formula."""
    from .pseries import FGLTable

    depth = _depth_for(p, max(N - 1, 1))
    ctx = _context(p, depth)
    embed = {f"v{r}": ctx.v(r) for r in range(1, depth + 1)}

    def fn(i, j):
        return bp_fgl_coeff(p, i, j).substitute(embed)

    return FGLTable.from_coeff_fn(p, N, Q, ctx.vars, fn)


def leading_alpha_relation(p: int, n: int, k: int) -> tuple[Fraction, Poly]:
    """The scalar c = -p / C(p^(n+1), k*p^n) relating v_(n+1) to
    alpha_(k p^n, (p-k) p^n) modulo decomposables, plus the witness
    alpha + C(p^(n+1), k*p^n) * l_(n+1), which must contain no linear
    v_(n+1) term."""
    if not 0 < k < p:
        raise DomainError("need 0 < k < p")
    C = comb(p ** (n + 1), k * p**n)
    if binom_valuation(p, n, k) != 1:
        raise InternalInvariantError("binomial coefficient not exactly divisible by p")
    c = Fraction(-p, C)
    ctx = _context(p, n + 1)
    alpha = bp_fgl_coeff(p, k * p**n, (p - k) * p**n)
    witness = alpha + ctx.l(n + 1).scale(C)
    linear = witness.coeff_of({f"v{n + 1}": 1})
    if linear != 0:
        raise InternalInvariantError("v_(n+1) does not cancel in the witness")
    return c, witness


def alpha_generator_name(p: int, m: int, k: int) -> str:
    return f"alpha_{k * p**m}_{(p - k) * p**m}"


def express_v_in_alphas(p: int, n: int, k_seq: list[int] | None = None) -> Poly:
    """Write the Hazewinkel generator v_n as a polynomial with p-local
    coefficients in the chosen generators alpha_(k_m p^m, (p-k_m) p^m),
    m = 0..n-1, by solving the graded linear system that equates v_n with a
    general weight-(p^n - 1) polynomial in those alpha's."""
    if n < 1:
        raise DomainError("need n >= 1")
    if k_seq is None:
        k_seq = [1] * n
    if len(k_seq) != n or any(not 0 < k < p for k in k_seq):
        raise DomainError("need one 0 < k_m < p per m = 0..n-1")
    ctx = _context(p, n)
    gen_names = [alpha_generator_name(p, m, k_seq[m]) for m in range(n)]
    gen_weights = [p ** (m + 1) - 1 for m in range(n)]
    avars = VarTable(list(zip(gen_names, gen_weights)))
    expansions = [bp_fgl_coeff(p, k_seq[m] * p**m, (p - k_seq[m]) * p**m) for m in range(n)]
    # re-embed expansions into the depth-n variable table
    embed = {f"v{r}": ctx.v(r) for r in range(1, n + 1)}
    expansions = [e.substitute(embed) for e in expansions]

    target_w = p**n - 1
    alpha_monomials = [
        exps for exps in weighted_partitions(target_w, gen_weights)
    ]
    gen_pow = Powers(expansions)
    expanded = [gen_pow.product(exps, Poly.const(Q, ctx.vars, 1)) for exps in alpha_monomials]
    v_monomials = sorted(weighted_partitions(target_w, list(ctx.vars.weights)))
    index = {exps: r for r, exps in enumerate(v_monomials)}
    a = [[Fraction(0)] * len(alpha_monomials) for _ in v_monomials]
    for col, poly in enumerate(expanded):
        for exps, cval in poly.terms.items():
            a[index[exps]][col] = cval
    b = [Fraction(0)] * len(v_monomials)
    vn_exps = tuple(1 if r == n - 1 else 0 for r in range(n))
    b[index[vn_exps]] = Fraction(1)
    try:
        x = solve_unique(a, b)
    except DomainError as exc:
        raise InternalInvariantError(f"alpha-generator system failed: {exc}") from exc
    for c in x:
        if c.denominator % p == 0:
            raise InternalInvariantError(f"non-{p}-local coefficient {c}")
    terms = {
        exps: c for exps, c in zip(alpha_monomials, x) if c
    }
    return Poly(Q, avars, terms)
