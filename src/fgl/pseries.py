"""Truncated formal power series in one or two variables, and the passage
between formal group laws and their logarithms.

The truncated-series kernel (``series_mul``, ``series_add``, ``series_eval``)
is the one layer that multiplies, adds and evaluates sparse series in x, y
cut at a total degree.  It works on dicts ``{(i, j): coeff}`` with Poly,
Fraction or int coefficients, reducing ints mod p when given a modulus;
``Series2``, the axioms checker, the Abel associativity residual and the
Ravenel fixed point mod p all run on it.  Truncation degrees are explicit
everywhere; no operation silently extends precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import DomainError
from .mpoly import Fp, Poly, Powers, Ring, VarTable

# ---------------------------------------------------------------------------
# partition enumeration shared by the closed coefficient formulas


def weighted_partitions(total: int, weights: list[int]):
    """Yield all multiplicity tuples (m_1, ..., m_k) with
    sum(m_i * weights[i]) == total.  Weights must be positive."""
    if total == 0:
        yield (0,) * len(weights)
        return
    if not weights or total < 0:
        return
    w = weights[-1]
    for mult in range(total // w + 1):
        for rest in weighted_partitions(total - mult * w, weights[:-1]):
            yield rest + (mult,)


# ---------------------------------------------------------------------------
# univariate truncated series


class Series1:
    """c_1*t + c_2*t^2 + ... + c_N*t^N with Poly coefficients."""

    __slots__ = ("ring", "vars", "N", "cs")

    def __init__(self, ring: Ring, vars: VarTable, N: int, cs: list[Poly]):
        if N < 1 or len(cs) != N:
            raise DomainError("need N >= 1 coefficients c_1..c_N")
        self.ring = ring
        self.vars = vars
        self.N = N
        self.cs = cs

    @classmethod
    def from_coeffs(cls, ring: Ring, vars: VarTable, N: int, coeffs: dict[int, Poly]) -> "Series1":
        cs = [coeffs.get(k, Poly.zero(ring, vars)) for k in range(1, N + 1)]
        return cls(ring, vars, N, cs)

    @classmethod
    def identity(cls, ring: Ring, vars: VarTable, N: int) -> "Series1":
        cs = [Poly.zero(ring, vars) for _ in range(N)]
        cs[0] = Poly.const(ring, vars, 1)
        return cls(ring, vars, N, cs)

    def coeff(self, k: int) -> Poly:
        if not 1 <= k <= self.N:
            raise DomainError(f"coefficient index {k} outside truncation {self.N}")
        return self.cs[k - 1]

    def is_log_shaped(self) -> bool:
        return self.cs[0] == Poly.const(self.ring, self.vars, 1)

    def truncate(self, N: int) -> "Series1":
        if N > self.N:
            raise DomainError("cannot extend precision by truncation")
        return Series1(self.ring, self.vars, N, self.cs[:N])

    def __add__(self, other: "Series1") -> "Series1":
        N = min(self.N, other.N)
        return Series1(self.ring, self.vars, N, [a + b for a, b in zip(self.cs[:N], other.cs[:N])])

    def __eq__(self, other):
        return isinstance(other, Series1) and self.N == other.N and self.cs == other.cs

    def scale(self, c: Poly) -> "Series1":
        return Series1(self.ring, self.vars, self.N, [c * v for v in self.cs])

    def mul(self, other: "Series1") -> "Series1":
        """Truncated product (both factors have zero constant term)."""
        N = min(self.N, other.N)
        out = [Poly.zero(self.ring, self.vars) for _ in range(N)]
        for i, a in enumerate(self.cs[:N], start=1):
            if a.is_zero():
                continue
            for j, b in enumerate(other.cs[: N - i], start=1):
                if not b.is_zero():
                    out[i + j - 1] = out[i + j - 1] + a * b
        return Series1(self.ring, self.vars, N, out)

    def __str__(self):
        return self.render("t")

    __repr__ = __str__

    def render(self, name: str) -> str:
        parts = []
        for k in range(1, self.N + 1):
            c = self.cs[k - 1]
            if c.is_zero():
                continue
            parts.append(_coeff_times_monomial(c, name + (f"^{k}" if k > 1 else ""), not parts))
        return " ".join(parts) if parts else "0"


def _coeff_times_monomial(c: Poly, mono: str, first: bool) -> str:
    """Render ``c * mono`` as a signed term; ``first`` picks the sign style."""
    if len(c.num) <= 1:
        text = str(c)
        neg = text.startswith("-")
        if neg:
            text = text[1:]
        body = mono if text == "1" else f"{text}*{mono}"
        if first:
            return ("-" if neg else "") + body
        return ("- " if neg else "+ ") + body
    body = f"({c})*{mono}"
    return body if first else "+ " + body


def series_compose(f: Series1, g: Series1) -> Series1:
    """(f o g) truncated at the common truncation degree; g has no constant
    term by construction of Series1."""
    N = min(f.N, g.N)
    g = g.truncate(N)
    # Horner: f(g) = g*(f_1 + g*(f_2 + ... + g*f_N)); carry the pending
    # constant f_k separately since Series1 has no constant slot.
    const = f.cs[N - 1]
    body = Series1(f.ring, f.vars, N, [Poly.zero(f.ring, f.vars)] * N)
    for k in range(N - 1, 0, -1):
        body = g.mul(body) + g.scale(const)
        const = f.cs[k - 1]
    return g.mul(body) + g.scale(const)


def comp_inverse(m: Series1) -> Series1:
    """Composition inverse of a logarithm-shaped series by the explicit
    multinomial sum over k_1 + 2*k_2 + ... = n, with K = k_1 + k_2 + ...:

        e_n = sum (-1)^K (n+K)! / ((n+1)! k_1! k_2! ...) * m_1^(k_1) * m_2^(k_2) * ...

    where m_r is the coefficient of t^(r+1) and e_n that of t^(n+1).  Grouped
    by part count: taking the sizes r with m_r != 0 in increasing order,
    S[(K, w)] sums prod m_r^(k_r) / k_r! over the partitions of w < N into K
    parts of the sizes taken so far, and e_w = sum_K (-1)^K (w+K)!/(w+1)!
    S[(K, w)].  No power of the series m is formed, so comp_inverse_iterative,
    which solves e(m(t)) = t from those powers, stays an independent oracle.
    """
    if not m.is_log_shaped():
        raise DomainError("series must have leading coefficient 1")
    ring, vars, N = m.ring, m.vars, m.N
    one = Poly.const(ring, vars, 1)
    S = {(0, 0): one}
    for r, mr in enumerate(m.cs[1:], start=1):
        if mr.is_zero():
            continue
        powers = [one]  # powers[k] = m_r^k / k!
        for k in range(1, (N - 1) // r + 1):
            powers.append((powers[-1] * mr).scale(Fraction(1, k)))
        for (K, w), s in list(S.items()):
            for k in range(1, (N - 1 - w) // r + 1):
                key, term = (K + k, w + k * r), s * powers[k]
                S[key] = S[key] + term if key in S else term
    cs = [Poly.zero(ring, vars)] * N
    for (K, w), s in S.items():
        c = Fraction(factorial(w + K), factorial(w + 1))
        cs[w] = cs[w] + s.scale(-c if K % 2 else c)
    return Series1(ring, vars, N, cs)


def comp_inverse_iterative(m: Series1) -> Series1:
    """Independent oracle for comp_inverse: solve e(m(t)) = t coefficient by
    coefficient from cached powers of m."""
    if not m.is_log_shaped():
        raise DomainError("series must have leading coefficient 1")
    ring, vars, N = m.ring, m.vars, m.N
    powers = [None, m]
    for _ in range(2, N + 1):
        powers.append(powers[-1].mul(m))
    e = [Poly.const(ring, vars, 1)]
    for k in range(2, N + 1):
        acc = Poly.zero(ring, vars)
        for j in range(1, k):
            acc = acc + e[j - 1] * powers[j].coeff(k)
        e.append(-acc)  # m^k has leading coefficient 1 at t^k
    return Series1(ring, vars, N, e)


# ---------------------------------------------------------------------------
# the truncated-series kernel on dicts {(i, j): coeff}; with a modulus p the
# int coefficients are reduced once per call, and zero coefficients are
# never kept


def _nonzero(cf: dict, p: int | None) -> dict:
    if p is None:
        return {ij: c for ij, c in cf.items() if c}
    return {ij: r for ij, c in cf.items() if (r := c % p)}


def series_mul(a: dict, b: dict, N: int, p: int | None = None) -> dict:
    """a * b truncated at total degree N; constant terms are allowed."""
    out = {}
    for (i1, j1), c1 in a.items():
        room = N - i1 - j1
        if room < 0:
            continue
        for (i2, j2), c2 in b.items():
            if i2 + j2 <= room:
                k = (i1 + i2, j1 + j2)
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return _nonzero(out, p)


def series_add(a: dict, b: dict, p: int | None = None) -> dict:
    """a + b, with no truncation."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return _nonzero(out, p)


def _min_degree(a: dict, N: int) -> int:
    return min((i + j for i, j in a), default=N + 1)


def _frobenius(d: dict, q: int, N: int) -> dict:
    """d^q mod p truncated at N, for q a power of p: in characteristic p
    raising to the q-th power multiplies every exponent by q and fixes the
    coefficients (c^p = c in F_p)."""
    return {(i * q, j * q): c for (i, j), c in d.items() if (i + j) * q <= N}


def _power_slices(cf: dict, A: dict, mb: int, N: int, p: int | None) -> dict:
    """{j: sum_i cf[(i, j)] * A^i} truncated at N, skipping each (i, j)
    whose term A^i * B^j lies above degree N when B has minimal degree mb.
    Only the powers of A that cf asks for are built; mod p they come from
    A^i = frob(A^(i div p)) * A^(i mod p), one product per base-p digit."""
    ma = _min_degree(A, N)
    if p is None:
        powers = Powers([A], lambda a, b: series_mul(a, b, N))

        def power(i):
            return powers(0, i) if i else {(0, 0): 1}
    else:
        memo = {0: {(0, 0): 1}, 1: A}

        def power(i):
            if i not in memo:
                q, r = divmod(i, p)
                if q:
                    memo[i] = series_mul(_frobenius(power(q), p, N), power(r), N, p)
                else:
                    memo[i] = series_mul(power(i - 1), A, N, p)
            return memo[i]

    slices: dict[int, dict] = {}
    for (i, j), c in cf.items():
        if i * ma + j * mb > N:
            continue
        out = slices.setdefault(j, {})
        for k, v in power(i).items():
            out[k] = out[k] + c * v if k in out else c * v
    return {j: _nonzero(out, p) for j, out in slices.items()}


def series_eval(cf: dict, A: dict, B: dict, N: int, p: int | None = None) -> dict:
    """sum cf[(i, j)] * A^i * B^j truncated at N; A and B have no constant
    term.  Powers of A are memoized and B enters by Horner's rule, so the
    sparser argument goes second; f(B) for a univariate f is
    series_eval({(0, k): f_k}, {}, B, N).  A modulus p means the
    coefficients are ints mod the prime p; powers of A then use the
    Frobenius map A^(p m) = frob(A^m)."""
    mb = _min_degree(B, N)
    slices = _power_slices(cf, A, mb, N, p)
    acc: dict = {}
    for j in range(max(slices, default=0), -1, -1):
        # acc is multiplied by B j more times, so only degrees <= N - j*mb count
        acc = series_add(series_mul(B, acc, N - j * mb, p), slices.get(j, {}), p)
    return acc


# ---------------------------------------------------------------------------
# bivariate truncated series


class Series2:
    """sum c_(i,j) x^i y^j over 1 <= i+j <= N with Poly coefficients."""

    __slots__ = ("ring", "vars", "N", "cf")

    def __init__(self, ring: Ring, vars: VarTable, N: int, cf: dict[tuple[int, int], Poly]):
        self.ring = ring
        self.vars = vars
        self.N = N
        self.cf = {ij: c for ij, c in cf.items() if not c.is_zero()}

    def coeff(self, i: int, j: int) -> Poly:
        return self.cf.get((i, j), Poly.zero(self.ring, self.vars))

    def __eq__(self, other):
        return isinstance(other, Series2) and self.N == other.N and self.cf == other.cf

    def mul(self, other: "Series2") -> "Series2":
        N = min(self.N, other.N)
        return Series2(self.ring, self.vars, N, series_mul(self.cf, other.cf, N))

    def reduce_mod_p(self, p: int) -> "Series2":
        return Series2(Fp(p), self.vars, self.N, {ij: c.reduce_mod_p(p) for ij, c in self.cf.items()})

    def degree_slice(self, d: int) -> "Series2":
        return Series2(self.ring, self.vars, self.N, {ij: c for ij, c in self.cf.items() if ij[0] + ij[1] == d})

    def sorted_items(self):
        return sorted(self.cf.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))

    def __str__(self):
        parts = []
        for (i, j), c in self.sorted_items():
            mono = "*".join(
                ([f"x^{i}" if i > 1 else "x"] if i else [])
                + ([f"y^{j}" if j > 1 else "y"] if j else [])
            )
            parts.append(_coeff_times_monomial(c, mono, not parts))
        return " ".join(parts) if parts else "0"

    __repr__ = __str__


def eval_series1_on_series2(f: Series1, arg: Series2) -> Series2:
    """f(arg), truncated at arg.N; arg has zero constant term."""
    cf = {(0, k): c for k, c in enumerate(f.cs, start=1) if c}
    return Series2(arg.ring, arg.vars, arg.N, series_eval(cf, {}, arg.cf, arg.N))


def fgl_from_log(l: Series1, N: int) -> Series2:
    """F(x, y) = e(l(x) + l(y)) truncated at total degree N, where e is the
    composition inverse of the logarithm l."""
    if not l.is_log_shaped():
        raise DomainError("logarithm must have leading coefficient 1")
    if l.N < N:
        raise DomainError("logarithm truncated below the requested degree")
    lt = l.truncate(N)
    e = comp_inverse(lt)
    cf = {}
    for k in range(1, N + 1):
        c = lt.cs[k - 1]
        if not c.is_zero():
            cf[(k, 0)] = c
            cf[(0, k)] = c
    return eval_series1_on_series2(e, Series2(lt.ring, lt.vars, N, cf))


def fgl_coeff_general(i: int, j: int, m: list[Poly]) -> Poly:
    """Coefficient of x^i y^j in e(m(x) + m(y)) by the closed double sum over
    compositions, with no series arithmetic; m[r-1] is the coefficient m_r of
    t^(r+1) in the logarithm."""
    if i < 1 or j < 1:
        raise DomainError("need i, j >= 1")
    if len(m) < i + j - 1:
        raise DomainError("need m_1..m_(i+j-1)")
    weights = list(range(1, i + j))
    return closed_sum(i, j, weights, weights, m[0].ring, m[0].vars, Powers(m))


def closed_sum(i, j, iweights, kweights, ring, vars, factor_pow, den_base=None) -> Poly:
    """Coefficient of x^i y^j by the closed multinomial sum shared by the
    G(s), BP and general formulas: over the compositions
    i = sum_r i_r iweights[r], j = sum_r j_r iweights[r] and
    sum_r k_r kweights[r] = sum_r (i_r + j_r) - 1, of the summands of
    _composition_term (which reads factor_pow and den_base)."""
    total = Poly.zero(ring, vars)
    for ipart in weighted_partitions(i, iweights):
        for jpart in weighted_partitions(j, iweights):
            ktarget = sum(ipart) + sum(jpart) - 1
            for kpart in weighted_partitions(ktarget, kweights):
                term = _composition_term(ring, vars, ipart, jpart, kpart, factor_pow, den_base)
                if term is not None:
                    total = total + term
    return total


def _composition_term(ring, vars, ipart, jpart, kpart, factor_pow, den_base):
    """One summand of the closed coefficient formulas.

    ipart = (i_0, i_1, ...), jpart = (j_0, j_1, ...), kpart = (k_1, k_2, ...).
    factor_pow(r - 1, nu_r) supplies the r-th logarithm coefficient raised
    to nu_r = i_r + j_r + k_r; if den_base is a prime p, an extra p^(r*nu_r)
    joins the denominator (the G(s) normalization).  Returns None when a
    logarithm coefficient factor is identically zero.
    """
    i0, j0 = ipart[0], jpart[0]
    irs, jrs, krs = list(ipart[1:]), list(jpart[1:]), list(kpart)
    rmax = max(len(irs), len(jrs), len(krs), 0)
    irs += [0] * (rmax - len(irs))
    jrs += [0] * (rmax - len(jrs))
    krs += [0] * (rmax - len(krs))
    T = i0 + j0 + sum(irs) + sum(jrs) + sum(krs)
    den = factorial(i0) * factorial(j0)
    sign = 1
    nu = []
    for r in range(rmax):
        den *= factorial(irs[r]) * factorial(jrs[r]) * factorial(krs[r])
        if krs[r] % 2:
            sign = -sign
        nu.append(irs[r] + jrs[r] + krs[r])
        if den_base is not None:
            den *= den_base ** ((r + 1) * nu[r])
    coeff = Fraction(sign * factorial(T - 1), den)
    term = Poly.const(ring, vars, coeff)
    for r, v in enumerate(nu):
        if v:
            p = factor_pow(r, v)
            if p.is_zero():
                return None
            term = term * p
    return term


def log_from_fgl(F: Series2) -> Series1:
    """Logarithm of a formal group law by omega(x) = dF/dy (x, 0), series
    reciprocal, and termwise integration.  Needs Q coefficients (integration
    divides by the exponent)."""
    if F.ring.kind != "Q":
        raise DomainError("integration needs Q coefficients")
    ring, vars, N = F.ring, F.vars, F.N
    one = Poly.const(ring, vars, 1)
    w = [one] + [F.coeff(i, 1) for i in range(1, N)]
    b = [one]
    for k in range(1, N):
        acc = Poly.zero(ring, vars)
        for i in range(1, k + 1):
            if not w[i].is_zero():
                acc = acc + w[i] * b[k - i]
        b.append(-acc)
    cs = [b[k - 1].scale(Fraction(1, k)) for k in range(1, N + 1)]
    return Series1(ring, vars, N, cs)


# ---------------------------------------------------------------------------
# FGL coefficient tables and the axioms checker


@dataclass
class FGLTable:
    """Symmetric table (i, j) -> alpha_ij of formal-group coefficients,
    truncated at total degree N; alpha_10 = alpha_01 = 1."""

    prime: int | None
    N: int
    entries: dict[tuple[int, int], Poly]

    @classmethod
    def from_coeff_fn(cls, prime, N: int, ring: Ring, vars: VarTable, fn) -> "FGLTable":
        one = Poly.const(ring, vars, 1)
        entries = {(1, 0): one, (0, 1): one}
        for i in range(1, N):
            for j in range(i, N + 1 - i):
                c = fn(i, j)
                if not c.is_zero():
                    entries[(i, j)] = c
                    entries[(j, i)] = c
        return cls(prime, N, entries)

    def coeff(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j))


@dataclass
class AxiomReport:
    unit_ok: bool = True
    commutative_ok: bool = True
    associative_ok: bool = True
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.unit_ok and self.commutative_ok and self.associative_ok

    def summary(self) -> str:
        if self.ok:
            return "pass"
        return "FAIL: " + "; ".join(self.failures)


def check_fgl_axioms(F: Series2, N: int | None = None) -> AxiomReport:
    """Verify F(x,0) = x, F(x,y) = F(y,x), and associativity as identities of
    trivariate truncated series up to total degree N.  Failures are reported
    with the first offending coefficient, never raised."""
    if N is None:
        N = F.N
    if N > F.N:
        raise DomainError("cannot check beyond the truncation degree")
    rep = AxiomReport()
    one = Poly.const(F.ring, F.vars, 1)
    if F.coeff(1, 0) != one or F.coeff(0, 1) != one:
        rep.unit_ok = False
        rep.failures.append("unit: coefficients at x and y are not 1")
    for (i, j), c in sorted(F.cf.items()):
        if i + j > N:
            continue
        if j == 0 and i >= 2:
            rep.unit_ok = False
            rep.failures.append(f"unit: nonzero coefficient at x^{i}")
        if i == 0 and j >= 2:
            rep.unit_ok = False
            rep.failures.append(f"unit: nonzero coefficient at y^{j}")
    for (i, j), c in sorted(F.cf.items()):
        if i + j <= N and F.coeff(j, i) != c:
            rep.commutative_ok = False
            rep.failures.append(f"commutativity: ({i},{j}) differs from ({j},{i})")
            break
    if not rep.commutative_ok:
        rep.associative_ok = False
        rep.failures.append("associativity: skipped (not commutative)")
        return rep
    # T = F(F(x,y), z); by commutativity F(x, F(y,z)) = T(y, z, x), so
    # associativity is invariance of T under the cycle (x,y,z) -> (y,z,x).
    # T = sum_k z^k T_k(x, y) with T_k = sum_i c_ik F^i.
    cf, p = _scalar_coeffs(F)
    t = {
        (i, j, k): v
        for k, tk in _power_slices(cf, cf, 1, N, p).items()
        for (i, j), v in tk.items()
        if i + j + k <= N
    }
    perm = {(b, c, a): v for (a, b, c), v in t.items()}
    if t != perm:
        rep.associative_ok = False
        for key in sorted(set(t) | set(perm)):
            if t.get(key) != perm.get(key):
                rep.failures.append("associativity: first mismatch at x^%d y^%d z^%d" % key)
                break
    return rep


def _scalar_coeffs(F: Series2):
    """F's coefficients as scalars, with the modulus that reduces them, when
    every coefficient is constant (faster); else F's Poly coefficients."""
    cf = {ij: c.constant_value() for ij, c in F.cf.items()}
    if None in cf.values():
        return F.cf, None
    return cf, F.ring.p
