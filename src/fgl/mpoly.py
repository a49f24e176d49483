"""Sparse multivariate polynomials with weight-graded named variables:
arithmetic over Q; Z and F_p polynomials are containers.

A polynomial is stored fraction-free, in the layout of FLINT's
``fmpq_mpoly``: ``num`` maps exponent tuples to nonzero int numerators over
one int denominator ``den > 0``, and gcd(den, every numerator) = 1, so equal
polynomials have equal (num, den).  Z and F_p polynomials use the same
layout with den = 1 (F_p numerators lie in 1..p-1).  Sums and products run
on plain ints; ``terms`` builds the coefficient dict on demand, with
Fraction values over Q and int values over Z and F_p.

The formal group laws are computed over Q and reach Z or F_p only at the end,
by ``map_coeffs`` or ``reduce_mod_p``.  A Z or F_p polynomial can be built,
compared, rendered and written as JSON, but sums and products refuse it.

Weights are "half-degrees": a topological degree 2d is stored as weight d,
so v_n carries weight p^n - 1 and a1, a2 carry weights 1, 2.  The canonical
term order is graded lexicographic in the VarTable order, smallest first;
zero coefficients are never stored.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping

from .errors import DomainError


class Ring:
    """Coefficient ring tag: Q, Z, or F_p with p recorded.  Arithmetic is
    over Q; Z and F_p polynomials are containers."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "Z", "Fp"):
            raise DomainError(f"unknown ring kind {kind!r}")
        if (kind == "Fp") != (p is not None):
            raise DomainError("p must be given exactly for Fp rings")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    def coerce(self, c):
        """The int or Fraction c as an element of this ring: a Fraction over
        Q, an int over Z (c must be integral), an int in 0..p-1 over F_p
        (c must be p-local).  Anything else, a float included, is refused."""
        if not isinstance(c, (int, Fraction)):
            raise DomainError(f"coefficient {c!r} is neither an int nor a Fraction")
        if self.kind == "Q":
            return c if isinstance(c, Fraction) else Fraction(c)
        if self.kind == "Z":
            if c.denominator != 1:
                raise DomainError(f"{c} is not an integer")
            return c.numerator
        if gcd(c.denominator, self.p) != 1:
            raise DomainError(f"{c} is not {self.p}-local")
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def json_tag(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind


Q = Ring("Q")
Z = Ring("Z")

_fp_cache: dict[int, Ring] = {}


def require_prime(p: int) -> int:
    """Return p if it is a prime, else raise DomainError."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise DomainError(f"{p} is not a prime")
    return p


def Fp(p: int) -> Ring:
    if p not in _fp_cache:
        _fp_cache[p] = Ring("Fp", require_prime(p))
    return _fp_cache[p]


class VarTable:
    """Ordered list of (name, weight) pairs; fixes the monomial order."""

    __slots__ = ("names", "weights", "_index")

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        pairs = tuple(pairs)
        self.names = tuple(name for name, _ in pairs)
        self.weights = tuple(w for _, w in pairs)
        if len(set(self.names)) != len(self.names):
            raise DomainError("duplicate variable names")
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return "VarTable(%s)" % ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))

    def index(self, name: str) -> int:
        if name not in self._index:
            raise DomainError(f"unknown variable {name!r}")
        return self._index[name]

    def monomial_weight(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))


class Poly:
    """Sparse polynomial sum (num[exps] / den) * x^exps: int numerators, none
    zero, over one denominator den > 0 with gcd(den, *num.values()) == 1."""

    __slots__ = ("ring", "vars", "num", "den")

    def __init__(self, ring: Ring, vars: VarTable, terms: Mapping[tuple[int, ...], object]):
        """The polynomial with coefficient terms[exps] at each exps; zero
        coefficients are dropped.  A coefficient must already be an element
        of the ring: an int or Fraction over Q, an integral one over Z, an
        int in 0..p-1 over F_p.  Anything else raises DomainError; nothing is
        reduced or converted."""
        if ring.kind == "Fp":
            for c in terms.values():
                if not (isinstance(c, int) and 0 <= c < ring.p):
                    raise DomainError(f"coefficient {c!r} is not in 0..{ring.p - 1} for {ring}")
            num, den = {e: c for e, c in terms.items() if c}, 1
        else:
            cs = {e: ring.coerce(c) for e, c in terms.items()}
            # over the lcm of the reduced denominators the numerators are coprime
            den = lcm(*(c.denominator for c in cs.values()))
            # a numerator already over den is shared, not copied by a product
            # with 1: the kernel rows of ptypical keep their ints only once
            num = {
                e: c.numerator if c.denominator == den else c.numerator * (den // c.denominator)
                for e, c in cs.items()
                if c
            }
        self.ring = ring
        self.vars = vars
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, ring: Ring, vars: VarTable, num: dict, den: int = 1) -> "Poly":
        """Internal constructor: num holds no zero and (num, den) is already
        canonical."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.vars = vars
        poly.num = num
        poly.den = den
        return poly

    @classmethod
    def _reduced(cls, ring: Ring, vars: VarTable, num: dict, den: int) -> "Poly":
        """Internal constructor: num holds no zero; gcd(den, *num) is divided
        out here."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        return cls._make(ring, vars, num, den)

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        """{exps: coefficient}, built on each read: Fraction values over Q,
        int values over Z and F_p."""
        if self.ring.kind == "Q":
            den = self.den
            return {e: Fraction(c, den) for e, c in self.num.items()}
        return dict(self.num)

    def _value(self, c: int):
        """The coefficient with numerator c, as ``terms`` gives it."""
        return Fraction(c, self.den) if self.ring.kind == "Q" else c

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, vars: VarTable) -> "Poly":
        return cls._make(ring, vars, {})

    @classmethod
    def _term(cls, ring: Ring, vars: VarTable, exps: tuple[int, ...], c) -> "Poly":
        c = ring.coerce(c)
        return cls._make(ring, vars, {exps: c.numerator} if c else {}, c.denominator)

    @classmethod
    def const(cls, ring: Ring, vars: VarTable, c) -> "Poly":
        return cls._term(ring, vars, (0,) * len(vars), c)

    @classmethod
    def var(cls, ring: Ring, vars: VarTable, name: str, coeff=1) -> "Poly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._term(ring, vars, exps, coeff)

    @classmethod
    def monomial(cls, ring: Ring, vars: VarTable, coeff, exps: Mapping[str, int]) -> "Poly":
        e = [0] * len(vars)
        for name, k in exps.items():
            e[vars.index(name)] = k
        return cls._term(ring, vars, tuple(e), coeff)

    # -- ring structure ----------------------------------------------

    def _check_q(self):
        if self.ring.kind != "Q":
            raise DomainError(
                f"no polynomial arithmetic over {self.ring}: compute over Q, then reduce_mod_p"
            )

    def _same_space(self, other: "Poly") -> bool:
        """Same ring and variable table; operands almost always share the
        objects, so identity is tested before value equality."""
        return (self.ring is other.ring or self.ring == other.ring) and (
            self.vars is other.vars or self.vars == other.vars
        )

    def _check_compatible(self, other: "Poly"):
        if not self._same_space(other):
            raise DomainError("ring or variable-table mismatch")
        self._check_q()

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.ring, self.vars, other)
        self._check_compatible(other)
        if not other.num:
            return self
        if not self.num:
            return other
        g = gcd(self.den, other.den)
        f1, f2 = other.den // g, self.den // g
        out = dict(self.num) if f1 == 1 else {e: c * f1 for e, c in self.num.items()}
        for e, c in other.num.items():
            if f2 != 1:
                c *= f2
            out[e] = out[e] + c if e in out else c
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return Poly._reduced(self.ring, self.vars, out, self.den * f1)

    __radd__ = __add__

    def __neg__(self):
        self._check_q()
        return Poly._make(self.ring, self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.ring, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        add = operator.add
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return Poly._reduced(self.ring, self.vars, out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        self._check_q()
        c = self.ring.coerce(c)
        if not c:
            return Poly.zero(self.ring, self.vars)
        n = c.numerator
        return Poly._reduced(
            self.ring, self.vars, {e: v * n for e, v in self.num.items()}, self.den * c.denominator
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Poly.const(self.ring, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ring, self.vars, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.num == other.num and self._same_space(other)

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        return hash((self.ring, self.vars, self.den, frozenset(self.num.items())))

    # -- structure queries -------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def constant_value(self):
        """The scalar value if this poly is constant, else None."""
        if not self.num:
            return self.ring.coerce(0)
        if len(self.num) == 1:
            (exps, c), = self.num.items()
            if not any(exps):
                return self._value(c)
        return None

    def coeff_of(self, exps: Mapping[str, int]):
        e = [0] * len(self.vars)
        for name, k in exps.items():
            e[self.vars.index(name)] = k
        return self._value(self.num.get(tuple(e), 0))

    def weight(self) -> int | None:
        """Common weight of all terms if homogeneous, else None; 0 for 0."""
        ws = {self.vars.monomial_weight(e) for e in self.num}
        if not ws:
            return 0
        return ws.pop() if len(ws) == 1 else None

    def max_weight(self) -> int:
        return max((self.vars.monomial_weight(e) for e in self.num), default=0)

    def graded_component(self, w: int) -> "Poly":
        part = {e: c for e, c in self.num.items() if self.vars.monomial_weight(e) == w}
        return Poly._reduced(self.ring, self.vars, part, self.den)

    def variables_used(self) -> set[str]:
        used = set()
        for e in self.num:
            for i, k in enumerate(e):
                if k:
                    used.add(self.vars.names[i])
        return used

    # -- ring maps ----------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Image under the ring map sending each variable to its binding.

        Every variable occurring in self must be bound; the bound polys
        must share one ring and variable table, which the result uses.
        """
        if not bindings:
            raise DomainError("empty bindings: target ring unknown")
        target = next(iter(bindings.values()))
        for g in bindings.values():
            target._check_compatible(g)
        missing = self.variables_used() - set(bindings)
        if missing:
            raise DomainError(f"missing bindings for {sorted(missing)}")
        out = Poly.zero(target.ring, target.vars)
        images = Powers([bindings.get(name) for name in self.vars.names])
        for exps, c in self.terms.items():
            out = out + images.product(exps, Poly.const(target.ring, target.vars, c))
        return out

    def reduce_mod_p(self, p: int) -> "Poly":
        """Coefficientwise image in F_p; the denominator must be prime to p."""
        if self.ring.kind == "Fp":
            if self.ring.p != p:
                raise DomainError("polynomial already lives in a different F_p")
            return self
        fp = Fp(p)
        if self.den % p == 0:
            bad = next(c for c in self.terms.values() if c.denominator % p == 0)
            raise DomainError(f"{bad} is not {p}-local")
        inv = pow(self.den, -1, p)
        return Poly._make(fp, self.vars, {e: r for e, c in self.num.items() if (r := c * inv % p)})

    def map_coeffs(self, ring: Ring, fn) -> "Poly":
        return Poly(ring, self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- canonical text / JSON -----------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(
            self.terms.items(), key=lambda t: (self.vars.monomial_weight(t[0]), t[0])
        )

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [
                self.vars.names[i] + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exps)
                if k
            ]
            neg = c < 0
            mag = -c if neg else c
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = str(mag) + "*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__

    def to_json_obj(self) -> dict:
        return {
            "ring": self.ring.json_tag(),
            "terms": [
                {
                    "coeff": str(c),
                    "exps": {self.vars.names[i]: k for i, k in enumerate(exps) if k},
                }
                for exps, c in self.sorted_terms()
            ],
        }


class Powers:
    """Memoized positive powers ``powers(r, k) == bases[r] ** k`` of a fixed
    list of bases, under the product ``mul``.  Each new power is one ``mul``
    of the highest power held by the base, so asking for k = 1, 2, 3, ...
    costs one product per step."""

    __slots__ = ("bases", "mul", "held")

    def __init__(self, bases, mul=operator.mul):
        self.bases = bases
        self.mul = mul
        self.held: dict[int, list] = {}

    def __call__(self, r: int, k: int):
        held = self.held.setdefault(r, [self.bases[r]])
        while len(held) < k:
            held.append(self.mul(held[-1], self.bases[r]))
        return held[k - 1]

    def product(self, exps, acc):
        """acc times bases[r] ** exps[r] for every r, left to right."""
        for r, k in enumerate(exps):
            if k:
                acc = self.mul(acc, self(r, k))
        return acc


def parse_poly(text: str, ring: Ring, vars: VarTable) -> Poly:
    """Parse canonical polynomial text like ``-1/3*a1*a2^2 + 4``.

    Accepts the output of ``str(Poly)``: terms joined by + and -, each a
    product of an optional rational coefficient and ``name^k`` factors.
    Like terms are summed over Q and each sum is coerced into ``ring`` once,
    so ``x + x`` parses to 0 over F_2.
    """
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty polynomial text")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    sums: dict[tuple[int, ...], Fraction] = {}
    for term in terms:
        if term in ("", "+", "-"):
            raise DomainError(f"malformed term in {text!r}")
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = Fraction(sign)
        exps = [0] * len(vars)
        for factor in term.split("*"):
            if not factor:
                raise DomainError(f"malformed term in {text!r}")
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise DomainError(f"bad coefficient {factor!r} in {text!r}") from None
            else:
                name, caret, k = factor.partition("^")
                if caret and not k.isdecimal():
                    raise DomainError(f"bad exponent in {factor!r} of {text!r}")
                exps[vars.index(name)] += int(k) if caret else 1
        key = tuple(exps)
        sums[key] = sums.get(key, 0) + coeff
    return Poly(ring, vars, {e: ring.coerce(c) for e, c in sums.items()})
