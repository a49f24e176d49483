"""p-typification of the Abel formal group law.

The p-typical logarithm t + m_(p-1) t^p + m_(p^2-1) t^(p^2) + ... classifies
a map from the Brown-Peterson coefficient ring to Z_(p)[a1, a2]; this module
computes the images of the Hazewinkel generators, the graded kernel of the
map with minimal generators marked Nakayama-style, the mod-2 presentation
with its non-regularity witness, and the rank generating function in its
three-part and closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abel import A12, AbelContext
from .errors import DomainError, InternalInvariantError
from .bp import bp_vartable, sufficient_depth
from .mpoly import Poly, Powers, Q, VarTable, parse_poly, require_prime
from .pseries import Series1, weighted_partitions
from .ratint import zlocal_kernel


def ptypical_log(p: int, N: int, ctx: AbelContext | None = None) -> Series1:
    """t + m_(p-1) t^p + m_(p^2-1) t^(p^2) + ... truncated at N, with the
    m's taken from the Abel logarithm."""
    need = 1
    while p ** (need + 1) <= N:
        need += 1
    top_index = p**need - 1  # largest m-index used
    if ctx is None:
        ctx = AbelContext(max(top_index, 2))
    coeffs = {1: Poly.const(Q, A12, 1)}
    k = 1
    while p**k <= N:
        coeffs[p**k] = ctx.m_coeff(p**k - 1)
        k += 1
    return Series1.from_coeffs(Q, A12, N, coeffs)


@dataclass
class ClassifyingMap:
    """Images of the Hazewinkel generators v_1..v_n_max in Q[a1, a2]."""

    p: int
    n_max: int
    images: list[Poly]

    def image(self, n: int) -> Poly:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"v_{n} outside depth {self.n_max}")
        return self.images[n - 1]


def classify_v_images(p: int, n_max: int, ctx: AbelContext | None = None) -> ClassifyingMap:
    """Solve the Hazewinkel recursion for the images: with l_k = m_(p^k - 1),

        image(v_n) = p*l_n - sum_(i=1)^(n-1) image(v_(n-i))^(p^i) * l_i.

    Every coefficient must be p-local and homogeneous of weight p^n - 1."""
    require_prime(p)
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    top_index = p**n_max - 1
    if ctx is None:
        ctx = AbelContext(max(top_index, 2))
    ls = [ctx.m_coeff(p**k - 1) for k in range(1, n_max + 1)]
    images: list[Poly] = []
    for n in range(1, n_max + 1):
        acc = ls[n - 1].scale(p)
        for i in range(1, n):
            acc = acc - images[n - i - 1] ** (p**i) * ls[i - 1]
        if acc.den % p == 0:
            raise InternalInvariantError(f"image of v_{n} is not {p}-local: denominator {acc.den}")
        if not acc.is_zero() and acc.weight() != p**n - 1:
            raise InternalInvariantError(f"image of v_{n} is not homogeneous")
        images.append(acc)
    return ClassifyingMap(p, n_max, images)


# ---------------------------------------------------------------------------
# graded kernel of the classifying map


class _FpSpan:
    """Row-echelon span over F_p with deterministic pivoting; each row keeps
    its provenance, the combination of inserted vectors it equals.  Over F_2
    a row is the bitmask of its odd entries under its lowest bit and its
    provenance a bitmask over insertion order, so a reduction step is two
    XORs; over odd p they are a list and a dict {insertion index: coeff}."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, tuple] = {}  # pivot -> (reduced vector, provenance)
        self.inserted = 0

    def _reduce(self, vec, src):
        """(pivot, row, provenance) for vec reduced by the rows, with src the
        provenance of vec; the pivot is None if vec lies in the span."""
        rows, p = self.rows, self.p
        if p == 2:
            mask = sum(1 << i for i, x in enumerate(vec) if x % 2)
            while mask and (row := rows.get(mask & -mask)) is not None:
                mask ^= row[0]
                src ^= row[1]
            return (mask & -mask if mask else None), mask, src
        vec = [x % p for x in vec]
        for piv in sorted(rows):
            if c := vec[piv]:
                row, row_src = rows[piv]
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                for k, b in row_src.items():
                    src[k] = (src.get(k, 0) - c * b) % p
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is not None:
            inv = pow(vec[piv], -1, p)
            vec = [x * inv % p for x in vec]
            src = {k: b * inv % p for k, b in src.items()}
        return piv, vec, src

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        k = self.inserted
        self.inserted += 1
        piv, row, src = self._reduce(vec, 1 << k if self.p == 2 else {k: 1})
        if piv is None:
            return False
        self.rows[piv] = (row, src)
        return True

    def combination(self, vec) -> list[int] | None:
        """Coefficients c, one per inserted vector in insertion order, with
        vec = sum c_k * (k-th inserted vector) mod p; None if vec is not in
        the span.  Only vectors that enlarged the span get nonzero c_k."""
        piv, _, src = self._reduce(vec, 0 if self.p == 2 else {})
        if piv is not None:
            return None
        if self.p == 2:
            return [src >> k & 1 for k in range(self.inserted)]
        # reduced to 0: vec + sum src_k * inserted_k = 0
        return [-src.get(k, 0) % self.p for k in range(self.inserted)]

    def contains(self, vec) -> bool:
        return self.combination(vec) is not None


@dataclass(frozen=True)
class RelationEntry:
    weight: int
    vector: tuple[int, ...]
    poly: Poly
    minimal: bool


@dataclass(frozen=True)
class WeightReport:
    weight: int
    monomials: tuple[tuple[int, ...], ...]
    rank: int
    relations: tuple[RelationEntry, ...] = ()

    @property
    def monomial_count(self) -> int:
        return len(self.monomials)

    @property
    def kernel_dim(self) -> int:
        return len(self.relations)

    def minimal_relations(self) -> list[RelationEntry]:
        return [r for r in self.relations if r.minimal]


@dataclass
class RelationSet:
    p: int
    n_max: int
    max_weight: int
    vars: VarTable
    weights: dict[int, WeightReport]
    warning: str | None = None

    def minimal_by_weight(self) -> dict[int, list[RelationEntry]]:
        return {w: rep.minimal_relations() for w, rep in self.weights.items() if rep.minimal_relations()}


class _GradedKernel:
    """The kernel of the classifying map at one (p, n_max), grown weight by
    weight.  Weight w depends only on the images and on the minimal
    relations below w, so the kernel to weight W is the prefix of the
    kernel to any larger weight, and one object serves every caller."""

    def __init__(self, p: int, n_max: int):
        self.p = p
        self.vars = bp_vartable(p, n_max)
        self.images = Powers(classify_v_images(p, n_max).images)
        self.reports: dict[int, WeightReport] = {}
        self.minimal_store: list[RelationEntry] = []

    def extend(self, max_weight: int) -> None:
        """Compute the weights up to max_weight not held yet.  A weight is
        committed only once it is complete, so an exception part-way
        leaves the weights held so far intact."""
        p, vvars = self.p, self.vars
        vweights = list(vvars.weights)
        for w in range(len(self.reports) + 1, max_weight + 1):
            monomials = sorted(weighted_partitions(w, vweights))
            abasis = [(w - 2 * b, b) for b in range(w // 2 + 1)]
            aindex = {ab: r for r, ab in enumerate(abasis)}
            matrix = [[Fraction(0)] * len(monomials) for _ in abasis]
            for col, exps in enumerate(monomials):
                img = self.images.product(exps, Poly.const(Q, A12, 1))
                for e, c in img.terms.items():
                    matrix[aindex[(e[0], e[1])]][col] = c
            kernel = zlocal_kernel(matrix, p)
            # Nakayama: span of lower-relation multiples inside this weight
            span, _ = _multiples_span(self.minimal_store, w, vvars, monomials, p)
            entries = []
            for vec in kernel:
                poly = Poly._make(Q, vvars, {m: c for m, c in zip(monomials, vec) if c})
                minimal = span.add(vec)
                entries.append(RelationEntry(w, tuple(vec), poly, minimal))
            report = WeightReport(w, tuple(monomials), len(monomials) - len(kernel), tuple(entries))
            self.minimal_store.extend(report.minimal_relations())
            self.reports[w] = report


# one graded kernel per (p, n_max), shared by every caller in the process
_KERNELS: dict[tuple[int, int], _GradedKernel] = {}


def _kernel(p: int, n_max: int) -> _GradedKernel:
    kernel = _KERNELS.get((p, n_max))
    if kernel is None:
        kernel = _KERNELS[(p, n_max)] = _GradedKernel(p, n_max)
    return kernel


def kernel_relations(p: int, n_max: int, max_weight: int) -> RelationSet:
    """Weight-by-weight kernel of the classifying map.

    At each weight w the images of the v-monomials of weight w are expanded
    in the a1^i a2^j basis; the Z_(p)-kernel of that matrix gives the
    relations.  A kernel generator is marked minimal iff it is nonzero in
    the F_p quotient by products of lower-weight minimal relations with
    monomials (graded Nakayama).  The Lambda-rank at weight w is
    monomial_count - kernel_dim.

    The weights are memoized per (p, n_max) for the life of the process:
    a call computes only the weights no earlier call reached, and the
    reports it returns are shared, immutable objects."""
    if max_weight < 1:
        raise DomainError("need max_weight >= 1")
    kernel = _kernel(p, n_max)
    kernel.extend(max_weight)
    reports = {w: kernel.reports[w] for w in range(1, max_weight + 1)}
    warning = None
    if p ** (n_max + 1) - 1 <= max_weight:
        warning = (
            f"v_{n_max + 1} has weight {p ** (n_max + 1) - 1} <= {max_weight}: "
            f"monomials beyond depth n_max={n_max} are not enumerated at the top weights"
        )
    return RelationSet(p, n_max, max_weight, kernel.vars, reports, warning)


def _multiples_span(rels, w: int, vvars: VarTable, monomials, p: int):
    """The F_p span of the multiples of each of rels by the monomial
    cofactors of weight w - rel.weight, as vectors over the weight-w
    monomials; inserted relation by relation, cofactors in sorted order.
    Returns the span and the (relation, cofactor) of each insertion."""
    mono_index = {m: i for i, m in enumerate(monomials)}
    span, sources = _FpSpan(p), []
    for rel in rels:
        residues = rel.poly.reduce_mod_p(p).num.items()
        for cof in sorted(weighted_partitions(w - rel.weight, list(vvars.weights))):
            vec = [0] * len(monomials)
            for e, r in residues:
                # times a monomial: exponents add, coefficients stay
                vec[mono_index[tuple(a + b for a, b in zip(e, cof))]] = r
            span.add(vec)
            sources.append((rel, cof))
    return span, sources


def _vector(poly: Poly, monomials, p: int) -> list[int]:
    """poly mod p as a vector over the given monomials."""
    red = poly.reduce_mod_p(p).num
    return [red.get(m, 0) for m in monomials]


# ---------------------------------------------------------------------------
# mod-2 presentation and the non-regularity witness

# the displayed generating relations of the mod-2 coefficient ring, by weight
MOD2_DISPLAYED = {
    9: "v1^3*v2^2",
    17: "v1^3*v3^2 + v1^2*v2^5",
    21: "v1*v2^2*v3^2 + v1^2*v2^4*v3 + v2^7",
    33: "v1^3*v4^2 + v1^2*v2*v3^4",
}


@dataclass
class Mod2Check:
    weight: int
    displayed: Poly
    new_minimal_count: int
    displayed_in_kernel: bool
    displayed_not_in_lower_ideal: bool

    @property
    def ok(self) -> bool:
        return (
            self.new_minimal_count == 1
            and self.displayed_in_kernel
            and self.displayed_not_in_lower_ideal
        )


@dataclass(frozen=True)
class RelationTerm:
    """Relation number `index` of minimal_by_weight()[weight] times the
    v-monomial with exponents `cofactor`."""

    weight: int
    index: int
    cofactor: tuple[int, ...]

    def label(self, vvars: VarTable) -> str:
        return f"(relation at weight {self.weight}) * {Poly(Q, vvars, {self.cofactor: 1})}"


@dataclass(frozen=True)
class V1Multiple:
    """The v-monomial with exponents `exps`, a multiple of v1."""

    exps: tuple[int, ...]

    def label(self, vvars: VarTable) -> str:
        return f"v1-multiple {Poly(Q, vvars, {self.exps: 1})}"


@dataclass
class Mod2Report:
    checks: list[Mod2Check]
    unexpected_weights: list[int]  # weights with new minimal generators not displayed
    witness_ok: bool
    witness: list[RelationTerm | V1Multiple] | None  # v2^7 certificate, None if none found
    witness_parts: list[str]
    reductions: dict[int, list[Poly]]  # minimal generators reduced mod 2

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and not self.unexpected_weights and self.witness_ok


def mod2_presentation(rs: RelationSet) -> Mod2Report:
    """Reduce the minimal kernel generators mod 2, verify the presentation
    begins with the four displayed relations (each the unique new minimal
    generator at its weight, equal to the displayed polynomial modulo the
    ideal of lower relations), and exhibit v2^7 inside (v1) + relations."""
    if rs.p != 2:
        raise DomainError("the presentation is computed at p = 2")
    vvars = rs.vars
    minimal = rs.minimal_by_weight()
    reductions = {w: [r.poly.reduce_mod_p(2) for r in entries] for w, entries in minimal.items()}
    checks = []
    unexpected = [w for w in sorted(reductions) if w not in MOD2_DISPLAYED]
    for w, text in MOD2_DISPLAYED.items():
        if w > rs.max_weight:
            continue
        displayed = parse_poly(text, Q, vvars)
        rep = rs.weights[w]
        target = _vector(displayed, rep.monomials, 2)
        lower_rels = [r for w2, entries in minimal.items() if w2 < w for r in entries]
        lower, _ = _multiples_span(lower_rels, w, vvars, rep.monomials, 2)
        kernel_span = _FpSpan(2)
        for entry in rep.relations:
            kernel_span.add(entry.vector)
        new_count = sum(1 for e in rep.relations if e.minimal)
        in_kernel, in_lower = kernel_span.contains(target), lower.contains(target)
        checks.append(Mod2Check(w, displayed.reduce_mod_p(2), new_count, in_kernel, not in_lower))
    witness, parts = _nonregularity_witness(rs)
    witness_ok = witness is not None and verify_witness(rs, witness)
    return Mod2Report(checks, unexpected, witness_ok, witness, parts, reductions)


def _nonregularity_witness(rs: RelationSet):
    """Solve v2^7 = v1*h + sum (relation multiples) over F_2 at weight 21:
    (certificate, its labels), or (None, [why not]).  The generators are the
    relation multiples, relation by relation, then the v1-multiples, each
    in sorted order; only generators independent of the ones before them
    enter the combination."""
    if 21 not in rs.weights:
        return None, ["weight 21 not computed"]
    vvars = rs.vars
    monomials = rs.weights[21].monomials
    minimal = rs.minimal_by_weight()
    rels = [r for w2, entries in minimal.items() if w2 <= 21 for r in entries]
    span, sources = _multiples_span(rels, 21, vvars, monomials, 2)
    terms = [RelationTerm(r.weight, minimal[r.weight].index(r), cof) for r, cof in sources]
    v1 = vvars.index("v1")
    for m in monomials:
        if m[v1]:
            span.add([int(x == m) for x in monomials])
            terms.append(V1Multiple(m))
    combo = span.combination(_vector(Poly.monomial(Q, vvars, 1, {"v2": 7}), monomials, 2))
    if combo is None:
        return None, ["v2^7 is not in (v1) + relations at weight 21"]
    witness = [term for term, c in zip(terms, combo) if c]
    return witness, [term.label(vvars) for term in witness]


def verify_witness(rs: RelationSet, witness: list[RelationTerm | V1Multiple]) -> bool:
    """Check a certificate that v2^7 lies in (v1) + relations mod 2 by Poly
    arithmetic alone: every cited relation maps to 0 under the classifying
    map, every v1-multiple is a monomial divisible by v1, and the relation
    multiples plus the v1-multiples minus v2^7 reduce to 0 mod 2."""
    vvars = rs.vars
    images = _kernel(rs.p, rs.n_max).images.bases  # classify_v_images(p, n_max)
    bindings = dict(zip(vvars.names, images))
    minimal = rs.minimal_by_weight()
    v1 = vvars.index("v1")
    total = -Poly.monomial(Q, vvars, 1, {"v2": 7})
    for term in witness:
        exps = term.exps if isinstance(term, V1Multiple) else term.cofactor
        if len(exps) != len(vvars) or min(exps) < 0:
            return False
        monomial = Poly(Q, vvars, {exps: 1})
        if isinstance(term, V1Multiple):
            if not exps[v1]:
                return False
            total = total + monomial
            continue
        entries = minimal.get(term.weight, [])
        if not 0 <= term.index < len(entries):
            return False
        rel = entries[term.index].poly
        if not rel.substitute(bindings).is_zero():
            return False
        total = total + rel * monomial
    return total.reduce_mod_p(2).is_zero()


# ---------------------------------------------------------------------------
# the generating function


@dataclass
class GenFun:
    """Integer power series coefficients c_0..c_T in the weight variable t."""

    T: int
    coeffs: list[int]

    def coeff(self, n: int) -> int:
        return self.coeffs[n]

    def render(self, topological: bool = False) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            e = 2 * n if topological else n
            if e == 0:
                parts.append(str(c))
            else:
                mono = "t" if e == 1 else f"t^{e}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


def _iser_mul(a: list[int], b: list[int], T: int) -> list[int]:
    out = [0] * (T + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: T + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _iser_geom(k: int, T: int, start: int = 0) -> list[int]:
    """t^(start*k) + t^((start+1)k) + ... = t^(start k)/(1 - t^k)."""
    out = [0] * (T + 1)
    e = start * k
    while e <= T:
        out[e] = 1
        e += k
    return out


def _iser_one_plus(k: int, T: int) -> list[int]:
    out = [0] * (T + 1)
    out[0] = 1
    if k <= T:
        out[k] = 1
    return out


def _iser_t_plus_t2(T: int) -> list[int]:
    return [int(n in (1, 2)) for n in range(T + 1)]


def _weights_upto(T: int) -> list[int]:
    """2^n - 1 for n >= 2 with 2^n - 1 <= T."""
    if T < 0:
        raise DomainError("need T >= 0")
    out = []
    n = 2
    while 2**n - 1 <= T:
        out.append(2**n - 1)
        n += 1
    return out


def genfun_parts(T: int) -> tuple[GenFun, GenFun, GenFun]:
    """The three disjoint summands of the rank generating function:

    (a) monomials with no v1:           prod_(n>=2) 1/(1 - t^(2^n - 1))
    (b) v1 or v1^2 times distinct v's times one v_j^e, e >= 2:
        (t + t^2) * sum_j [ t^(2(2^j-1))/(1 - t^(2^j-1))
                             * prod_(m>=2, m != j) (1 + t^(2^m - 1)) ]
    (c) v1 powers times distinct v's:   t/(1-t) * prod_(n>=2) (1 + t^(2^n-1))
    """
    ws = _weights_upto(T)
    one = [1] + [0] * T
    part_a = one
    for k in ws:
        part_a = _iser_mul(part_a, _iser_geom(k, T), T)
    rows = [0] * (T + 1)
    for j_weight in ws:
        if 2 * j_weight > T:
            break
        row = _iser_geom(j_weight, T, start=2)
        for k in ws:
            if k != j_weight:
                row = _iser_mul(row, _iser_one_plus(k, T), T)
        rows = [a + b for a, b in zip(rows, row)]
    part_b = _iser_mul(_iser_t_plus_t2(T), rows, T)
    part_c = _iser_geom(1, T, start=1)
    for k in ws:
        part_c = _iser_mul(part_c, _iser_one_plus(k, T), T)
    return GenFun(T, part_a), GenFun(T, part_b), GenFun(T, part_c)


def genfun_closed(T: int) -> GenFun:
    """The closed form: the common multiple prod (1 + t^(2^n-1)) times

        prod_(n>=2) 1/(1 - t^(2(2^n-1)))
        + (t + t^2) ( 1/(1 - t^2) + sum_(n>=2) t^(2(2^n-1))/(1 - t^(2(2^n-1))) ).
    """
    ws = _weights_upto(T)
    common = [1] + [0] * T
    for k in ws:
        common = _iser_mul(common, _iser_one_plus(k, T), T)
    first = [1] + [0] * T
    for k in ws:
        first = _iser_mul(first, _iser_geom(2 * k, T), T)
    inner_sum = _iser_geom(2, T)
    for k in ws:
        tail = _iser_geom(2 * k, T, start=1)
        inner_sum = [a + b for a, b in zip(inner_sum, tail)]
    second = _iser_mul(_iser_t_plus_t2(T), inner_sum, T)
    total = _iser_mul(common, [a + b for a, b in zip(first, second)], T)
    return GenFun(T, total)


# ---------------------------------------------------------------------------
# conjecture report


@dataclass
class ConjectureWeight:
    weight: int
    monomial_count: int
    rank: int
    genfun_coeff: int
    rank_matches: bool
    shapes: list[tuple[str, bool]]  # (relation text, has expected leading shape)


@dataclass
class ConjectureReport:
    max_weight: int
    entries: list[ConjectureWeight]
    warning: str | None

    @property
    def all_ranks_match(self) -> bool:
        return all(e.rank_matches for e in self.entries)

    @property
    def all_shapes_found(self) -> bool:
        return all(ok for e in self.entries for _, ok in e.shapes)


def expected_shape_monomial(w: int, vvars: VarTable) -> Poly | None:
    """The monomial v1 v_i^2 v_j^2 of weight w = 2^(i+1) + 2^(j+1) - 3 with
    1 <= i < j, if that decomposition exists within the variable table."""
    target = w + 3
    n = len(vvars)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if 2 ** (i + 1) + 2 ** (j + 1) == target:
                exps = [0] * n
                exps[0] += 1
                exps[i - 1] += 2
                exps[j - 1] += 2
                return Poly(Q, vvars, {tuple(exps): Fraction(1)})
    return None


def conjecture_check(max_weight: int, n_max: int | None = None) -> ConjectureReport:
    """Compare, weight by weight, the Lambda-rank from the kernel against
    the generating-function coefficient, and check that each minimal
    relation contains its weight's v1 v_i^2 v_j^2 monomial mod 2.  This is
    a report, never a build failure."""
    if n_max is None:
        n_max = sufficient_depth(2, max_weight)
    rs = kernel_relations(2, n_max, max_weight)
    gf = genfun_closed(max_weight)
    entries = []
    for w in range(1, max_weight + 1):
        rep = rs.weights[w]
        shapes = []
        for rel in rep.minimal_relations():
            shape = expected_shape_monomial(w, rs.vars)
            red = rel.poly.reduce_mod_p(2)
            if shape is None:
                shapes.append((str(red), False))
            else:
                (sh_exps,) = shape.terms.keys()
                shapes.append((str(red), sh_exps in red.terms))
        entries.append(
            ConjectureWeight(
                w,
                rep.monomial_count,
                rep.rank,
                gf.coeff(w),
                rep.rank == gf.coeff(w),
                shapes,
            )
        )
    return ConjectureReport(max_weight, entries, rs.warning)
