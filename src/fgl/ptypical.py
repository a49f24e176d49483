"""p-typification of the Abel formal group law.

The p-typical logarithm t + m_(p-1) t^p + m_(p^2-1) t^(p^2) + ... classifies
a map from the Brown-Peterson coefficient ring to Z_(p)[a1, a2]; this module
computes the images of the Hazewinkel generators, the graded kernel of the
map with minimal generators marked Nakayama-style, the mod-2 presentation
with its non-regularity witness, and the rank generating function in its
three-part and closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .abel import A12, AbelContext
from .errors import DomainError, InternalInvariantError
from .mpoly import Poly, Powers, Q, VarTable
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
    """Row-echelon span over F_p with deterministic pivoting."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, list[int]] = {}  # pivot index -> reduced vector

    def reduce(self, vec: list[int]) -> list[int]:
        vec = [x % self.p for x in vec]
        for piv in sorted(self.rows):
            if vec[piv]:
                row = self.rows[piv]
                c = vec[piv]
                vec = [(a - c * b) % self.p for a, b in zip(vec, row)]
        return vec

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: list[int]) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        vec = self.reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        inv = pow(vec[piv], -1, self.p)
        self.rows[piv] = [(x * inv) % self.p for x in vec]
        return True

    def dim(self) -> int:
        return len(self.rows)


@dataclass
class RelationEntry:
    weight: int
    vector: list[int]
    poly: Poly
    minimal: bool


@dataclass
class WeightReport:
    weight: int
    monomials: list[tuple[int, ...]]
    rank: int
    relations: list[RelationEntry] = field(default_factory=list)

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


def _v_vartable(p: int, n_max: int) -> VarTable:
    return VarTable([(f"v{k}", p**k - 1) for k in range(1, n_max + 1)])


def sufficient_depth(p: int, max_weight: int) -> int:
    """Smallest depth whose generators cover every weight <= max_weight:
    the largest n with p^n - 1 <= max_weight (at least 1)."""
    n = 1
    while p ** (n + 1) - 1 <= max_weight:
        n += 1
    return n


def kernel_relations(p: int, n_max: int, max_weight: int) -> RelationSet:
    """Weight-by-weight kernel of the classifying map.

    At each weight w the images of the v-monomials of weight w are expanded
    in the a1^i a2^j basis; the Z_(p)-kernel of that matrix gives the
    relations.  A kernel generator is marked minimal iff it is nonzero in
    the F_p quotient by products of lower-weight minimal relations with
    monomials (graded Nakayama).  The Lambda-rank at weight w is
    monomial_count - kernel_dim."""
    if max_weight < 1:
        raise DomainError("need max_weight >= 1")
    cm = classify_v_images(p, n_max)
    vvars = _v_vartable(p, n_max)
    vweights = list(vvars.weights)
    images = Powers(cm.images)
    reports: dict[int, WeightReport] = {}
    minimal_store: list[RelationEntry] = []
    for w in range(1, max_weight + 1):
        monomials = sorted(weighted_partitions(w, vweights))
        abasis = [(w - 2 * b, b) for b in range(w // 2 + 1)]
        aindex = {ab: r for r, ab in enumerate(abasis)}
        matrix = [[Fraction(0)] * len(monomials) for _ in abasis]
        for col, exps in enumerate(monomials):
            img = images.product(exps, Poly.const(Q, A12, 1))
            for e, c in img.terms.items():
                matrix[aindex[(e[0], e[1])]][col] = c
        kernel = zlocal_kernel(matrix, p)
        # Nakayama: span of lower-relation multiples inside this weight
        span = _FpSpan(p)
        mono_index = {m: i for i, m in enumerate(monomials)}
        for rel in minimal_store:
            for _, vec in _multiples(rel, w, vvars, mono_index, p):
                span.add(vec)
        entries = []
        for vec in kernel:
            poly = Poly(Q, vvars, {m: Fraction(c) for m, c in zip(monomials, vec) if c})
            minimal = span.add([x % p for x in vec])
            entry = RelationEntry(w, list(vec), poly, minimal)
            entries.append(entry)
            if minimal:
                minimal_store.append(entry)
        reports[w] = WeightReport(w, monomials, len(monomials) - len(kernel), entries)
    warning = None
    if n_max + 1 >= 1 and p ** (n_max + 1) - 1 <= max_weight:
        warning = (
            f"v_{n_max + 1} has weight {p ** (n_max + 1) - 1} <= {max_weight}: "
            f"monomials beyond depth n_max={n_max} are not enumerated at the top weights"
        )
    return RelationSet(p, n_max, max_weight, vvars, reports, warning)


def _multiples(rel: RelationEntry, w: int, vvars: VarTable, mono_index, p: int):
    """Yield (cofactor, vector mod p) for the multiples of rel by the
    monomial cofactors of weight w - rel.weight, cofactors in sorted order;
    the vector holds rel * cofactor over the weight-w monomials of mono_index."""
    residues = [(e, int(c) % p) for e, c in rel.poly.terms.items()]
    for cof in sorted(weighted_partitions(w - rel.weight, list(vvars.weights))):
        vec = [0] * len(mono_index)
        for e, r in residues:
            # times a monomial: exponents add, coefficients stay
            vec[mono_index[tuple(a + b for a, b in zip(e, cof))]] = r
        yield cof, vec


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


@dataclass
class Mod2Report:
    checks: list[Mod2Check]
    unexpected_weights: list[int]  # weights with new minimal generators not displayed
    witness_ok: bool
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
    reductions = {
        w: [r.poly.reduce_mod_p(2) for r in entries]
        for w, entries in rs.minimal_by_weight().items()
    }
    checks = []
    unexpected = [
        w for w in sorted(reductions) if w not in MOD2_DISPLAYED and reductions[w]
    ]
    from .mpoly import parse_poly

    for w, text in MOD2_DISPLAYED.items():
        if w > rs.max_weight:
            continue
        displayed = parse_poly(text, Q, vvars)
        rep = rs.weights[w]
        mono_index = {m: i for i, m in enumerate(rep.monomials)}

        def to_vec(poly: Poly) -> list[int]:
            vec = [0] * len(rep.monomials)
            for e, c in poly.terms.items():
                vec[mono_index[e]] = int(c) % 2
            return vec

        lower = _FpSpan(2)
        _fill_lower_span(rs, w, lower, mono_index)
        kernel_span = _FpSpan(2)
        for entry in rep.relations:
            kernel_span.add(to_vec(entry.poly))
        new_count = sum(1 for e in rep.relations if e.minimal)
        checks.append(
            Mod2Check(
                w,
                displayed.reduce_mod_p(2),
                new_count,
                kernel_span.contains(to_vec(displayed)),
                not lower.contains(to_vec(displayed)),
            )
        )
    witness_ok, witness_parts = _nonregularity_witness(rs)
    return Mod2Report(checks, unexpected, witness_ok, witness_parts, reductions)


def _fill_lower_span(rs: RelationSet, w: int, span: _FpSpan, mono_index) -> None:
    for w2, entries in rs.minimal_by_weight().items():
        if w2 >= w:
            continue
        for rel in entries:
            for _, vec in _multiples(rel, w, rs.vars, mono_index, 2):
                span.add(vec)


def _nonregularity_witness(rs: RelationSet) -> tuple[bool, list[str]]:
    """Solve v2^7 = v1*h + sum (relation multiples) over F_2 at weight 21 and
    return the explicit combination."""
    if 21 not in rs.weights:
        return False, ["weight 21 not computed"]
    vvars = rs.vars
    rep = rs.weights[21]
    mono_index = {m: i for i, m in enumerate(rep.monomials)}
    dim = len(rep.monomials)
    generators: list[tuple[str, list[int]]] = []
    for w2, entries in rs.minimal_by_weight().items():
        if w2 > 21:
            continue
        for rel in entries:
            for cof, vec in _multiples(rel, 21, vvars, mono_index, 2):
                cof_poly = Poly(Q, vvars, {cof: Fraction(1)})
                generators.append((f"(relation at weight {w2}) * {cof_poly}", vec))
    v1_index = vvars.index("v1")
    for m in rep.monomials:
        if m[v1_index] >= 1:
            vec = [0] * dim
            vec[mono_index[m]] = 1
            generators.append((f"v1-multiple {Poly(Q, vvars, {m: Fraction(1)})}", vec))
    target = [0] * dim
    v2_index = vvars.index("v2")
    v2_7 = tuple(7 if i == v2_index else 0 for i in range(len(vvars)))
    target[mono_index[v2_7]] = 1
    ok, labels = _solve_f2_combination(generators, target)
    if not ok:
        return False, ["v2^7 is not in (v1) + relations at weight 21"]
    return True, labels


def _solve_f2_combination(generators, target):
    dim = len(target)
    cols = len(generators)
    rows = [[generators[c][1][r] for c in range(cols)] for r in range(dim)]
    aug = [row + [target[r]] for r, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, dim) if aug[i][c] % 2), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(dim):
            if i != r and aug[i][c] % 2:
                aug[i] = [(a + b) % 2 for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, dim):
        if aug[i][cols] % 2:
            return False, ["no F_2 combination exists"]
    sol = [0] * cols
    for row_i, c in enumerate(piv_cols):
        sol[c] = aug[row_i][cols] % 2
    labels = [generators[c][0] for c in range(cols) if sol[c]]
    # verify
    total = [0] * dim
    for c in range(cols):
        if sol[c]:
            total = [(a + b) % 2 for a, b in zip(total, generators[c][1])]
    return total == target, labels


# ---------------------------------------------------------------------------
# the generating function


@dataclass
class GenFun:
    """Integer power series coefficients c_0..c_T in the weight variable t."""

    T: int
    coeffs: list[int]

    def coeff(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, GenFun) and self.T == other.T and self.coeffs == other.coeffs

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
    t_plus_t2 = [0] * (T + 1)
    if T >= 1:
        t_plus_t2[1] = 1
    if T >= 2:
        t_plus_t2[2] = 1
    rows = [0] * (T + 1)
    for j_weight in ws:
        if 2 * j_weight > T:
            break
        row = _iser_geom(j_weight, T, start=2)
        for k in ws:
            if k != j_weight:
                row = _iser_mul(row, _iser_one_plus(k, T), T)
        rows = [a + b for a, b in zip(rows, row)]
    part_b = _iser_mul(t_plus_t2, rows, T)
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
    t_plus_t2 = [0] * (T + 1)
    if T >= 1:
        t_plus_t2[1] = 1
    if T >= 2:
        t_plus_t2[2] = 1
    second = _iser_mul(t_plus_t2, inner_sum, T)
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
