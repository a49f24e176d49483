import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.errors import DomainError
from fgl.mpoly import Fp, Poly, Q, Ring, VarTable, Z, parse_poly
from fgl.pseries import series_add, series_mul


XY = VarTable([("x", 1), ("y", 1)])
A12 = VarTable([("a1", 1), ("a2", 2)])
V3 = VarTable([("v1", 1), ("v2", 3), ("v3", 7)])


def x_y():
    return Poly.var(Q, XY, "x"), Poly.var(Q, XY, "y")


def test_mul_binomial_square():
    x, y = x_y()
    assert (x + y) * (x + y) == x**2 + 2 * x * y + y**2


def test_scalar_fraction_mul():
    a1 = Poly.var(Q, A12, "a1")
    half = a1.scale(Fraction(-1, 2))
    assert half * half == (a1 * a1).scale(Fraction(1, 4))


def test_weighted_powers():
    v1 = Poly.var(Q, V3, "v1")
    p = v1 * v1**2
    assert p == v1**3
    assert p.weight() == 3


def test_ring_mismatch_rejected():
    x, _ = x_y()
    a1 = Poly.var(Q, A12, "a1")
    with pytest.raises(DomainError):
        x * a1
    with pytest.raises(DomainError):
        x + Poly.var(Fp(2), XY, "x")


def test_substitute_examples():
    v1 = Poly.var(Q, V3, "v1")
    a1 = Poly.var(Q, A12, "a1")
    a2 = Poly.var(Q, A12, "a2")
    img = v1.substitute({"v1": -a1})
    assert img == -a1
    x, y = x_y()
    assert (x + y).substitute({"x": Poly.zero(Q, XY), "y": y}) == y
    v2 = Poly.var(Q, V3, "v2")
    assert v2.substitute({"v2": (a1 * a2).scale(Fraction(4, 3))}) == (a1 * a2).scale(Fraction(4, 3))


def test_substitute_missing_binding():
    v1 = Poly.var(Q, V3, "v1")
    v2 = Poly.var(Q, V3, "v2")
    with pytest.raises(DomainError):
        (v1 + v2).substitute({"v1": v1})


def test_substitute_is_ring_hom():
    rng = random.Random(3)
    a1 = Poly.var(Q, A12, "a1")
    a2 = Poly.var(Q, A12, "a2")
    bindings = {"x": a1 + a2, "y": a1 * a2 - 1}
    for _ in range(20):
        f = _random_poly(rng, XY)
        g = _random_poly(rng, XY)
        assert (f * g).substitute(bindings) == f.substitute(bindings) * g.substitute(bindings)
        assert (f + g).substitute(bindings) == f.substitute(bindings) + g.substitute(bindings)


def test_graded_component():
    a1 = Poly.var(Q, A12, "a1")
    a2 = Poly.var(Q, A12, "a2")
    f = a1**2 + a2
    assert f.graded_component(2) == f
    v1 = Poly.var(Q, V3, "v1")
    v2 = Poly.var(Q, V3, "v2")
    g = v1**3 + v2
    assert g.graded_component(3) == g
    assert (a1 + a2).graded_component(5).is_zero()


def test_graded_components_sum_to_poly():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_poly(rng, A12)
        total = Poly.zero(Q, A12)
        for w in range(f.max_weight() + 1):
            total = total + f.graded_component(w)
        assert total == f


def test_reduce_mod_p():
    a1 = Poly.var(Q, A12, "a1")
    a2 = Poly.var(Q, A12, "a2")
    f = (a1 * a2).scale(Fraction(4, 3))
    assert f.reduce_mod_p(2).is_zero()
    g = a1.scale(Fraction(1, 3))
    assert g.reduce_mod_p(2) == Poly.var(Fp(2), A12, "a1")
    assert (-a1).reduce_mod_p(2) == Poly.var(Fp(2), A12, "a1")
    with pytest.raises(DomainError):
        a1.scale(Fraction(1, 2)).reduce_mod_p(2)
    with pytest.raises(DomainError):
        Fp(4)
    with pytest.raises(DomainError):
        Ring("Fp", 6).coerce(Fraction(1, 4))


def test_reduce_mod_p_commutes_with_ring_ops():
    # the F_2 side multiplies and adds the reduced coefficient dicts with the
    # series kernel mod 2; exponents stay below 7 in a1 + a2, so degree 12
    # truncates nothing
    rng = random.Random(5)
    for _ in range(20):
        f = _random_poly(rng, A12, denominators=(1, 3, 5))
        g = _random_poly(rng, A12, denominators=(1, 3, 5))
        fr, gr = f.reduce_mod_p(2).terms, g.reduce_mod_p(2).terms
        assert (f * g).reduce_mod_p(2).terms == series_mul(fr, gr, 12, 2)
        assert (f + g).reduce_mod_p(2).terms == series_add(fr, gr, 2)


@pytest.mark.parametrize("ring", [Fp(2), Z], ids=repr)
def test_arithmetic_refused_off_q(ring):
    x, y = Poly.var(ring, XY, "x"), Poly.var(ring, XY, "y")
    for op in (
        lambda: x + y,
        lambda: x + 1,
        lambda: 1 + x,
        lambda: x - y,
        lambda: 1 - x,
        lambda: -x,
        lambda: x * y,
        lambda: 3 * x,
        lambda: x.scale(3),
        lambda: x**1,
        lambda: x**2,
    ):
        with pytest.raises(DomainError, match="compute over Q"):
            op()


def test_parse_poly_combines_terms_before_coercing():
    x = Poly.var(Fp(2), XY, "x")
    assert parse_poly("x + x", Fp(2), XY).is_zero()
    assert parse_poly("1/3*x", Fp(2), XY) == x
    assert parse_poly("x + 1/3*x + y - y", Fp(2), XY).is_zero()
    with pytest.raises(DomainError):
        parse_poly("1/2*x", Fp(2), XY)
    assert parse_poly("2*x - x", Z, XY) == Poly.var(Z, XY, "x")
    assert parse_poly("1/2*x + 1/2*x", Z, XY) == Poly.var(Z, XY, "x")
    with pytest.raises(DomainError):
        parse_poly("x + z", Q, XY)


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(15):
        f = _random_poly(rng, V3)
        g = _random_poly(rng, V3)
        h = _random_poly(rng, V3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert f + g == g + f


def test_canonical_text():
    a22 = Poly.var(Q, VarTable([("alpha_1_1", 1), ("alpha_2_2", 3)]), "alpha_2_2")
    a11 = Poly.var(Q, VarTable([("alpha_1_1", 1), ("alpha_2_2", 3)]), "alpha_1_1")
    f = a22.scale(Fraction(-1, 3)) + (a11**3).scale(Fraction(4, 3))
    assert str(f) == "-1/3*alpha_2_2 + 4/3*alpha_1_1^3"
    assert str(Poly.zero(Q, XY)) == "0"
    # ascending graded-lex in the VarTable order: y = (0,1) precedes x = (1,0)
    x, y = x_y()
    assert str(x - y) == "-y + x"
    assert str(y - x) == "y - x"


def test_json_round_trip():
    a1 = Poly.var(Q, A12, "a1")
    a2 = Poly.var(Q, A12, "a2")
    f = (a1**3 * a2).scale(Fraction(-7, 5)) + a2**2 + 4
    obj = f.to_json_obj()
    assert obj["ring"] == "Q"
    assert obj["terms"] == [
        {"coeff": "4", "exps": {}},
        {"coeff": "1", "exps": {"a2": 2}},
        {"coeff": "-7/5", "exps": {"a1": 3, "a2": 1}},
    ]
    assert Poly.var(Fp(3), A12, "a1").to_json_obj()["ring"] == "F3"


def test_parse_poly_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        f = _random_poly(rng, A12)
        assert parse_poly(str(f), Q, A12) == f
    assert parse_poly("-1/3*a1*a2 + a1^2", Q, A12) == Poly.monomial(
        Q, A12, Fraction(-1, 3), {"a1": 1, "a2": 1}
    ) + Poly.monomial(Q, A12, 1, {"a1": 2})


# -- the fraction-free layout against a {exps: Fraction} oracle ------------


def _oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _oracle_scale(a, c):
    return {e: v * c for e, v in a.items() if v * c}


def _oracle_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _oracle_mul(out, a)
    return out


def _assert_canonical(poly):
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c != 0 for c in poly.num.values())
    assert gcd(poly.den, *poly.num.values()) == 1


_fractions = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 12, 35])
)


@st.composite
def _poly_triples(draw):
    """A variable table of 2 or 3 variables and three {exps: Fraction}
    dicts with mixed denominators."""
    vars = draw(st.sampled_from([XY, V3]))
    exps = st.tuples(*[st.integers(0, 3)] * len(vars))
    dicts = [draw(st.dictionaries(exps, _fractions, max_size=5)) for _ in range(3)]
    return vars, dicts


@settings(max_examples=60, deadline=None)
@given(_poly_triples(), _fractions, st.integers(0, 3))
def test_fraction_free_arithmetic_matches_fraction_oracle(triple, c, n):
    vars, (da, db, dc) = triple
    a, b, d = (Poly(Q, vars, t) for t in (da, db, dc))
    da, db = ({e: v for e, v in t.items() if v} for t in (da, db))
    cases = [
        (a, da),
        (a + b, _oracle_add(da, db)),
        (a - b, _oracle_add(da, _oracle_scale(db, -1))),
        (-a, _oracle_scale(da, -1)),
        (a * b, _oracle_mul(da, db)),
        (a.scale(c), _oracle_scale(da, c)),
        (a * c, _oracle_scale(da, c)),
        (a**n, _oracle_pow(da, n, len(vars))),
    ]
    for poly, expect in cases:
        assert poly.terms == expect
        assert all(type(v) is Fraction for v in poly.terms.values())
        _assert_canonical(poly)
    # equal values reached by different routes are equal and hash equal
    for left, right in [
        ((a + b) - b, a),
        (a * (b + d), a * b + a * d),
        (b * a, a * b),
        (a.scale(c).scale(1 / c) if c else a, a),
        (a.scale(Fraction(1, 6)) + a.scale(Fraction(5, 6)), a),
        (a * Fraction(1, 2) * 2, a),
    ]:
        assert left == right
        assert hash(left) == hash(right)


def test_equal_polys_hash_equal_across_routes():
    x, _ = x_y()
    half = x * Fraction(1, 2)
    assert half * 2 == x and hash(half * 2) == hash(x)
    assert (half * 2).den == 1 and (half * 2).num == {(1, 0): 1}
    e = (1, 1)
    quarter = Poly(Q, XY, {e: Fraction(2, 4)})
    assert quarter == Poly(Q, XY, {e: Fraction(1, 2)})
    assert hash(quarter) == hash(Poly(Q, XY, {e: Fraction(1, 2)}))
    assert (quarter.num, quarter.den) == ({e: 1}, 2)
    # 1/6 + 1/3 = 1/2: the common denominator 6 shares the factor 3 with the sum
    third = Poly(Q, XY, {e: Fraction(1, 6)}) + Poly(Q, XY, {e: Fraction(1, 3)})
    assert (third.num, third.den) == ({e: 1}, 2)
    assert (x - x).den == 1 and (x - x).is_zero()


def test_constructor_refuses_values_outside_the_ring():
    x = (1, 0)
    for ring, bad in [
        (Fp(3), 4),  # would render 4*x and differ from parse_poly("x")
        (Fp(3), 3),  # would render 3*x and not be zero
        (Fp(3), -1),
        (Fp(3), Fraction(1)),
        (Z, Fraction(1, 2)),
        (Q, 0.5),
        (Z, 2.0),
        (Q, "1/2"),
    ]:
        with pytest.raises(DomainError):
            Poly(ring, XY, {x: bad})
    assert Poly(Fp(3), XY, {x: 1}) == parse_poly("x", Fp(3), XY)
    assert Poly(Fp(3), XY, {x: 0}).is_zero()
    assert Poly(Z, XY, {x: Fraction(4, 2)}) == Poly.var(Z, XY, "x", 2)
    x_poly, _ = x_y()
    with pytest.raises(DomainError):
        x_poly + 1.5
    with pytest.raises(DomainError):
        x_poly.scale(0.5)
    with pytest.raises(DomainError):
        Poly.var(Z, XY, "x").map_coeffs(Fp(2), lambda c: c + 1)  # 2 is not reduced mod 2


def test_eq_with_foreign_operands_is_not_implemented():
    x, _ = x_y()
    assert x.__eq__("x") is NotImplemented
    assert (x == "x") is False
    assert (x == None) is False  # noqa: E711
    assert x != "x"
    assert Poly.zero(Q, XY) == 0
    assert Poly.const(Q, XY, Fraction(3, 2)) == Fraction(3, 2)


def _random_poly(rng, vars, denominators=(1, 1, 2, 3)):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 3) for _ in range(len(vars)))
        c = Fraction(rng.randint(-5, 5), rng.choice(denominators))
        if c:
            terms[exps] = c
    return Poly(Q, vars, {e: Fraction(c) for e, c in terms.items()})
