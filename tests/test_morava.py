from fractions import Fraction

import pytest

from fgl.errors import DomainError
from fgl.morava import (
    bv_approximant,
    gs_fgl_coeff,
    gs_fgl_coeff_alt,
    gs_fgl_series,
    gs_log,
    morava_from_rational,
    ravenel_fgl_modp,
    verify_bv_approx,
    verify_wp_approx,
    witt_symmetric,
    wp_approximant,
)
from fgl.mpoly import Poly, Q, VarTable, Z, parse_poly
from fgl.pseries import check_fgl_axioms

XY = VarTable([("x", 1), ("y", 1)])


def test_gs_log_displays():
    assert str(gs_log(1, 2, 4)) == "t + 1/2*t^2 + 1/4*t^4"
    assert str(gs_log(1, 3, 3)) == "t + 1/3*t^3"
    assert str(gs_log(2, 2, 4)) == "t + 1/2*t^4"
    with pytest.raises(DomainError):
        gs_log(0, 2, 4)


def test_gs_coeff_values():
    # frozen from the fgl_from_log oracle (and hand derivation)
    assert gs_fgl_coeff(2, 1, 1, 1) == Fraction(-1)
    assert gs_fgl_coeff(3, 1, 1, 1) == 0  # (p^s - 1) does not divide i+j-1
    assert gs_fgl_coeff(2, 2, 2, 2) == Fraction(-3)


def test_gs_coeff_matches_series_oracle():
    for p, s, bound in ((2, 1, 8), (2, 2, 9), (3, 1, 9)):
        F = gs_fgl_series(p, s, bound)
        for i in range(1, bound):
            for j in range(i, bound + 1 - i):
                assert Poly.const(Q, F.vars, gs_fgl_coeff(p, s, i, j)) == F.coeff(i, j), (p, s, i, j)


def test_gs_coeff_alt_form_agrees():
    for p, s in ((2, 1), (2, 2), (3, 1)):
        for i in range(1, 8):
            for j in range(1, 9 - i):
                assert gs_fgl_coeff(p, s, i, j) == gs_fgl_coeff_alt(p, s, i, j), (p, s, i, j)


def test_witt_small_table():
    # the six displayed two-variable Witt symmetric functions
    assert witt_symmetric(1) == parse_poly("x + y", Z, XY)
    assert witt_symmetric(2) == parse_poly("-x*y", Z, XY)
    assert witt_symmetric(3) == parse_poly("-x^2*y - x*y^2", Z, XY)
    assert witt_symmetric(4) == parse_poly("-x^3*y - 2*x^2*y^2 - x*y^3", Z, XY)
    assert witt_symmetric(5) == parse_poly("-x^4*y - 2*x^3*y^2 - 2*x^2*y^3 - x*y^4", Z, XY)
    assert witt_symmetric(6) == parse_poly("-x^5*y - 3*x^4*y^2 - 4*x^3*y^3 - 3*x^2*y^4 - x*y^5", Z, XY)


def test_witt_integrality_symmetry_and_ghost_identity():
    for n in range(1, 33):
        w = witt_symmetric(n)
        assert w.ring.kind == "Z"
        assert all(e[0] + e[1] == n for e in w.terms), n
        # symmetric in x, y
        assert w == Poly(Z, XY, {(e[1], e[0]): c for e, c in w.terms.items()})
        # sum_(d|n) W^(n/d)^d / d == (x^n + y^n)/n exactly over Q
        acc = Poly.zero(Q, XY)
        for d in range(1, n + 1):
            if n % d == 0:
                wd = witt_symmetric(n // d).map_coeffs(Q, Fraction)
                acc = acc + (wd**d).scale(Fraction(1, d))
        expect = Poly.monomial(Q, XY, Fraction(1, n), {"x": n}) + Poly.monomial(
            Q, XY, Fraction(1, n), {"y": n}
        )
        assert acc == expect, n


def _slices(raw, d):
    return {k: v for k, v in raw.items() if k[0] + k[1] == d}


def test_ravenel_p2_s1_published_expansion():
    F = ravenel_fgl_modp(2, 1, 7).raw()
    assert _slices(F, 2) == {(1, 1): 1}
    assert _slices(F, 3) == {(2, 1): 1, (1, 2): 1}
    assert _slices(F, 4) == {}
    assert _slices(F, 5) == {(4, 1): 1, (1, 4): 1}
    assert _slices(F, 6) == {(4, 2): 1, (2, 4): 1}
    assert _slices(F, 7) == {(5, 2): 1, (4, 3): 1, (3, 4): 1, (2, 5): 1}


def test_ravenel_p2_s2_published_expansion():
    F = ravenel_fgl_modp(2, 2, 28).raw()
    assert _slices(F, 4) == {(2, 2): 1}
    assert _slices(F, 10) == {(6, 4): 1, (4, 6): 1}
    assert _slices(F, 16) == {(12, 4): 1, (4, 12): 1}
    assert _slices(F, 22) == {(14, 8): 1, (12, 10): 1, (10, 12): 1, (8, 14): 1}
    assert _slices(F, 28) == {(20, 8): 1, (8, 20): 1}


def test_ravenel_p2_s3_published_terms():
    F = ravenel_fgl_modp(2, 3, 64).raw()
    for key in [(4, 4), (20, 16), (16, 20), (48, 16), (16, 48)]:
        assert F.get(key) == 1, key


def test_ravenel_p3_s1_published_expansion():
    # recorded erratum at degree 5: both computation routes give +x^4y + xy^4
    # (the display's "-x^4y - xy^4" lost the inner sign of w_1); degrees 3
    # and 7 match the display.
    F = ravenel_fgl_modp(3, 1, 7).raw()
    assert _slices(F, 3) == {(2, 1): 2, (1, 2): 2}  # -x^2 y - x y^2
    assert _slices(F, 5) == {(4, 1): 1, (1, 4): 1}  # +x^4 y + x y^4
    assert _slices(F, 7) == {(6, 1): 2, (4, 3): 2, (3, 4): 2, (1, 6): 2}


def test_ravenel_p3_s2_published_terms():
    F = ravenel_fgl_modp(3, 2, 33).raw()
    assert _slices(F, 9) == {(6, 3): 2, (3, 6): 2}  # -x^6y^3 - x^3y^6
    # degree-33 group: x^24 y^9 - x^21 y^12 + x^18 y^15 + x^15 y^18 - x^12 y^21 + x^9 y^24
    assert _slices(F, 33) == {
        (24, 9): 1,
        (21, 12): 2,
        (18, 15): 1,
        (15, 18): 1,
        (12, 21): 2,
        (9, 24): 1,
    }


def test_ravenel_equals_rational_oracle():
    # p = 5, 7 and height 2 at p = 3 lie outside the deep_modp benchmark grid;
    # (2, 2, 64) and (3, 1, 42) reach degrees where the rational oracle runs
    # only because comp_inverse sums over the logarithm's support
    cells = (
        (2, 1, 16), (2, 2, 24), (3, 1, 15), (3, 2, 20), (5, 1, 30), (7, 1, 30), (3, 2, 32),
        (2, 2, 64), (3, 1, 42),
    )
    for p, s, N in cells:
        assert ravenel_fgl_modp(p, s, N).series == morava_from_rational(p, s, N), (p, s, N)


def test_morava_axioms():
    # (2, 2, 150) is in a band that has no affordable rational oracle
    for p, s, N in ((2, 1, 16), (2, 2, 24), (3, 1, 15), (2, 2, 150)):
        rep = check_fgl_axioms(ravenel_fgl_modp(p, s, N).series)
        assert rep.ok, (p, s, rep.failures)


def test_vanishing_pattern():
    for p, s, N in ((2, 2, 24), (3, 1, 15)):
        raw = ravenel_fgl_modp(p, s, N).raw()
        for (i, j) in raw:
            if i + j >= 2:
                assert (i + j - 1) % (p**s - 1) == 0, (p, s, i, j)


def test_wp_approximation():
    # F == x + y + x^2y^2 mod (x^4, y^4) and friends
    r = verify_wp_approx(2, 2, 8)
    assert r.ok
    assert str(r.approximant) == "x + y + x^2*y^2"
    r = verify_wp_approx(2, 3, 30)
    assert r.ok
    assert str(r.approximant) == "x + y + x^4*y^4"
    r = verify_wp_approx(3, 2, 18)
    assert r.ok
    assert str(r.approximant) == "x + y + 2*x^6*y^3 + 2*x^3*y^6"
    with pytest.raises(DomainError):
        verify_wp_approx(2, 1, 8)


def test_bv_approximation():
    r = verify_bv_approx(2, 16)
    assert r.ok
    raw = bv_approximant(2, 16)
    assert raw.get((2, 2)) == 1 and raw.get((6, 4)) == 1 and raw.get((4, 6)) == 1
    r = verify_bv_approx(3, 56)
    assert r.ok
    raw = bv_approximant(3, 56)
    assert raw.get((4, 4)) == 1


def test_gs_fgl_table_invariants():
    from fgl.morava import gs_fgl_table

    t = gs_fgl_table(2, 1, 6)
    for (i, j), c in t.entries.items():
        assert t.entries[(j, i)] == c
    assert t.coeff(2, 2).constant_value() == Fraction(-4)
    assert t.coeff(3, 1) is None or not t.coeff(3, 1).is_zero()


def test_bv_low_degree_agreement():
    # below the modulus degree 12 (n=2) the difference must vanish entirely
    F = ravenel_fgl_modp(2, 2, 11).raw()
    B = {k: v for k, v in bv_approximant(2, 11).items()}
    assert {k: v for k, v in F.items() if k[0] + k[1] < 12} == {
        k: v for k, v in B.items() if k[0] + k[1] < 12
    }
