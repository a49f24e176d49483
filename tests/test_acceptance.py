"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Each test prints one ACCEPTANCE line; run with ``pytest -s`` (or read the
captured output) to see them.  Recorded errata are asserted against the
corrected values and called out where they occur; see the fixture notes in
``fgl/data/fixtures.json``.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from fgl import abel, bp, morava, ptypical, ratint
from fgl.fixtures import reproduce
from fgl.mpoly import Poly, Q, VarTable, parse_poly
from fgl.pseries import (
    Series1,
    check_fgl_axioms,
    comp_inverse,
    fgl_from_log,
    series_compose,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{name}]: PASS")


@pytest.fixture(scope="module")
def ravenel_cache():
    cache = {}

    def get(p, s, N):
        if (p, s, N) not in cache:
            cache[(p, s, N)] = morava.ravenel_fgl_modp(p, s, N)
        return cache[(p, s, N)]

    return get


@pytest.fixture(scope="module")
def kernel33():
    return ptypical.kernel_relations(2, 5, 33)


@pytest.fixture(scope="module")
def abel15():
    return abel.AbelContext(15)


def test_criterion_01_bp_logarithm():
    with criterion(1, "BP logarithm: closed form = recursion = l_4 display"):
        for p in (2, 3):
            ls = bp.bp_log_recursive(p, 4)
            for n in range(1, 5):
                closed = bp.bp_log_closed(p, n)
                embed = {f"v{k}": Poly.var(Q, ls[n - 1].vars, f"v{k}") for k in range(1, n + 1)}
                assert closed.substitute(embed) == ls[n - 1], (p, n)
            vt = bp.bp_vartable(p, 4)
            v = {k: Poly.var(Q, vt, f"v{k}") for k in (1, 2, 3, 4)}
            display = (
                v[4].scale(Fraction(1, p))
                + (v[1] * v[3] ** p).scale(Fraction(1, p**2))
                + (v[2] * v[2] ** (p**2)).scale(Fraction(1, p**2))
                + (v[3] * v[1] ** (p**3)).scale(Fraction(1, p**2))
                + (v[1] * v[1] ** p * v[2] ** (p**2)).scale(Fraction(1, p**3))
                + (v[1] * v[2] ** p * v[1] ** (p**3)).scale(Fraction(1, p**3))
                + (v[2] * v[1] ** (p**2) * v[1] ** (p**3)).scale(Fraction(1, p**3))
                + (v[1] * v[1] ** p * v[1] ** (p**2) * v[1] ** (p**3)).scale(Fraction(1, p**4))
            )
            assert ls[3] == display, p
            assert len(ls[3].terms) == 8


def test_criterion_02_generators_through_alphas():
    with criterion(2, "Hazewinkel generators through alpha's (six expressions)"):
        cases = {
            (2, 1): ("-alpha_1_1", [("alpha_1_1", 1)]),
            (2, 2): ("-1/3*alpha_2_2 + 4/3*alpha_1_1^3", [("alpha_1_1", 1), ("alpha_2_2", 3)]),
            # v3 displays carry recorded errata; these are the unique values
            # that back-substitute to v3 (see the decisions notes)
            (2, 3): (
                "-1/35*alpha_4_4 + 302/315*alpha_1_1*alpha_2_2^2"
                " - 109/315*alpha_1_1^4*alpha_2_2 - 170/63*alpha_1_1^7",
                [("alpha_1_1", 1), ("alpha_2_2", 3), ("alpha_4_4", 7)],
            ),
            (3, 1): ("-alpha_1_2", [("alpha_1_2", 2)]),
            (3, 2): ("-1/28*alpha_3_6 + 27/28*alpha_1_2^4", [("alpha_1_2", 2), ("alpha_3_6", 8)]),
            (3, 3): (
                "-1/1562275*alpha_9_18 + 90115407/17147530400*alpha_1_2*alpha_3_6^3"
                " + 27811961973/17147530400*alpha_1_2^5*alpha_3_6^2"
                " - 328516118111/3429506080*alpha_1_2^9*alpha_3_6"
                " + 20612623337247/17147530400*alpha_1_2^13",
                [("alpha_1_2", 2), ("alpha_3_6", 8), ("alpha_9_18", 26)],
            ),
        }
        for (p, n), (text, vt) in cases.items():
            expr = bp.express_v_in_alphas(p, n)
            assert expr == parse_poly(text, Q, VarTable(vt)), (p, n)
        # the display's flagship 14-digit coefficient appears with the printed
        # magnitude (its sign is the recorded erratum)
        big = bp.express_v_in_alphas(3, 3).coeff_of({"alpha_1_2": 13})
        assert abs(big) == Fraction(20612623337247, 17147530400)


def test_criterion_03_binomial_valuation():
    with criterion(3, "binomial valuation = 1 for p in {2,3,5}, n <= 3"):
        for p in (2, 3, 5):
            for n in range(4):
                for k in range(1, p):
                    assert ratint.binom_valuation(p, n, k) == 1, (p, n, k)


def test_criterion_04_morava_expansions(ravenel_cache):
    with criterion(4, "Morava worked expansions (five cases)"):
        def slices(F, d):
            return {k: v for k, v in F.raw().items() if k[0] + k[1] == d}

        F = ravenel_cache(2, 1, 7)
        assert slices(F, 2) == {(1, 1): 1}
        assert slices(F, 3) == {(2, 1): 1, (1, 2): 1}
        assert slices(F, 4) == {}
        assert slices(F, 5) == {(4, 1): 1, (1, 4): 1}
        assert slices(F, 6) == {(4, 2): 1, (2, 4): 1}
        assert slices(F, 7) == {(5, 2): 1, (4, 3): 1, (3, 4): 1, (2, 5): 1}
        F = ravenel_cache(2, 2, 28)
        assert slices(F, 4) == {(2, 2): 1}
        assert slices(F, 10) == {(6, 4): 1, (4, 6): 1}
        assert slices(F, 16) == {(12, 4): 1, (4, 12): 1}
        assert slices(F, 22) == {(14, 8): 1, (12, 10): 1, (10, 12): 1, (8, 14): 1}
        assert slices(F, 28) == {(20, 8): 1, (8, 20): 1}
        F = ravenel_cache(2, 3, 64)
        for key in [(4, 4), (20, 16), (16, 20), (48, 16), (16, 48)]:
            assert F.raw().get(key) == 1, key
        # p=3, s=1: degree-5 signs corrected per the recorded erratum (both
        # computation routes and the closed coefficient formula give +1)
        F = ravenel_cache(3, 1, 7)
        assert slices(F, 3) == {(2, 1): 2, (1, 2): 2}
        assert slices(F, 5) == {(4, 1): 1, (1, 4): 1}
        assert slices(F, 7) == {(6, 1): 2, (4, 3): 2, (3, 4): 2, (1, 6): 2}
        F = ravenel_cache(3, 2, 33)
        assert slices(F, 9) == {(6, 3): 2, (3, 6): 2}
        assert slices(F, 33) == {
            (24, 9): 1, (21, 12): 2, (18, 15): 1,
            (15, 18): 1, (12, 21): 2, (9, 24): 1,
        }


def test_criterion_05_oracle_equivalence(ravenel_cache):
    with criterion(5, "Ravenel route = rational formula route mod p"):
        for p, s, N in ((2, 1, 16), (2, 2, 24), (3, 1, 15)):
            assert ravenel_cache(p, s, N).series == morava.morava_from_rational(p, s, N), (p, s, N)


def test_criterion_06_approximations():
    with criterion(6, "approximation checks (wp and bv)"):
        assert morava.verify_wp_approx(2, 2, 8).ok
        assert morava.verify_wp_approx(2, 3, 30).ok
        assert morava.verify_wp_approx(3, 2, 18).ok
        assert morava.verify_bv_approx(2, 16).ok
        assert morava.verify_bv_approx(3, 56).ok


A_TABLE = {
    3: "-2/3*a1*a2",
    4: "1/2*a1^2*a2 - 1/2*a2^2",
    5: "-2/5*a1^3*a2 + 16/15*a1*a2^2",
    6: "1/3*a1^4*a2 - 29/18*a1^2*a2^2 + 1/2*a2^3",
    7: "-2/7*a1^5*a2 + 74/35*a1^3*a2^2 - 64/35*a1*a2^3",
    8: "1/4*a1^6*a2 - 103/40*a1^4*a2^2 + 751/180*a1^2*a2^3 - 5/8*a2^4",
    9: "-2/9*a1^7*a2 + 944/315*a1^5*a2^2 - 21632/2835*a1^3*a2^3 + 1024/315*a1*a2^4",
}


def test_criterion_07_abel_coefficients():
    with criterion(7, "Abel coefficients: assoc = closed, table reproduced"):
        assoc = abel.abel_coeffs_assoc(15)
        closed = abel.abel_coeffs_closed(15)
        assert assoc == closed[1:]
        for n in range(3, 10):
            assert assoc[n - 3] == parse_poly(A_TABLE[n], Q, abel.A12), n


def test_criterion_08_abel_logarithm(abel15):
    with criterion(8, "Abel logarithm: three routes, exp inverse, log(1+t)"):
        ms = abel.abel_log_integral(15)
        uv = abel.abel_log_uv_as_a1a2(16)
        for k in range(1, 16):
            assert abel.abel_log_product(k + 1) == ms[k - 1], k
            assert uv[k] == ms[k - 1], k
        m_display = {
            1: ("-1/2", True, []),
            2: ("1/3", False, ["1"]),
            3: ("-1/4", True, ["8/3"]),
            4: ("1/5", False, ["1/3", "9/2"]),
            5: ("-1/6", True, ["1", "32/5"]),
            6: ("1/7", False, ["1/6", "9/5", "25/3"]),
            7: ("-1/8", True, ["8/15", "8/3", "72/7"]),
            8: ("1/9", False, ["1/10", "1", "25/7", "49/4"]),
            9: ("-1/10", True, ["1/3", "32/21", "9/2", "128/9"]),
        }
        a1, a2 = Poly.var(Q, abel.A12, "a1"), Poly.var(Q, abel.A12, "a2")
        for k, (scal, with_a1, roots) in m_display.items():
            expect = Poly.const(Q, abel.A12, Fraction(scal))
            if with_a1:
                expect = expect * a1
            for r in roots:
                expect = expect * (a1 * a1 - a2.scale(Fraction(r)))
            assert ms[k - 1] == expect, k
        # exponential is the composition inverse of the logarithm (degree 12)
        log12 = abel.uv_series(12)
        assert comp_inverse(log12) == abel.exp_abel_uv(12)
        assert series_compose(abel.exp_abel_uv(12), log12) == Series1.identity(Q, abel.UV, 12)
        # u = 0, v = 1 specialization: log(1 + t) to degree 10
        for k, c in enumerate(abel.abel_log_uv(10), start=1):
            val = c.substitute(
                {"u": Poly.zero(Q, abel.UV), "v": Poly.const(Q, abel.UV, 1)}
            ).constant_value()
            assert val == Fraction((-1) ** (k - 1), k), k


def test_criterion_09_fgl_axioms(ravenel_cache, abel15):
    with criterion(9, "formal group law axioms for every constructed law"):
        for p in (2, 3):
            assert check_fgl_axioms(bp.bp_fgl_series(p, 8)).ok, p
        for p, s, N in ((2, 1, 16), (2, 2, 24), (3, 1, 15)):
            assert check_fgl_axioms(ravenel_cache(p, s, N).series).ok, (p, s)
        assert check_fgl_axioms(abel15.fgl_series(15)).ok
        F = fgl_from_log(ptypical.ptypical_log(2, 12), 12)
        assert check_fgl_axioms(F).ok


def test_criterion_10_classifying_map():
    with criterion(10, "classifying-map images of v_1..v_4"):
        cm = ptypical.classify_v_images(2, 4)
        assert cm.image(1) == parse_poly("-a1", Q, abel.A12)
        assert cm.image(2) == parse_poly("4/3*a1*a2", Q, abel.A12)
        assert cm.image(3) == parse_poly(
            "284/105*a1^5*a2 - 808/105*a1^3*a2^2 + 128/35*a1*a2^3", Q, abel.A12
        )
        # the printed v4 line stops at a1^5 a2^5 (display truncation); the
        # five printed coefficients match exactly and the recursion forces
        # two more terms
        v4 = cm.image(4)
        displayed = {
            (13, 1): Fraction(184108, 45045),
            (11, 2): Fraction(-1108792, 15015),
            (9, 3): Fraction(4521344416, 10135125),
            (7, 4): Fraction(-1265861152, 1126125),
            (5, 5): Fraction(107918689792, 91216125),
        }
        for exps, c in displayed.items():
            assert v4.terms.get(exps) == c, exps
        assert len(v4.terms) == 7


def test_criterion_11_kernel_presentation(kernel33):
    with criterion(11, "mod-2 presentation and non-regularity witness"):
        rep = ptypical.mod2_presentation(kernel33)
        assert {c.weight for c in rep.checks} == {9, 17, 21, 33}
        for check in rep.checks:
            assert check.ok, check
        assert not rep.unexpected_weights
        assert rep.witness_ok
        assert rep.witness_parts
        # the witness is a certificate: re-check it by Poly arithmetic alone
        assert ptypical.verify_witness(kernel33, rep.witness)
        assert rep.ok


def test_criterion_12_generating_function():
    with criterion(12, "generating function: closed = sum of parts to 60"):
        a, b, c = ptypical.genfun_parts(60)
        closed = ptypical.genfun_closed(60)
        for n in range(61):
            assert closed.coeffs[n] == a.coeffs[n] + b.coeffs[n] + c.coeffs[n], n
            assert closed.coeffs[n] >= 0
            assert isinstance(closed.coeffs[n], int)
        assert closed.coeffs[0] == 1


def test_criterion_13_conjecture_report():
    with criterion(13, "conjecture report: ranks and relation shapes to 20"):
        rep = ptypical.conjecture_check(20)
        mismatches = [e for e in rep.entries if not e.rank_matches]
        missing = [(e.weight, t) for e in rep.entries for t, ok in e.shapes if not ok]
        # the report lists discrepancies verbatim; here there are none
        assert mismatches == [], mismatches
        assert missing == [], missing
        e9 = rep.entries[8]
        assert e9.monomial_count - e9.rank == 1


def test_criterion_14_determinism():
    with criterion(14, "reproduce runs are byte-identical"):
        r1 = reproduce()
        r2 = reproduce()
        assert r1.render_text() == r2.render_text()
        assert r1.render_json() == r2.render_json()
        assert r1.ok
