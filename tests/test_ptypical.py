import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest

from fgl import ptypical, ratint
from fgl.abel import A12, AbelContext
from fgl.errors import DomainError
from fgl.mpoly import Poly, Q, parse_poly
from fgl.pseries import check_fgl_axioms, fgl_from_log
from fgl.ptypical import (
    classify_v_images,
    conjecture_check,
    expected_shape_monomial,
    genfun_closed,
    genfun_parts,
    kernel_relations,
    mod2_presentation,
    ptypical_log,
)


def P(text):
    return parse_poly(text, Q, A12)


def test_ptypical_log_p2():
    l = ptypical_log(2, 4)
    assert l.coeff(1) == Poly.const(Q, A12, 1)
    assert l.coeff(2) == P("-1/2*a1")
    assert l.coeff(3).is_zero()
    assert l.coeff(4) == P("-1/4*a1^3 + 2/3*a1*a2")  # m_3 expanded


def test_ptypical_log_p3():
    l = ptypical_log(3, 3)
    assert l.coeff(2).is_zero()
    assert l.coeff(3) == P("1/3*a1^2 - 1/3*a2")  # m_2


def test_ptypical_log_additive_degeneration():
    l = ptypical_log(2, 2)
    zero = Poly.zero(Q, A12)
    specialized = l.coeff(2).substitute({"a1": zero, "a2": zero})
    assert specialized.is_zero()


def test_classify_images_published_values():
    cm = classify_v_images(2, 4)
    assert cm.image(1) == P("-a1")
    assert cm.image(2) == P("4/3*a1*a2")
    assert cm.image(3) == P("284/105*a1^5*a2 - 808/105*a1^3*a2^2 + 128/35*a1*a2^3")
    # The printed v4 line stops at a1^5 a2^5; the recursion forces two more
    # terms (a1^3 a2^6, a1 a2^7).  The five printed coefficients match
    # exactly; the full value is pinned by the cross-module identity
    # l_n(images) = m_(2^n - 1), tested below.
    assert cm.image(4) == P(
        "184108/45045*a1^13*a2 - 1108792/15015*a1^11*a2^2 + 4521344416/10135125*a1^9*a2^3"
        " - 1265861152/1126125*a1^7*a2^4 + 107918689792/91216125*a1^5*a2^5"
        " - 414949376/921375*a1^3*a2^6 + 262144/6435*a1*a2^7"
    )


def test_images_satisfy_hazewinkel_recursion_via_bp():
    from fgl.bp import bp_log_recursive

    ctx = AbelContext(31)
    cm = classify_v_images(2, 5, ctx)
    ls = bp_log_recursive(2, 5)
    bindings = {f"v{k}": cm.image(k) for k in range(1, 6)}
    for n in range(1, 6):
        assert ls[n - 1].substitute(bindings) == ctx.m_coeff(2**n - 1), n


def test_classify_images_homogeneous_and_local():
    cm = classify_v_images(2, 4)
    for n in range(1, 5):
        img = cm.image(n)
        assert img.weight() == 2**n - 1
        for c in img.terms.values():
            assert c.denominator % 2 == 1


def test_ptypical_fgl_axioms():
    F = fgl_from_log(ptypical_log(2, 12), 12)
    rep = check_fgl_axioms(F)
    assert rep.ok, rep.failures


def _relation_maps_to_zero(rs, rel):
    cm = classify_v_images(rs.p, rs.n_max)
    bindings = {f"v{k}": cm.image(k) for k in range(1, rs.n_max + 1)}
    return rel.poly.substitute(bindings).is_zero()


KR = None


def _kernel33():
    # depth 5: v5 (weight 31) participates in the weight-33 lattice; with
    # depth 4 the displayed weight-33 relation is not even in the kernel
    # (its integral lift has even v5-components)
    global KR
    if KR is None:
        KR = kernel_relations(2, 5, 33)
    return KR


def test_no_relations_below_weight_9():
    rs = _kernel33()
    for w in range(1, 9):
        assert rs.weights[w].kernel_dim == 0, w
        assert rs.weights[w].rank == rs.weights[w].monomial_count


def test_weight_9_relation():
    rs = _kernel33()
    rep = rs.weights[9]
    assert rep.kernel_dim == 1
    assert rep.rank == rep.monomial_count - 1
    rel = rep.relations[0]
    assert rel.minimal
    assert rel.poly.reduce_mod_p(2) == parse_poly("v1^3*v2^2", Q, rs.vars).reduce_mod_p(2)
    assert _relation_maps_to_zero(rs, rel)


def test_relations_map_to_zero_exactly():
    rs = _kernel33()
    for w in (9, 17, 21):
        for rel in rs.weights[w].relations:
            assert _relation_maps_to_zero(rs, rel), w


def test_minimal_relation_weights():
    rs = _kernel33()
    found = sorted(w for w, entries in rs.minimal_by_weight().items())
    assert found == [9, 17, 21, 33]
    for w in found:
        assert len(rs.minimal_by_weight()[w]) == 1, w
    assert rs.warning is None  # depth 5 covers weight 33 (v6 has weight 63)


def test_depth_warning_when_too_shallow():
    rs = kernel_relations(2, 4, 33)
    assert rs.warning is not None  # v5 has weight 31 <= 33


def test_rank_additivity():
    rs = _kernel33()
    for w, rep in rs.weights.items():
        assert rep.monomial_count == rep.rank + rep.kernel_dim, w


def test_mod2_presentation():
    rs = _kernel33()
    rep = mod2_presentation(rs)
    assert not rep.unexpected_weights
    for check in rep.checks:
        assert check.ok, check
    assert {c.weight for c in rep.checks} == {9, 17, 21, 33}
    assert rep.witness_ok
    assert rep.witness_parts  # the explicit combination is exhibited
    assert rep.ok


def test_genfun_parts_low_coefficients():
    a, b, c = genfun_parts(12)
    # (a): partition counts with parts {3, 7}
    assert a.coeffs[:8] == [1, 0, 0, 1, 0, 0, 1, 1]
    # (b) starts at t^7 = t * v2^2
    assert b.coeffs[:7] == [0] * 7
    assert b.coeffs[7] == 1
    # (c) brute-force oracle below


def _brute_force_class_counts(T):
    """Enumerate monomials in v1..v5 (weights 1,3,7,15,31) of weight <= T and
    assign them to the three classes."""
    weights = [1, 3, 7, 15, 31]
    counts = {"a": [0] * (T + 1), "b": [0] * (T + 1), "c": [0] * (T + 1)}
    bounds = [T // w + 1 for w in weights]
    for exps in product(*[range(b) for b in bounds]):
        w = sum(e * wt for e, wt in zip(exps, weights))
        if w > T or w == 0:
            continue
        e1, rest = exps[0], exps[1:]
        big = sum(1 for e in rest if e >= 2)
        if e1 == 0:
            counts["a"][w] += 1
        elif e1 in (1, 2) and big == 1:
            counts["b"][w] += 1
        elif big == 0:
            counts["c"][w] += 1
    return counts


def test_genfun_parts_match_brute_force():
    T = 24
    a, b, c = genfun_parts(T)
    brute = _brute_force_class_counts(T)
    assert a.coeffs[1:] == brute["a"][1:]
    assert b.coeffs == brute["b"]
    # class (c) includes e.g. both v1^4 and v1*v2 at weight 4
    assert c.coeffs == [0] + brute["c"][1:]
    assert c.coeffs[4] == 2


def test_genfun_closed_equals_sum_of_parts():
    T = 60
    a, b, c = genfun_parts(T)
    closed = genfun_closed(T)
    for n in range(T + 1):
        assert closed.coeffs[n] == a.coeffs[n] + b.coeffs[n] + c.coeffs[n], n
    assert closed.coeffs[0] == 1
    assert all(x >= 0 for x in closed.coeffs)
    assert closed.coeffs[1] == 1  # only v1 has weight 1


def test_conjecture_report():
    rep = conjecture_check(20)
    assert rep.max_weight == 20
    assert rep.all_ranks_match
    assert rep.all_shapes_found
    # weight 9: rank drops by exactly one against the free count
    e9 = rep.entries[8]
    assert e9.weight == 9
    assert e9.monomial_count - e9.rank == 1
    assert e9.shapes and e9.shapes[0][1]


def test_expected_shape_monomial():
    vvars = _kernel33().vars
    assert str(expected_shape_monomial(9, vvars)) == "v1^3*v2^2"
    assert str(expected_shape_monomial(17, vvars)) == "v1^3*v3^2"
    assert str(expected_shape_monomial(21, vvars)) == "v1*v2^2*v3^2"
    assert str(expected_shape_monomial(33, vvars)) == "v1^3*v4^2"
    assert expected_shape_monomial(10, vvars) is None


# ---------------------------------------------------------------------------
# the per-process kernel memo


@pytest.fixture
def cold_kernels(monkeypatch):
    # an empty memo for the test; the shared one comes back afterwards
    monkeypatch.setattr(ptypical, "_KERNELS", {})


def _kernel_fingerprint(rs, upto):
    return {
        w: (rs.weights[w].rank, [(r.vector, r.minimal) for r in rs.weights[w].relations])
        for w in range(1, upto + 1)
    }


def test_memo_prefix_equals_cold_computation(cold_kernels):
    cold = kernel_relations(2, 5, 33)
    ptypical._KERNELS.clear()
    kernel_relations(2, 5, 40)
    warm = kernel_relations(2, 5, 33)
    assert _kernel_fingerprint(warm, 33) == _kernel_fingerprint(cold, 33)
    assert warm.warning == cold.warning
    assert kernel_relations(2, 4, 33).warning is not None


def test_memo_smaller_call_returns_only_its_weights(cold_kernels):
    kernel_relations(2, 5, 25)
    rs = kernel_relations(2, 5, 12)
    assert sorted(rs.weights) == list(range(1, 13))
    assert rs.max_weight == 12


def test_memo_keyed_on_depth(cold_kernels):
    shallow = kernel_relations(2, 4, 20)
    deep = kernel_relations(2, 5, 20)
    assert set(ptypical._KERNELS) == {(2, 4), (2, 5)}
    assert shallow.vars != deep.vars
    assert all(shallow.weights[w] is not deep.weights[w] for w in range(1, 21))


def test_memo_repeat_call_does_no_kernel_work(cold_kernels, monkeypatch):
    first = kernel_relations(2, 5, 20)

    def refuse(*args):
        raise AssertionError("kernel_basis called on a memoized weight")

    monkeypatch.setattr(ratint, "kernel_basis", refuse)
    again = kernel_relations(2, 5, 20)
    assert all(again.weights[w] is first.weights[w] for w in range(1, 21))


def test_memo_entries_are_frozen(cold_kernels):
    rel = kernel_relations(2, 5, 9).weights[9].relations[0]
    with pytest.raises(FrozenInstanceError):
        rel.minimal = False
    with pytest.raises(FrozenInstanceError):
        kernel_relations(2, 5, 9).weights[9].rank = 0


def test_non_prime_makes_no_memo_entry(cold_kernels):
    for p in (1, 4):
        with pytest.raises(DomainError):
            kernel_relations(p, 2, 5)
    assert not ptypical._KERNELS


def _rank_mod_p(vectors, p):
    rows, rank = [[x % p for x in v] for v in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3])
def test_fp_span_add_and_contains_follow_the_rank(p):
    rng = random.Random(p)
    for _ in range(20):
        span, added = ptypical._FpSpan(p), []
        for _ in range(12):
            vec = [rng.choice([0, 0, 1, -1, 2, 5]) for _ in range(9)]
            grows = _rank_mod_p(added + [vec], p) > _rank_mod_p(added, p)
            assert span.contains(vec) is not grows
            assert span.add(vec) is grows
            assert span.contains(vec)
            added.append(vec)
