"""Command-line front end.

Subcommands: bp {log|coeff|express-v}, morava {fgl|witt|approx},
abel {coeffs|log|exp|membership}, ptypical {images|kernel|genfun|conjecture},
and reproduce.  Global flags --format text|json and --out PATH.

Exit codes: 0 success, 1 fixture mismatch or domain error, 2 usage error,
3 internal invariant violation.  Identical argv yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import abel, bp, fixtures, morava, ptypical
from .errors import DomainError, InternalInvariantError
from .mpoly import Q, parse_poly


# argument types; argparse turns their ValueError into a usage error (exit 2)
def integers(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def pairs(text: str) -> list[tuple[int, int]]:
    return [(k, l) for k, l in map(integers, text.split(";"))]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fgl", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering a value already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    p_bp = sub.add_parser("bp", help="Brown-Peterson formal group law")
    bp_sub = p_bp.add_subparsers(dest="subcommand", required=True)
    q = bp_sub.add_parser("log", parents=[common], help="logarithm coefficients l_1..l_n")
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--method", choices=("recursive", "closed"), default="recursive")
    q = bp_sub.add_parser("coeff", parents=[common], help="formal group coefficient alpha_ij")
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("-i", type=int, required=True)
    q.add_argument("-j", type=int, required=True)
    q = bp_sub.add_parser("express-v", parents=[common], help="v_n through the alpha generators")
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--k-seq", type=integers, help="comma-separated k_m choices, default all 1")

    p_mo = sub.add_parser("morava", help="G(s) / K(s) formal group laws")
    mo_sub = p_mo.add_subparsers(dest="subcommand", required=True)
    q = mo_sub.add_parser("fgl", parents=[common], help="the mod-p law to a total degree")
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--method", choices=("ravenel", "rational"), default="ravenel")
    q = mo_sub.add_parser("witt", parents=[common], help="two-variable Witt symmetric function")
    q.add_argument("-n", type=int, required=True)
    q = mo_sub.add_parser("approx", parents=[common], help="approximation checks")
    q.add_argument("--kind", choices=("wp", "bv"), required=True)
    q.add_argument("--prime", type=int, default=2)
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)

    p_ab = sub.add_parser("abel", help="the Abel formal group law")
    ab_sub = p_ab.add_subparsers(dest="subcommand", required=True)
    q = ab_sub.add_parser("coeffs", parents=[common], help="coefficients a_3..a_N")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--method", choices=("assoc", "closed"), default="assoc")
    q = ab_sub.add_parser("log", parents=[common], help="logarithm coefficients m_1..m_N")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--method", choices=("integral", "product", "uv"), default="integral")
    q = ab_sub.add_parser("exp", parents=[common], help="exponential in the u,v parametrization")
    q.add_argument("--upto", type=int, required=True)
    q = ab_sub.add_parser("membership", parents=[common], help="sample the coefficient-ring criterion")
    q.add_argument("--poly", required=True, help="symmetric polynomial in a, b")
    q.add_argument(
        "--pairs", type=pairs, required=True, help="semicolon-separated k,l pairs, e.g. '2,1;3,0'"
    )

    p_pt = sub.add_parser("ptypical", help="2-typification of the Abel law")
    pt_sub = p_pt.add_subparsers(dest="subcommand", required=True)
    q = pt_sub.add_parser("images", parents=[common], help="classifying-map images of v_1..v_n")
    q.add_argument("--prime", type=int, default=2)
    q.add_argument("--upto", type=int, required=True)
    q = pt_sub.add_parser("kernel", parents=[common], help="graded kernel relations")
    q.add_argument("--max-weight", type=int, required=True)
    q.add_argument("--n-max", type=int, help="generator depth (default: enough for max-weight)")
    q = pt_sub.add_parser("genfun", parents=[common], help="rank generating function")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--parts", action="store_true", help="show the three summands too")
    q.add_argument("--topological", action="store_true", help="double exponents on output")
    q = pt_sub.add_parser("conjecture", parents=[common], help="rank and relation-shape report")
    q.add_argument("--max-weight", type=int, required=True)

    q = sub.add_parser("reproduce", parents=[common], help="check all reference values")
    q.add_argument("--fixtures", metavar="PATH", help="override the fixture table (self-test)")
    return top


def _emit(ns, text: str) -> None:
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {ns.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _poly_lines(pairs) -> str:
    return "\n".join(f"{name} = {value}" for name, value in pairs) + "\n"


def _run_bp(ns) -> tuple[int, str]:
    if ns.subcommand == "log":
        if ns.method == "recursive":
            ls = bp.bp_log_recursive(ns.prime, ns.upto)
        else:
            if ns.upto < 1:
                raise DomainError("need n >= 1")
            ls = [bp.bp_log_closed(ns.prime, n) for n in range(1, ns.upto + 1)]
        if ns.format == "json":
            return 0, json.dumps([l.to_json_obj() for l in ls], indent=2) + "\n"
        return 0, _poly_lines((f"l_{n}", ls[n - 1]) for n in range(1, ns.upto + 1))
    if ns.subcommand == "coeff":
        a = bp.bp_fgl_coeff(ns.prime, ns.i, ns.j)
        if ns.format == "json":
            return 0, json.dumps(a.to_json_obj(), indent=2) + "\n"
        return 0, _poly_lines([(f"alpha_{ns.i}_{ns.j}", a)])
    if ns.subcommand == "express-v":
        e = bp.express_v_in_alphas(ns.prime, ns.n, ns.k_seq)
        if ns.format == "json":
            return 0, json.dumps(e.to_json_obj(), indent=2) + "\n"
        return 0, _poly_lines([(f"v_{ns.n}", e)])
    raise AssertionError


def _run_morava(ns) -> tuple[int, str]:
    if ns.subcommand == "fgl":
        if ns.method == "ravenel":
            series = morava.ravenel_fgl_modp(ns.prime, ns.height, ns.degree).series
        else:
            series = morava.morava_from_rational(ns.prime, ns.height, ns.degree)
        if ns.format == "json":
            obj = {
                "prime": ns.prime,
                "height": ns.height,
                "degree": ns.degree,
                "terms": [
                    {"i": i, "j": j, "coeff": str(c.constant_value())}
                    for (i, j), c in series.sorted_items()
                ],
            }
            return 0, json.dumps(obj, indent=2) + "\n"
        return 0, f"F(x, y) = {series}\n"
    if ns.subcommand == "witt":
        w = morava.witt_symmetric(ns.n)
        if ns.format == "json":
            return 0, json.dumps(w.to_json_obj(), indent=2) + "\n"
        return 0, f"W^({ns.n}) = {w}\n"
    if ns.subcommand == "approx":
        if ns.kind == "wp":
            rep = morava.verify_wp_approx(ns.prime, ns.height, ns.degree)
        else:
            rep = morava.verify_bv_approx(ns.height, ns.degree)
        if ns.format == "json":
            obj = {
                "kind": ns.kind,
                "prime": rep.p,
                "height": rep.s,
                "degree": rep.N,
                "pass": rep.ok,
                "approximant": str(rep.approximant),
                "detail": rep.detail,
            }
            return 0, json.dumps(obj, indent=2) + "\n"
        return 0, rep.summary() + "\n"
    raise AssertionError


def _run_abel(ns) -> tuple[int, str]:
    if ns.subcommand == "coeffs":
        if ns.method == "assoc":
            coeffs = abel.abel_coeffs_assoc(ns.upto)
        else:
            coeffs = abel.abel_coeffs_closed(ns.upto)[1:]
        if ns.format == "json":
            return 0, json.dumps([c.to_json_obj() for c in coeffs], indent=2) + "\n"
        return 0, _poly_lines((f"a_{n}", c) for n, c in enumerate(coeffs, start=3))
    if ns.subcommand == "log":
        ms = abel.abel_log(ns.upto, ns.method)
        if ns.format == "json":
            return 0, json.dumps([m.to_json_obj() for m in ms], indent=2) + "\n"
        return 0, _poly_lines((f"m_{k}", m) for k, m in enumerate(ms, start=1))
    if ns.subcommand == "exp":
        series = abel.exp_abel_uv(ns.upto)
        if ns.format == "json":
            return 0, json.dumps([c.to_json_obj() for c in series.cs], indent=2) + "\n"
        return 0, f"exp(t) = {series}\n"
    if ns.subcommand == "membership":
        rep = abel.lambda_membership_sample(parse_poly(ns.poly, Q, abel.AB), ns.pairs)
        if ns.format == "json":
            obj = {
                "symmetric": rep.symmetric,
                "pass": rep.ok,
                "pairs": [
                    {"k": k, "l": l, "pass": ok, "failures": failures}
                    for k, l, ok, failures in rep.pairs
                ],
            }
            return 0, json.dumps(obj, indent=2) + "\n"
        return 0, rep.summary() + "\n"
    raise AssertionError


def _run_ptypical(ns) -> tuple[int, str]:
    if ns.subcommand == "images":
        cm = ptypical.classify_v_images(ns.prime, ns.upto)
        if ns.format == "json":
            return 0, json.dumps([img.to_json_obj() for img in cm.images], indent=2) + "\n"
        return 0, "\n".join(f"v_{n} -> {cm.image(n)}" for n in range(1, ns.upto + 1)) + "\n"
    if ns.subcommand == "kernel":
        n_max = ns.n_max
        if n_max is None:
            n_max = ptypical.sufficient_depth(2, ns.max_weight)
        rs = ptypical.kernel_relations(2, n_max, ns.max_weight)
        rows = []
        for w in range(1, ns.max_weight + 1):
            rep = rs.weights[w]
            # relations: every kernel generator (monomial_count = rank + count);
            # mod2: the minimal ones, i.e. the presentation at this weight
            rows.append(
                {
                    "weight": w,
                    "monomial_count": rep.monomial_count,
                    "rank": rep.rank,
                    "relations": [r.poly.to_json_obj() for r in rep.relations],
                    "mod2": [str(r.poly.reduce_mod_p(2)) for r in rep.minimal_relations()],
                }
            )
        if ns.format == "json":
            obj = {"n_max": n_max, "warning": rs.warning, "weights": rows}
            return 0, json.dumps(obj, indent=2) + "\n"
        lines = []
        if rs.warning:
            lines.append(f"warning: {rs.warning}")
        for row in rows:
            lines.append(
                f"weight {row['weight']}: {row['monomial_count']} monomials, rank {row['rank']}"
            )
            for text in row["mod2"]:
                lines.append(f"  minimal relation mod 2: {text}")
        return 0, "\n".join(lines) + "\n"
    if ns.subcommand == "genfun":
        closed = ptypical.genfun_closed(ns.upto)
        lines = [f"closed form: {closed.render(ns.topological)}"]
        if ns.parts:
            a, b, c = ptypical.genfun_parts(ns.upto)
            lines.append(f"part (a): {a.render(ns.topological)}")
            lines.append(f"part (b): {b.render(ns.topological)}")
            lines.append(f"part (c): {c.render(ns.topological)}")
        if ns.format == "json":
            obj = {"T": ns.upto, "closed": closed.coeffs}
            if ns.parts:
                obj["parts"] = {"a": a.coeffs, "b": b.coeffs, "c": c.coeffs}
            return 0, json.dumps(obj, indent=2) + "\n"
        return 0, "\n".join(lines) + "\n"
    if ns.subcommand == "conjecture":
        rep = ptypical.conjecture_check(ns.max_weight)
        if ns.format == "json":
            obj = {
                "max_weight": rep.max_weight,
                "warning": rep.warning,
                "weights": [
                    {
                        "weight": e.weight,
                        "monomial_count": e.monomial_count,
                        "rank": e.rank,
                        "genfun": e.genfun_coeff,
                        "rank_matches": e.rank_matches,
                        "relations": [
                            {"mod2": text, "expected_shape_found": ok} for text, ok in e.shapes
                        ],
                    }
                    for e in rep.entries
                ],
            }
            return 0, json.dumps(obj, indent=2) + "\n"
        lines = []
        for e in rep.entries:
            mark = "ok" if e.rank_matches else "MISMATCH"
            lines.append(
                f"weight {e.weight}: rank {e.rank}, generating function {e.genfun_coeff} [{mark}]"
            )
            for text, ok in e.shapes:
                shape = "shape found" if ok else "SHAPE MISSING"
                lines.append(f"  relation mod 2: {text} [{shape}]")
        lines.append(
            "note: rank/shape agreement is evidence for the conjectural presentation, not a proof"
        )
        return 0, "\n".join(lines) + "\n"
    raise AssertionError


def _run_reproduce(ns) -> tuple[int, str]:
    rep = fixtures.reproduce(ns.fixtures)
    text = rep.render_json() if ns.format == "json" else rep.render_text()
    return (0 if rep.ok else 1), text


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "bp":
            code, text = _run_bp(ns)
        elif ns.command == "morava":
            code, text = _run_morava(ns)
        elif ns.command == "abel":
            code, text = _run_abel(ns)
        elif ns.command == "ptypical":
            code, text = _run_ptypical(ns)
        else:
            code, text = _run_reproduce(ns)
        _emit(ns, text)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
