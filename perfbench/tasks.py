"""Task families, run inside the worker through the public ``fgl`` API.

Each family computes its result, checks it by the paper's second route
where the task names one (raising ``RouteMismatch`` on disagreement) and
returns ``(canonical_text, nonzero_terms)``.  Module attributes are looked
up at call time, so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import contextlib
import io

from fgl import abel, bp, cli, morava, mpoly, pseries, ptypical


class RouteMismatch(Exception):
    """The two independent routes of a cross-check disagree."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise RouteMismatch(what)


def _poly_lines(named) -> tuple[str, int]:
    lines, terms = [], 0
    for name, poly in named:
        lines.append(f"{name} = {poly}")
        terms += len(poly.terms)
    return "\n".join(lines) + "\n", terms


def abel_assoc(n: int):
    assoc = abel.abel_coeffs_assoc(n)
    _check(assoc == abel.abel_coeffs_closed(n)[1:], f"abel assoc != closed at N={n}")
    return _poly_lines((f"a_{k}", c) for k, c in enumerate(assoc, start=3))


def abel_inverse(n: int):
    log = abel.AbelContext(n).log_series()
    inverse = pseries.comp_inverse(log)
    _check(inverse == pseries.comp_inverse_iterative(log), f"comp_inverse routes differ at N={n}")
    return _poly_lines((f"e_{k}", c) for k, c in enumerate(inverse.cs, start=1))


def _series2_text(series):
    return f"F(x, y) = {series}\n", len(series.cf)


def morava_oracle(p: int, s: int, n: int):
    fast = morava.ravenel_fgl_modp(p, s, n).series
    _check(fast == morava.morava_from_rational(p, s, n), f"Ravenel != rational at {(p, s, n)}")
    return _series2_text(fast)


def ravenel(p: int, s: int, n: int):
    return _series2_text(morava.ravenel_fgl_modp(p, s, n).series)


def bp_log(p: int, n: int):
    recursive = bp.bp_log_recursive(p, n)
    vars = recursive[0].vars
    for k in range(1, n + 1):
        # l_k by the closed sum lives in the depth-k ring; embed it at depth n
        embed = {f"v{r}": mpoly.Poly.var(mpoly.Q, vars, f"v{r}") for r in range(1, k + 1)}
        closed = bp.bp_log_closed(p, k).substitute(embed)
        _check(closed == recursive[k - 1], f"BP log recursive != closed at {(p, k)}")
    return _poly_lines((f"l_{k}", c) for k, c in enumerate(recursive, start=1))


def express_v(p: int, n: int):
    # express_v_in_alphas verifies its solve by back-substitution itself
    return _poly_lines([(f"v_{n}", bp.express_v_in_alphas(p, n))])


def conjecture(w: int):
    rep = ptypical.conjecture_check(w)
    lines, terms = [f"warning: {rep.warning}"], 0
    for e in rep.entries:
        lines.append(
            f"weight {e.weight}: {e.monomial_count} monomials, rank {e.rank}, "
            f"genfun {e.genfun_coeff}, match {e.rank_matches}"
        )
        for text, found in e.shapes:
            lines.append(f"  {text} [{found}]")
            terms += text.count(" + ") + 1  # mod-2 text: every coefficient is 1
    return "\n".join(lines) + "\n", terms


def mod2_presentation():
    rep = ptypical.mod2_presentation(ptypical.kernel_relations(2, 5, 33))
    _check(rep.ok, "mod-2 presentation or v2^7 witness not verified")
    lines, terms = [], 0
    for c in rep.checks:
        lines.append(f"weight {c.weight}: {c.displayed} (new minimal {c.new_minimal_count})")
        terms += len(c.displayed.terms)
    for w in sorted(rep.reductions):
        for poly in rep.reductions[w]:
            lines.append(f"minimal mod 2 at {w}: {poly}")
            terms += len(poly.terms)
    lines.append(f"unexpected weights: {rep.unexpected_weights}")
    lines.extend(f"witness: {part}" for part in rep.witness_parts)
    return "\n".join(lines) + "\n", terms


def run_cli(argv: list[str]) -> tuple[str, int, str]:
    """``fgl.cli.main`` in process; returns (stdout, exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
    return out.getvalue(), code, err.getvalue()


LIBRARY = {
    f.__name__: f
    for f in (abel_assoc, abel_inverse, morava_oracle, ravenel, bp_log, express_v,
              conjecture, mod2_presentation)
}
