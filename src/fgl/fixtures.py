"""Reference-value fixtures behind the ``reproduce`` command.

Every published table value this library reproduces appears here exactly
once.  Expected canonical texts live in ``data/fixtures.json`` (readable and
auditable without touching code); this module holds one producer per
fixture id plus the report machinery.  A fixture whose source display
carries a recorded erratum compares against the corrected value and says so
in its note; informational entries are excluded from pass/fail counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import abel, bp, morava, ptypical, ratint
from .errors import DomainError
from .mpoly import Poly, Q


class _Cache:
    """Shared lazily-computed heavyweight objects for one fixture run."""

    def __init__(self):
        self._store = {}

    def get(self, key, builder):
        if key not in self._store:
            self._store[key] = builder()
        return self._store[key]

    def abel_ctx(self):
        return self.get("abel31", lambda: abel.AbelContext(31))

    def images(self):
        return self.get("images", lambda: ptypical.classify_v_images(2, 5, self.abel_ctx()))

    def kernel(self):
        return ptypical.kernel_relations(2, 5, 33)  # memoized in ptypical

    def mod2(self):
        return self.get("mod2", lambda: ptypical.mod2_presentation(self.kernel()))

    def ravenel(self, p, s, N):
        return self.get(("rav", p, s, N), lambda: morava.ravenel_fgl_modp(p, s, N))


def _slice_text(fgl, degree: int) -> str:
    return str(fgl.series.degree_slice(degree))


def _mod2_check_text(cache: _Cache, weight: int) -> str:
    rep = cache.mod2()
    for check in rep.checks:
        if check.weight == weight:
            if check.ok:
                return str(check.displayed)
            return (
                f"NOT VERIFIED (new minimal: {check.new_minimal_count}, "
                f"in kernel: {check.displayed_in_kernel}, "
                f"independent of lower relations: {check.displayed_not_in_lower_ideal})"
            )
    return "weight not computed"


def _wp_text(p, s, N) -> str:
    rep = morava.verify_wp_approx(p, s, N)
    return str(rep.approximant) if rep.ok else "FAIL: " + rep.detail


def _bv_text(n, N) -> str:
    rep = morava.verify_bv_approx(n, N)
    return str(rep.approximant) if rep.ok else "FAIL: " + rep.detail


def _ln1p_text() -> str:
    vals = []
    for c in abel.abel_log_uv(10):
        v = c.substitute(
            {"u": Poly.zero(Q, abel.UV), "v": Poly.const(Q, abel.UV, 1)}
        ).constant_value()
        vals.append(str(v))
    return ", ".join(vals)


def _conjecture_text() -> str:
    rep = ptypical.conjecture_check(20)
    ranks = "all match" if rep.all_ranks_match else "MISMATCH"
    shapes = "all found" if rep.all_shapes_found else "MISSING"
    return f"ranks vs generating function: {ranks}; v1*vi^2*vj^2 leading shapes: {shapes}"


def producers(cache: _Cache):
    """Map fixture id -> zero-argument callable producing the computed text."""
    pr = {}

    # Brown-Peterson
    pr["bp.l4.p2"] = lambda: str(bp.bp_log_closed(2, 4))
    pr["bp.l4.p3"] = lambda: str(bp.bp_log_closed(3, 4))
    pr["bp.l4.summands"] = lambda: str(bp.bp_summand_count(2, 4))
    pr["bp.binomval.p2n1"] = lambda: str(ratint.binom_valuation(2, 1, 1))
    pr["bp.binomval.p3n1"] = lambda: str(ratint.binom_valuation(3, 1, 1))
    pr["bp.alpha11.p2"] = lambda: str(bp.bp_fgl_coeff(2, 1, 1))
    pr["bp.alpha11.p3"] = lambda: str(bp.bp_fgl_coeff(3, 1, 1))
    for p, n, key in ((2, 0, "p2n0"), (2, 1, "p2n1"), (3, 1, "p3n1")):
        pr[f"bp.vcoeff.{key}"] = lambda p=p, n=n: str(bp.leading_alpha_relation(p, n, 1)[0])
    for p in (2, 3):
        for n in (1, 2, 3):
            pr[f"bp.valpha.p{p}.v{n}"] = lambda p=p, n=n: str(bp.express_v_in_alphas(p, n))

    # Morava
    pr["morava.gslog.p2s1"] = lambda: str(morava.gs_log(1, 2, 4))
    for n in range(1, 7):
        pr[f"morava.witt.w{n}"] = lambda n=n: str(morava.witt_symmetric(n))
    for d in (2, 3, 4, 5, 6, 7):
        pr[f"morava.kfgl.p2s1.d{d}"] = lambda d=d: _slice_text(cache.ravenel(2, 1, 7), d)
    for d in (4, 10, 16, 22, 28):
        pr[f"morava.kfgl.p2s2.d{d}"] = lambda d=d: _slice_text(cache.ravenel(2, 2, 28), d)
    for d in (8, 36, 64):
        pr[f"morava.kfgl.p2s3.d{d}"] = lambda d=d: _slice_text(cache.ravenel(2, 3, 64), d)
    for d in (3, 5, 7):
        pr[f"morava.kfgl.p3s1.d{d}"] = lambda d=d: _slice_text(cache.ravenel(3, 1, 7), d)
    for d in (9, 33):
        pr[f"morava.kfgl.p3s2.d{d}"] = lambda d=d: _slice_text(cache.ravenel(3, 2, 33), d)
    pr["morava.wp.p2s2"] = lambda: _wp_text(2, 2, 8)
    pr["morava.wp.p2s3"] = lambda: _wp_text(2, 3, 30)
    pr["morava.wp.p3s2"] = lambda: _wp_text(3, 2, 18)
    pr["morava.bv.n2"] = lambda: _bv_text(2, 16)
    pr["morava.bv.n3"] = lambda: _bv_text(3, 56)

    # Abel
    for n in range(3, 10):
        pr[f"abel.an.a{n}"] = lambda n=n: str(cache.abel_ctx().a_coeff(n))
    for k in range(1, 10):
        pr[f"abel.mn.m{k}"] = lambda k=k: str(cache.abel_ctx().m_coeff(k))
    for k in (2, 3, 4):
        pr[f"abel.loguv.k{k}"] = lambda k=k: str(abel.abel_log_uv(4)[k - 1])
    pr["abel.exp.k2"] = lambda: str(abel.exp_abel_uv(2).coeff(2))
    pr["abel.loguv.ln1p"] = _ln1p_text
    pr["abel.closed.a5"] = lambda: str(abel.abel_coeffs_closed(5)[-1])

    # 2-typical Abel
    pr["ptypical.log.p2"] = lambda: str(ptypical.ptypical_log(2, 4, cache.abel_ctx()))
    pr["ptypical.log.p3"] = lambda: str(ptypical.ptypical_log(3, 3, cache.abel_ctx()))
    for n in range(1, 5):
        pr[f"ptypical.images.v{n}"] = lambda n=n: str(cache.images().image(n))
    for w in (9, 17, 21, 33):
        pr[f"ptypical.mod2.w{w}"] = lambda w=w: _mod2_check_text(cache, w)
    pr["ptypical.witness"] = lambda: "verified" if cache.mod2().witness_ok else "FAIL"
    pr["ptypical.conjecture"] = _conjecture_text
    return pr


@dataclass
class FixtureResult:
    id: str
    location: str
    expected: str
    computed: str
    ok: bool
    note: str = ""
    scoring: bool = True


@dataclass
class ReproReport:
    results: list[FixtureResult]

    @property
    def total(self) -> int:
        return sum(1 for r in self.results if r.scoring)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.scoring and r.ok)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def render_text(self) -> str:
        lines = []
        width = max(len(r.id) for r in self.results)
        for r in self.results:
            status = ("PASS" if r.ok else "FAIL") if r.scoring else "INFO"
            lines.append(f"[{status}] {r.id.ljust(width)}  {r.location}")
            if r.scoring and not r.ok:
                lines.append(f"       expected: {r.expected}")
                lines.append(f"       computed: {r.computed}")
            if not r.scoring:
                lines.append(f"       {r.computed}")
            if r.note:
                lines.append(f"       note: {r.note}")
        lines.append(f"summary: {self.passed}/{self.total} fixtures pass")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        obj = {
            "fixtures": [
                {
                    "id": r.id,
                    "location": r.location,
                    "expected": r.expected,
                    "computed": r.computed,
                    "pass": r.ok,
                    "scoring": r.scoring,
                    **({"note": r.note} if r.note else {}),
                }
                for r in self.results
            ],
            "summary": {"total": self.total, "passed": self.passed},
        }
        return json.dumps(obj, indent=2) + "\n"


def load_fixture_table(path: str | None = None) -> list[dict]:
    """The packaged fixture table, or the JSON file at path."""
    if path is None:
        text = resources.files("fgl").joinpath("data/fixtures.json").read_text()
        return json.loads(text)
    try:
        with open(path) as fh:
            table = json.loads(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read fixtures {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DomainError(f"cannot read fixtures {path}: {exc}") from None
    fields = {"id", "location", "expected"}
    if not (
        isinstance(table, list)
        and table
        and all(isinstance(e, dict) and fields <= e.keys() for e in table)
    ):
        raise DomainError(
            f"cannot read fixtures {path}: not a non-empty list of objects with "
            "id, location and expected"
        )
    return table


def reproduce(path: str | None = None) -> ReproReport:
    """Run every reference fixture and report expected vs computed."""
    table = load_fixture_table(path)
    cache = _Cache()
    pr = producers(cache)
    seen = set()
    results = []
    for entry in table:
        fid = entry["id"]
        if fid in seen:
            raise DomainError(f"duplicate fixture id {fid}")
        seen.add(fid)
        producer = pr.get(fid)
        computed = producer() if producer is not None else "NO PRODUCER"
        results.append(
            FixtureResult(
                fid,
                entry["location"],
                entry["expected"],
                computed,
                computed == entry["expected"],
                entry.get("note", ""),
                entry.get("scoring", True),
            )
        )
    return ReproReport(results)
