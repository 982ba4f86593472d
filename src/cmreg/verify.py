"""Claim-by-claim verification reports over the family grid.

CLAIMS maps each claim id to the families it belongs to and a body over the
built instance, which computes the quantities the numbered claim talks
about.  run_claim builds (or reuses) the family instance, runs the body and
returns a VerifyReport: a list of sub-checks, each pass/fail/skip with the
values involved and a tag recording how every number was obtained
(resolution | hilbert | section | formula | construction).  A precondition
failure downgrades the affected sub-check to "skip" with the violated
condition in the note — a claim is never asserted on an instance outside its
hypotheses.

The default grid covers both families at sizes that keep every resolution
well under the acceptance time limits; reports are deterministic functions
of (claim, parameters, characteristic, seed), and the JSON rendering
contains no wall-clock data so that identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import namedtuple

from . import families, hilbert, resolution, sections
from . import idealops as ops

SCHEMA = "cmreg-report/1"
DEFAULT_CHAR = 32003
DEFAULT_SEED = 2026
UNPRIMED_GRID = ((2, 2), (2, 3), (2, 4), (3, 2))
PRIMED_GRID = ((1, 2), (1, 3), (2, 2))
# The claims that draw random linear forms (sections.random_linear_form).
SECTION_CLAIMS = ("thm11", "lemma12")
# The seeded rounds of linear forms in each lemma12 report.
LEMMA12_ROUNDS = 3

NEG_INF = float("-inf")


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if isinstance(x, (tuple, list)):
        return [_jsonable(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


def v(value, via):
    """A tagged value: the number plus how it was computed."""
    return {"value": _jsonable(value), "via": via}


class SubCheck(namedtuple("SubCheck", "name status values note", defaults=(None, ""))):
    """One named check of a report; status is "pass", "fail" or "skip".
    values defaults to a fresh dict."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rec = super().__new__(cls, *args, **kwargs)
        return rec if rec.values is not None else rec._replace(values={})


class VerifyReport(namedtuple("VerifyReport", "claim params subchecks elapsed",
                              defaults=(0.0,))):
    """The sub-checks of one claim at one parameter set, and the seconds
    they took (elapsed, left out of to_obj)."""

    __slots__ = ()

    @property
    def verdict(self):
        if any(s.status == "fail" for s in self.subchecks):
            return "fail"
        if all(s.status == "skip" for s in self.subchecks):
            return "skip"
        return "pass"

    def to_obj(self):
        return {
            "claim": self.claim,
            "params": _jsonable(self.params),
            "verdict": self.verdict,
            "subchecks": [
                {"name": s.name, "status": s.status,
                 "values": _jsonable(s.values), "note": s.note}
                for s in self.subchecks
            ],
        }


class _Collector:
    """Builds the sub-check list of one report."""

    def __init__(self):
        self.subchecks = []

    def record(self, name, ok, values=None, note=""):
        self.subchecks.append(SubCheck(name, "pass" if ok else "fail", values, note))
        return ok

    def skip(self, name, note, values=None):
        self.subchecks.append(SubCheck(name, "skip", values, note))

    def info(self, name, values, note=""):
        self.subchecks.append(SubCheck(name, "pass", values, note or "reported, not asserted"))


def _betti_totals(I):
    table = resolution.betti(I)
    return [table.total(i) for i in range(table.pdim() + 1)]


def _a0_identity_subchecks(col, fam):
    """The exact-sequence identity a0(A/aci) = a1(A/curve) + d, checked two ways.

    Depth consistency holds on every instance: the h0 of the almost complete
    intersection is nonzero exactly when the curve quotient has depth 1,
    i.e. projective dimension nvars - 1.  Where the curve's regularity is
    known to be governed by its middle cohomology (unprimed m in {2, 3};
    primed (2,2), (3,2), (4,2)), the identity is asserted exactly with
    a1 = reg(A/curve) - 1 computed from an independent resolution.
    """
    a0 = ops.a0(fam.almost_complete_intersection)
    pd_curve = resolution.pdim(fam.curve)
    nv = fam.ring.nvars
    col.record(
        "h0-depth-consistency",
        (a0 != NEG_INF) == (pd_curve == nv - 1),
        {"a0": v(a0, "hilbert"), "pdim_curve": v(pd_curve, "resolution"),
         "nvars": v(nv, "construction")})
    exact_cases = ((not fam.primed and fam.m in (2, 3))
                   or (fam.primed and (fam.m, fam.n) in ((2, 2), (3, 2), (4, 2))))
    reg_curve = resolution.regularity(fam.curve)
    vals = {"a0": v(a0, "hilbert"),
            "reg_curve_quotient": v(reg_curve, "resolution"),
            "extra_degree": v(fam.extra_degree, "construction")}
    if exact_cases:
        col.record("a0-identity", a0 == (reg_curve - 1) + fam.extra_degree, vals)
    else:
        col.info("a0-identity-values", vals,
                 "identity a0 = a1 + d asserted only where a1 = reg - 1 is known")


def _lower_bound(col, fam, seed):
    """Prop 3.2 (unprimed) or its primed analog Prop 2.2: generator degrees,
    dim = 2, the complete intersection's exact regularity and Koszul Betti
    totals, reg >= n^m + mn + 2^(m-2) - 2 (primed: 2^(m-1) - 1), and the a0
    identity; at the primed (2, 2) also the curve quotient's regularity."""
    m, n, primed = fam.m, fam.n, fam.primed
    aci = fam.almost_complete_intersection
    if primed:
        e, ci_gens = 2 ** (m - 1), m + 1
        expected = sorted([n + 1] * m + [e + 1, m * n + e])
        reg_ci, bound = m * n + e + 1, n ** m + m * n + e - 1
    else:
        e, ci_gens = 2 ** (m - 2), m
        expected = sorted([n + 1] * (m - 1) + [e + n, m * n + e - 1])
        reg_ci, bound = m * n + e, n ** m + m * n + e - 2
    got = sorted(g.degree() for g in aci.gens)
    col.record("generator-degrees", got == expected,
               {"degrees": v(got, "construction"), "expected": v(expected, "formula")})
    dim, deg = hilbert.dim_deg(aci)
    col.record("dimension", dim == 2, {"dim": v(dim, "hilbert"), "deg": v(deg, "hilbert")})
    ci_reg = resolution.regularity_ideal(fam.complete_intersection)
    col.record("ci-regularity", ci_reg == reg_ci,
               {"reg_ci": v(ci_reg, "resolution"), "expected": v(reg_ci, "formula")})
    ci_totals = _betti_totals(fam.complete_intersection)
    col.record("ci-koszul-betti",
               ci_totals == [math.comb(ci_gens, i) for i in range(ci_gens + 1)],
               {"totals": v(ci_totals, "resolution")})
    reg = resolution.regularity_ideal(aci)
    col.record("regularity-lower-bound", reg >= bound,
               {"reg": v(reg, "resolution"), "bound": v(bound, "formula"),
                "slack": v(reg - bound, "formula"),
                "betti_totals": v(_betti_totals(aci), "resolution")})
    if primed and (m, n) == (2, 2):
        rc = resolution.regularity(fam.curve)
        col.record("curve-quotient-regularity", rc == n ** m - 1,
                   {"reg_curve_quotient": v(rc, "resolution"),
                    "expected": v(n ** m - 1, "formula")})
    _a0_identity_subchecks(col, fam)


def _decomposition(col, fam, seed):
    """Lemma 3.1 (unprimed) or Lemma 2.1 (primed), the decomposition of the
    complete intersection: I equals the intersection of the curve ideal with
    the residual, whose support is the two coordinate lines; plus the
    complete-intersection codimension count."""
    m = fam.m
    ring = fam.ring
    I, b, a = fam.complete_intersection, fam.curve, fam.residual
    col.record("decomposition", ops.intersect(b, a).same_ideal(I),
               {"method": v("reduced GB equality", "construction")})
    if fam.primed:
        j_vars = list(range(2, m + 3))
        k_vars = [0] + list(range(2, m + 2))
    else:
        j_vars = list(range(2, m + 2))
        k_vars = [0] + list(range(2, m + 1))
    ajk = ops.saturate_by_variables(ops.saturate_by_variables(a, j_vars), k_vars)
    col.record("residual-support", ajk.is_unit(),
               {"j_vars": v(j_vars, "construction"), "k_vars": v(k_vars, "construction"),
                "after_both_saturations": v("(1)" if ajk.is_unit() else "proper", "hilbert")})
    dim, deg_i = hilbert.dim_deg(I)
    codim = ring.nvars - dim
    col.record("ci-codimension", codim == len(I.gens),
               {"codim": v(codim, "hilbert"), "generators": v(len(I.gens), "construction")})
    _, deg_b = hilbert.dim_deg(b)
    _, deg_a = hilbert.dim_deg(a)
    col.record("degree-additivity", deg_i == deg_b + deg_a,
               {"deg_ci": v(deg_i, "hilbert"), "deg_curve": v(deg_b, "hilbert"),
                "deg_residual": v(deg_a, "hilbert")})
    col.record("curve-saturated", ops.saturate_irrelevant(b).same_ideal(b),
               {"method": v("irrelevant saturation fixed point", "hilbert")})


def _thm11(col, fam, seed):
    """Theorem 1.1, the section-based regularity bound on the almost complete
    intersection: reg(I) <= (d1...dm - degZ + 1)(d1+...+d(m+1) - m - iZ) + iZ.

    Z is cut from the residual a = CI : pivot, not from I.  The residual is
    unmixed (a colon of the unmixed complete intersection by one element);
    once I lies in a with the same dimension and degree, a is the
    top-dimensional part of I, so I^sat = a ∩ Q with Q supported at finitely
    many points.  A general hyperplane misses them, and (I + l)^sat =
    (a + l)^sat.  Both hypotheses are asserted before the cut, and deg Z is
    asserted equal to deg(A/I), the multiplicity of the cone."""
    aci = fam.almost_complete_intersection
    dim, deg = hilbert.dim_deg(aci)
    if dim != 2:
        col.skip("dimension-precondition", f"dim(A/I) = {dim}, need 2")
        return
    degrees = sorted((g.degree() for g in aci.gens), reverse=True)
    codim = fam.ring.nvars - dim
    if len(degrees) <= codim:
        col.skip("generator-count-precondition",
                 f"s = {len(degrees)} <= codim = {codim}")
        return
    where = f"thm11 ({fam.m}, {fam.n}, primed={fam.primed})"
    top = fam.residual
    if not top.contains_ideal(aci):
        raise AssertionError(f"{where}: the residual does not contain the almost "
                             "complete intersection, so it is not its top-dimensional part")
    top_dim_deg = hilbert.dim_deg(top)
    if top_dim_deg != (dim, deg):
        raise AssertionError(f"{where}: the residual has (dim, deg) = {top_dim_deg}, the "
                             f"almost complete intersection ({dim}, {deg}), so it is not "
                             "its top-dimensional part")
    sd = sections.general_section(top, seed)
    if sd.deg_section != deg:
        sa, sb = sd.validation["agreeing_seeds"]
        raise AssertionError(f"{where}: deg Z = {sd.deg_section} from the sections with "
                             f"seeds {sa} and {sb} differs from deg(A/I) = {deg}")
    rhs = sections.thm11_rhs(degrees, codim, sd.deg_section, sd.indeg_section)
    reg = resolution.regularity_ideal(aci)
    col.record("regularity-upper-bound", reg <= rhs,
               {"reg": v(reg, "resolution"), "rhs": v(rhs, "formula"),
                "degrees": v(degrees, "construction"), "codim": v(codim, "hilbert"),
                "deg_section": v(sd.deg_section, "section"),
                "indeg_section": v(sd.indeg_section, "section"),
                "section_seed": v(sd.seed, "section"),
                "attempted_seeds": v(list(sd.attempted_seeds), "section")})


def _lemma12(col, fam, seed):
    """Lemma 1.2, saturation-exponent inequalities for random linear forms on
    the almost complete intersection: q <= a0 - indeg(sat) + 1 <= reg - indeg(sat).

    Round k draws one form, with seed + 9973 * k; a round whose form is not
    generic fails."""
    aci = fam.almost_complete_intersection
    for k in range(LEMMA12_ROUNDS):
        used = seed + 9973 * k
        l = sections.random_linear_form(fam.ring, used)
        rep = ops.saturation_exponent_bound_check(aci, l)
        name = f"round-{k}-seed-{used}"
        vals = {"q": v(rep.q, "hilbert"), "a0": v(rep.a0, "hilbert"),
                "indeg_sat": v(rep.indeg_sat, "hilbert"),
                "reg": v(rep.reg_ideal, "resolution"),
                "bound_mid": v(rep.bound_mid, "formula"),
                "bound_right": v(rep.bound_right, "formula"),
                "method": v(rep.method, "formula"),
                "certified": v(rep.precondition_certified, "formula")}
        if rep.status == "saturated":
            col.skip(name, "ideal is saturated: hypothesis I != I:m fails; "
                           "q = 0 trivially", vals)
        elif rep.status == "not_generic":
            col.record(name, False, vals, "the drawn linear form is a zero divisor on A/I^sat")
        else:
            col.record(name, rep.holds, vals)


def _cor13(col, fam, seed):
    """Corollary 1.3, the closed-form dimension-2 regularity bound on the
    almost complete intersection, with both variants of the constant reported."""
    aci = fam.almost_complete_intersection
    dim, _ = hilbert.dim_deg(aci)
    d = max(g.degree() for g in aci.gens)
    mc = fam.ring.nvars - 2
    dim1, body_bound, abstract_bound = sections.cor13_rhs(mc, d, 2)
    if dim != 2:
        col.skip("dimension-precondition", f"dim(A/I) = {dim}, need 2",
                 {"dim": v(dim, "hilbert")})
        return
    reg_q = resolution.regularity(aci)
    col.record("dim2-bound", reg_q <= body_bound,
               {"reg_quotient": v(reg_q, "resolution"), "d": v(d, "construction"),
                "m": v(mc, "construction"), "bound": v(body_bound, "formula")})
    col.info("dim2-bound-stronger-variant",
             {"reg_quotient": v(reg_q, "resolution"),
              "bound": v(abstract_bound, "formula"),
              "holds": v(bool(reg_q <= abstract_bound), "formula")},
             "stronger variant of the constant; reported, not asserted")
    col.info("dim1-bound-value", {"bound": v(dim1, "formula")},
             "dimension <= 1 variant, not applicable to these instances")


def _remark33(col, fam, seed):
    """Remark 3.3: exact regularity for the unprimed family at m in {2, 3}
    plus the two instance upper bounds (the simplified section bound and the
    curve bound)."""
    m, n = fam.m, fam.n
    reg = resolution.regularity_ideal(fam.almost_complete_intersection)
    exact = n ** m + m * n + 2 ** (m - 2) - 2
    if m in (2, 3):
        col.record("regularity-equality", reg == exact,
                   {"reg": v(reg, "resolution"), "expected": v(exact, "formula")})
    else:
        col.info("regularity-value",
                 {"reg": v(reg, "resolution"), "conjectural": v(exact, "formula")},
                 "equality asserted only for m in {2, 3}")
    big = 2 * m * m * n * (n + 1) ** (m - 2) * (n + 2 ** (m - 2)) ** 2
    col.record("simplified-section-bound", reg <= big,
               {"reg": v(reg, "resolution"), "bound": v(big, "formula")})
    reg_b = resolution.regularity_ideal(fam.curve)
    curve_bound = n ** m + n * (n + 1) ** (m - 2) - 1
    col.record("curve-regularity-bound", reg_b <= curve_bound,
               {"reg_curve": v(reg_b, "resolution"), "bound": v(curve_bound, "formula")})
    col.record("combined-bound", reg <= curve_bound + m * n + 2 ** (m - 2) - 2,
               {"reg": v(reg, "resolution"),
                "bound": v(curve_bound + m * n + 2 ** (m - 2) - 2, "formula")})


# Each claim: the families it belongs to (by primed) and its body over the
# built instance.  The order fixes CLAIM_IDS and each family's claim list.
CLAIMS = {
    "prop32": ((False,), _lower_bound),
    "prop22": ((True,), _lower_bound),
    "lemma31": ((False,), _decomposition),
    "lemma21": ((True,), _decomposition),
    "thm11": ((False, True), _thm11),
    "lemma12": ((False, True), _lemma12),
    "cor13": ((False, True), _cor13),
    "remark33": ((False,), _remark33),
}
CLAIM_IDS = tuple(CLAIMS)
# The claims checked on each family's instances, keyed by primed.
FAMILY_CLAIMS = {primed: tuple(c for c, (fams, _) in CLAIMS.items() if primed in fams)
                 for primed in (False, True)}


def grid_reports(claims=None, char=DEFAULT_CHAR, seed=DEFAULT_SEED):
    """Run the selected claims (default: all) over the default grid, sorted
    deterministically by (claim, m, n, primed)."""
    selected = set(CLAIM_IDS if claims is None else claims)
    unknown = selected - set(CLAIM_IDS)
    if unknown:
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    jobs = sorted((claim, m, n, primed)
                  for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID))
                  for m, n in grid
                  for claim in FAMILY_CLAIMS[primed] if claim in selected)
    return [run_claim(claim, m, n, primed, seed=seed, char=char)
            for claim, m, n, primed in jobs]


def check_claim_family(claim, primed):
    """Raise ValueError unless claim is one of the primed (or unprimed) family's."""
    wanted = FAMILY_CLAIMS[primed]
    if claim not in wanted:
        if claim not in CLAIMS:
            raise ValueError(f"unknown claim id: {claim}")
        family = "primed" if primed else "unprimed"
        raise ValueError(f"{claim} is not a claim of the {family} family: "
                         f"choose one of {', '.join(wanted)}")


def run_claim(claim, m, n, primed, seed=DEFAULT_SEED, char=DEFAULT_CHAR):
    """The VerifyReport of claim on the (m, n, primed) instance: the one frame
    every claim's body runs in.  Raises ValueError unless claim is one of
    that family's; a failed build is a failed report, not a crash."""
    check_claim_family(claim, primed)
    params = {"m": m, "n": n, "primed": bool(primed), "char": char}
    if claim in SECTION_CLAIMS:
        params["seed"] = seed
    col = _Collector()
    t0 = time.perf_counter()
    try:
        CLAIMS[claim][1](col, families.build_family(m, n, primed=primed, char=char), seed)
    except Exception as exc:  # a build failure is a failed report, not a crash
        col.record("unexpected-error", False, note=f"{type(exc).__name__}: {exc}")
    return VerifyReport(claim, params, col.subchecks, time.perf_counter() - t0)


def render_json(reports, char=DEFAULT_CHAR, seed=DEFAULT_SEED):
    """Byte-deterministic JSON: sorted keys, fixed separators, no timings."""
    obj = {
        "schema": SCHEMA,
        "char": char,
        "seed": seed,
        "reports": [r.to_obj() for r in reports],
        "verdict": overall_verdict(reports),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(reports):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim", "m", "n", "primed", "subcheck", "status", "values", "note"])
    for r in reports:
        for s in r.subchecks:
            w.writerow([r.claim, r.params.get("m"), r.params.get("n"),
                        int(bool(r.params.get("primed"))), s.name, s.status,
                        json.dumps(_jsonable(s.values), sort_keys=True,
                                   separators=(",", ":")),
                        s.note])
    return buf.getvalue()


def render_text(reports):
    lines = []
    for r in reports:
        p = r.params
        tag = "'" if p.get("primed") else ""
        head = f"{r.claim} ({p.get('m')},{p.get('n')}){tag}"
        lines.append(f"{head}: {r.verdict.upper()}  [{r.elapsed:.2f}s]")
        for s in r.subchecks:
            detail = ", ".join(
                f"{k}={s.values[k]['value']}" for k in sorted(s.values))
            note = f"  ({s.note})" if s.note else ""
            lines.append(f"  - {s.name}: {s.status}{note}" +
                         (f"  {detail}" if detail else ""))
    lines.append(f"overall: {overall_verdict(reports).upper()}")
    return "\n".join(lines) + "\n"


def overall_verdict(reports):
    return "fail" if any(r.verdict == "fail" for r in reports) else "pass"
