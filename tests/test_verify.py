"""Claim checkers: subcheck structure, verdicts, report rendering."""

from __future__ import annotations

import json
import math

import pytest

from cmreg import families, hilbert, resolution, sections, verify
from cmreg import idealops as ops
from cmreg.groebner import Ideal
from cmreg.verify import (CLAIM_IDS, FAMILY_CLAIMS, SECTION_CLAIMS, _jsonable,
                          grid_reports, overall_verdict, render_csv, render_json,
                          render_text, run_claim)


def _values(report, name):
    for sc in report.subchecks:
        if sc.name == name:
            return sc.values
    raise AssertionError(f"no subcheck named {name!r} in {[s.name for s in report.subchecks]}")


def _status(report, name):
    for sc in report.subchecks:
        if sc.name == name:
            return sc.status
    raise AssertionError(f"no subcheck named {name!r}")


def test_jsonable_handles_infinities_and_tuples():
    assert _jsonable(-math.inf) == "-inf"
    assert _jsonable((1, 2)) == [1, 2]
    assert _jsonable({"a": (1, -math.inf)}) == {"a": [1, "-inf"]}


def test_prop32_22_passes():
    rep = run_claim("prop32", 2, 2, primed=False)
    assert rep.verdict == "pass"
    vals = _values(rep, "regularity-lower-bound")
    assert vals["reg"]["value"] == 7
    assert vals["bound"]["value"] == 7
    assert vals["slack"]["value"] == 0
    ci = _values(rep, "ci-regularity")
    assert ci["reg_ci"]["value"] == 2 * 2 + 2 ** 0  # mn + 2^(m-2)
    a0v = _values(rep, "a0-identity")
    assert a0v["a0"]["value"] == 6
    assert _status(rep, "h0-depth-consistency") == "pass"


def test_prop22_primed_12_passes():
    rep = run_claim("prop22", 1, 2, primed=True)
    assert rep.verdict == "pass"
    vals = _values(rep, "regularity-lower-bound")
    assert vals["reg"]["value"] == 4
    assert vals["slack"]["value"] == 0


def test_lemma_decomposition_22():
    rep = run_claim("lemma31", 2, 2, primed=False)
    assert rep.claim == "lemma31"
    assert rep.verdict == "pass"
    assert _status(rep, "decomposition") == "pass"
    assert _status(rep, "degree-additivity") == "pass"
    rep_p = run_claim("lemma21", 1, 2, primed=True)
    assert rep_p.claim == "lemma21"
    assert rep_p.verdict == "pass"


def test_thm11_22():
    rep = run_claim("thm11", 2, 2, primed=False)
    assert rep.verdict == "pass"
    vals = _values(rep, "regularity-upper-bound")
    assert vals["reg"]["value"] == 7
    assert vals["rhs"]["value"] == 62
    assert vals["deg_section"]["value"] == 3
    assert vals["indeg_section"]["value"] == 2


def _error_note(report):
    assert report.verdict == "fail"
    return next(sc.note for sc in report.subchecks if sc.name == "unexpected-error")


def test_thm11_cuts_the_residual_once_per_grid_instance(monkeypatch):
    cut = sections.general_section
    calls = []

    def counted(I, seed):
        calls.append(I)
        return cut(I, seed)

    monkeypatch.setattr(sections, "general_section", counted)
    for primed, grid in ((False, verify.UNPRIMED_GRID), (True, verify.PRIMED_GRID)):
        for m, n in grid:
            calls.clear()
            assert run_claim("thm11", m, n, primed).verdict == "pass", (m, n, primed)
            assert len(calls) == 1, (m, n, primed)
            assert calls[0] is families.build_family(m, n, primed=primed).residual


@pytest.mark.parametrize("swap,message", [
    # The curve ideal does not contain the extra form, so not the ACI either.
    (lambda fam: fam.curve,
     "the residual does not contain the almost complete intersection"),
    # residual + (X0) contains the ACI, but X0 = 0 drops a component.
    (lambda fam: Ideal(fam.ring, fam.residual.gens + (fam.ring.gen(0),)),
     "the residual has (dim, deg) = (2, 1), the almost complete intersection (2, 3)"),
], ids=["curve", "residual+X0"])
def test_thm11_guard_rejects_a_residual_that_is_not_the_top_part(monkeypatch, swap, message):
    fam = families.build_family(2, 2)
    monkeypatch.setitem(families._FAMILY_CACHE, (2, 2, False, fam.char),
                        fam._replace(residual=swap(fam)))
    note = _error_note(run_claim("thm11", 2, 2, primed=False))
    assert note.startswith(f"AssertionError: thm11 (2, 2, primed=False): {message}"), note


def test_thm11_asserts_deg_z_is_the_degree_of_the_cone(monkeypatch):
    cut = sections.general_section

    def off_by_one(I, seed):
        sd = cut(I, seed)
        return sd._replace(deg_section=sd.deg_section + 1)

    monkeypatch.setattr(sections, "general_section", off_by_one)
    note = _error_note(run_claim("thm11", 2, 2, primed=False))
    assert ("deg Z = 4 from the sections with seeds 2026 and 54387 differs "
            "from deg(A/I) = 3") in note, note


def test_lemma12_saturated_instance_skips():
    rep = run_claim("lemma12", 1, 2, primed=True)
    assert rep.verdict == "skip"
    for sc in rep.subchecks:
        assert sc.status == "skip"


def test_lemma12_22_passes():
    rep = run_claim("lemma12", 2, 2, primed=False)
    assert rep.verdict == "pass"


def test_lemma12_round_with_a_non_generic_form_fails_under_its_one_seed(monkeypatch):
    """Each round draws one form; a form that is not generic fails its round
    under that form's seed, with no retry."""
    calls = []

    def not_generic(I, l):
        calls.append(l)
        return ops.SaturationBound(q=None, a0=1, indeg_sat=2, reg_ideal=3, bound_mid=0,
                                   bound_right=1, holds=None, status="not_generic",
                                   method="chain", precondition_certified=False)

    monkeypatch.setattr(ops, "saturation_exponent_bound_check", not_generic)
    rep = run_claim("lemma12", 2, 2, primed=False, seed=2026)
    assert len(calls) == verify.LEMMA12_ROUNDS == 3
    assert rep.verdict == "fail"
    assert [sc.name for sc in rep.subchecks] == [f"round-{k}-seed-{2026 + 9973 * k}"
                                                 for k in range(3)]
    assert _status(rep, "round-0-seed-2026") == "fail"


def test_cor13_22():
    rep = run_claim("cor13", 2, 2, primed=False)
    assert rep.verdict == "pass"
    vals = _values(rep, "dim2-bound")
    assert vals["reg_quotient"]["value"] == 6
    assert vals["bound"]["value"] == 4 * 4 ** 2 * 3  # (m+2) d^m (d-1), d = 4


def test_cor13_outside_its_hypothesis_skips_without_a_resolution(monkeypatch):
    """An ACI of dimension other than 2 is outside corollary 1.3: the claim
    skips before it resolves anything, so a resolution that would raise
    does not turn the skip into a failure."""
    aci = families.build_family(2, 2).almost_complete_intersection
    dim_deg = hilbert.dim_deg
    monkeypatch.setattr(hilbert, "dim_deg",
                        lambda I: (1, dim_deg(I)[1]) if I is aci else dim_deg(I))

    def no_resolution(I):
        raise AssertionError("cor13 resolved an ideal outside its hypothesis")

    monkeypatch.setattr(resolution, "regularity", no_resolution)
    rep = run_claim("cor13", 2, 2, False)
    assert rep.verdict == "skip"
    assert _values(rep, "dimension-precondition")["dim"]["value"] == 1


def test_remark33_22():
    rep = run_claim("remark33", 2, 2, primed=False)
    assert rep.verdict == "pass"
    vals = _values(rep, "simplified-section-bound")
    assert vals["reg"]["value"] == 7
    assert vals["bound"]["value"] == 2 * 4 * 2 * 1 * (2 + 1) ** 2  # 2 m^2 n (n+1)^(m-2) (n+2^(m-2))^2
    eq = _values(rep, "regularity-equality")
    assert eq["reg"]["value"] == eq["expected"]["value"] == 7


def test_build_failure_reported_not_raised():
    rep = run_claim("prop32", 1, 2, primed=False)  # unprimed m = 1 cannot build
    assert rep.verdict == "fail"
    assert any(sc.name == "unexpected-error" for sc in rep.subchecks)


def test_run_claim_dispatch_and_unknown():
    rep = run_claim("prop32", 2, 2, primed=False)
    assert rep.claim == "prop32"
    with pytest.raises(ValueError):
        run_claim("nonsense", 2, 2, primed=False)


@pytest.mark.parametrize("claim", CLAIM_IDS)
@pytest.mark.parametrize("m,n,primed", [(2, 2, False), (1, 2, True)],
                         ids=["unprimed-2-2", "primed-1-2"])
def test_every_claim_runs_on_its_families_only(claim, m, n, primed):
    if claim in FAMILY_CLAIMS[primed]:
        rep = run_claim(claim, m, n, primed)
        assert rep.claim == claim
        assert rep.verdict != "fail"
        assert ("seed" in rep.params) == (claim in SECTION_CLAIMS)
    else:
        family = "primed" if primed else "unprimed"
        with pytest.raises(ValueError, match=f"{claim} is not a claim of the {family} family"):
            run_claim(claim, m, n, primed)


def test_render_json_deterministic_bytes():
    reports = [run_claim("prop32", 2, 2, primed=False), run_claim("remark33", 2, 2, primed=False)]
    s1 = render_json(reports)
    s2 = render_json([run_claim("prop32", 2, 2, primed=False), run_claim("remark33", 2, 2, primed=False)])
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["schema"] == verify.SCHEMA
    assert obj["verdict"] == "pass"
    assert len(obj["reports"]) == 2
    # no timing data in machine output
    assert "elapsed" not in json.dumps(obj)


def test_render_csv_and_text():
    reports = [run_claim("prop32", 2, 2, primed=False)]
    csv_out = render_csv(reports)
    header = csv_out.splitlines()[0]
    assert header == "claim,m,n,primed,subcheck,status,values,note"
    assert "prop32" in csv_out
    text = render_text(reports)
    assert "PASS" in text
    assert overall_verdict(reports) == "pass"


def test_claim_ids_cover_grid():
    assert set(CLAIM_IDS) == {"thm11", "lemma12", "lemma21", "lemma31",
                              "prop22", "prop32", "remark33", "cor13"}
