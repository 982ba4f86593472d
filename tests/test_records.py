"""The record types: construction, value equality, immutability, copies.

Each record is a namedtuple subclass with no per-instance dict, so these
pin what callers rely on: positional and keyword construction with the
defaults, the properties and methods, equality by value, a fresh dict
where a field defaults to one, and _replace as the copy with changes.
"""

from __future__ import annotations

import functools
import math

import pytest

from cmreg.families import FamilyInstance
from cmreg.hilbert import FiniteLengthData, HilbertData
from cmreg.idealops import SaturationBound
from cmreg.resolution import BettiTable, Resolution
from cmreg.sections import SectionData
from cmreg.verify import SubCheck, VerifyReport

FAMILY_FIELDS = dict(m=2, n=3, primed=True, char=32003, ring="R", exponents=(0, 3, 7, 12),
                     curve="P", complete_intersection="CI", ci_degrees=(4, 3),
                     residual="a", extra_form="F", extra_degree=7,
                     almost_complete_intersection="I")
SECTION_FIELDS = dict(seed=5, attempted_seeds=(5, 6), linear_form="l", hyperplane_ring="S",
                      section_ideal="J", lifted_ideal="L", deg_section=3, indeg_section=2)


def test_records_keep_no_instance_dict():
    records = [HilbertData((1, -1), 1, 1, 2), FiniteLengthData(0, -math.inf, ()),
               SubCheck("a", "pass"), VerifyReport("thm11", {}, []),
               Resolution("R", BettiTable("A/I", {(0, 0): 1}), {"route": "schreyer"}),
               SaturationBound(*range(10)), FamilyInstance(**FAMILY_FIELDS),
               SectionData(**SECTION_FIELDS)]
    for rec in records:
        assert not hasattr(rec, "__dict__"), type(rec).__name__
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_positional_and_keyword_construction_agree():
    assert HilbertData((1, -1), 1, 1, 2) == HilbertData(numerator=(1, -1), dimension=1,
                                                        degree=1, nvars=2)
    assert SubCheck("a", "fail", {"x": 1}, "n") == SubCheck(name="a", status="fail",
                                                             values={"x": 1}, note="n")
    fam = FamilyInstance(*FAMILY_FIELDS.values())
    assert fam == FamilyInstance(**FAMILY_FIELDS)
    assert fam.almost_complete_intersection == "I"
    with pytest.raises(TypeError):
        HilbertData((1,), 0, 1)
    with pytest.raises(TypeError):
        SubCheck("a", "pass", {}, "", "extra")
    with pytest.raises(TypeError):
        SectionData(**SECTION_FIELDS, colour="red")


def test_saturation_bound_from_a_partial_with_keywords():
    report = functools.partial(SaturationBound, a0=4, indeg_sat=2, reg_ideal=7, bound_right=5)
    rep = report(q=1, bound_mid=3, holds=True, status="ok", method="chain",
                 precondition_certified=True)
    assert rep == SaturationBound(1, 4, 2, 7, 3, 5, True, "ok", "chain", True)
    assert (rep.q, rep.a0, rep.bound_right, rep.precondition_certified) == (1, 4, 5, True)


def test_verify_report_defaults_and_verdicts():
    empty = VerifyReport("thm11", {"m": 2}, [])
    assert empty.elapsed == 0.0 and empty.verdict == "skip"
    assert empty.to_obj() == {"claim": "thm11", "params": {"m": 2}, "verdict": "skip",
                              "subchecks": []}
    passed = VerifyReport("thm11", {}, [SubCheck("a", "pass"), SubCheck("b", "skip", note="x")],
                          elapsed=1.5)
    assert passed.verdict == "pass" and passed.elapsed == 1.5
    assert passed.to_obj()["subchecks"][1] == {"name": "b", "status": "skip", "values": {},
                                               "note": "x"}
    assert passed._replace(subchecks=[SubCheck("c", "fail")]).verdict == "fail"


def test_frozen_records_are_immutable_and_equal_by_value():
    h = HilbertData((1, -2, 1), 0, 1, 2)
    f = FiniteLengthData(3, 2, (1, 1, 1))
    for rec, name in ((h, "dimension"), (f, "length")):
        with pytest.raises(AttributeError):
            setattr(rec, name, 5)
    assert h == HilbertData((1, -2, 1), 0, 1, 2) and h != HilbertData((1, -2, 1), 0, 1, 3)
    assert hash(h) == hash(HilbertData((1, -2, 1), 0, 1, 2))
    assert f == FiniteLengthData(3, 2, (1, 1, 1)) and f != FiniteLengthData(3, 1, (1, 1, 1))
    assert {h, HilbertData((1, -2, 1), 0, 1, 2)} == {h}


def test_dict_fields_default_to_a_fresh_dict():
    a, b = SubCheck("a", "pass"), SubCheck("b", "pass", note="n")
    assert a.values == {} and a.note == "" and a.values is not b.values
    a.values["x"] = 1
    assert b.values == {} and SubCheck("c", "skip").values == {}
    s, t = SectionData(**SECTION_FIELDS), SectionData(*SECTION_FIELDS.values())
    assert s.validation == {} and s.validation is not t.validation
    given = {"notes": []}
    assert SectionData(**SECTION_FIELDS, validation=given).validation is given


def test_replace_leaves_the_original_unchanged():
    h = HilbertData((1, -1), 1, 1, 2)
    assert h._replace(degree=4) == HilbertData((1, -1), 1, 4, 2)
    assert h.degree == 1
    sd = SectionData(**SECTION_FIELDS)
    moved = sd._replace(deg_section=sd.deg_section + 1)
    assert (sd.deg_section, moved.deg_section) == (3, 4)
    assert moved.validation is sd.validation and type(moved) is SectionData
    res = Resolution("R", BettiTable("A/I", {(0, 0): 1}), {"route": "koszul"})
    assert res._replace(stats={}).stats == {} and res.stats == {"route": "koszul"}
