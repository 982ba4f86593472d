"""Command-line interface: ideal files, subcommands, exit codes."""

from __future__ import annotations

import json

import pytest

from cmreg import _kernel, families, verify
from cmreg.cli import format_ideal_file, main, parse_ideal_file
from cmreg.groebner import Ideal
from cmreg.ring import GREVLEX, PolyRing, PrimeField, QQ
from cmreg.sections import GenericityFailure


def test_ideal_file_roundtrip():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * z - y * y, x ** 3 - z ** 3])
    text = format_ideal_file(I, comments=("answer: 42",))
    J = parse_ideal_file(text)
    assert J.ring.names == R.names
    assert J.same_ideal(Ideal(J.ring, [J.ring.from_string(str(g)) for g in I.gens]))
    assert "# answer: 42" in text


def test_ideal_file_char_zero_roundtrip():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x - y * y])
    J = parse_ideal_file(format_ideal_file(I))
    assert getattr(J.ring.field, "p", 0) == 0
    assert len(J.gens) == 1


def test_parse_rejects_bad_headers():
    with pytest.raises(ValueError):
        parse_ideal_file("gens:\nx\n")  # missing header
    with pytest.raises(ValueError):
        parse_ideal_file("ring: char=32003 vars=[x,y] order=lex\ngens:\nx\n")
    with pytest.raises(ValueError):
        parse_ideal_file("ring: char=32003 vars=[x,y] order=grevlex\nx - y\n")


def test_family_then_betti_then_reg(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    assert main(["family", "--m", "2", "--n", "2",
                 "--out", str(fam_file)]) == 0
    text = fam_file.read_text()
    I = parse_ideal_file(text)
    assert len(I.gens) == 3
    assert "# meta:" in text
    meta = json.loads(text.split("# meta:", 1)[1].splitlines()[0])
    assert meta["m"] == 2 and meta["n"] == 2 and meta["primed"] is False

    assert main(["betti", "--in", str(fam_file), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["regularity"] == 6  # reg of the quotient the table resolves
    assert obj["pdim"] >= 2

    assert main(["reg", "--in", str(fam_file)]) == 0
    out = capsys.readouterr().out
    assert "reg(ideal) = 7" in out
    assert "reg(quotient) = 6" in out


def test_betti_text_format(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    main(["family", "--m", "1", "--n", "2", "--primed", "--out", str(fam_file)])
    assert main(["betti", "--in", str(fam_file)]) == 0
    out = capsys.readouterr().out
    assert "total" in out


def test_verify_single_claim_exit_zero(capsys):
    code = main(["verify", "prop32", "--m", "2", "--n", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["reports"][0]["claim"] == "prop32"


def test_verify_all_for_one_instance(capsys):
    code = main(["verify", "all", "--m", "1", "--n", "2", "--primed",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    claims = [r["claim"] for r in obj["reports"]]
    assert "prop22" in claims and "lemma21" in claims and "thm11" in claims
    assert "prop32" not in claims  # unprimed-only checks are excluded
    # the saturated instance makes lemma12 a skip, not a failure
    lemma12 = [r for r in obj["reports"] if r["claim"] == "lemma12"][0]
    assert lemma12["verdict"] == "skip"


def test_verify_requires_m_and_n_together(capsys):
    assert main(["verify", "prop32", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cmreg: error: --m and --n must be given together\n"


@pytest.mark.parametrize("argv, needle", [
    (["verify", "prop32", "--m", "2", "--n", "2", "--char", "4"], "odd prime"),
    (["verify", "all", "--char", "4"], "odd prime"),
    (["verify", "prop32", "--m", "0", "--n", "2"], "unprimed instances need m >= 2"),
    (["verify", "all", "--m", "0", "--n", "2", "--primed"], "primed instances need m >= 1"),
    (["verify", "thm11", "--m", "2", "--n", "1"], "need n >= 2"),
    (["verify", "prop32", "--m", "2", "--n", "2", "--primed"],
     "prop32 is not a claim of the primed family"),
    (["verify", "lemma31", "--m", "2", "--n", "2", "--primed"],
     "lemma31 is not a claim of the primed family"),
    (["verify", "lemma21", "--m", "2", "--n", "2"],
     "lemma21 is not a claim of the unprimed family"),
    (["verify", "prop22", "--m", "2", "--n", "2"],
     "prop22 is not a claim of the unprimed family"),
    (["verify", "prop32", "--primed"], "--primed needs --m and --n"),
], ids=["char-4", "grid-char-4", "m0", "primed-m0", "n1", "prop32-primed",
        "lemma31-primed", "lemma21-unprimed", "prop22-unprimed", "grid-primed"])
def test_verify_bad_input_exits_2_before_any_claim(argv, needle, capsys, monkeypatch):
    def no_claims(*args, **kwargs):
        raise AssertionError("a claim ran on bad input")

    monkeypatch.setattr(verify, "run_claim", no_claims)
    monkeypatch.setattr(verify, "grid_reports", no_claims)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cmreg: error: ") and needle in lines[0]


def test_run_claim_reports_a_build_failure_as_a_failed_report():
    report = verify.run_claim("prop32", 0, 2, False)
    assert report.verdict == "fail"
    assert [s.name for s in report.subchecks] == ["unexpected-error"]
    assert "unprimed instances need m >= 2" in report.subchecks[0].note


def test_verify_csv_format(capsys):
    code = main(["verify", "remark33", "--m", "2", "--n", "2",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "claim,m,n,primed,subcheck,status,values,note"
    assert any("remark33" in line for line in out.splitlines()[1:])


BAD_TERMS = {"zero-denominator": ("x - 1/0*y", "zero denominator in term '1/0*y'"),
             "huge-exponent": ("x^1048576 - y", "term 'x^1048576'"),
             "fraction-mod-p": ("x - 1/32003*y", "-1/32003 has no value mod 32003")}


@pytest.mark.parametrize("case", ["family-m1", "missing-file", "bad-header", *BAD_TERMS])
def test_errors_are_one_line_with_exit_code_2(case, tmp_path, capsys):
    if case == "family-m1":
        argv, needle = ["family", "--m", "1", "--n", "2"], "m >= 2"
    elif case == "missing-file":
        path = tmp_path / "absent.txt"
        argv, needle = ["betti", "--in", str(path)], "absent.txt"
    elif case == "bad-header":
        path = tmp_path / "bad.txt"
        path.write_text("ring: vars=[x,y]\ngens:\nx\n")
        argv, needle = ["reg", "--in", str(path)], "bad header line"
    else:
        poly, needle = BAD_TERMS[case]
        path = tmp_path / "bad.txt"
        path.write_text(f"ring: char=32003 vars=[x,y] order=grevlex\ngens:\n{poly}\n")
        argv = ["betti", "--in", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cmreg: error: ") and needle in lines[0]


@pytest.mark.parametrize("case", ["pair-budget", "genericity"])
def test_exhausted_budgets_are_one_line_with_exit_code_3(case, tmp_path, capsys,
                                                         monkeypatch):
    if case == "pair-budget":
        path = tmp_path / "cubic.txt"
        path.write_text("ring: char=32003 vars=[x,y,z,w] order=grevlex\ngens:\n"
                        "x*z - y^2\nx*w - y*z\ny*w - z^2\n")
        kernel_buchberger = _kernel.buchberger
        monkeypatch.setattr(_kernel, "buchberger",
                            lambda ctx, pdicts: kernel_buchberger(ctx, pdicts, max_pairs=0))
        argv, needle = ["reg", "--in", str(path)], "exceeded the pair budget"
    else:
        def no_section(*args, **kwargs):
            raise GenericityFailure("no stable general section after 5 rounds; "
                                    "seeds tried: [5, 6]")

        monkeypatch.setattr(families, "build_family", no_section)
        argv, needle = ["family", "--m", "2", "--n", "2"], "no stable general section"
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cmreg: error: ") and needle in lines[0]


def test_grid_and_single_instance_run_the_family_claims(monkeypatch, capsys):
    calls = []

    def record(claim, m, n, primed, seed=verify.DEFAULT_SEED, char=verify.DEFAULT_CHAR):
        calls.append((claim, m, n, primed))
        return verify.VerifyReport(claim, {"m": m, "n": n, "primed": primed}, [])

    monkeypatch.setattr(verify, "run_claim", record)
    verify.grid_reports()
    grid = list(calls)
    assert grid == sorted(grid) and len(grid) == 39
    for primed, instances in ((False, verify.UNPRIMED_GRID), (True, verify.PRIMED_GRID)):
        for m, n in instances:
            ran = {c for c, *inst in grid if inst == [m, n, primed]}
            assert ran == set(verify.FAMILY_CLAIMS[primed])
        calls.clear()
        main(["verify", "all", "--m", "2", "--n", "2"] + (["--primed"] if primed else []))
        assert calls == [(c, 2, 2, primed) for c in sorted(verify.FAMILY_CLAIMS[primed])]
