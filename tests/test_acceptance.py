"""Acceptance suite: one test per shipped guarantee, with runtime budgets.

Each test is a single pass/fail line under `pytest -v`.  The family cache is
cleared once at module start so the timed criteria measure real builds, not
cache hits from other test files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cmreg import families
from cmreg.cli import build_parser
from cmreg.families import build_family
from cmreg.groebner import Ideal
from cmreg.hilbert import dim_deg, hilbert_series
from cmreg.idealops import a0, colon, saturate
from cmreg.resolution import betti, regularity, regularity_ideal
from cmreg.ring import PolyRing, PrimeField, QQ
from cmreg.sections import general_section, thm11_rhs
from cmreg.verify import (DEFAULT_SEED, PRIMED_GRID, UNPRIMED_GRID, grid_reports,
                          render_json, run_claim)
from oracles import reduce, spair_certificate

FULL_GRID = tuple((m, n, False) for m, n in UNPRIMED_GRID) + \
            tuple((m, n, True) for m, n in PRIMED_GRID)

# This checkout's package sources, first on the path of every CLI subprocess,
# so the CLI tests run this checkout and not an installed cmreg.
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module", autouse=True)
def fresh_family_cache():
    families._FAMILY_CACHE.clear()
    yield


def timed(budget_seconds, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    return out


def test_criterion_01_reg_unprimed_22_is_7():
    def compute():
        fam = build_family(2, 2)
        return regularity_ideal(fam.almost_complete_intersection)

    assert timed(10, compute) == 7


def test_criterion_02_reg_unprimed_23_and_32_are_14():
    def compute(m, n):
        fam = build_family(m, n)
        return regularity_ideal(fam.almost_complete_intersection)

    assert timed(120, compute, 2, 3) == 14
    assert timed(120, compute, 3, 2) == 14


def test_criterion_03_primed_ci_regularity_closed_form():
    def compute():
        out = {}
        for m, n in PRIMED_GRID:
            fam = build_family(m, n, primed=True)
            out[(m, n)] = regularity_ideal(fam.complete_intersection)
        return out

    values = timed(30, compute)
    for (m, n), reg in values.items():
        assert reg == m * n + 2 ** (m - 1) + 1, (m, n, reg)


def test_criterion_04_primed_curve_quotient_regularity_22():
    def compute():
        fam = build_family(2, 2, primed=True)
        return regularity(fam.curve)

    assert timed(60, compute) == 3  # n^m - 1 at (2, 2)


def test_criterion_05_primed_lower_bounds_with_exact_values():
    expected = {(1, 2): 4, (1, 3): 6, (2, 2): 9}

    def compute(m, n):
        fam = build_family(m, n, primed=True)
        return regularity_ideal(fam.almost_complete_intersection)

    for (m, n), bound in expected.items():
        reg = timed(120, compute, m, n)
        assert reg >= bound, (m, n, reg, bound)
        assert reg == bound, f"exact value drifted: reg = {reg} at ({m}, {n})"


def test_criterion_06_decomposition_suite_full_grid():
    def compute():
        reports = [run_claim("lemma21" if primed else "lemma31", m, n, primed)
                   for m, n, primed in FULL_GRID]
        return reports

    reports = timed(120, compute)
    for rep in reports:
        assert rep.verdict == "pass", (rep.claim, rep.params)
        names = {sc.name: sc.status for sc in rep.subchecks}
        assert names["decomposition"] == "pass"
        assert names["residual-support"] == "pass"
        assert names["ci-codimension"] == "pass"


def test_criterion_07_section_bound_and_linear_form_inequalities():
    def compute():
        t_reports = [run_claim("thm11", m, n, primed) for m, n, primed in FULL_GRID]
        l_reports = [run_claim("lemma12", m, n, primed) for m, n, primed in FULL_GRID]
        return t_reports, l_reports

    t_reports, l_reports = timed(180, compute)
    for rep in t_reports:
        assert rep.verdict == "pass", (rep.claim, rep.params)
        vals = rep.subchecks[0].values
        assert "section_seed" in vals and "attempted_seeds" in vals
    for rep in l_reports:
        if rep.params["primed"] and (rep.params["m"], rep.params["n"]) == (1, 2):
            # arithmetically Cohen-Macaulay instance: the ideal is saturated,
            # the hypothesis fails, and the inequality is vacuous
            assert rep.verdict == "skip"
            fam = build_family(1, 2, primed=True)
            assert a0(fam.almost_complete_intersection) == -math.inf
        else:
            assert rep.verdict == "pass", (rep.claim, rep.params)
            assert len(rep.subchecks) == 3  # one line per seed round


def test_criterion_08_property_suites():
    t0 = time.perf_counter()

    # (a) Buchberger certificate on every family basis emitted above
    pair_total = 0
    for m, n, primed in FULL_GRID:
        fam = build_family(m, n, primed=primed)
        for I in (fam.curve, fam.complete_intersection,
                  fam.almost_complete_intersection):
            pair_total += spair_certificate(I.groebner())
    assert pair_total > 100

    # (b) Euler characteristic of each resolution equals the Hilbert numerator
    for m, n, primed in FULL_GRID:
        fam = build_family(m, n, primed=primed)
        I = fam.almost_complete_intersection
        table = betti(I)
        alt = {}
        for (i, j), b in table.entries.items():
            alt[j] = alt.get(j, 0) + (-1) ** i * b
        alt = {j: c for j, c in alt.items() if c}
        num = hilbert_series(I).numerator
        assert alt == {j: c for j, c in enumerate(num) if c}

    # (c) 1000 randomized kernel cases: 500 reduce idempotence, 500 order laws
    rng = random.Random(112233)
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    basis = Ideal(R, [x * x - y * z, y ** 3 - x * z * z]).groebner().polys
    mons = [x, y, z, x * y, y * z, z * z]
    for _ in range(500):
        f = R.zero
        for _ in range(rng.randrange(1, 5)):
            f = f + rng.randrange(1, 32003) * rng.choice(mons) * rng.choice(mons)
        r1, _ = reduce(f, basis)
        r2, _ = reduce(r1, basis)
        assert r1 == r2
    pack = R.bound.pack
    for _ in range(500):
        u = tuple(rng.randrange(0, 10) for _ in range(3))
        v = tuple(rng.randrange(0, 10) for _ in range(3))
        w = tuple(rng.randrange(0, 10) for _ in range(3))
        if pack(u) == pack(v):
            continue
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert (pack(u) > pack(v)) == (pack(uw) > pack(vw))

    # (d) saturation chain length consistency: q iterated colons reach the
    # saturation and q - 1 do not
    cases = [
        (Ideal(R, [x * x, x * y]), y),
        (Ideal(R, [x * x, x * y]), x),
        (Ideal(R, [x * x * y - z ** 3, y * y]), y),
    ]
    for I, f in cases:
        S, q = saturate(I, f)
        cur = I
        for _ in range(q):
            cur = colon(cur, f)
        assert cur.same_ideal(S)
        if q:
            shy = I
            for _ in range(q - 1):
                shy = colon(shy, f)
            assert not shy.same_ideal(S)

    assert time.perf_counter() - t0 < 120


def test_criterion_09_unprimed_instance_bounds():
    def compute():
        rows = []
        for m, n in UNPRIMED_GRID:
            fam = build_family(m, n)
            rows.append((m, n,
                         regularity_ideal(fam.almost_complete_intersection),
                         regularity_ideal(fam.curve)))
        return rows

    for m, n, reg_aci, reg_curve in timed(30, compute):
        assert reg_aci <= 2 * m * m * n * (n + 1) ** (m - 2) * (n + 2 ** (m - 2)) ** 2
        assert reg_curve <= n ** m + n * (n + 1) ** (m - 2) - 1


# sha256 of `cmreg verify all --format json` (seed 2026) at each characteristic.
VERIFY_ALL_SHA256 = {
    32003: "c5d447cf146c4a564d6daec300bf4c29bd0c3f36bacec8920bb3e57e5889934b",
    0: "a1df0209101e14ec4abbecf569513a19cda3523f436500d4c14cadde3f2029f3",
}


def _cli(*args):
    """The finished `python -m cmreg.cli ARGS` run of this checkout's sources."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cmreg.cli", *args], capture_output=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": path})


def test_criterion_10_verify_all_is_byte_deterministic():
    runs = []
    for _ in range(2):
        proc = _cli("verify", "all", "--format", "json")
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0]).hexdigest() == VERIFY_ALL_SHA256[32003]
    obj = json.loads(runs[0])
    assert obj["verdict"] == "pass"


def test_criterion_10_verify_all_char_zero_digest():
    text = render_json(grid_reports(char=0, seed=DEFAULT_SEED), char=0, seed=DEFAULT_SEED)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_SHA256[0]


def _passing_report_digest(claim, args):
    """sha256 of `cmreg verify CLAIM ARGS --format json`, whose verdict must be pass."""
    proc = _cli("verify", claim, *args.split(), "--format", "json")
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["verdict"] == "pass"
    return hashlib.sha256(proc.stdout).hexdigest()


def _single_claim_digest(claim, args):
    """sha256 of `cmreg verify CLAIM ARGS --format json`, whose verdict must
    be pass.  Runs at char 0 go through the CLI; at char 32003, whose CLI
    path the `verify all` pins cover, the one report is rendered in process
    from the CLI's parse of ARGS."""
    opts = build_parser().parse_args(["verify", claim, *args.split()])
    if opts.char == 0:
        return _passing_report_digest(claim, args)
    report = run_claim(claim, opts.m, opts.n, opts.primed, seed=opts.seed, char=opts.char)
    assert report.verdict == "pass"
    text = render_json([report], char=opts.char, seed=opts.seed)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of `cmreg verify all --format json` (seed 2026) beyond the default
# grid: every claim of the instance, lemma31/21, cor13 and remark33 included.
VERIFY_ALL_BEYOND_GRID_SHA256 = {
    "--m 3 --n 3": "94c91c0127f900b95d883f46493c066ebe311c986b1cbeba83ec6fab7b330f6d",
    "--m 4 --n 2": "6a6022ff32d735b00df748f25bface05e27e42be9b0b9b5b1e7e73ca9e8c8327",
    "--m 3 --n 2 --primed": "d64c2e25767cbe7dbb0e6114f5f4a673dcbdbe59d014f245754918537115cb49",
}


@pytest.mark.parametrize("args", sorted(VERIFY_ALL_BEYOND_GRID_SHA256))
def test_criterion_10_verify_all_digest_beyond_the_grid(args):
    assert _passing_report_digest("all", args) == VERIFY_ALL_BEYOND_GRID_SHA256[args]


# sha256 of `cmreg verify thm11 --format json` (seed 2026) beyond the default
# grid.  The (4,3) and primed (4,2) digests are those of the section cut,
# which the linkage route must reproduce.
VERIFY_THM11_SHA256 = {
    "--m 3 --n 3": "65ed1b21a8eacebd29d7b3329b44cb40ce46ae3748c675ea7083a311523c7e31",
    "--m 4 --n 2": "6bbc09c8164a75b0a1c18d550f97c451e7665802e564fec7306f4fcd3f4d0c63",
    "--m 3 --n 2 --primed": "b5a5ce4c3c758742c96f1c2b3f26690c1ad9af65e957105c2ec82e28621eafb2",
    "--m 4 --n 3": "6842af1ecb78faac03a9c13d34a2e28c4fe2cd9809def74cb34fcc0738e1c0a5",
    "--m 4 --n 2 --primed": "8719e5582293f4852fd6a04a55ee9547d57f6627b198ec356524a242f153f5db",
    "--m 3 --n 3 --char 0": "b2e33a6a86865a8db2d967d1b373a06536d82126a6f76bb94a464128c554f0be",
}


@pytest.mark.parametrize("args", sorted(VERIFY_THM11_SHA256))
def test_criterion_10_verify_thm11_digest_beyond_the_grid(args):
    assert _single_claim_digest("thm11", args) == VERIFY_THM11_SHA256[args]


# sha256 of `cmreg verify lemma12 --format json` (seed 2026) beyond the default grid.
VERIFY_LEMMA12_SHA256 = {
    "--m 3 --n 3": "27760e811e19c3700d9fcbd64d8be1f4c2d7586b209113e068faacafaf7f633e",
    "--m 4 --n 2": "ee0cfcf6addf04fbda0c431b41699db15e27f4d90b8888271fb5375603cd6811",
    "--m 3 --n 2 --primed": "86400bc92bf3eee4859bb1e569fabbc27099d003909c6cf85fbd85b0fa27ee9a",
    "--m 3 --n 3 --char 0": "08acda6fc895e9999c6f97a9e9fd86d73bc2819a65d8b6a5a32155c98b8fa017",
}


@pytest.mark.parametrize("args", sorted(VERIFY_LEMMA12_SHA256))
def test_criterion_10_verify_lemma12_digest_beyond_the_grid(args):
    assert _single_claim_digest("lemma12", args) == VERIFY_LEMMA12_SHA256[args]


# sha256 of `cmreg verify CLAIM ARGS --format json` (seed 2026) for the
# lower-bound claims beyond the default grid: they report the almost complete
# intersection's Betti totals (the linkage route) and the complete
# intersection's (the Koszul route).
VERIFY_PROP_SHA256 = {
    "prop32 --m 3 --n 3": "081ecab2402cfd37ff12c5badb1b666eae7eb3a9c1a4b271d708fea17121dc16",
    "prop32 --m 4 --n 2": "a4088cfd7172b7d439531c2d1f2cc2d1256c78ea6d2b9c40fb193da89ff27fb8",
    "prop22 --m 3 --n 2 --primed": "20c0354c138f6a855fcee73395b8c2db4ed1a936c960b6e57ac69f611aa21651",
    "prop32 --m 3 --n 3 --char 0": "8e8594a03fe16b1c559889de85001ffd496878973e09461da76ca39e508eff2c",
}


@pytest.mark.parametrize("run", sorted(VERIFY_PROP_SHA256))
def test_criterion_10_verify_prop_digest_beyond_the_grid(run):
    claim, args = run.split(" ", 1)
    assert _single_claim_digest(claim, args) == VERIFY_PROP_SHA256[run]
