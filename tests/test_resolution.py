"""Minimal free resolutions, Betti tables, regularity, saturation degrees."""

from __future__ import annotations

import heapq
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cmreg import _kernel, families, resolution
from cmreg._kernel import ModContext
from cmreg.cli import parse_ideal_file
from cmreg.families import build_family, curve_ideal
from cmreg.groebner import Ideal
from cmreg.hilbert import hilbert_series
from cmreg.idealops import a0
from cmreg.resolution import (BettiTable, _betti_entries, _schreyer_levels, betti,
                              minimal_resolution, pdim, regularity, regularity_ideal)
from cmreg.ring import GREVLEX, PolyRing, PrimeField, QQ, pdict_addmul, transport, word_lcm
from cmreg.verify import PRIMED_GRID, UNPRIMED_GRID, grid_reports


@pytest.fixture(scope="module")
def ring3f():
    return PolyRing(("x", "y", "z"), PrimeField(32003))


def test_koszul_complex_of_the_variables(ring3f):
    x, y, z = ring3f.gens()
    B = betti(Ideal(ring3f, [x, y, z]))
    assert [B.total(i) for i in range(B.pdim() + 1)] == [1, 3, 3, 1]
    assert B.beta(1, 1) == 3 and B.beta(2, 2) == 3 and B.beta(3, 3) == 1
    assert B.regularity() == 0
    assert B.pdim() == 3


def test_principal_ideal(ring3f):
    x, _, _ = ring3f.gens()
    I = Ideal(ring3f, [x * x])
    B = betti(I)
    assert B.entries == {(0, 0): 1, (1, 2): 1}
    assert regularity(I) == 1
    assert regularity_ideal(I) == 2
    assert pdim(I) == 1


def test_complete_intersection_regularity(ring3f):
    x, y, z = ring3f.gens()
    I = Ideal(ring3f, [x * x - y * z, z ** 3])
    # reg of a CI quotient is sum(d_i - 1)
    assert regularity(I) == 1 + 2
    assert pdim(I) == 2
    B = betti(I)
    assert [B.total(i) for i in range(3)] == [1, 2, 1]
    assert B.beta(2, 5) == 1


def test_twisted_cubic_resolution():
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    B = betti(I)
    assert [B.total(i) for i in range(B.pdim() + 1)] == [1, 3, 2]
    assert B.beta(1, 2) == 3 and B.beta(2, 3) == 2
    assert regularity(I) == 1
    assert pdim(I) == 2  # Cohen-Macaulay of codimension 2


def test_minimization_drops_redundant_generator(ring3f):
    x, y, _ = ring3f.gens()
    I = Ideal(ring3f, [x * x, x * y, y * y, x ** 3])
    B = betti(I)
    assert B.total(1) == 3  # x^3 is not a minimal generator


def test_resolution_matrices_compose_to_zero(ring3f):
    # The oracle's minimized matrices: graded, unit-free, composing to zero.
    x, y, z = ring3f.gens()
    I = Ideal(ring3f, [x * x, x * y, y ** 3, y * z * z])
    ctx, modules, cols_by_level, _ = _minimized(I)
    mats = {lvl: {ci: {ri: _kernel.from_packed(ctx, pd, ring3f) for ri, pd in col.items()}
                  for ci, col in cols.items()}
            for lvl, cols in cols_by_level.items()}
    for lvl, cols in mats.items():
        for ci, col in cols.items():
            for ri, entry in col.items():
                assert not entry.is_zero() and entry.is_homogeneous()
                assert entry.degree() == modules[lvl].degs[ci] - modules[lvl - 1].degs[ri] > 0
            if lvl > 1:
                acc = {}
                for k, entry in col.items():
                    for r, lower in mats[lvl - 1][k].items():
                        acc[r] = acc.get(r, ring3f.zero) + lower * entry
                assert all(p.is_zero() for p in acc.values())
    assert len(mats) == 3


def test_corrupted_syzygy_fails_the_complex_check():
    for char in (32003, 0):
        ctx, levels, modules = _schreyer(build_family(2, 2, char=char).almost_complete_intersection)
        _betti_entries(levels, modules)
        syz = levels[1][0]
        key = min(syz)
        # Doubled over F_p; over Q, where the sums are integers, off by one.
        syz[key] = ctx.field.mul(syz[key], 2) if char else syz[key] + 1
        with pytest.raises(AssertionError, match="do not compose to zero"):
            _betti_entries(levels, modules)


def test_constant_entry_across_degrees_fails_the_degree_check():
    # A constant entry in the syzygy's own lead component: that generator
    # has a smaller degree than the syzygy.
    ctx, levels, modules = _schreyer(build_family(2, 2).almost_complete_intersection)
    syz = levels[1][0]
    c, k = modules[1].dec(max(syz))
    assert k and modules[1].degs[c] != modules[2].degs[0]
    syz[modules[1].enc(c, 0)] = ctx.field(1)
    with pytest.raises(AssertionError, match="joins generators of different degrees"):
        _betti_entries(levels, modules)


def test_euler_identity_random_monomial_ideals():
    rng = random.Random(55221)
    R = PolyRing(("x", "y", "z"), QQ)
    for _ in range(15):
        gens = []
        for _ in range(rng.randrange(1, 6)):
            e = tuple(rng.randrange(0, 4) for _ in range(3))
            if sum(e) == 0:
                continue
            gens.append(R.monomial(e))
        if not gens:
            continue
        I = Ideal(R, gens)
        B = betti(I)
        # alternating sums of graded betti numbers by degree j
        alt = {}
        for (i, j), b in B.entries.items():
            alt[j] = alt.get(j, 0) + (-1) ** i * b
        num = hilbert_series(I).numerator
        for j, v in alt.items():
            coeff = num[j] if j < len(num) else 0
            assert v == coeff
        for j, coeff in enumerate(num):
            assert alt.get(j, 0) == coeff


def test_graded_betti_of_irrational_looking_curve():
    # a non-CM monomial curve: (t^4, t^3 s, t s^3, s^4) projection style ideal
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, y * w - z * z, x * w * w - z ** 3,
                  x * x * w - y * z * z])
    B = betti(I)
    assert B.pdim() >= 2
    assert B.regularity() >= 1
    # Euler check at degree 0 and 1: single generator in degree 0 row
    assert B.beta(0, 0) == 1


def test_regularity_ideal_vs_quotient(ring3f):
    x, y, z = ring3f.gens()
    I = Ideal(ring3f, [x * y - z * z, y ** 3])
    assert regularity_ideal(I) == regularity(I) + 1


def test_a0_two_variable_example():
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    # saturation is (x); the quotient (x)/(x^2,xy) is k in degree 1
    assert a0(I) == 1


def test_a0_saturated_is_minus_infinity():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    assert a0(Ideal(R, [x * z - y * y])) == -math.inf


def test_a0_embedded_at_subvariety_not_origin():
    # embedded prime (x,y) in three variables is not the irrelevant ideal,
    # so saturation at the origin changes nothing
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    assert a0(Ideal(R, [x * x, x * y])) == -math.inf


def test_a1_via_sequence_value():
    # a1 of the curve read off the almost complete intersection through the
    # twist exact sequence: a0(A/J) - d
    fam = build_family(2, 2)
    assert a0(fam.almost_complete_intersection) - fam.extra_degree == 2


def test_betti_table_renderers(ring3f):
    x, y, z = ring3f.gens()
    B = betti(Ideal(ring3f, [x, y * y]))
    obj = B.to_json_obj()
    assert {"i": 1, "j": 1, "b": 1} in obj["betti"]
    text = B.to_text()
    assert "total" in text
    # round-trip equality semantics
    assert B == BettiTable(obj["module"], {(i := r["i"], r["j"]): r["b"] for r in obj["betti"]})


def test_rejects_inhomogeneous(ring3f):
    x, y, _ = ring3f.gens()
    with pytest.raises(ValueError):
        minimal_resolution(Ideal(ring3f, [x * x - y]))


@pytest.mark.parametrize("field", [PrimeField(32003), QQ])
def test_zero_and_unit_ideals_on_the_schreyer_route(field):
    R = PolyRing(("x", "y", "z"), field)
    x, y, _ = R.gens()
    assert betti(Ideal(R, [])).entries == {(0, 0): 1}
    with pytest.raises(ValueError, match="the unit ideal has no minimal free resolution"):
        minimal_resolution(Ideal(R, [x * y, R.one]))


@pytest.mark.parametrize("char", [32003, 0])
def test_schreyer_leaves_the_held_basis_as_it_was(char):
    # Level 1 starts from the packed dicts the ideal's grevlex basis holds.
    aci = build_family(3, 2, char=char).almost_complete_intersection
    I = Ideal(aci.ring, aci.gens)
    gb = I.groebner(GREVLEX)
    before = [dict(d) for d in gb._basis]
    assert minimal_resolution(I).stats["route"] == "schreyer"
    assert I.groebner(GREVLEX) is gb and gb._basis == before


# The minimization oracle.  The Betti table is read off constant ranks of
# the non-minimal Schreyer resolution; these functions minimize that
# resolution by exact column operations instead, so the two routes check
# each other.

def _column_form(levels, modules):
    """Per level: {col_id: {row_id: packed poly dict}}, module keys decoded."""
    cols_by_level = {}
    for lvl, (elems, module) in enumerate(zip(levels, modules), start=1):
        cols = {}
        for ci, el in enumerate(elems):
            col = {}
            for K, coef in el.items():
                c, k = module.dec(K)
                col.setdefault(c, {})[k] = coef
            cols[ci] = col
        cols_by_level[lvl] = cols
    return cols_by_level


def _is_unit_entry(pd):
    return len(pd) == 1 and 0 in pd


def _minimize(ctx, cols_by_level, top_level):
    """Cancel unit entries with exact column operations; mutates in place.

    A heap worklist holds (level, col, row) of unit entries: seeded once,
    pushed whenever a column operation leaves a unit, and checked again when
    popped.  So each step cancels the smallest unit entry left, as a full
    rescan would.  Each level keeps a row index, row -> set of the columns
    with an entry in that row, so cancelling the unit u at (lvl, ci, ri)
    touches only the columns of row ri: each gives up its entry v there,
    which the operation col -= (v / u) * pivot_col would cancel exactly, and
    takes -(v / u) * pivot_col on the pivot's other rows.  Row ci of level
    lvl + 1 is dropped through that level's index.  Column ri of level
    lvl - 1 is dropped without updating its index, which is never read
    again: levels are popped in ascending order, and a column operation
    leaves units only on its own level.  Returns the number of cancellations.
    """
    field = ctx.field
    rows_by_level = {}
    work = []
    for lvl in range(1, top_level + 1):
        rows = rows_by_level[lvl] = {}
        for ci, col in cols_by_level.get(lvl, {}).items():
            for ri, pd in col.items():
                rows.setdefault(ri, set()).add(ci)
                if _is_unit_entry(pd):
                    work.append((lvl, ci, ri))
    heapq.heapify(work)
    cancelled = 0
    while work:
        lvl, ci, ri = heapq.heappop(work)
        cols, rows = cols_by_level[lvl], rows_by_level[lvl]
        pivot_col = cols.get(ci)
        if pivot_col is None or not _is_unit_entry(pivot_col.get(ri, {})):
            continue
        del cols[ci]
        for r in pivot_col:
            rows[r].discard(ci)
        scale = field.neg(field.inv(pivot_col.pop(ri)[0]))
        for cj in rows.pop(ri):
            col = cols[cj]
            v = col.pop(ri)
            for r2, pd in pivot_col.items():
                tgt = col.setdefault(r2, {})
                pdict_addmul(ctx.p, tgt, v, pd, scale)
                if not tgt:
                    del col[r2]
                    rows[r2].discard(cj)
                    continue
                rows.setdefault(r2, set()).add(cj)
                if _is_unit_entry(tgt):
                    heapq.heappush(work, (lvl, cj, r2))
        for cj in rows_by_level.get(lvl + 1, {}).pop(ci, ()):
            del cols_by_level[lvl + 1][cj][ci]
        if lvl >= 2:
            cols_by_level[lvl - 1].pop(ri, None)
        cancelled += 1
    return cancelled


def _schreyer(I):
    gb = I.groebner(GREVLEX)
    levels, modules = _schreyer_levels(gb._ctx, gb._basis, I.ring.nvars)
    return gb._ctx, levels, modules


def _minimized(I):
    """(ctx, modules, minimized columns by level, cancellations) for A/I."""
    ctx, levels, modules = _schreyer(I)
    cols_by_level = _column_form(levels, modules)
    cancelled = _minimize(ctx, cols_by_level, len(levels))
    return ctx, modules, {lvl: cols for lvl, cols in cols_by_level.items() if cols}, cancelled


def _assert_ranks_match_minimization(I):
    _, modules, cols_by_level, cancelled = _minimized(I)
    entries = {(0, 0): 1}
    for lvl, cols in cols_by_level.items():
        for ci in cols:
            key = (lvl, modules[lvl].degs[ci])
            entries[key] = entries.get(key, 0) + 1
    res = minimal_resolution(I)
    assert res.betti == BettiTable("A/I", entries)
    assert res.stats["cancelled"] == cancelled
    return cancelled


def _minimize_by_rescan(ctx, cols_by_level, top_level):
    """The rescan minimization: cancel the smallest unit entry, rescan, repeat.

    For the pivot unit u, every column with an entry v in the pivot row ri
    takes the full column operation col -= (v / u) * pivot_col, row ri
    included, in the field's own arithmetic.  Returns the pivots (level, col,
    row) in the order they were cancelled.
    """
    field, pivots = ctx.field, []
    while True:
        units = [(lvl, ci, ri) for lvl in range(1, top_level + 1)
                 for ci, col in cols_by_level.get(lvl, {}).items()
                 for ri, pd in col.items() if _is_unit_entry(pd)]
        if not units:
            return pivots
        lvl, ci, ri = min(units)
        pivots.append((lvl, ci, ri))
        cols = cols_by_level[lvl]
        pivot_col = cols.pop(ci)
        scale = field.neg(field.inv(pivot_col[ri][0]))
        for col in cols.values():
            if ri in col:
                factor = {k: field.mul(scale, c) for k, c in col[ri].items()}
                for r2, pd in pivot_col.items():
                    tgt = col.setdefault(r2, {})
                    for k1, c1 in factor.items():
                        for k2, c2 in pd.items():
                            c = field.add(tgt.get(k1 + k2, field(0)), field.mul(c1, c2))
                            if c:
                                tgt[k1 + k2] = c
                            else:
                                tgt.pop(k1 + k2, None)
                    if not tgt:
                        del col[r2]
        for col in cols_by_level.get(lvl + 1, {}).values():
            col.pop(ci, None)
        if lvl >= 2:
            cols_by_level[lvl - 1].pop(ri, None)


# Cases at the default characteristic keep their plain ids; char 0 adds "-0".
@pytest.mark.parametrize("m,n,primed,creates_unit,char", [
    pytest.param(2, 2, False, False, 32003, id="2-2-False-False"),
    pytest.param(1, 2, True, False, 32003, id="1-2-True-False"),
    pytest.param(2, 2, True, True, 32003, id="2-2-True-True"),
    pytest.param(2, 2, False, False, 0, id="2-2-False-False-0"),
    pytest.param(1, 2, True, False, 0, id="1-2-True-False-0"),
    pytest.param(2, 2, True, True, 0, id="2-2-True-True-0")])
def test_minimize_worklist_matches_rescan(m, n, primed, creates_unit, char):
    I = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    ctx, levels, modules = _schreyer(I)
    worklist, rescan = _column_form(levels, modules), _column_form(levels, modules)
    seeded = {(lvl, ci, ri) for lvl, cols in rescan.items() for ci, col in cols.items()
              for ri, pd in col.items() if _is_unit_entry(pd)}
    cancelled = _minimize(ctx, worklist, len(levels))
    pivots = _minimize_by_rescan(ctx, rescan, len(levels))
    assert worklist == rescan
    assert cancelled == len(pivots) > 0
    # A unit that only a column operation produced was cancelled too.
    assert any(piv not in seeded for piv in pivots) == creates_unit


# Non-minimal ranks, cancellations, Betti totals and reg(A/I) of the
# resolutions of three almost complete intersections, measured before module
# terms were packed keys.  The Schreyer work depends only on leads and the
# pair selection, not on the characteristic or the machine, so a drift in
# either fails here even when timings are too noisy to show it.
SCHREYER_WORK = {
    (3, 2, False): ([16, 49, 58, 29, 5], 58, [1, 4, 11, 15, 9, 2], 13),
    (2, 4, False): ([8, 15, 11, 3], 8, [1, 3, 7, 8, 3], 22),
    (2, 2, True): ([14, 38, 41, 19, 3], 40, [1, 4, 11, 13, 6, 1], 8),
}


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("m,n,primed", sorted(SCHREYER_WORK))
def test_schreyer_work_is_pinned(m, n, primed, char):
    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    res = minimal_resolution(Ideal(aci.ring, aci.gens))
    ranks, cancelled, totals, reg = SCHREYER_WORK[(m, n, primed)]
    assert res.stats["nonminimal_ranks"] == ranks
    assert res.stats["cancelled"] == cancelled
    assert [res.betti.total(i) for i in range(res.betti.pdim() + 1)] == totals
    assert res.betti.regularity() == reg


@pytest.mark.parametrize("char", [32003, 0])
def test_one_reducer_form_per_stored_schreyer_element(monkeypatch, char):
    # Each level is stored in reducer form, and the next level reduces with
    # it as stored: no element is brought to that form twice.
    aci = build_family(3, 2, char=char).almost_complete_intersection
    I = Ideal(aci.ring, aci.gens)
    I.groebner()
    runs = []
    original = _kernel.reducer_form

    def counted(ctx, pdict, leadkey):
        runs.append(leadkey)
        return original(ctx, pdict, leadkey)

    monkeypatch.setattr(_kernel, "reducer_form", counted)
    monkeypatch.setattr(resolution, "reducer_form", counted)
    ranks = minimal_resolution(I).stats["nonminimal_ranks"]
    assert ranks == SCHREYER_WORK[(3, 2, False)][0]
    assert len(runs) == sum(ranks)


# The almost complete intersections of the rescan check and of SCHREYER_WORK.
ORACLE_ACIS = sorted({(2, 2, False), (1, 2, True), (2, 2, True)} | set(SCHREYER_WORK))


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("m,n,primed", ORACLE_ACIS)
def test_constant_ranks_match_the_minimization(m, n, primed, char):
    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    assert _assert_ranks_match_minimization(Ideal(aci.ring, aci.gens)) > 0


def test_constant_ranks_match_the_minimization_over_f7():
    # Small coefficients cancel by accident most often over a small field.
    rng = random.Random(7)
    R = PolyRing(("a", "b", "c", "d"), PrimeField(7))
    cancelled = 0
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(2, 5)):
            deg, terms = rng.randint(2, 3), {}
            for _ in range(rng.randint(1, 4)):
                e = [0] * 4
                for _ in range(deg):
                    e[rng.randrange(4)] += 1
                terms[tuple(e)] = R.field(rng.randrange(1, 7))
            gens.append(R.poly(terms))
        cancelled += _assert_ranks_match_minimization(Ideal(R, gens))
    assert cancelled > 0


def _fractional_terms(seed, count):
    """Seeded generator lists over Q, {exponents: Fraction}, with fractional
    and non-unit coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        for _ in range(4):
            terms = {}
            for _ in range(3):
                e = [0] * 4
                for _ in range(2):
                    e[rng.randrange(4)] += 1
                terms[tuple(e)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                           rng.randint(1, 5))
            gens.append(terms)
        yield gens


def test_rational_schreyer_syzygies_with_fractional_leads():
    # Fractional coefficients give reducers with integer lead coefficients
    # above 1, so the S-pair carries lambda = lcm(lc_i, lc_j) != 1.  The
    # Schreyer work and the Betti table must be those over F_32003.
    R = PolyRing(("a", "b", "c", "d"), QQ)
    Rp = PolyRing(R.names, PrimeField(32003))
    for gens in _fractional_terms(20261018, 3):
        res = minimal_resolution(Ideal(R, [R.poly(t) for t in gens]))
        resp = minimal_resolution(Ideal(Rp, [Rp.poly({e: Rp.field(c) for e, c in t.items()})
                                             for t in gens]))
        assert res.stats == resp.stats and res.betti == resp.betti
        assert res.stats["cancelled"] > 0


# The monic-Fraction oracle.  Before the integer resolution over Q, every
# level was stored monic: level 1 the monic Fraction basis, and each syzygy
# assembled from the tracked quotients of its S-pair's reduction, one
# Fraction per term, then divided by its lead.  These functions keep that
# route on Fractions, with a plain division loop, so the integer levels can
# be checked against it element by element.

def _oracle_reduce(module, h, groups, elems):
    """Highest term first, the first element of the term's component whose
    lead divides it; returns (remainder, {(element, shift): quotient})."""
    word, guards, cmask = module.word, module.guards, module.cmask
    h = dict(h)
    heap = [-k for k in h]
    heapq.heapify(heap)
    rem, quots = {}, {}
    while heap:
        k = -heapq.heappop(heap)
        c = h.pop(k, None)
        if c is None:
            continue
        t = next((t for t in groups.get(k & cmask, ())
                  if not (word(k) - word(max(elems[t]))) & guards), None)
        if t is None:
            rem[k] = c
            continue
        lead = max(elems[t])
        quots[(t, k - lead)] = quots.get((t, k - lead), 0) + c
        for tk, tc in elems[t].items():
            if tk == lead:
                continue
            nk = tk + k - lead
            if nk not in h:
                heapq.heappush(heap, -nk)
            v = h.get(nk, 0) - c * tc
            if v:
                h[nk] = v
            else:
                h.pop(nk, None)
    return rem, quots


def _oracle_syzygies(ctx, module, new, elems):
    keyof, degree, guards = ctx.key, ctx.degree, ctx.guards
    cbits, cmask = module.cbits, module.cmask
    groups = {}
    for i, el in enumerate(elems):
        groups.setdefault(max(el) & cmask, []).append(i)
    out = []
    for group in groups.values():
        for a, i in enumerate(group):
            wi = module.word(max(elems[i]))
            cands = sorted((degree(T), j, T) for j in group[a + 1:]
                           for T in [word_lcm(wi, module.word(max(elems[j])), guards) - wi])
            kept = []
            for _, j, T in cands:
                if not any(not (T - Tk) & guards for Tk, _ in kept):
                    kept.append((T, j))
            for T, j in kept:
                lcmkey = max(elems[i]) + (keyof(T) << cbits)
                si, sj = lcmkey - max(elems[i]), lcmkey - max(elems[j])
                spair = {}
                for e, s, sign in ((i, si, 1), (j, sj, -1)):
                    for k, c in elems[e].items():
                        spair[k + s] = spair.get(k + s, 0) + sign * c
                rem, quots = _oracle_reduce(module, {k: c for k, c in spair.items() if c},
                                            groups, elems)
                assert not rem
                lead = new.enc(i, si >> cbits)
                syz = {lead: Fraction(1), new.enc(j, sj >> cbits): Fraction(-1)}
                for (t, shift), coef in quots.items():
                    key = new.enc(t, shift >> cbits)
                    val = syz.get(key, 0) - coef
                    if val:
                        syz[key] = val
                    else:
                        syz.pop(key, None)
                assert max(syz) == lead
                out.append({k: c / syz[lead] for k, c in syz.items()})
    return out


def _oracle_levels(ctx, gb_packed, nvars):
    """The Schreyer levels with every element monic in Fractions."""
    word, degree = ctx.word, ctx.degree
    module = ModContext(ctx, [0], [()], [0])
    current = sorted(({k: Fraction(c) for k, c in d.items()} for d in gb_packed),
                     key=max, reverse=True)
    levels = []
    while current:
        levels.append(current)
        imgkeys, chains, degs = [], [], []
        for i, el in enumerate(current):
            lead = max(el)
            imgkeys.append(lead >> module.cbits)
            chains.append(module.chains[module.comp[lead & module.cmask]] + (i,))
            degs.append(degree(word(lead >> module.cbits)))
        new = ModContext(ctx, imgkeys, chains, degs)
        current = sorted(_oracle_syzygies(ctx, module, new, current), key=max, reverse=True)
        module = new
        assert len(levels) <= nvars + 5
    return levels


ORACLE_QQ = sorted({(m, n, False) for m, n in UNPRIMED_GRID}
                   | {(m, n, True) for m, n in PRIMED_GRID}
                   | {(3, 3, False), (4, 2, False), (3, 2, True)})


def _assert_matches_the_oracle(I):
    ctx, levels, modules = _schreyer(I)
    oracle = _oracle_levels(ctx, I.groebner(GREVLEX)._basis, I.ring.nvars)
    assert [len(level) for level in levels] == [len(level) for level in oracle]
    # scales[c] is element c of the level below over the oracle's element c,
    # so a coefficient on e_c reads as coef * scales[c] in the oracle's basis.
    scales = [Fraction(1)]
    for level, expected, module in zip(levels, oracle, modules):
        ratios = []
        for el, want in zip(level, expected):
            # A primitive integer vector with a positive lead ...
            assert all(type(c) is int for c in el.values())
            assert math.gcd(*el.values()) == 1 and el[max(el)] > 0
            # ... and a nonzero rational multiple of the oracle's element.
            assert el.keys() == want.keys()
            ratio = el[max(el)] * scales[module.dec(max(el))[0]] / want[max(want)]
            assert all(c * scales[module.dec(k)[0]] == ratio * want[k] for k, c in el.items())
            ratios.append(ratio)
        scales = ratios
    res = minimal_resolution(Ideal(I.ring, I.gens))
    entries, cancelled = _betti_entries(oracle, modules)
    assert res.betti == BettiTable("A/I", entries)
    assert res.stats["cancelled"] == cancelled
    assert res.stats["nonminimal_ranks"] == [len(level) for level in oracle]


@pytest.mark.parametrize("m,n,primed", ORACLE_QQ)
def test_integer_levels_are_multiples_of_the_monic_fraction_oracle(m, n, primed):
    _assert_matches_the_oracle(build_family(m, n, primed=primed, char=0).almost_complete_intersection)


def test_integer_levels_with_fractional_leads_match_the_oracle():
    # Integer leads above 1 make the reductions rescale their syzygies.
    R = PolyRing(("a", "b", "c", "d"), QQ)
    for gens in _fractional_terms(20261018, 3):
        _assert_matches_the_oracle(Ideal(R, [R.poly(t) for t in gens]))


@pytest.mark.parametrize("m,n,primed", ORACLE_QQ)
def test_prime_field_levels_are_monic_and_reduced(m, n, primed):
    I = build_family(m, n, primed=primed, char=32003).almost_complete_intersection
    _, levels, _ = _schreyer(I)
    for level in levels:
        for el in level:
            assert el[max(el)] == 1
            assert all(0 < c < 32003 for c in el.values())


BENCH = Path(__file__).resolve().parent.parent / "cmbench"
RESOLVE_CASES = [(entry, order) for entry in json.loads((BENCH / "expected.json").read_text())["resolve"]
                 for order in entry["orders"]]


@pytest.mark.parametrize("entry, order", RESOLVE_CASES,
                         ids=[f"{e['name']}-{''.join(map(str, o['perm']))}" for e, o in RESOLVE_CASES])
def test_benchmark_resolve_inputs_keep_their_recorded_resolutions(entry, order):
    # The benchmark's resolve workload checks these same records.
    ideal = parse_ideal_file((BENCH / entry["file"]).read_text())
    ring = ideal.ring
    I = Ideal(ring, [transport(g, ring, order["perm"]) for g in ideal.gens])
    res = minimal_resolution(I)
    assert sorted([i, j, b] for (i, j), b in res.betti.entries.items()) == entry["betti"]
    assert regularity_ideal(I) == entry["regularity_ideal"]
    assert res.stats["nonminimal_ranks"] == order["nonminimal_ranks"]
    assert res.stats["cancelled"] == order["cancelled"]


# The builder's complete and almost complete intersections take the Koszul
# and the linkage route; a fresh Ideal on the same generators records no
# route and is the Schreyer oracle.
ROUTE_ORACLE = sorted({(m, n, False, char) for m, n in UNPRIMED_GRID for char in (32003, 0)}
                      | {(m, n, True, char) for m, n in PRIMED_GRID for char in (32003, 0)}
                      | {(3, 3, False, 32003), (4, 2, False, 32003), (3, 2, True, 32003)})


@pytest.mark.parametrize("m,n,primed,char", ROUTE_ORACLE)
def test_koszul_and_linkage_tables_match_the_schreyer_oracle(m, n, primed, char):
    fam = build_family(m, n, primed=primed, char=char)
    for I, route in ((fam.complete_intersection, "koszul"),
                     (fam.almost_complete_intersection, "linkage")):
        res = minimal_resolution(I)
        oracle = minimal_resolution(Ideal(I.ring, I.gens))
        assert (res.stats["route"], oracle.stats["route"]) == (route, "schreyer")
        assert res.betti == oracle.betti
        # A written-down minimal resolution: its ranks are its Betti totals.
        pd = res.betti.pdim()
        assert res.stats == {"route": route, "levels": pd, "cancelled": 0,
                             "nonminimal_ranks": [res.betti.total(i) for i in range(1, pd + 1)]}


def _cold_family_22(monkeypatch):
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    return build_family(2, 2)


def test_a_wrong_cone_shift_fails_the_euler_check(monkeypatch):
    cone = resolution._cone_entries
    monkeypatch.setattr(resolution, "_cone_entries", lambda ci, curve, d: cone(ci, curve, d + 1))
    fam = _cold_family_22(monkeypatch)
    with pytest.raises(AssertionError, match="contradict the Hilbert numerator"):
        minimal_resolution(fam.almost_complete_intersection)


def test_a_dropped_koszul_summand_fails_the_euler_check(monkeypatch):
    koszul = resolution._koszul_entries

    def dropped(degrees):
        entries = koszul(degrees)
        entries[(len(degrees), sum(degrees))] -= 1
        return entries

    monkeypatch.setattr(resolution, "_koszul_entries", dropped)
    fam = _cold_family_22(monkeypatch)
    for I in (fam.complete_intersection, fam.almost_complete_intersection):
        with pytest.raises(AssertionError, match="contradict the Hilbert numerator"):
            minimal_resolution(I)


def _linked(fam, F):
    """fam's complete intersection plus F, recorded as linked to the curve by F."""
    ci = fam.complete_intersection
    I = Ideal(fam.ring, ci.gens + (F,))
    I._cache["route"] = ("linkage", ci, fam.curve, fam.residual, F)
    return I


def test_a_linkage_form_outside_the_residual_fails(fam22):
    F = fam22.ring.gen(1) ** fam22.extra_degree
    assert not fam22.residual.groebner().reduces_to_zero(F)
    with pytest.raises(AssertionError, match="degree-4 extra form of a linkage is not in the residual"):
        minimal_resolution(_linked(fam22, F))


def test_a_linkage_form_inside_the_complete_intersection_fails(fam22):
    # F in CI lies in the residual, but CI : F is the unit ideal, not the
    # curve, so the cone's Euler check fails.
    ci = fam22.complete_intersection
    F = ci.gens[0] * fam22.ring.gen(0) ** (fam22.extra_degree - ci.gens[0].degree())
    with pytest.raises(AssertionError, match="contradict the Hilbert numerator"):
        minimal_resolution(_linked(fam22, F))


def test_a_degree_coincidence_takes_the_schreyer_route():
    # The twisted cubic is linked to the line X1 = X2 = 0 by two quadrics.
    # Linking by F = X1 (d = 1) puts the Koszul generator of degree 4 at
    # level 2 against the cubic's level-2 generators of degree 3 = 4 - d, so
    # the cone may have a constant entry, and here it has one.
    ring, curve = curve_ideal((0, 1, 2, 3))
    x0, x1, x2, x3 = ring.gens()
    ci = Ideal(ring, [x0 * x2 - x1 ** 2, x1 * x3 - x2 ** 2])
    ci._cache["route"] = ("koszul",)
    residual = Ideal(ring, [x1, x2])
    I = Ideal(ring, ci.gens + (x1,))
    I._cache["route"] = ("linkage", ci, curve, residual, x1)
    res = minimal_resolution(I)
    assert res.stats["route"] == "schreyer"
    assert res.betti == minimal_resolution(Ideal(ring, I.gens)).betti
    cone = resolution._cone_entries(betti(ci).entries, betti(curve).entries, 1)
    assert res.betti != BettiTable("A/I", cone)


@pytest.mark.parametrize("char", [32003, 0])
def test_a_cold_grid_pass_resolves_only_the_curves_by_schreyer(monkeypatch, char):
    # The work, not the time: one Schreyer resolution per grid curve; the
    # complete and almost complete intersections take their recorded routes.
    calls = []
    schreyer = resolution._schreyer_levels

    def counted(*args):
        calls.append(args)
        return schreyer(*args)

    monkeypatch.setattr(resolution, "_schreyer_levels", counted)
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    grid_reports(char=char)
    assert len(calls) == len(UNPRIMED_GRID) + len(PRIMED_GRID) == 7
