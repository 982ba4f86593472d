"""Minimal free resolutions, Betti tables, regularity, saturation degrees."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from cmreg import _kernel
from cmreg._kernel import Context
from cmreg.families import build_family
from cmreg.groebner import Ideal
from cmreg.hilbert import hilbert_series
from cmreg.resolution import (BettiTable, _column_form, _is_unit_entry, _minimize,
                              _schreyer_levels, a0, a1_via_sequence, betti,
                              minimal_resolution, pdim, regularity,
                              regularity_ideal)
from cmreg.ring import GREVLEX, PolyRing, PrimeField, QQ


@pytest.fixture(scope="module")
def ring3f():
    return PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)


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
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003), GREVLEX)
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
    x, y, z = ring3f.gens()
    I = Ideal(ring3f, [x * x, x * y, y ** 3, y * z * z])
    res = minimal_resolution(I)
    mats = res.matrices
    for lower, upper in zip(mats, mats[1:]):
        for c in range(len(upper.col_degrees)):
            for r in range(len(lower.row_degrees)):
                acc = ring3f.zero
                for k in range(len(lower.col_degrees)):
                    acc = acc + lower.entry(r, k) * upper.entry(k, c)
                assert acc.is_zero()
        upper.check_graded()
        assert not upper.has_unit_entry()


def test_euler_identity_random_monomial_ideals():
    rng = random.Random(55221)
    R = PolyRing(("x", "y", "z"), QQ, GREVLEX)
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
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003), GREVLEX)
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
    R = PolyRing(("x", "y"), PrimeField(32003), GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    # saturation is (x); the quotient (x)/(x^2,xy) is k in degree 1
    assert a0(I) == 1


def test_a0_saturated_is_minus_infinity():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    assert a0(Ideal(R, [x * z - y * y])) == -math.inf


def test_a0_embedded_at_subvariety_not_origin():
    # embedded prime (x,y) in three variables is not the irrelevant ideal,
    # so saturation at the origin changes nothing
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    assert a0(Ideal(R, [x * x, x * y])) == -math.inf


def test_a1_via_sequence_value():
    assert a1_via_sequence(2, 2) == 2


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
    ctx = Context(GREVLEX.bind(I.ring.nvars), I.ring.field)
    gb = [_kernel.to_packed(ctx, g) for g in I.groebner(GREVLEX).polys]
    levels, modules = _schreyer_levels(ctx, gb, I.ring.nvars)
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


def test_rational_schreyer_syzygies_with_fractional_leads():
    # Fractional coefficients give reducers with integer lead coefficients
    # above 1, so the S-pair carries lambda = lcm(lc_i, lc_j) != 1.  The
    # Schreyer work and the Betti table must be those over F_32003.
    rng = random.Random(20261018)
    R = PolyRing(("a", "b", "c", "d"), QQ, GREVLEX)
    Rp = PolyRing(R.names, PrimeField(32003), GREVLEX)
    for _ in range(3):
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
        res = minimal_resolution(Ideal(R, [R.poly(t) for t in gens]))
        resp = minimal_resolution(Ideal(Rp, [Rp.poly({e: Rp.field(c) for e, c in t.items()})
                                             for t in gens]))
        assert res.stats == resp.stats and res.betti == resp.betti
        assert res.stats["cancelled"] > 0
