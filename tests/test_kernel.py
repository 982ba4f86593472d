"""Invariants and work of the packed-key Groebner and Schreyer kernel."""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

import pytest

from cmreg import _kernel, families, hilbert
from cmreg.families import build_family, ci_forms, residual_pivot
from cmreg.groebner import Ideal
from cmreg.hilbert import dim_deg
from cmreg.idealops import colon, colon_by_variable_power, saturate, saturate_irrelevant
from cmreg.resolution import _schreyer_levels, regularity_ideal
from cmreg.ring import (GREVLEX, Block, PermutedGrevlex, PolyRing, PrimeField, QQ,
                        field_of_characteristic, pdict_addmul)
from cmreg.sections import general_section
from cmreg.verify import DEFAULT_SEED, PRIMED_GRID, UNPRIMED_GRID, grid_reports
from oracles import reduce


def test_colon_at_4_3_keeps_prime_field_coefficients_reduced():
    # An S-pair coefficient stored as -c, and later as (p - c) - (-c) = p,
    # once reached _monic as a "nonzero" lead and raised ZeroDivisionError.
    R = PolyRing(tuple(f"X{i}" for i in range(6)), field_of_characteristic(32003))
    I = Ideal(R, ci_forms(4, 3, R))
    pivot = residual_pivot(R, 4, 3)
    J = colon(I, pivot)
    assert J.contains_ideal(I)
    assert I.contains_ideal(Ideal(R, [pivot * g for g in J.gens]))
    dim_i, deg_i = dim_deg(I)
    # The residual of the (4,3) curve, of degree 192, in the complete intersection.
    assert dim_deg(J) == (dim_i, deg_i - 192)


def _random_form(rng, ring, degree, nterms, coeff=None):
    terms = {}
    for _ in range(nterms):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(ring.nvars - 1))
        exps = tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (degree,)))
        terms[exps] = coeff() if coeff else rng.randrange(1, ring.field.p)
    return ring.poly(terms)


def _assert_reduced(pdicts, p):
    for d in pdicts:
        assert d, "empty element"
        assert all(0 < c < p for c in d.values()), sorted(d.values())


def _naive_addmul(field, target, a, b, scale):
    """target + scale * a * b on {exponent tuple: coeff} dicts, term by term."""
    out = dict(target)
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = field.add(out.get(e, field(0)), field.mul(field.mul(scale, c1), c2))
    return {e: c for e, c in out.items() if c != 0}


@pytest.mark.parametrize("char", [7, 32003, 0])
def test_pdict_addmul_matches_polynomial_arithmetic(char):
    rng = random.Random(20261018 + char)
    R = PolyRing(("a", "b", "c"), field_of_characteristic(char))
    F, unpack = R.field, R.bound.unpack

    def coeff():
        if char:
            return rng.randrange(1, char)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    for _ in range(40):
        a, b, t = (_random_form(rng, R, rng.randrange(3), rng.randrange(1, 5), coeff)
                   for _ in range(3))
        scale = coeff()
        prod = _naive_addmul(F, {}, dict(a.terms), dict(b.terms), scale)
        # A random target, and one that the product cancels completely.
        for target in (dict(t.terms), {e: F.neg(c) for e, c in prod.items()}):
            want = _naive_addmul(F, target, dict(a.terms), dict(b.terms), scale)
            got = pdict_addmul(R.p, R.poly(target).pdict.copy(), a.pdict, b.pdict, scale)
            assert {unpack(k): c for k, c in got.items()} == want
            if char:
                assert all(0 < c < char for c in got.values())
        assert not want


@pytest.mark.parametrize("p", [7, 32003])
def test_prime_field_coefficients_in_range_on_random_ideals(p):
    # Bases, Schreyer levels, tracked normal forms (remainder and quotients)
    # and intersection generators: the normal-form loop tests no new term
    # for zero, so every path must keep its coefficients in [1, p).
    rng = random.Random(20261018 + p)
    R = PolyRing(("a", "b", "c", "d"), PrimeField(p))
    for _ in range(12):
        gens = [_random_form(rng, R, rng.randrange(2, 4), rng.randrange(2, 5))
                for _ in range(rng.randrange(2, 5))]
        others = [_random_form(rng, R, rng.randrange(1, 4), rng.randrange(1, 5))
                  for _ in range(rng.randrange(1, 3))]
        for order in (Block(R.nvars), GREVLEX):
            ctx = _kernel.Context(order.bind(R.nvars), R.field)
            basis, _ = _kernel.buchberger(ctx, [_kernel.to_packed(ctx, g) for g in gens])
            _assert_reduced(basis, p)
            reducers = [_kernel.Reducer.from_packed(ctx, d, index=i) for i, d in enumerate(basis)]
            for f in others:
                rem, quots = _kernel.normal_form(ctx, _kernel.to_packed(ctx, f), reducers, True)
                _assert_reduced([rem] if rem else [], p)
                _assert_reduced(quots.values(), p)
            meet, _ = _kernel.intersection(ctx, basis, [_kernel.to_packed(ctx, f) for f in others])
            _assert_reduced(meet, p)
        if basis and max(basis[-1]) != 0:  # a proper ideal, in grevlex
            for level in _schreyer_levels(ctx, basis, R.nvars)[0]:
                _assert_reduced(level, p)


# Pairs and zero reductions summed over every Groebner basis computed by a
# cold build_family(2, 2) and the regularity of its almost complete
# intersection, the tracked runs of its intersections included.
# Intersections, colons, variable colons and eliminations hand over the
# reduced basis they already hold, so a change that computes such a basis
# again fails here, and so do the section ceilings below.  Both fields give
# the same counts, because the pair order depends only on leads
# and sugar.  The counts do not depend on the machine, so a change that
# inflates the work fails here even when timings are too noisy to show it.
FAMILY_22_WORK = {32003: {"pairs_processed": 30, "zero_reductions": 22},
                  0: {"pairs_processed": 30, "zero_reductions": 22}}

# Kernel runs and pairs of the cold builds the build benchmark times, at
# F_32003: per build, the basis of the lattice ideal with X_0 last, the CI's
# grevlex basis, and the residual colon's tracked run and final basis.  The
# curve and the residual are certified from Hilbert series, membership in
# the curve reads its X_0-last basis, and dim A/ACI = 2 follows from
# CI <= ACI <= a, so neither the curve nor the ACI gets a grevlex basis.
BUILD_WORK = {(3, 3, False): {"calls": 4, "pairs_processed": 146},
              (3, 2, True): {"calls": 4, "pairs_processed": 243}}

# Minimalizations (ring.minimal_words calls) of the Hilbert numerator over the
# lead words of the curve, CI, residual and ACI of every default-grid family
# at F_32003: one for the root and one per pivot colon.  Inclusion-exclusion
# leaves of at most hilbert.LEAF generators split no further.
NUMERATOR_GRID_MINIMALIZATIONS = 102


# Calls, pairs and zero reductions of general_section plus
# saturate_irrelevant on the (2,2) almost complete intersection at F_32003,
# its grevlex basis already known, as build_family leaves it.
SECTION_22_WORK = {"calls": 6, "pairs_processed": 44, "zero_reductions": 28}

# Calls, pairs and zero reductions of saturate_irrelevant, plus the Hilbert
# series of I^sat and its containment of I, over the almost complete
# intersections of the default grid, each holding its grevlex basis.  Per
# ACI the x_last colon reuses that basis, and the colon by x_0 + x_last
# computes one basis after the coordinate change and I^sat one after the
# change back.  Both fields give the same counts.
ACI_SATURATION_GRID_WORK = {"calls": 14, "pairs_processed": 222, "zero_reductions": 162}

# Calls, pairs and zero reductions of a cold lemma12 pass over the default
# grid (verify.grid_reports(claims=["lemma12"]), family cache empty): the
# builds, each ACI's grevlex basis, saturation and resolution, and the
# membership scans.  The chain rounds' forms are certified by the bigrading,
# with no basis of I^sat + (l); that took 6 more runs and 72 more pairs.
# Both fields give the same counts.
LEMMA12_GRID_WORK = {"calls": 56, "pairs_processed": 662, "zero_reductions": 494}

# Calls, pairs and zero reductions of general_section's cut of the (2,2)
# residual at F_32003, on a fresh ideal of its generators that holds its
# grevlex basis, as the residual does.  The family's residual itself is read
# from its link to the curve, with no kernel run (tests/test_sections.py).
RESIDUAL_SECTION_22_WORK = {"calls": 4, "pairs_processed": 13, "zero_reductions": 13}


@pytest.mark.parametrize("char", sorted(FAMILY_22_WORK))
def test_groebner_work_of_family_22_does_not_grow(monkeypatch, count_kernel_work, char):
    totals = count_kernel_work()
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    fam = build_family(2, 2, char=char)
    assert regularity_ideal(fam.almost_complete_intersection) == 7
    for name, recorded in FAMILY_22_WORK[char].items():
        assert totals[name] <= recorded, (name, totals[name])


@pytest.mark.parametrize("m, n, primed", sorted(BUILD_WORK))
def test_groebner_work_of_the_benchmarked_builds_does_not_grow(monkeypatch, count_kernel_work,
                                                               m, n, primed):
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    totals = count_kernel_work()
    build_family(m, n, primed)
    for name, recorded in BUILD_WORK[m, n, primed].items():
        assert totals[name] <= recorded, (name, totals[name])


def test_numerator_minimalizations_on_the_grid_do_not_grow(monkeypatch):
    words = []
    for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID)):
        for m, n in grid:
            fam = build_family(m, n, primed, 32003)
            for ideal in (fam.curve, fam.complete_intersection, fam.residual,
                          fam.almost_complete_intersection):
                words.append((ideal.groebner().lead_words(), ideal.ring.nvars))
    calls, minimal = [], hilbert.minimal_words

    def counted(*args):
        calls.append(True)
        return minimal(*args)

    monkeypatch.setattr(hilbert, "minimal_words", counted)
    for lead_words, nvars in words:
        hilbert.monomial_numerator(lead_words, nvars)
    assert len(calls) <= NUMERATOR_GRID_MINIMALIZATIONS, len(calls)


def test_section_and_saturation_work_of_family_22_does_not_grow(count_kernel_work):
    aci = build_family(2, 2).almost_complete_intersection
    I = Ideal(aci.ring, aci.gens)
    I.groebner()
    totals = count_kernel_work()
    general_section(I, DEFAULT_SEED)
    saturate_irrelevant(I)
    for name, recorded in SECTION_22_WORK.items():
        assert totals[name] <= recorded, (name, totals[name])


@pytest.mark.parametrize("char", [32003, 0])
def test_saturation_work_of_the_grid_acis_does_not_grow(count_kernel_work, char):
    acis = []
    for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID)):
        for m, n in grid:
            aci = build_family(m, n, primed, char).almost_complete_intersection
            I = Ideal(aci.ring, aci.gens)
            I.groebner()
            acis.append(I)
    totals = count_kernel_work()
    for I in acis:
        S = saturate_irrelevant(I)
        hilbert.hilbert_series(S)
        assert S.contains_ideal(I)
    for name, recorded in ACI_SATURATION_GRID_WORK.items():
        assert totals[name] <= recorded, (name, totals[name])


@pytest.mark.parametrize("char", [32003, 0])
def test_lemma12_work_of_a_cold_grid_pass_does_not_grow(monkeypatch, count_kernel_work, char):
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    totals = count_kernel_work()
    reports = grid_reports(claims=["lemma12"], char=char)
    assert all(r.verdict in ("pass", "skip") for r in reports)
    for name, recorded in LEMMA12_GRID_WORK.items():
        assert totals[name] <= recorded, (name, totals[name])


def test_section_work_of_residual_22_does_not_grow(count_kernel_work):
    residual = build_family(2, 2).residual
    I = Ideal(residual.ring, residual.gens)
    I.groebner()
    totals = count_kernel_work()
    general_section(I, DEFAULT_SEED)
    for name, recorded in RESIDUAL_SECTION_22_WORK.items():
        assert totals[name] <= recorded, (name, totals[name])


def test_last_variable_colon_reuses_the_grevlex_basis(count_kernel_work):
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    I.groebner()
    totals = count_kernel_work()
    colon_by_variable_power(I, R.nvars - 1)
    assert totals["calls"] == 0


def test_saturation_by_the_last_variable_reuses_the_grevlex_basis(count_kernel_work):
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])  # prime, so q = 0
    J = Ideal(R, [g * w for g in I.gens])  # J : w = I, so q = 1
    I.groebner()
    J.groebner()
    totals = count_kernel_work()
    assert saturate(I, w) == (I, 0)
    assert saturate(I, 5 * w) == (I, 0)
    S, q = saturate(J, w)
    assert q == 1 and S.gens == I.groebner().polys
    assert totals["calls"] == 0


def test_exponent_overflow_in_a_reduction_raises():
    # In lex (Block(2) on two variables), x^2 -> x * y^(2^19) -> y^(2^20):
    # the remainder's y exponent passes the cap, and a wrapped key would
    # carry it into x's field.  Under a degree order no reduction step
    # raises a term's degree, so only a block order reaches this check.
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    with pytest.raises(OverflowError, match="exponent overflow"):
        Ideal(R, [x - y ** (2 ** 19)]).groebner(Block(2)).normal_form(x ** 2)
    # One step short of the cap is fine.
    gb = Ideal(R, [x - y ** (2 ** 19 - 1)]).groebner(Block(2))
    assert gb.normal_form(x ** 2) == y ** (2 ** 20 - 2)


@pytest.mark.parametrize("order", [GREVLEX, Block(2)], ids=["grevlex", "lex"])
def test_spair_lcm_past_the_degree_cap_raises(order):
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    with pytest.raises(OverflowError, match="total degree"):
        Ideal(R, [x ** (2 ** 19) * y + 1, x * y ** (2 ** 19) + 1]).groebner(order)


def _pinned_ideals():
    R = PolyRing(("a", "b", "c", "d"), PrimeField(32003))
    a, b, c, d = R.gens()
    rng = random.Random(20261018)
    yield "cyclic4", [a + b + c + d, a * b + b * c + c * d + d * a,
                      a * b * c + b * c * d + c * d * a + d * a * b, a * b * c * d - 1]
    yield "mixed", [a ** 2 * b - c ** 3 + d, b ** 2 * c - a * d ** 2, c ** 2 - a * b + 3 * d]
    yield "random", [_random_form(rng, R, 2, 4), _random_form(rng, R, 3, 4),
                     _random_form(rng, R, 3, 3)]
    yield "aci22", build_family(2, 2).almost_complete_intersection.gens
    yield "aci32", build_family(3, 2).almost_complete_intersection.gens


# (pairs_processed, zero_reductions, basis_size) of _kernel.buchberger.  A
# pair's heap key is key(lcm word), which must equal the packed lcm of the
# exponent tuples, so these counts pin the pair order: a drift in it fails
# here before it shows as noise in timings.
PINNED_WORK = {
    "cyclic4": {"grevlex": (8, 5, 7), "lex": (11, 7, 6), "block1": (8, 5, 7), "perm": (4, 3, 5)},
    "mixed": {"grevlex": (21, 13, 11), "lex": (29, 17, 11), "block1": (19, 12, 10),
              "perm": (13, 8, 8)},
    "random": {"grevlex": (7, 4, 6), "lex": (10, 6, 7), "block1": (7, 4, 6), "perm": (18, 11, 10)},
    "aci22": {"grevlex": (9, 6, 6), "lex": (17, 10, 10), "block1": (14, 8, 9), "perm": (14, 9, 8)},
    "aci32": {"grevlex": (44, 32, 16), "lex": (80, 56, 28), "block1": (67, 47, 24),
              "perm": (22, 16, 10)},
}


def test_buchberger_work_is_pinned():
    for name, gens in _pinned_ideals():
        n = gens[0].ring.nvars
        orders = {"grevlex": GREVLEX, "lex": Block(n), "block1": Block(1),
                  "perm": PermutedGrevlex((3, 1, 0, 2) if n == 4 else tuple(reversed(range(n))))}
        for oname, order in orders.items():
            ctx = _kernel.Context(order.bind(n), gens[0].ring.field)
            _, stats = _kernel.buchberger(ctx, [_kernel.to_packed(ctx, g) for g in gens])
            got = (stats["pairs_processed"], stats["zero_reductions"], stats["basis_size"])
            assert got == PINNED_WORK[name][oname], (name, oname, got)


# The largest intersection a cold (4,3) build runs: CI cap (pivot), for the
# residual colon.  The tracked run starts from the CI's grevlex basis of 49
# elements plus the pivot on 6 variables; the final run makes the reduced
# basis of the generators it finds.  Pairs, zero reductions and, for the
# final run, basis size.
PINNED_COLON_43 = {"tracked": (308, 251), "basis": (302, 277, 72)}


@pytest.mark.parametrize("char", [32003, 0])
def test_colon_43_intersection_work_is_pinned(char):
    R = PolyRing(tuple(f"X{i}" for i in range(6)), field_of_characteristic(char))
    gb = Ideal(R, ci_forms(4, 3, R)).groebner()
    ctx = gb._ctx
    gens, stats = _kernel.intersection(ctx, gb._basis, [residual_pivot(R, 4, 3).pdict])
    assert (stats["pairs_processed"], stats["zero_reductions"]) == PINNED_COLON_43["tracked"]
    _, stats = _kernel.buchberger(ctx, gens)
    got = (stats["pairs_processed"], stats["zero_reductions"], stats["basis_size"])
    assert got == PINNED_COLON_43["basis"]


# --- the rational kernel against the Fraction normal form it replaced -------

def _fraction_reducers(ctx, pdicts):
    """(index, lead key, lead exponents, Fraction tail) of each monic reducer."""
    out = []
    for i, d in enumerate(pdicts):
        lead = max(d)
        tail = tuple((k, Fraction(c) / d[lead]) for k, c in d.items() if k != lead)
        out.append((i, lead, ctx.unpack(lead), tail))
    return out


def _fraction_normal_form(ctx, f, reducers, track=False):
    """The rational normal form on Fractions, one Fraction per tail term.

    The reducer is the first whose lead exponents are all at most the
    term's, tested on exponent tuples rather than the kernel's words.
    """
    h = dict(f)
    heap = [-k for k in h]
    heapq.heapify(heap)
    rem = {}
    quots = {} if track else None
    while heap:
        k = -heapq.heappop(heap)
        c = h.pop(k, None)
        if c is None:
            continue
        exps = ctx.unpack(k)
        red = next((r for r in reducers if all(a <= b for a, b in zip(r[2], exps))), None)
        if red is None:
            rem[k] = c
            continue
        index, lead, _, tail = red
        shift = k - lead
        if track:
            qd = quots.setdefault(index, {})
            qd[shift] = qd.get(shift, 0) + c
        for tk, tc in tail:
            nk = tk + shift
            if nk not in h:
                heapq.heappush(heap, -nk)
            v = h.get(nk, 0) - c * tc
            if v:
                h[nk] = v
            else:
                h.pop(nk, None)
    return rem, quots


def _random_rational_ideals(order, count, seed):
    """Seeded ideals over Q with non-monic fractional coefficients, packed."""
    rng = random.Random(seed)
    R = PolyRing(("a", "b", "c"), QQ)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 7))

    ctx = _kernel.Context(order.bind(R.nvars), R.field)
    for _ in range(count):
        gens = [_random_form(rng, R, rng.randrange(2, 4), rng.randrange(2, 4), coeff)
                for _ in range(rng.randrange(2, 4))]
        mults = [_random_form(rng, R, 1, 2, coeff) for _ in gens]
        members = sum((m * g for m, g in zip(mults, gens)), R.zero)
        others = [members + _random_form(rng, R, d, 3, coeff) for d in (2, 3, 4)]
        yield ctx, [_kernel.to_packed(ctx, g) for g in gens], [
            _kernel.to_packed(ctx, f) for f in [members] + others]


@pytest.mark.parametrize("order", [Block(3), GREVLEX], ids=["lex", "grevlex"])
def test_rational_normal_form_matches_fraction_reference(order, check_rational_form):
    cases = 0
    for ctx, gens, targets in _random_rational_ideals(order, 8, 20261019):
        basis, _ = _kernel.buchberger(ctx, gens)
        for divisors in (gens, basis):
            reducers = [_kernel.Reducer.from_packed(ctx, d, index=i)
                        for i, d in enumerate(divisors)]
            reference = _fraction_reducers(ctx, divisors)
            for f in targets:
                for track in (False, True):
                    got = _kernel.normal_form(ctx, f, reducers, track)
                    assert got == _fraction_normal_form(ctx, f, reference, track)
                    check_rational_form(got[0].values())
                    for q in (got[1] or {}).values():
                        check_rational_form(q.values())
                    cases += bool(got[0])
    assert cases  # some targets leave a remainder


def _mod_p(d, p):
    return {k: c.numerator * pow(c.denominator, -1, p) % p
            for k, c in d.items() if c.numerator % p}


@pytest.mark.parametrize("order", [Block(3), GREVLEX], ids=["lex", "grevlex"])
def test_rational_buchberger_basis_is_monic_and_in_qq_form(order, check_rational_form):
    # The basis reduced mod p must be the prime-field basis of the generators
    # reduced mod p: a second route through the F_p branch of the kernel.
    p = 32003
    pctx = _kernel.Context(order.bind(3), PrimeField(p))
    for ctx, gens, _ in _random_rational_ideals(order, 8, 20261020):
        basis, _ = _kernel.buchberger(ctx, gens)
        assert basis
        for d in basis:
            assert d[max(d)] == 1 and all(d.values())
            check_rational_form(d.values())
        prime_basis, _ = _kernel.buchberger(pctx, [_mod_p(g, p) for g in gens])
        assert [_mod_p(d, p) for d in basis] == prime_basis


def test_rational_reduce_reconstructs_f():
    rng = random.Random(20261021)
    R = PolyRing(("x", "y", "z"), QQ)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 7))

    for _ in range(20):
        gens = [_random_form(rng, R, rng.randrange(1, 4), rng.randrange(1, 4), coeff)
                for _ in range(rng.randrange(1, 4))]
        f = sum((_random_form(rng, R, d, 4, coeff) for d in range(5)), R.zero)
        for divisors in (gens, Ideal(R, gens).groebner().polys):
            r, quots = reduce(f, divisors)
            assert f == sum((q * g for q, g in zip(quots, divisors)), r)
            leads = [g.lm() for g in divisors]
            assert not any(all(a <= b for a, b in zip(lm, e)) for e, _ in r.terms for lm in leads)


# --- free-module terms as packed keys ----------------------------------------

def _real_module():
    """The free module with one basis element per level-2 element of the (2,2) resolution."""
    I = build_family(2, 2).almost_complete_intersection
    ctx = _kernel.Context(GREVLEX.bind(I.ring.nvars), I.ring.field)
    gb = [_kernel.to_packed(ctx, g) for g in I.groebner(GREVLEX).polys]
    return ctx, _schreyer_levels(ctx, gb, I.ring.nvars)[1][2]


def test_module_keys_are_the_schreyer_order():
    ctx, module = _real_module()
    rng = random.Random(20261019)
    n, rank = ctx.bound.n, len(module.imgkeys)
    assert rank > 2

    def term():
        return rng.randrange(rank), ctx.bound.raw([rng.randrange(4) for _ in range(n)])

    def schreyer(t):
        c, k = t
        return (-(k + module.imgkeys[c]), module.chains[c])

    terms = [term() for _ in range(300)]
    for (c, k), other in zip(terms, terms[1:] + terms[:1]):
        K = module.enc(c, k)
        assert module.dec(K) == (c, k)
        # Integer order is the old comparison, reversed: a smaller tuple is a larger term.
        assert (K < module.enc(*other)) == (schreyer((c, k)) > schreyer(other))
        assert (K == module.enc(*other)) == ((c, k) == other)
        s = ctx.bound.raw([rng.randrange(3) for _ in range(n)])
        assert K + (s << module.cbits) == module.enc(c, k + s)


def test_module_term_past_the_exponent_cap_raises_in_reduce():
    # Reducer x^2 e_0 - y^(2^19) e_1 with e_0 -> y and e_1 -> x, in lex.
    # x^2 y^(2^19) e_0 reduces to y^(2^20) e_1, whose y exponent passes the cap.
    field = PrimeField(32003)
    ctx = _kernel.Context(Block(2).bind(2), field)
    pack = ctx.bound.pack
    module = _kernel.ModContext(ctx, [pack((0, 1)), pack((1, 0))], [(0,), (1,)], [1, 1])
    lead = module.enc(0, pack((2, 0)))
    red = _kernel.Reducer.from_packed(
        module, {lead: 1, module.enc(1, pack((0, 2 ** 19))): field.neg(1)}, sugar=0)
    assert red.leadkey == lead
    reducers = {lead & module.cmask: [red]}
    with pytest.raises(OverflowError, match="exponent overflow"):
        _kernel._reduce(module, {module.enc(0, pack((2, 2 ** 19))): 1}, reducers)
    # One step short of the cap is fine.
    rem, _, _ = _kernel._reduce(module, {module.enc(0, pack((2, 2 ** 19 - 2))): 1}, reducers)
    assert rem == {module.enc(1, pack((0, 2 ** 20 - 2))): 1}
