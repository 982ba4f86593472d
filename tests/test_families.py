"""Curve families, complete intersections, residuals, extra forms."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cmreg import families
from cmreg.families import (bihomogeneous, build_family, check_parameters,
                            check_semigroup_count, ci_forms, curve_exponents, curve_ideal,
                            extra_form, graded_piece_basis,
                            parametrization_defect, pq_products, residual_ideal,
                            residual_pivot, semigroup_counts)
from cmreg.groebner import Ideal, member
from cmreg.hilbert import dim_deg, hilbert_function, nonzerodivisor
from cmreg.idealops import _variable_last, colon, colon_by_variable_power
from cmreg.resolution import betti, regularity_ideal
from cmreg._linalg import rref
from cmreg.ring import (MAX_EXP, Block, PolyRing, Polynomial, QQ, field_of_characteristic,
                        grevlex_keys_of_degree, transport)
from cmreg.verify import PRIMED_GRID, UNPRIMED_GRID
from oracles import first_row_off_the_curve


def _curve_ideal_by_elimination(exponents, char):
    """Oracle: the curve ideal as the s, t elimination of the graph ideal of
    X_i - s^(D - a_i) t^(a_i), then saturated by each variable in turn."""
    ring = PolyRing(tuple(f"X{i}" for i in range(len(exponents))),
                    field_of_characteristic(char))
    graph = PolyRing(("s_par", "t_par") + ring.names, ring.field)
    s, t = graph.gen(0), graph.gen(1)
    D = max(exponents)
    gb = Ideal(graph, [graph.gen(2 + i) - s ** (D - a) * t ** a
                       for i, a in enumerate(exponents)]).groebner(Block(2))
    down = [None, None] + list(range(ring.nvars))
    cand = Ideal(ring, [transport(g, ring, down) for g in gb
                        if all(e[0] == e[1] == 0 for e, _ in g.terms)])
    for i in range(ring.nvars):
        cand = colon_by_variable_power(cand, i)
    return cand


def test_curve_exponents_values():
    assert curve_exponents(1, 2, primed=True) == (0, 1, 2, 3)
    assert curve_exponents(2, 2, primed=True) == (0, 1, 4, 6, 9)
    assert curve_exponents(2, 2) == (0, 1, 4, 6)
    assert curve_exponents(3, 2) == (0, 1, 8, 12, 18)
    assert curve_exponents(2, 3) == (0, 1, 9, 12)
    with pytest.raises(ValueError):
        curve_exponents(0, 2)
    with pytest.raises(ValueError):
        curve_exponents(2, 1)


def test_curve_ideal_twisted_cubic():
    ring, I = curve_ideal((0, 1, 2, 3), char=0)
    X0, X1, X2, X3 = ring.gens()
    expected = Ideal(ring, [X0 * X2 - X1 * X1, X0 * X3 - X1 * X2,
                            X1 * X3 - X2 * X2])
    assert I.same_ideal(expected)
    assert dim_deg(I) == (2, 3)


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("exponents", [
    (0, 1, 2, 3),
    curve_exponents(2, 2), curve_exponents(2, 3), curve_exponents(3, 2),
    curve_exponents(1, 2, primed=True), curve_exponents(2, 2, primed=True),
    curve_exponents(2, 3, primed=True),
], ids=lambda e: ",".join(map(str, e)))
def test_curve_ideal_matches_elimination_oracle(exponents, char):
    _, I = curve_ideal(exponents, char=char)
    oracle = _curve_ideal_by_elimination(exponents, char)
    assert [str(g) for g in I.groebner().polys] == \
        [str(g) for g in oracle.groebner().polys]


GRID_CURVES = [curve_exponents(m, n) for m, n in UNPRIMED_GRID] + \
    [curve_exponents(m, n, primed=True) for m, n in PRIMED_GRID]


@pytest.mark.parametrize("exponents", GRID_CURVES, ids=lambda e: ",".join(map(str, e)))
def test_variable_certificate_from_leads_agrees_with_the_hilbert_series(exponents):
    """X_i is a nonzerodivisor on the curve exactly when
    colon_by_variable_power(I, i) returns I; the Hilbert-series test agrees
    on every variable, and both reject X_0 on the lattice-basis ideal that
    is not yet saturated by it."""
    ring, I = curve_ideal(exponents)
    for i, X in enumerate(ring.gens()):
        assert colon_by_variable_power(I, i) is I
        assert nonzerodivisor(I, X)
    X0, X1 = ring.gen(0), ring.gen(1)
    lattice = Ideal(ring, [ring.gen(j) * X0 ** (a - 1) - X1 ** a
                           for j, a in enumerate(exponents) if j >= 2])
    assert colon_by_variable_power(lattice, 0) is not lattice
    assert not nonzerodivisor(lattice, X0)


def test_semigroup_counts_are_the_curve_hilbert_function():
    assert semigroup_counts((0, 1, 2, 3), 4) == [1, 4, 7, 10, 13]
    # The rational quartic lies on one quadric: 2Lambda = {0, ..., 8}.
    assert semigroup_counts((0, 1, 3, 4), 4) == [1, 4, 9, 13, 17]
    for exponents in GRID_CURVES:
        _, I = curve_ideal(exponents)
        top = max(exponents) + 2
        assert semigroup_counts(exponents, top) == [hilbert_function(I, d)
                                                    for d in range(top + 1)]


def test_semigroup_count_rejects_the_unsaturated_lattice_ideal():
    ring, curve = curve_ideal((0, 1, 2, 3))
    X0, X1, X2, X3 = ring.gens()
    check_semigroup_count(curve, (0, 1, 2, 3))
    lattice = Ideal(ring, [X0 * X2 - X1 ** 2, X0 ** 2 * X3 - X1 ** 3])
    with pytest.raises(AssertionError, match=r"HF\(2\) = 9, but \|2Lambda\| = 7"):
        check_semigroup_count(lattice, (0, 1, 2, 3))


def _twisted_cubic_linkage():
    """The twisted cubic's ring and exponents, CI = (X0X2 - X1^2, X1X3 - X2^2)
    inside it, and the pivot X0X3 - X1X2; the residual is the line (X1, X2)."""
    ring, _ = curve_ideal((0, 1, 2, 3))
    X0, X1, X2, X3 = ring.gens()
    return ring, (0, 1, 2, 3), [X0 * X2 - X1 * X1, X1 * X3 - X2 * X2], X0 * X3 - X1 * X2


def test_residual_certificates_accept_the_twisted_cubic_link():
    ring, exponents, forms, pivot = _twisted_cubic_linkage()
    a = residual_ideal(Ideal(ring, forms), exponents, pivot)
    assert a.groebner().polys == Ideal(ring, [ring.gen(1), ring.gen(2)]).groebner().polys


def test_residual_certificate_alpha_rejects_a_doubled_curve_component():
    # With the first form squared, CI has length 2 at the curve, and
    # CI : pivot still contains the curve there: every generator is on it.
    ring, exponents, forms, pivot = _twisted_cubic_linkage()
    doubled = Ideal(ring, [forms[0] ** 2, forms[1]])
    with pytest.raises(AssertionError, match=r"\(alpha\)"):
        residual_ideal(doubled, exponents, pivot)


def test_residual_certificate_beta_rejects_a_doubled_curve_component():
    # The squared pivot clears the length-2 curve component, so (alpha)
    # holds, but the degree is deg CI - 2 deg C, not deg CI - deg C.
    ring, exponents, forms, pivot = _twisted_cubic_linkage()
    doubled = Ideal(ring, [forms[0] ** 2, forms[1]])
    with pytest.raises(AssertionError, match=r"\(beta\) .* \(2, 2\), expected \(2, 5\)"):
        residual_ideal(doubled, exponents, pivot ** 2)


def test_curve_ideal_input_validation():
    with pytest.raises(ValueError):
        curve_ideal((1, 2, 3))  # must start 0, 1
    with pytest.raises(ValueError):
        curve_ideal((0, 1, 3, 3))  # duplicates


def test_parametrization_defect():
    ring, I = curve_ideal((0, 1, 2, 3), char=0)
    X0, X1, X2, X3 = ring.gens()
    assert parametrization_defect(X0 * X2 - X1 * X1, (0, 1, 2, 3)) == {}
    assert parametrization_defect(X2, (0, 1, 2, 3)) == {2: 1}
    assert parametrization_defect(X0 * X3 - X2, (0, 1, 2, 3)) == {3: 1, 2: -1}


def test_pq_products_small_cases():
    R4 = PolyRing(tuple(f"X{i}" for i in range(4)), QQ)
    P, Q = pq_products(1, R4)
    assert (str(P), str(Q)) == ("X2", "X3")
    R5 = PolyRing(tuple(f"X{i}" for i in range(5)), QQ)
    P, Q = pq_products(2, R5)
    assert (str(P), str(Q)) == ("X2*X4", "X3^2")
    R6 = PolyRing(tuple(f"X{i}" for i in range(6)), QQ)
    P, Q = pq_products(3, R6)
    assert (str(P), str(Q)) == ("X2*X4^3", "X3^3*X5")
    # equal degrees, disjoint supports
    assert P.degree() == Q.degree() == 4
    with pytest.raises(ValueError):
        pq_products(3, R4)


def test_ci_forms_hand_cases():
    R4 = PolyRing(tuple(f"X{i}" for i in range(4)), QQ)
    X0, X1, X2, X3 = R4.gens()
    primed = ci_forms(1, 2, R4, primed=True)
    assert primed == [X1 * X2 - X0 * X3, X2 ** 3 - X0 * X3 ** 2]
    unprimed = ci_forms(2, 2, R4, primed=False)
    assert unprimed == [X1 ** 2 * X2 - X0 ** 2 * X3, X2 ** 3 - X0 * X3 ** 2]
    with pytest.raises(ValueError, match="the unprimed family needs m >= 2"):
        ci_forms(1, 2, R4, primed=False)
    with pytest.raises(ValueError, match=r"primed forms need m \+ 3 variables"):
        ci_forms(2, 2, R4, primed=True)
    with pytest.raises(ValueError, match=r"unprimed forms need m \+ 2 variables"):
        ci_forms(3, 2, R4, primed=False)


def test_residual_pivot_membership(fam22):
    pivot = residual_pivot(fam22.ring, 2, 2)
    X = fam22.ring.gens()
    assert pivot == X[1] ** 4 - X[0] ** 3 * X[2]
    assert member(pivot, fam22.curve)


def test_family_22_shape(fam22):
    assert fam22.ring.nvars == 4
    assert fam22.exponents == (0, 1, 4, 6)
    assert fam22.ci_degrees == (3, 3)
    assert fam22.extra_degree == 4
    assert len(fam22.complete_intersection.gens) == 2
    assert dim_deg(fam22.curve) == (2, 6)
    assert dim_deg(fam22.almost_complete_intersection)[0] == 2
    assert sorted(f.degree() for f in fam22.almost_complete_intersection.gens) == [3, 3, 4]


def test_family_12_primed_shape(fam12p):
    assert fam12p.ring.nvars == 4
    assert fam12p.exponents == (0, 1, 2, 3)
    assert fam12p.ci_degrees == (3, 2)
    assert fam12p.extra_degree == 3
    assert len(fam12p.complete_intersection.gens) == 2
    assert dim_deg(fam12p.curve) == (2, 3)
    assert sorted(f.degree() for f in fam12p.almost_complete_intersection.gens) == [2, 3, 3]


def test_extra_form_avoids_curve_but_sits_in_residual(fam22):
    F = fam22.extra_form
    assert F.degree() == 4
    assert F.is_homogeneous()
    assert member(F, fam22.residual)
    assert not member(F, fam22.curve)
    # the almost complete intersection is ci + (F)
    for g in fam22.complete_intersection.gens:
        assert member(g, fam22.almost_complete_intersection)


def test_ci_forms_vanish_on_curve(fam22, fam12p):
    for fam in (fam22, fam12p):
        for f in fam.complete_intersection.gens:
            assert parametrization_defect(f, fam.exponents) == {}
            assert member(f, fam.curve)


def test_graded_piece_basis_echelon(fam22):
    basis = graded_piece_basis(fam22.curve, 3)
    # strictly decreasing leading monomials => linearly independent, canonical
    pack = fam22.ring.bound.pack
    leads = [pack(f.lm()) for f in basis]
    assert leads == sorted(leads, reverse=True)
    assert len(leads) == len(set(leads))
    for f in basis:
        assert f.degree() == 3
        assert member(f, fam22.curve)


@pytest.mark.parametrize("which", ["curve", "residual"])
def test_graded_piece_basis_rows_are_normal_form_differences(fam22, which):
    """Each echelon row is u - NF(u) for u in in(I)_d, in descending order."""
    if which == "curve":
        ideal, d = fam22.curve, 3
    else:
        ideal, d = fam22.residual, fam22.extra_degree
    ring = ideal.ring
    gb = ideal.groebner()
    leads = gb.leading_exps()
    monomials = map(ring.bound.unpack, grevlex_keys_of_degree(ring.nvars, d))
    initial = [u for u in monomials
               if any(all(x >= y for x, y in zip(u, lead)) for lead in leads)]
    assert initial
    expected = [ring.monomial(u) - gb.normal_form(ring.monomial(u)) for u in initial]
    assert graded_piece_basis(ideal, d) == expected


@pytest.mark.parametrize("m, n, reg", [(4, 2, 26), (4, 3, 95)])
def test_regularity_at_m4_equals_remark33_formula(m, n, reg):
    """reg(I) at m = 4 equals n^m + m n + 2^(m-2) - 2 (remark 3.3)."""
    inst = build_family(m, n)
    assert reg == n ** m + m * n + 2 ** (m - 2) - 2
    assert regularity_ideal(inst.almost_complete_intersection) == reg


def test_build_family_deterministic():
    inst1 = build_family(2, 2)
    key = (2, 2, False, 32003)
    saved = families._FAMILY_CACHE.pop(key)
    try:
        inst2 = build_family(2, 2)
    finally:
        families._FAMILY_CACHE[key] = saved
    assert inst1 is not inst2
    assert str(inst1.extra_form) == str(inst2.extra_form)
    gb1 = [str(g) for g in inst1.almost_complete_intersection.groebner().polys]
    gb2 = [str(g) for g in inst2.almost_complete_intersection.groebner().polys]
    assert gb1 == gb2


def test_build_family_validation():
    with pytest.raises(ValueError):
        build_family(1, 2)  # unprimed needs m >= 2
    with pytest.raises(ValueError):
        build_family(2, 1)


def test_check_parameters_rejects_curve_exponents_past_the_cap():
    for primed, n, first_bad in ((False, 2, 13), (True, 3, 10)):
        for m in range(1 + (not primed), 16):
            too_big = max(curve_exponents(m, n, primed)) > MAX_EXP
            assert too_big == (m >= first_bad)
            if too_big:
                with pytest.raises(ValueError, match=f"exceeds the exponent cap {MAX_EXP}"):
                    check_parameters(m, n, primed)
            else:
                check_parameters(m, n, primed)
    with pytest.raises(ValueError, match="exponent cap"):
        check_parameters(10 ** 12, 10 ** 12, True)  # stops at the first product past the cap


@pytest.mark.parametrize("which", ["fam22", "fam12p"])
def test_builder_certificates_agree_with_the_colon_route(which, request):
    # The builder's certificates make the curve stable under every variable
    # and the residual under the pivot; the literal colons must agree.
    fam = request.getfixturevalue(which)
    for i in range(fam.ring.nvars):
        assert colon_by_variable_power(fam.curve, i).same_ideal(fam.curve)
    pivot = residual_pivot(fam.ring, fam.m, fam.n)
    assert colon(fam.residual, pivot).same_ideal(fam.residual)


def _all_shifts_piece_basis(ideal, d):
    """Oracle: rref of every degree-d monomial shift of every basis element,
    over the monomials packed one by one and sorted."""
    ring = ideal.ring
    bound = ring.bound

    def keys(k):
        tuples = [()]
        for i in range(ring.nvars - 1):
            tuples = [t + (a,) for t in tuples for a in range(k - sum(t) + 1)]
        return sorted((bound.pack(t + (k - sum(t),)) for t in tuples), reverse=True)

    monomials = keys(d)
    col_of = {k: i for i, k in enumerate(monomials)}
    rows = []
    for g in ideal.groebner().polys:
        if g.degree() <= d:
            for shift in keys(d - g.degree()):
                rows.append({col_of[k + shift]: c for k, c in g.pdict.items()})
    return [Polynomial._wrap(ring, {monomials[j]: c for j, c in row.items()})
            for row in rref(rows, ring.field)]


GRID_CASES = ([(m, n, False, char) for m, n in UNPRIMED_GRID for char in (32003, 0)]
              + [(m, n, True, char) for m, n in PRIMED_GRID for char in (32003, 0)])

RESIDUAL_CASES = GRID_CASES + [(3, 3, False, 32003), (4, 2, False, 32003), (3, 2, True, 32003)]


# Every family instance tier-1 builds.
TIER1_FAMILIES = RESIDUAL_CASES + [(4, 3, False, 32003)]


def test_residual_times_curve_in_ci():
    for m, n, primed, char in TIER1_FAMILIES:
        fam = build_family(m, n, primed, char)
        assert fam.complete_intersection.contains_ideal(
            Ideal(fam.ring, [g * h for g in fam.curve.gens for h in fam.residual.gens])), \
            (m, n, primed, char)


@pytest.mark.parametrize("m, n, primed, char", TIER1_FAMILIES)
def test_semigroup_and_degree_certificates_agree_with_the_colon_checks(m, n, primed, char):
    """What the semigroup count and the degree certificates imply, checked
    by colons: the curve is stable under every variable colon, and the
    pivot is a nonzerodivisor on the residual."""
    fam = build_family(m, n, primed, char)
    for i in range(fam.ring.nvars):
        assert colon_by_variable_power(fam.curve, i) is fam.curve
    assert nonzerodivisor(fam.residual, residual_pivot(fam.ring, m, n))


@pytest.mark.parametrize("m, n, primed", sorted({case[:3] for case in TIER1_FAMILIES}))
@pytest.mark.parametrize("char", [32003, 0])
def test_the_family_ideals_are_bihomogeneous(m, n, primed, char):
    # X_i has the bidegree (1, a_i).  Adding to a generator the power of X_0
    # or X_1 of its degree, of weight 0 or its degree, changes the weight of
    # one of its terms.
    fam = build_family(m, n, primed, char)
    ring, exps = fam.ring, fam.exponents
    for ideal in (fam.curve, fam.complete_intersection, fam.residual,
                  fam.almost_complete_intersection):
        gens = list(ideal.gens)
        assert bihomogeneous(gens, exps)
        g = gens[0]
        weight = sum(x * a for x, a in zip(g.terms[0][0], exps))
        perturbed = g + ring.gen(0 if weight else 1) ** g.degree()
        assert not bihomogeneous(gens[1:] + [perturbed], exps)
    with pytest.raises(ValueError):
        bihomogeneous(fam.residual.gens, exps[:-1])


@pytest.mark.parametrize("m, n, primed, char", RESIDUAL_CASES)
def test_graded_piece_basis_equals_the_all_shifts_echelon(m, n, primed, char, monkeypatch):
    inst = build_family(m, n, primed, char)
    residual, d = inst.residual, inst.extra_degree
    fed = []
    monkeypatch.setattr(families, "rref", lambda rows, field: fed.append(len(rows)) or rref(rows, field))
    basis = graded_piece_basis(residual, d)
    assert basis == _all_shifts_piece_basis(residual, d)
    assert fed == [len(basis)]  # one row per monomial of in(I)_d


@pytest.mark.parametrize("m, n, primed", sorted({case[:3] for case in TIER1_FAMILIES}))
@pytest.mark.parametrize("char", [32003, 0])
def test_extra_form_is_the_first_row_off_the_curve_by_membership(m, n, primed, char):
    # The parametrization test of extra_form against membership in the
    # curve's held basis, row by row in the same echelon order.
    fam = build_family(m, n, primed, char)
    F = first_row_off_the_curve(fam.residual, fam.curve, fam.extra_degree)
    assert fam.extra_form == F
    assert extra_form(fam.residual, fam.exponents, fam.extra_degree) == F


@pytest.mark.parametrize("m, n, primed", [(m, n, False) for m, n in UNPRIMED_GRID]
                         + [(m, n, True) for m, n in PRIMED_GRID])
def test_rational_build_constructs_no_fraction(m, n, primed, monkeypatch, check_rational_form):
    # Every basis build_family makes is of monomials and binomials with
    # coefficients +-1, so over Q no value has a denominator.  From Python
    # 3.12 on, Fraction arithmetic makes its results without calling
    # __new__; the check of the held coefficients then carries the test.
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    fam = build_family(m, n, primed, 0)
    betti(fam.almost_complete_intersection)
    assert made == []
    ideals = (fam.curve, fam.complete_intersection, fam.residual,
              fam.almost_complete_intersection)
    assert all(ideal._gb for ideal in ideals)
    coeffs = [c for ideal in ideals for g in ideal.gens for c in g.pdict.values()]
    coeffs += [c for ideal in ideals for gb in ideal._gb.values()
               for d in gb._basis for c in d.values()]
    assert check_rational_form(coeffs) == 0


@pytest.mark.parametrize("m, n, primed, char", GRID_CASES)
def test_cold_build_leaves_the_aci_and_the_curve_without_a_grevlex_basis(m, n, primed, char,
                                                                          monkeypatch):
    # Membership in the curve reads the X_0-last basis of its saturation, and
    # dim A/ACI = 2 follows from CI <= ACI <= a: the builder computes neither
    # grevlex basis.  Claims that need one compute it on first use and give
    # the answers of a fresh ideal that holds nothing from the builder.
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    fam = build_family(m, n, primed, char)
    aci, curve = fam.almost_complete_intersection, fam.curve
    assert aci._gb == {}
    assert list(curve._gb) == [repr(_variable_last(fam.ring.nvars, 0))]
    assert regularity_ideal(aci) == regularity_ideal(Ideal(aci.ring, aci.gens))
    assert betti(curve) == betti(Ideal(curve.ring, curve.gens))


def test_extra_form_outside_the_residual_is_no_surface_cone(monkeypatch):
    # A power of a variable off the residual: CI + (F) is not inside a, so
    # the dimension argument does not hold and the build must refuse.
    def off_residual(residual, exponents, d):
        gb, ring = residual.groebner(), residual.ring
        return next(ring.gen(i) ** d for i in range(ring.nvars)
                    if not gb.reduces_to_zero(ring.gen(i) ** d))

    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    monkeypatch.setattr(families, "extra_form", off_residual)
    with pytest.raises(AssertionError, match="does not define a surface cone"):
        build_family(2, 2)
