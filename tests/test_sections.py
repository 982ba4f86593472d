"""General hyperplane sections and the closed-form regularity bounds."""

from __future__ import annotations

import pytest

from cmreg import idealops, sections
from cmreg.families import bihomogeneous, build_family
from cmreg.groebner import Ideal, member
from cmreg.hilbert import dim_deg
from cmreg.idealops import linear_coefficients, linear_form, saturate_irrelevant
from cmreg.ring import PolyRing, PrimeField, QQ
from cmreg.sections import (GenericityFailure, cor13_rhs, general_section,
                            random_linear_form, section_order, substitute_linear,
                            thm11_rhs)
from cmreg.verify import DEFAULT_SEED, PRIMED_GRID, UNPRIMED_GRID

GRID = [(m, n, False) for m, n in UNPRIMED_GRID] + [(m, n, True) for m, n in PRIMED_GRID]


@pytest.fixture(scope="module")
def ring4():
    return PolyRing(tuple(f"X{i}" for i in range(4)), PrimeField(32003))


def test_random_linear_form_deterministic(ring4):
    l1 = random_linear_form(ring4, 2026)
    l2 = random_linear_form(ring4, 2026)
    l3 = random_linear_form(ring4, 2027)
    assert l1 == l2
    assert l1 != l3
    assert l1.degree() == 1
    assert len(l1.terms) == ring4.nvars  # every coefficient nonzero


def test_random_linear_form_small_field_rejected():
    R = PolyRing(("x", "y"), PrimeField(997))
    with pytest.raises(ValueError):
        random_linear_form(R, 1)


def test_random_linear_form_rational():
    R = PolyRing(("x", "y", "z"), QQ)
    l = random_linear_form(R, 5)
    assert len(l.terms) == 3
    assert l == random_linear_form(R, 5)


def test_substitute_linear_known_case():
    R = PolyRing(("x", "y", "z"), QQ)
    x, y, z = R.gens()
    # l = x + y + z  =>  z -> -x - y
    l = x + y + z
    S, J = substitute_linear(Ideal(R, [x * z - y * y]), l)
    assert S.nvars == 2
    a, b = S.gens()
    # x(-x-y) - y^2 = -x^2 - xy - y^2
    expected = Ideal(S, [a * a + a * b + b * b])
    assert J.same_ideal(expected)


def test_substitute_linear_requires_last_variable():
    R = PolyRing(("x", "y", "z"), QQ)
    x, y, z = R.gens()
    with pytest.raises(ValueError):
        substitute_linear(Ideal(R, [x * y]), x + y)


def test_general_section_conic_and_line(ring4):
    X0, X1, X2, X3 = ring4.gens()
    # conic in the X3 = 0 plane union the line X0 = X1 = 0
    I = Ideal(ring4, [X0 * X2 - X1 * X1, X0 * X3, X1 * X3])
    sec = general_section(I, 2026)
    assert sec.deg_section == 3  # 2 points from the conic, 1 from the line
    assert dim_deg(sec.section_ideal) == (1, 3)
    # X2 meets each component in a point and is already last
    assert dim_deg(Ideal(ring4, I.gens + (X2,)))[0] == 1
    assert section_order(I) == [0, 1, 2]
    assert sec.hyperplane_ring.names == ring4.names[:-1]
    # determinism: same seed, same outcome
    sec2 = general_section(I, 2026)
    assert sec2.seed == sec.seed
    assert str(sec2.linear_form) == str(sec.linear_form)
    assert sec2.deg_section == sec.deg_section
    assert sec2.indeg_section == sec.indeg_section


def test_general_section_complete_intersection(fam22):
    ci = fam22.complete_intersection
    sec = general_section(ci, 2026)
    assert sec.deg_section == 9  # product of the two cubic degrees
    assert sec.indeg_section == 3
    # the lifted ideal contains the section generators and the form itself
    assert member(sec.linear_form, sec.lifted_ideal)


def test_substitute_linear_orders_the_hyperplane_ring_by_perm():
    R = PolyRing(("x", "y", "z"), QQ)
    x, y, z = R.gens()
    I = Ideal(R, [x * z - y * y])
    S, J = substitute_linear(I, x + y + z, [1, 0])
    assert S.names == ("y", "x")
    b, a = S.gens()
    assert J.same_ideal(Ideal(S, [a * a + a * b + b * b]))
    with pytest.raises(ValueError):
        substitute_linear(I, x + y + z, [0, 2])


def _grid_acis():
    for m, n, primed in GRID:
        yield (m, n, primed), build_family(m, n, primed=primed).almost_complete_intersection


def test_section_order_puts_x1_last_on_the_grid():
    for key, aci in _grid_acis():
        n = aci.ring.nvars
        assert section_order(aci) == [0] + list(range(2, n - 1)) + [1], key


def test_no_certifying_variable_keeps_the_ambient_order(ring4):
    X0, X1, X2, X3 = ring4.gens()
    # three concurrent lines: each of X0, X1, X2 vanishes on two of them
    I = Ideal(ring4, [X0 * X1, X0 * X2, X1 * X2])
    for x in (X0, X1, X2):
        assert dim_deg(Ideal(ring4, I.gens + (x,)))[0] == 2
    assert section_order(I) == [0, 1, 2]
    sec = general_section(I, 2026)
    assert (sec.deg_section, sec.indeg_section) == (3, 2)
    assert sec.validation["hilbert_numerator"] == [1, 0, -3, 2]
    assert sec.hyperplane_ring.names == ring4.names[:-1]


def test_lifted_ideal_is_the_saturated_cut_on_the_grid():
    for key, aci in _grid_acis():
        sec = general_section(aci, DEFAULT_SEED)
        assert sec.hyperplane_ring.names[-1] == "X1", key
        cut = saturate_irrelevant(Ideal(aci.ring, aci.gens + (sec.linear_form,)))
        assert sec.lifted_ideal.same_ideal(cut), key


def test_each_section_saturates_by_one_colon_on_the_grid(monkeypatch):
    colon = idealops.colon_by_variable_power
    calls = []

    def counted(I, i):
        calls.append((I.ring.nvars, i))
        return colon(I, i)

    monkeypatch.setattr(idealops, "colon_by_variable_power", counted)
    for key, aci in _grid_acis():
        calls.clear()
        sec = general_section(Ideal(aci.ring, aci.gens), DEFAULT_SEED)
        n = aci.ring.nvars
        # one validated round of two forms, each certified by its first colon
        assert len(sec.attempted_seeds) == 2, key
        assert calls == [(n - 1, n - 2)] * 2, key


ORACLE_CASES = ([(m, n, primed, char) for m, n, primed in GRID for char in (32003, 0)]
                + [(3, 3, False, 32003), (4, 2, False, 32003), (3, 2, True, 32003)])


def _invariants(sec):
    return (sec.seed, sec.attempted_seeds, sec.validation["agreeing_seeds"], sec.deg_section,
            sec.indeg_section, sec.validation["hilbert_numerator"])


@pytest.mark.parametrize("m,n,primed,char", ORACLE_CASES)
def test_section_of_the_residual_is_the_section_of_the_aci(m, n, primed, char):
    # The residual is the top-dimensional part of the almost complete
    # intersection, so a general cut of either saturates to the same points.
    # A fresh ideal of the residual's generators is cut; the family's
    # residual itself is read from its link to the curve where that route
    # serves, and must give the same numbers.
    fam = build_family(m, n, primed=primed, char=char)
    aci, residual = fam.almost_complete_intersection, fam.residual
    res = general_section(Ideal(residual.ring, residual.gens), DEFAULT_SEED)
    oracle = general_section(Ideal(aci.ring, aci.gens), DEFAULT_SEED)
    for name in ("seed", "attempted_seeds", "deg_section", "indeg_section"):
        assert getattr(res, name) == getattr(oracle, name), name
    assert res.validation["hilbert_numerator"] == oracle.validation["hilbert_numerator"]
    assert res.lifted_ideal.same_ideal(oracle.lifted_ideal)
    assert _invariants(general_section(residual, DEFAULT_SEED)) == _invariants(res)


LINKED_CASES = [case for case in ORACLE_CASES if case[3] == 32003]


@pytest.mark.parametrize("m,n,primed,char", LINKED_CASES)
def test_linked_section_equals_the_cut(m, n, primed, char):
    # Over F_p the residual's section is read from its link to the curve:
    # no section ideal, and the cut's seeds and numbers for every seed.
    residual = build_family(m, n, primed=primed, char=char).residual
    for seed in (DEFAULT_SEED, 1, 99991):
        linked = general_section(residual, seed)
        assert linked.section_ideal is linked.lifted_ideal is None
        cut = general_section(Ideal(residual.ring, residual.gens), seed)
        assert cut.section_ideal is not None
        assert _invariants(linked) == _invariants(cut), seed


@pytest.mark.parametrize("m,n,primed,char", LINKED_CASES)
def test_linked_section_runs_no_buchberger(count_kernel_work, m, n, primed, char):
    residual = build_family(m, n, primed=primed, char=char).residual
    totals = count_kernel_work()
    general_section(residual, DEFAULT_SEED)
    assert totals == {"calls": 0, "pairs_processed": 0, "zero_reductions": 0}


@pytest.mark.parametrize("m,n,primed", [case[:3] for case in ORACLE_CASES if case[3] == 0])
def test_the_rationals_cut_the_residual(m, n, primed):
    sec = general_section(build_family(m, n, primed=primed, char=0).residual, DEFAULT_SEED)
    assert sec.section_ideal is not None


def _linked_copy(fam, gens, record=None):
    """A fresh ideal of gens carrying the residual's link to the curve, or
    the given record of (exponents, CI degrees) in its place."""
    J = Ideal(fam.ring, gens)
    J._cache["linked_curve"] = record or fam.residual._cache["linked_curve"]
    return J


@pytest.mark.parametrize("which", ["a = 0", "a = D"])
def test_linked_section_refuses_a_zero_coefficient(fam22, monkeypatch, which):
    # A form without X_0, or without the variable of the top exponent D,
    # passes through a coordinate point of the curve.
    drawn = sections.random_linear_form
    ex = fam22.exponents
    zero = ex.index(0 if which == "a = 0" else max(ex))

    def dropped(ring, seed):
        coeffs = linear_coefficients(drawn(ring, seed))
        coeffs[zero] = ring.field(0)
        return linear_form(ring, coeffs)

    monkeypatch.setattr(sections, "random_linear_form", dropped)
    with pytest.raises(AssertionError, match="zero coefficient"):
        general_section(fam22.residual, DEFAULT_SEED)


@pytest.mark.parametrize("exponents, match", [
    ((0, 1, 6, 4), "not bihomogeneous"), ((0, 1, 4, 7), "not bihomogeneous"),
    ((0, 1, 4, 5), "not bihomogeneous"), ((0, 2, 8, 12), r"HF\(4\) = 6, not its degree 12")])
def test_linked_section_refuses_wrong_exponents(fam22, exponents, match):
    # Swapped or moved exponents break the bigrading of the residual's
    # generators; doubled ones keep it but give the curve's section too
    # small a Hilbert function.
    assert fam22.exponents == (0, 1, 4, 6)
    J = _linked_copy(fam22, fam22.residual.gens, (exponents, fam22.ci_degrees))
    with pytest.raises(AssertionError, match=match):
        general_section(J, DEFAULT_SEED)


@pytest.mark.parametrize("degrees, match", [
    ((4, 3), "degree 6, but deg"), ((3, 2), "negative h-vector"), ((2, 2), "negative h-vector")])
def test_linked_section_refuses_wrong_ci_degrees(fam22, degrees, match):
    assert fam22.ci_degrees == (3, 3)
    J = _linked_copy(fam22, fam22.residual.gens, (fam22.exponents, degrees))
    with pytest.raises(AssertionError, match=match):
        general_section(J, DEFAULT_SEED)


def test_linked_section_refuses_a_non_bihomogeneous_generator(fam22):
    # g + u h, for generators g, h and a monomial u of degree deg g - deg h
    # of another bidegree, spans the same ideal as g.
    ring, exps = fam22.ring, fam22.exponents
    g, *rest = fam22.residual.gens
    candidates = (g + ring.gen(i) ** (g.degree() - h.degree()) * h
                  for h in rest if h.degree() <= g.degree() for i in range(ring.nvars))
    perturbed = next(f for f in candidates if not bihomogeneous([f], exps))
    J = _linked_copy(fam22, [perturbed] + rest)
    assert J.same_ideal(fam22.residual)
    with pytest.raises(AssertionError, match="not bihomogeneous"):
        general_section(J, DEFAULT_SEED)


def test_general_section_requires_dim_two(ring4):
    X0, X1, X2, X3 = ring4.gens()
    I = Ideal(ring4, [X0])
    with pytest.raises(ValueError):
        general_section(I, 1)


def test_thm11_rhs_worked_example():
    assert thm11_rhs((4, 3, 3), 2, 9, 3) == 23


def test_thm11_rhs_simplifies_when_degz_is_full_product():
    # deg Z equal to d1*...*dm collapses the first factor to 1
    degrees = (5, 4, 2)
    m = 2
    assert thm11_rhs(degrees, m, 20, 7) == sum(degrees) - m
    # independent of i_z in that regime
    assert thm11_rhs(degrees, m, 20, 3) == sum(degrees) - m


def test_thm11_rhs_monotone_in_degz():
    base = thm11_rhs((4, 3, 3), 2, 9, 3)
    fewer_points = thm11_rhs((4, 3, 3), 2, 8, 3)
    assert fewer_points > base


def test_thm11_rhs_validation():
    with pytest.raises(ValueError):
        thm11_rhs((3, 4), 2, 1, 1)  # not sorted descending
    with pytest.raises(ValueError):
        thm11_rhs((4, 3), 2, 1, 1)  # needs more gens than codim
    with pytest.raises(ValueError):
        thm11_rhs((4, 3, 3), 2, 0, 1)
    with pytest.raises(ValueError):
        thm11_rhs((4, 3, 3), 2, 1, 0)


def test_cor13_rhs_values():
    assert cor13_rhs(2, 3, 2) == (8, 72, 54)
    assert cor13_rhs(2, 1, 2) == (0, 0, 0)
    with pytest.raises(ValueError):
        cor13_rhs(2, 0, 2)
    with pytest.raises(ValueError):
        cor13_rhs(2, 3, 5)
