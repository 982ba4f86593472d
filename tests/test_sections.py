"""General hyperplane sections and the closed-form regularity bounds."""

from __future__ import annotations

import pytest

from cmreg import idealops
from cmreg.families import build_family
from cmreg.groebner import Ideal, member
from cmreg.hilbert import dim_deg
from cmreg.idealops import saturate_irrelevant
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


@pytest.mark.parametrize("m,n,primed,char", ORACLE_CASES)
def test_section_of_the_residual_is_the_section_of_the_aci(m, n, primed, char):
    # The residual is the top-dimensional part of the almost complete
    # intersection, so a general cut of either saturates to the same points.
    fam = build_family(m, n, primed=primed, char=char)
    aci = fam.almost_complete_intersection
    res = general_section(fam.residual, DEFAULT_SEED)
    oracle = general_section(Ideal(aci.ring, aci.gens), DEFAULT_SEED)
    for name in ("seed", "attempted_seeds", "deg_section", "indeg_section"):
        assert getattr(res, name) == getattr(oracle, name), name
    assert res.validation["hilbert_numerator"] == oracle.validation["hilbert_numerator"]
    assert res.lifted_ideal.same_ideal(oracle.lifted_ideal)


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
