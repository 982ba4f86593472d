"""Ideal operations: colon, intersection, saturation, elimination."""

from __future__ import annotations

import itertools
import random

import pytest

from cmreg import idealops
from cmreg._kernel import BudgetExceeded
from cmreg.groebner import Ideal, member
from cmreg.hilbert import hilbert_function, indeg, nonzerodivisor
from cmreg.idealops import (colon, colon_by_variable_power, colon_ideal,
                            eliminate, ideal_product, ideal_sum, intersect,
                            membership_exponent, quotient_exact, saturate,
                            saturate_ideal, saturate_irrelevant,
                            saturation_exponent_bound_check,
                            substitute_variable)
from cmreg.ring import GREVLEX, PolyRing, PrimeField, QQ
from cmreg._linalg import rref


def _monomials_of_degree(ring, d):
    n = ring.nvars
    out = []

    def rec(prefix, left, slot):
        if slot == n - 1:
            out.append(tuple(prefix) + (left,))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e, slot + 1)

    rec([], d, 0)
    return out


def _colon_oracle_rank(I, f, d, ring):
    """Dimension of (I : f)_d by linear algebra: solve g*f in I_{d+deg f}.

    Returns the count of independent degree-d solutions, found by row reducing
    the membership conditions over the full monomial basis.
    """
    gb = I.groebner()
    mons = _monomials_of_degree(ring, d)
    target = _monomials_of_degree(ring, d + f.degree())
    col = {m: j for j, m in enumerate(target)}
    # rows: for each candidate monomial g, the normal form of g*f expanded
    # over target monomials; kernel of that map is (I : f)_d
    from cmreg.ring import reduce as nf

    rows = []
    for m in mons:
        g = ring.monomial(m)
        rem, _ = nf(g * f, gb.polys)
        row = [ring.field(0)] * len(target)
        for e, c in rem.terms:
            row[col[e]] = c
        rows.append(row)
    # kernel dimension = len(mons) - rank
    rank = len(rref([{j: c for j, c in enumerate(r) if c} for r in rows], ring.field))
    return len(mons) - rank


def test_colon_simple_monomial_case():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    C = colon(I, y)
    assert C.same_ideal(Ideal(R, [x]))


def test_colon_matches_rank_oracle():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    cases = [
        (Ideal(R, [x * x, x * y]), y),
        (Ideal(R, [x * x, x * y]), x),
        (Ideal(R, [x * z - y * y, y * z - x * x]), x * y - z * z),
        (Ideal(R, [x * x * y, y * y * z, z * z * x]), x * y * z),
    ]
    for I, f in cases:
        C = colon(I, f)
        for d in range(4):
            got = hilbert_function(C, d)
            # hilbert_function counts standard monomials of the quotient;
            # the ideal's graded dimension is the complement
            total = len(_monomials_of_degree(R, d))
            assert total - got == _colon_oracle_rank(I, f, d, R)


def test_colon_containment_properties():
    R = PolyRing(("x", "y", "z"), QQ, GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * z - y * y * y, x * y - z * z])
    f = x + y
    C = colon(I, f)
    # I subset I:f, and f*(I:f) subset I
    for g in I.gens:
        assert member(g, C)
    for g in C.gens:
        assert member(f * g, I)


def test_saturation_chain_by_each_variable():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    Sy, qy = saturate(I, y)
    assert qy == 1
    assert Sy.same_ideal(Ideal(R, [x]))
    Sx, qx = saturate(I, x)
    assert qx == 2
    assert Sx.is_unit()


def test_saturate_equals_colon_by_fq():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y - z * z * z, y * y * z])
    f = y
    S, q = saturate(I, f)
    # saturation reached at step q: I : f^q == S, and one more colon is stable
    C = Ideal(R, I.gens)
    for _ in range(q):
        C = colon(C, f)
    assert C.same_ideal(S)
    assert colon(S, f).same_ideal(S)


def test_intersect_commutative_associative_randomized():
    rng = random.Random(31337)
    R = PolyRing(("x", "y", "z"), QQ, GREVLEX)

    def random_monomial_ideal():
        gens = []
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 4) for _ in range(3))
            if sum(e) == 0:
                e = (1, 0, 0)
            gens.append(R.monomial(e))
        return Ideal(R, gens)

    for _ in range(12):
        A, B, C = (random_monomial_ideal() for _ in range(3))
        AB = intersect(A, B)
        BA = intersect(B, A)
        assert AB.same_ideal(BA)
        assert intersect(AB, C).same_ideal(intersect(A, intersect(B, C)))


def test_intersect_of_principal_ideals_is_lcm():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    I = intersect(Ideal(R, [x * x * y]), Ideal(R, [x * y * y]))
    assert I.same_ideal(Ideal(R, [x * x * y * y]))


def test_sum_and_product():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    A = Ideal(R, [x * x])
    B = Ideal(R, [y])
    assert ideal_sum(A, B).same_ideal(Ideal(R, [x * x, y]))
    assert ideal_product(A, B).same_ideal(Ideal(R, [x * x * y]))


def test_colon_ideal_intersects_elementwise():
    R = PolyRing(("x", "y", "z"), QQ, GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * y, x * z])
    J = Ideal(R, [y, z])
    C = colon_ideal(I, J)
    # I : (y,z) = (x) intersect (x) ... both colons give (x, ...) pieces
    assert C.same_ideal(intersect(colon(I, y), colon(I, z)))
    assert member(x, C) == all(member(x * g, I) for g in J.gens)


def test_quotient_exact_and_failure():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    f = (x + y) * (x * x - y)
    assert quotient_exact(f, x + y) == x * x - y
    with pytest.raises(ValueError):
        quotient_exact(x * x + y, x)


def _colon_chain(I, f):
    """(I : f^inf, q) by literal colons until two consecutive ideals agree."""
    cur, q = I, 0
    while True:
        nxt = colon(cur, f)
        if nxt.same_ideal(cur):
            return cur, q
        cur, q = nxt, q + 1


def test_colon_by_variable_power_matches_saturate():
    R = PolyRing(("X0", "X1", "X2", "X3"), PrimeField(32003), GREVLEX)
    X0, X1, X2, X3 = R.gens()
    I = Ideal(R, [X0 * X2 - X1 * X1, X1 * X3 * X3 - X2 * X2 * X2,
                  X0 * X0 * X3 - X1 * X1 * X2])
    for i in range(4):
        fast = colon_by_variable_power(I, i)
        slow, q = _colon_chain(I, R.gen(i))
        assert fast.same_ideal(slow)
        assert fast.same_ideal(saturate(I, R.gen(i))[0])
        assert (fast is I) == (q == 0)


def _seeded_forms(ring):
    """Two lemma12-style random forms and X1 + X2, whose last variable is not
    the ring's last, so saturate's permuted order is exercised."""
    from cmreg.sections import random_linear_form
    from cmreg.verify import DEFAULT_SEED

    X1, X2 = ring.gen(1), ring.gen(2)
    return [random_linear_form(ring, DEFAULT_SEED + 9973 * k) for k in range(2)] + [X1 + X2]


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("mnp", [(2, 2, False), (1, 3, True)], ids=["22", "primed-13"])
def test_saturate_by_linear_form_matches_colon_chain(mnp, char):
    from cmreg.families import build_family

    m, n, primed = mnp
    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    for l in _seeded_forms(aci.ring):
        S, q = saturate(aci, l)
        cur = aci
        for k in range(q):
            assert not cur.same_ideal(S)  # q - 1 colons fall short
            cur = colon(cur, l)
        assert cur.same_ideal(S)
        assert colon(S, l).same_ideal(S)


def test_saturate_rejects_nonlinear_form_and_nonhomogeneous_ideal():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x, x * y])
    for f in (x * y, x + R.one, R.zero, R.one):
        with pytest.raises(ValueError):
            saturate(I, f)
    with pytest.raises(ValueError):
        saturate(Ideal(R, [x * x - y]), z)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_substitute_variable_coordinate_change_round_trip(field):
    R = PolyRing(("x", "y", "z"), field, GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y - z * z * z, y * y * z + x * z * z])
    l = 3 * x + 5 * y
    to_y = field.inv(field(5)) * (y - 3 * x)  # y -> to_y sends l to y
    assert substitute_variable(Ideal(R, [l]), 1, to_y).gens == (y,)
    fwd = substitute_variable(I, 1, to_y)
    assert substitute_variable(fwd, 1, l).gens == I.gens


def test_saturate_ideal_variable_fast_path():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y, x * x * z, y * y * z * z])
    J = Ideal(R, [y, z])
    S = saturate_ideal(I, J)
    # oracle: iterate colon_ideal to stability
    cur = I
    while True:
        nxt = colon_ideal(cur, J)
        if nxt.same_ideal(cur):
            break
        cur = nxt
    assert S.same_ideal(cur)


def _fresh(I):
    return Ideal(I.ring, I.gens)


def _saturate_traced(I, monkeypatch):
    """saturate_irrelevant(I), plus the variables whose colons it built and
    whether it fell back to intersecting them."""
    tried, intersected = [], []
    colon_var, meet = idealops.colon_by_variable_power, idealops.intersect

    def traced_colon(J, i):
        tried.append(i)
        return colon_var(J, i)

    def traced_intersect(A, B):
        intersected.append(True)
        return meet(A, B)

    monkeypatch.setattr(idealops, "colon_by_variable_power", traced_colon)
    monkeypatch.setattr(idealops, "intersect", traced_intersect)
    S = saturate_irrelevant(I)
    monkeypatch.undo()
    return S, tried, bool(intersected)


def _assert_matches_oracle(I):
    """saturate_irrelevant agrees with the all-variables route as reduced bases."""
    got = saturate_irrelevant(_fresh(I))
    oracle = saturate_ideal(_fresh(I), Ideal(I.ring, I.ring.gens()))
    assert got.groebner().polys == oracle.groebner().polys
    return got


def test_saturate_irrelevant_removes_embedded_component(monkeypatch):
    R = PolyRing(("x", "y", "z"), QQ, GREVLEX)
    x, y, z = R.gens()
    # (x) meet (x^2, y, z): the second component is irrelevant-primary
    I = intersect(Ideal(R, [x]), Ideal(R, [x * x, y, z]))
    S, tried, fell_back = _saturate_traced(I, monkeypatch)
    assert tried == [2] and not fell_back  # certified by the last variable
    assert S.same_ideal(Ideal(R, [x]))
    _assert_matches_oracle(I)


def test_eliminate_twisted_cubic_implicitization():
    # parametrization (s^3, s^2 t, s t^2, t^3) -> the three minors
    R = PolyRing(("s", "t", "x", "y", "z", "w"), QQ, GREVLEX)
    s, t, x, y, z, w = R.gens()
    I = Ideal(R, [x - s ** 3, y - s * s * t, z - s * t * t, w - t ** 3])
    E = eliminate(I, (0, 1))
    for g in E.gens:
        for e, _ in g.terms:
            assert e[0] == 0 and e[1] == 0  # no s, t left
    expected = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    assert E.same_ideal(expected)
    # The same elimination with the parameters last moves them to the front.
    R2 = PolyRing(("x", "y", "z", "w", "s", "t"), QQ, GREVLEX)
    x, y, z, w, s, t = R2.gens()
    E2 = eliminate(Ideal(R2, [x - s ** 3, y - s * s * t, z - s * t * t, w - t ** 3]), ("s", "t"))
    assert E2.same_ideal(Ideal(R2, [x * z - y * y, x * w - y * z, y * w - z * z]))


def test_eliminate_gens_really_avoid_variables():
    R = PolyRing(("a", "b", "c"), QQ, GREVLEX)
    a, b, c = R.gens()
    I = Ideal(R, [a * a - b, a * c - 1])
    E = eliminate(I, (0,))
    assert E.gens, "elimination ideal should be nonzero here"
    for g in E.gens:
        for e, _ in g.terms:
            assert e[0] == 0  # a is gone
    # b*c^2 - 1 generates the elimination ideal
    assert E.same_ideal(Ideal(R, [b * c * c - 1]))


def test_membership_exponent():
    R = PolyRing(("x", "y"), QQ, GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    assert membership_exponent(I, y, x, 5) == 1
    assert membership_exponent(I, y, y, 5) is None
    assert membership_exponent(I, y, x * x, 5) == 0


def _membership_exponent_by_products(I, l, g, jmax):
    """The product route: reduce each l^j * g from scratch."""
    gb = I.groebner()
    cur = g
    for j in range(jmax + 1):
        if gb.reduces_to_zero(cur):
            return j
        cur = cur * l
    return None


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("primed", [False, True], ids=["unprimed", "primed"])
def test_membership_exponent_matches_product_route(primed, char):
    from cmreg.families import build_family
    from cmreg.sections import random_linear_form
    from cmreg.verify import DEFAULT_SEED

    fam = build_family(2, 2, primed=primed, char=char)
    aci = fam.almost_complete_intersection
    sat_gens = saturate_irrelevant(aci).groebner().polys
    exponents = []
    for k in range(2):  # the first draw of lemma12's rounds 0 and 1
        l = random_linear_form(fam.ring, DEFAULT_SEED + 9973 * k)
        for g in sat_gens:
            j = membership_exponent(aci, l, g, 6)
            assert j == _membership_exponent_by_products(aci, l, g, 6)
            exponents.append(j)
    assert None not in exponents and max(exponents) > 0


def test_saturation_step_budget_raises_budget_exceeded():
    R = PolyRing(("x", "y"), PrimeField(32003), GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])  # I : (x^2 + y^2) = (x) != I, so one step cannot settle
    with pytest.raises(BudgetExceeded, match="within 1 steps"):
        saturate_ideal(I, Ideal(R, [x * x + y * y]), max_steps=1)


def test_saturation_exponent_bound_two_vars():
    R = PolyRing(("x", "y"), PrimeField(32003), GREVLEX)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    res = saturation_exponent_bound_check(I, y)
    assert res.status == "ok"
    assert res.q == 1
    assert res.a0 == 1
    assert res.holds
    assert res.q <= res.bound_mid <= res.bound_right


def test_saturation_exponent_bound_saturated_case():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * z - y * y])  # saturated hypersurface
    res = saturation_exponent_bound_check(I, z)
    assert res.status == "saturated"
    assert res.q == 0
    assert res.holds


def _random_ideal_and_form(R, rng):
    """Products of forms from a small pool, so that f often shares a factor
    with a component of I (a zero divisor) or lies in I."""
    x, y, z = R.gens()
    pool = [x, y, z, x + y, y - 2 * z, x + y + z]

    def product(k):
        out = R.one
        for _ in range(k):
            out = out * rng.choice(pool)
        return out

    gens = [product(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    return Ideal(R, gens), product(rng.randint(1, 2))


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_nonzerodivisor_matches_colon(field):
    R = PolyRing(("x", "y", "z"), field, GREVLEX)
    x, y, z = R.gens()
    rng = random.Random(12)
    cases = [_random_ideal_and_form(R, rng) for _ in range(40)]
    cases += [(Ideal(R, [R.one]), x), (Ideal(R, [x * x, x * y]), x * y + z * z)]
    outcomes = []
    for I, f in cases:
        answer = nonzerodivisor(I, f)
        assert answer == colon(I, f).same_ideal(I)
        outcomes.append((answer, I.contains_ideal(Ideal(R, [f])), f.degree()))
    assert {a for a, _, _ in outcomes} == {True, False}
    assert any(inside and not I.is_unit() for (_, inside, _), (I, _) in zip(outcomes, cases))
    assert {a for a, _, d in outcomes if d > 1} == {True, False}
    assert nonzerodivisor(Ideal(R, [R.one]), x)  # vacuous on the zero module


def test_nonzerodivisor_rejects_inhomogeneous_input():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    with pytest.raises(ValueError):
        nonzerodivisor(Ideal(R, [x * y]), x + y * y)
    with pytest.raises(ValueError):
        nonzerodivisor(Ideal(R, [x - y * y]), z)


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("mnp", [(2, 2, False), (1, 3, True)], ids=["22", "primed-13"])
def test_bound_check_matches_saturate_oracle_on_chain_instances(mnp, char):
    from cmreg.families import build_family

    m, n, primed = mnp
    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    S = saturate_irrelevant(aci)
    for l in _seeded_forms(aci.ring):
        rep = saturation_exponent_bound_check(aci, l)
        chain_sat, q = saturate(aci, l)
        generic = chain_sat.same_ideal(S)
        assert rep.method == "chain"
        assert rep.precondition_certified == generic
        assert rep.status == ("ok" if generic else "not_generic")
        assert rep.q == (q if generic else None)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_bound_check_certifies_by_the_form_not_the_ring(field):
    R = PolyRing(("x", "y", "z"), field, GREVLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y, x * y * y, x * y * z])  # xy * (x, y, z)
    assert saturate_irrelevant(I).same_ideal(Ideal(R, [x * y]))
    rep = saturation_exponent_bound_check(I, x)
    assert (rep.status, rep.method, rep.precondition_certified) == ("not_generic", "chain", False)
    for l in (x + y + z, x + 2 * y):  # x + 2y has no z term
        rep = saturation_exponent_bound_check(I, l)
        assert (rep.status, rep.method, rep.precondition_certified) == ("ok", "chain", True)
        assert rep.q == 1 and rep.holds


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("primed", [False, True], ids=["unprimed", "primed"])
def test_saturate_irrelevant_matches_oracle_on_aci_and_sections(primed, char):
    from cmreg.families import build_family
    from cmreg.sections import random_linear_form, substitute_linear
    from cmreg.verify import DEFAULT_SEED

    fam = build_family(2, 2, primed=primed, char=char)
    aci = fam.almost_complete_intersection
    _assert_matches_oracle(aci)
    for k in range(2):
        _, J = substitute_linear(aci, random_linear_form(fam.ring, DEFAULT_SEED + k))
        _assert_matches_oracle(J)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_saturate_irrelevant_fallback_intersects_the_colons(field, monkeypatch):
    R = PolyRing(("x", "y", "z"), field, GREVLEX)
    x, y, z = R.gens()
    points = Ideal(R, [x * y, x * z, y * z])  # the three coordinate points
    I = Ideal(R, [g * v for g in points.gens for v in (x, y, z)])  # points meet m^3
    S, tried, fell_back = _saturate_traced(I, monkeypatch)
    assert tried == [2, 1, 0] and fell_back
    assert S.same_ideal(points) and not I.same_ideal(points)
    _assert_matches_oracle(I)


def test_saturate_irrelevant_rejects_a_colon_with_another_hilbert_polynomial(monkeypatch):
    # I = (x2) meet (x0, x1) is saturated, but I : x2^inf = (x0, x1) drops the line
    R = PolyRing(("x0", "x1", "x2"), PrimeField(32003), GREVLEX)
    x0, x1, x2 = R.gens()
    I = Ideal(R, [x2 * x0, x2 * x1])
    assert colon_by_variable_power(I, 2).same_ideal(Ideal(R, [x0, x1]))
    S, tried, fell_back = _saturate_traced(I, monkeypatch)
    assert tried == [2, 1, 0] and fell_back
    assert S.same_ideal(I)
    _assert_matches_oracle(I)


def test_saturate_irrelevant_of_m_primary_zero_and_nonhomogeneous_ideals():
    R = PolyRing(("x", "y", "z"), PrimeField(32003), GREVLEX)
    x, y, z = R.gens()
    assert _assert_matches_oracle(Ideal(R, [x * x, y * y, z * z, x * y])).is_unit()
    assert _assert_matches_oracle(Ideal(R, [])).is_zero()
    f = x - y * y  # (f) meet m^2 = f * m, not homogeneous
    I = Ideal(R, [v * f for v in (x, y, z)])
    assert not I.is_homogeneous()
    assert _assert_matches_oracle(I).same_ideal(Ideal(R, [f]))
