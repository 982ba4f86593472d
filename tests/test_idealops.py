"""Ideal operations: colon, intersection, saturation, elimination."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest

from cmreg import _kernel, idealops
from cmreg._kernel import BudgetExceeded
from cmreg.groebner import Ideal, member
from cmreg.hilbert import (hilbert_function, hilbert_series, indeg, nonzerodivisor,
                           series_difference)
from cmreg.idealops import (colon, colon_by_variable_power, intersect,
                            membership_exponent, saturate, saturate_by_variables,
                            saturate_irrelevant, saturation_exponent_bound_check,
                            substitute_variable)
from cmreg.ring import (PolyRing, Polynomial, PrimeField, QQ, field_of_characteristic,
                        pdict_addmul, transport)
from cmreg.verify import DEFAULT_SEED, LEMMA12_ROUNDS, PRIMED_GRID, UNPRIMED_GRID
from cmreg._linalg import rref
from oracles import eliminate, reduce, spair_certificate


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
    rows = []
    for m in mons:
        g = ring.monomial(m)
        rem, _ = reduce(g * f, gb.polys)
        row = [ring.field(0)] * len(target)
        for e, c in rem.terms:
            row[col[e]] = c
        rows.append(row)
    # kernel dimension = len(mons) - rank
    rank = len(rref([{j: c for j, c in enumerate(r) if c} for r in rows], ring.field))
    return len(mons) - rank


def test_colon_simple_monomial_case():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    C = colon(I, y)
    assert C.same_ideal(Ideal(R, [x]))


def test_colon_matches_rank_oracle():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
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
    R = PolyRing(("x", "y", "z"), QQ)
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
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    Sy, qy = saturate(I, y)
    assert qy == 1
    assert Sy.same_ideal(Ideal(R, [x]))
    Sx, qx = saturate(I, x)
    assert qx == 2
    assert Sx.is_unit()


def test_saturate_equals_colon_by_fq():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
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
    R = PolyRing(("x", "y", "z"), QQ)

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


def _eliminated_intersection(I, J):
    """I cap J by eliminating a new first variable t from t*I + (1-t)*J,
    the reference for intersect."""
    ring = I.ring
    ext = PolyRing(("t_aux",) + ring.names, ring.field)
    up = list(range(1, ring.nvars + 1))
    t = ext.gen(0)
    gens = [t * transport(g, ext, up) for g in I.gens]
    gens += [(ext.one - t) * transport(h, ext, up) for h in J.gens]
    return eliminate(Ideal(ext, gens), 1, ring)


def _random_homogeneous_ideal(R, rng):
    """One to three forms of degree 1 to 3 with random nonzero coefficients,
    fractions over Q."""
    coeff = ((lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))
             if R.field.char == 0 else (lambda: rng.randrange(1, R.field.char)))
    forms = []
    for _ in range(rng.randint(1, 3)):
        mons = _monomials_of_degree(R, rng.randint(1, 3))
        forms.append(R.poly({e: coeff() for e in rng.sample(mons, rng.randint(1, len(mons)))}))
    return Ideal(R, forms)


def _numerator_sum(*ideals):
    """The sum of the Hilbert numerators of A/I over the given ideals."""
    total = {}
    for ideal in ideals:
        for d, c in enumerate(hilbert_series(ideal).numerator):
            total[d] = total.get(d, 0) + c
    return {d: c for d, c in total.items() if c}


def _assert_is_the_intersection(I, J, check_rational_form):
    """intersect(I, J) holds the reduced grevlex basis that elimination
    gives, in the field's coefficient form, and satisfies
    HS(A/(I cap J)) + HS(A/(I + J)) = HS(A/I) + HS(A/J)."""
    R = I.ring
    meet = intersect(I, J)
    assert meet.gens == _eliminated_intersection(I, J).gens
    _assert_holds_its_reduced_basis(meet)
    coeffs = [c for g in meet.gens for c in g.pdict.values()]
    if R.field.char:
        assert all(0 < c < R.field.char for c in coeffs)
    else:
        check_rational_form(coeffs)
    both = Ideal(R, I.gens + J.gens)
    assert _numerator_sum(meet, both) == _numerator_sum(I, J)
    return meet


@pytest.mark.parametrize("char", [32003, 101, 0])
def test_intersect_agrees_with_elimination(char, check_rational_form):
    rng = random.Random(char)
    F = field_of_characteristic(char)
    rings = [PolyRing(("x", "y", "z"), F), PolyRing(("x", "y", "z", "w"), F)]
    for k in range(30):
        R = rings[k % 2]
        I, J = _random_homogeneous_ideal(R, rng), _random_homogeneous_ideal(R, rng)
        _assert_is_the_intersection(I, J, check_rational_form)


@pytest.mark.parametrize("char", [32003, 101, 0])
def test_intersect_edge_cases(char, check_rational_form):
    R = PolyRing(("x", "y", "z"), field_of_characteristic(char))
    x, y, z = R.gens()
    # Only the pairs the product criterion retires give xy.
    meet = _assert_is_the_intersection(Ideal(R, [x]), Ideal(R, [y]), check_rational_form)
    assert meet.gens == (x * y,)
    # Taking each retired class's first index, not its coprime member, loses
    # (x + y)(xy - z^2) here.
    meet = _assert_is_the_intersection(Ideal(R, [x * x * z - y ** 3, x * y - z * z]),
                                       Ideal(R, [x + y]), check_rational_form)
    assert member((x + y) * (x * y - z * z), meet)
    # I inside J, and the unit ideal on either side, give I.
    I, unit = Ideal(R, [x * x - y * z, y ** 3]), Ideal(R, [R.one])
    for A, B in ((I, Ideal(R, [x * x - y * z, y])), (I, unit), (unit, I)):
        meet = _assert_is_the_intersection(A, B, check_rational_form)
        assert meet.same_ideal(I)
    # The zero ideal on either side gives the zero ideal.
    zero = Ideal(R, [])
    assert intersect(zero, I).gens == () and intersect(I, zero).gens == ()


def test_intersection_run_raises_past_its_pair_budget():
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = R.gens()
    gb = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z]).groebner()
    ctx = gb._ctx
    args = (ctx, gb._basis, [(x * y + z * w).pdict])
    _, stats = _kernel.intersection(*args)
    with pytest.raises(BudgetExceeded, match="exceeded the pair budget"):
        _kernel.intersection(*args, max_pairs=stats["pairs_processed"] - 1)


def test_intersect_of_principal_ideals_is_lcm():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = intersect(Ideal(R, [x * x * y]), Ideal(R, [x * y * y]))
    assert I.same_ideal(Ideal(R, [x * x * y * y]))


def test_colon_raises_on_a_division_that_is_not_exact(monkeypatch):
    # An intersection basis element that f does not divide is an engine
    # fault; colon must not turn it into a quotient.
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = Ideal(R, [x * x - y])
    monkeypatch.setattr(idealops, "intersect", lambda A, B: A)
    with pytest.raises(ValueError, match="not exact"):
        colon(I, x + y)


def _colon_chain(I, f):
    """(I : f^inf, q) by literal colons until two consecutive ideals agree."""
    cur, q = I, 0
    while True:
        nxt = colon(cur, f)
        if nxt.same_ideal(cur):
            return cur, q
        cur, q = nxt, q + 1


def test_colon_by_variable_power_matches_saturate():
    R = PolyRing(("X0", "X1", "X2", "X3"), PrimeField(32003))
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
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    I = Ideal(R, [x * x, x * y])
    for f in (x * y, x + R.one, R.zero, R.one):
        with pytest.raises(ValueError):
            saturate(I, f)
    with pytest.raises(ValueError):
        saturate(Ideal(R, [x * x - y]), z)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_substitute_variable_coordinate_change_round_trip(field):
    R = PolyRing(("x", "y", "z"), field)
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y - z * z * z, y * y * z + x * z * z])
    l = 3 * x + 5 * y
    to_y = field.inv(field(5)) * (y - 3 * x)  # y -> to_y sends l to y
    assert substitute_variable(Ideal(R, [l]), 1, to_y).gens == (y,)
    fwd = substitute_variable(I, 1, to_y)
    assert substitute_variable(fwd, 1, l).gens == I.gens


def _substitute_per_term(I, i, repl, scale=1):
    """x_i -> repl / scale one term at a time: each term is unpacked, its
    x_i power e dropped, the rest packed and multiplied by repl^e and by
    scale^(top - e), top the generator's largest x_i power (the oracle of
    substitute_variable)."""
    target = repl.ring
    names = I.ring.names
    keep = [j for j in range(len(names)) if j != i]
    slots = [target._name_index[names[j]] for j in keep]
    unpack, pack = I.ring.bound.unpack, target.bound.pack
    powers = [target.one]
    images = []
    for g in I.gens:
        data = {}
        top = max(e[i] for e, _ in g.terms)
        for k, c in g.pdict.items():
            e = unpack(k)
            while len(powers) <= e[i]:
                powers.append(powers[-1] * repl)
            base = [0] * target.nvars
            for j, s in zip(keep, slots):
                base[s] = e[j]
            c = target.field.mul(c, target.field(scale ** (top - e[i])))
            pdict_addmul(target.p, data, {pack(base): c}, powers[e[i]].pdict)
        images.append(Polynomial._product(target, data))
    return Ideal(target, images)


@pytest.mark.parametrize("char", [32003, 0])
def test_substitute_variable_matches_the_per_term_route_on_the_grid(char, monkeypatch):
    """Every coordinate change of a saturation and every hyperplane cut of a
    section in a cold grid pass gives the per-term route's generators, and
    so does the cut of a fresh ideal of each residual's generators: on
    both fields the pass reads the residuals' sections from their link to
    the curve and cuts none."""
    from cmreg import families, sections
    from cmreg.verify import grid_reports

    grouped = substitute_variable
    kinds = []

    def checked(I, i, repl, scale=1):
        J = grouped(I, i, repl, scale)
        assert J.gens == _substitute_per_term(I, i, repl, scale).gens, (I.ring, i)
        kinds.append("change" if repl.ring == I.ring else "cut")
        return J

    monkeypatch.setattr(idealops, "substitute_variable", checked)
    monkeypatch.setattr(sections, "substitute_variable", checked)
    monkeypatch.setattr(families, "_FAMILY_CACHE", {})
    grid_reports(char=char)
    assert (kinds.count("change"), kinds.count("cut")) == (14, 0), kinds
    kinds.clear()
    for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID)):
        for m, n in grid:
            residual = families.build_family(m, n, primed, char).residual
            sections.general_section(Ideal(residual.ring, residual.gens), DEFAULT_SEED)
    assert kinds == ["cut"] * 14, kinds


def test_saturate_ideal_variable_fast_path():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    I = Ideal(R, [x * x * y, x * x * z, y * y * z * z])
    S = saturate_by_variables(I, [1, 2])
    # oracle: iterate the elementwise colon I : (y, z) = (I : y) meet (I : z) to stability
    cur = I
    while True:
        nxt = intersect(colon(cur, y), colon(cur, z))
        if nxt.same_ideal(cur):
            break
        cur = nxt
    assert S.same_ideal(cur)


def test_saturate_by_variables_rejects_inhomogeneous_ideals_and_no_variables():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    with pytest.raises(ValueError):
        saturate_by_variables(Ideal(R, [v * (x - y * y) for v in (x, y, z)]), [1, 2])
    with pytest.raises(ValueError):
        saturate_by_variables(Ideal(R, [x * y]), [])


def _fresh(I):
    return Ideal(I.ring, I.gens)


def _count_intersections(monkeypatch):
    """A list that grows by one entry per idealops.intersect call."""
    calls, meet = [], idealops.intersect

    def traced_intersect(A, B):
        calls.append(True)
        return meet(A, B)

    monkeypatch.setattr(idealops, "intersect", traced_intersect)
    return calls


def _saturate_traced(I, monkeypatch):
    """saturate_irrelevant(I), plus the variables whose colons it built and
    the number of intersections it made."""
    tried = []
    colon_var = idealops.colon_by_variable_power

    def traced_colon(J, i):
        tried.append(i)
        return colon_var(J, i)

    monkeypatch.setattr(idealops, "colon_by_variable_power", traced_colon)
    meets = _count_intersections(monkeypatch)
    S = saturate_irrelevant(I)
    monkeypatch.undo()
    return S, tried, len(meets)


def _saturation_oracle(I):
    """I^sat as the plain intersection of every variable colon I : x_i^inf."""
    return functools.reduce(intersect, [colon_by_variable_power(I, i)
                                        for i in range(I.ring.nvars)])


def _assert_matches_oracle(I):
    """saturate_irrelevant agrees with the plain intersection as reduced bases."""
    got = saturate_irrelevant(_fresh(I))
    assert got.groebner().polys == _saturation_oracle(_fresh(I)).groebner().polys
    return got


def test_saturate_irrelevant_removes_embedded_component(monkeypatch):
    R = PolyRing(("x", "y", "z"), QQ)
    x, y, z = R.gens()
    # (x) meet (x^2, y, z): the second component is irrelevant-primary
    I = intersect(Ideal(R, [x]), Ideal(R, [x * x, y, z]))
    S, tried, meets = _saturate_traced(I, monkeypatch)
    assert tried == [2] and meets == 0  # certified by the last variable
    assert S.same_ideal(Ideal(R, [x]))
    _assert_matches_oracle(I)


def test_eliminate_twisted_cubic_implicitization():
    # parametrization (s^3, s^2 t, s t^2, t^3) -> the three minors
    R = PolyRing(("s", "t", "x", "y", "z", "w"), QQ)
    s, t, x, y, z, w = R.gens()
    I = Ideal(R, [x - s ** 3, y - s * s * t, z - s * t * t, w - t ** 3])
    E = eliminate(I, 2)
    for g in E.gens:
        for e, _ in g.terms:
            assert e[0] == 0 and e[1] == 0  # no s, t left
    expected = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    assert E.same_ideal(expected)


def test_eliminate_gens_really_avoid_variables():
    R = PolyRing(("a", "b", "c"), QQ)
    a, b, c = R.gens()
    I = Ideal(R, [a * a - b, a * c - 1])
    E = eliminate(I, 1)
    assert E.gens, "elimination ideal should be nonzero here"
    for g in E.gens:
        for e, _ in g.terms:
            assert e[0] == 0  # a is gone
    # b*c^2 - 1 generates the elimination ideal
    assert E.same_ideal(Ideal(R, [b * c * c - 1]))


@pytest.mark.parametrize("char", [32003, 0])
def test_eliminate_into_the_smaller_ring_matches_transport(char):
    # The kept Block(k) dicts are taken over as the grevlex dicts of the
    # other variables; the checked route transports each generator down.
    field = field_of_characteristic(char)
    R = PolyRing(("s", "t", "x", "y", "z", "w"), field)
    small = PolyRing(("x", "y", "z", "w"), field)
    s, t, x, y, z, w = R.gens()
    I = Ideal(R, [x - s ** 3, y - s * s * t, z - s * t * t, w - t ** 3])
    down = [None, None, 0, 1, 2, 3]
    E = eliminate(I, 2, small)
    assert E.ring is small
    assert E.gens == tuple(transport(g, small, down) for g in eliminate(I, 2).gens)
    with pytest.raises(ValueError, match="target ring"):
        eliminate(I, 1, small)


@pytest.mark.parametrize("k", [0, 3])
def test_eliminate_rejects_no_variables_and_every_variable(k):
    R = PolyRing(("a", "b", "c"), QQ)
    a, b, c = R.gens()
    with pytest.raises(ValueError):
        eliminate(Ideal(R, [a * a - b, a * c - 1]), k)


def test_membership_exponent():
    R = PolyRing(("x", "y"), QQ)
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


def test_saturation_exponent_bound_two_vars():
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])
    res = saturation_exponent_bound_check(I, y)
    assert res.status == "ok"
    assert res.q == 1
    assert res.a0 == 1
    assert res.holds
    assert res.q <= res.bound_mid <= res.bound_right


def test_saturation_exponent_bound_saturated_case():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    I = Ideal(R, [x * z - y * y])  # saturated hypersurface
    res = saturation_exponent_bound_check(I, z)
    assert res.status == "saturated"
    assert res.q == 0
    assert res.holds


# Every default-grid instance at both characteristics, and three past it.
CAPPED_SCAN_CASES = [(m, n, primed, char) for char in (32003, 0)
                     for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID))
                     for m, n in grid]
CAPPED_SCAN_CASES += [(3, 3, False, 32003), (4, 2, False, 32003), (3, 2, True, 32003)]


@pytest.mark.parametrize("m,n,primed,char", CAPPED_SCAN_CASES)
def test_capped_scan_matches_the_full_scan(m, n, primed, char):
    """q equals the largest exponent over all of S's basis, each scanned to
    bound_mid + 3, and every exponent is within its a0 cap."""
    from cmreg.families import build_family
    from cmreg.sections import random_linear_form

    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    S = saturate_irrelevant(aci)
    a0 = idealops.a0(aci)
    for k in range(LEMMA12_ROUNDS):  # the first draw of each lemma12 round
        l = random_linear_form(aci.ring, DEFAULT_SEED + 9973 * k)
        rep = saturation_exponent_bound_check(aci, l)
        if S.same_ideal(aci):
            assert (rep.status, rep.q) == ("saturated", 0)
            continue
        bound_mid = a0 - indeg(S) + 1
        exps = {g: membership_exponent(aci, l, g, bound_mid + 3) for g in S.groebner().polys}
        assert rep.status == "ok" and rep.bound_mid == bound_mid
        assert rep.q == max(exps.values())
        assert all(e <= a0 - g.degree() + 1 for g, e in exps.items())


def test_capped_scan_raises_on_an_exponent_past_its_cap(monkeypatch):
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    I = Ideal(R, [x * x, x * y])  # I^sat = (x), a0 = 1: e(x) = 1 by y, its cap
    assert saturation_exponent_bound_check(I, y).q == 1
    monkeypatch.setattr(idealops, "a0", lambda I: 0)
    with pytest.raises(AssertionError, match="a0 = 0"):
        saturation_exponent_bound_check(I, y)


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
    R = PolyRing(("x", "y", "z"), field)
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
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
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
    R = PolyRing(("x", "y", "z"), field)
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


@pytest.mark.parametrize("char", [32003, 0])
def test_saturate_irrelevant_of_the_grid_acis_is_the_colon_by_x0_plus_xlast(char, monkeypatch):
    """Each grid ACI's x_last colon is refused, and its colon by x_0 + x_last
    certifies with no intersection.  That colon is a colon by x_last after
    the coordinate change, so x_last is tried twice."""
    from cmreg.families import build_family

    for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID)):
        for m, n in grid:
            aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
            last = aci.ring.nvars - 1
            refused = colon_by_variable_power(_fresh(aci), last)
            assert series_difference(hilbert_series(aci), hilbert_series(refused)) is None
            S, tried, meets = _saturate_traced(_fresh(aci), monkeypatch)
            assert tried == [last, last] and meets == 0, (m, n, primed)
            assert S.groebner().polys == _saturation_oracle(_fresh(aci)).groebner().polys


@pytest.mark.parametrize("m,n,primed,char", CAPPED_SCAN_CASES)
def test_x0_plus_xlast_is_a_nonzerodivisor_on_the_saturated_aci(m, n, primed, char):
    """The ACI is bihomogeneous, so an associated prime of I^sat that held
    X0 + X_last would hold X0 and X_last, and none does: the form is a
    nonzerodivisor on A/I^sat and its colon is I^sat.  X0 + X1 vanishes at
    the embedded point e_last, so its colon is refused by the series
    difference, and it is not I^sat."""
    from cmreg.families import build_family

    aci = build_family(m, n, primed=primed, char=char).almost_complete_intersection
    oracle = _saturation_oracle(_fresh(aci))
    X = aci.ring.gens()
    assert nonzerodivisor(oracle, X[0] + X[-1])
    assert saturate_irrelevant(_fresh(aci)).groebner().polys == oracle.groebner().polys
    wrong, _ = saturate(_fresh(aci), X[0] + X[1])
    assert series_difference(hilbert_series(aci), hilbert_series(wrong)) is None
    assert not wrong.same_ideal(oracle)


def _chain_and_crossing_ideals():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    A = Ideal(R, [x * x, x * y, y ** 3, z ** 4])
    B = Ideal(R, [x, y ** 3, z ** 4])
    C = Ideal(R, [x, y, z ** 4])
    D = Ideal(R, [y * y, z])
    return R, A, B, C, D


def test_intersect_all_of_one_part_or_equal_parts(monkeypatch):
    R, A, B, _, _ = _chain_and_crossing_ideals()
    x, y, z = R.gens()
    meets = _count_intersections(monkeypatch)
    assert idealops._intersect_all([A]) is A
    B2 = Ideal(R, [x + y ** 3, y ** 3 + z ** 4, z ** 4])
    assert B2.same_ideal(B) and B2.gens != B.gens
    assert idealops._intersect_all([B, B2]) is B
    assert idealops._intersect_all([B2, B]) is B2
    assert not meets


def test_intersect_all_of_a_chain_is_its_least_part(monkeypatch):
    _, A, B, C, _ = _chain_and_crossing_ideals()
    assert C.contains_ideal(B) and B.contains_ideal(A) and not A.contains_ideal(B)
    meets = _count_intersections(monkeypatch)
    for parts in itertools.permutations([A, B, C]):
        assert idealops._intersect_all(parts) is A
    assert not meets


def test_intersect_all_matches_the_plain_intersection_in_any_order():
    _, A, B, C, D = _chain_and_crossing_ideals()
    plain = functools.reduce(intersect, [A, B, C, D]).groebner().polys
    for parts in itertools.permutations([A, B, C, D]):
        assert idealops._intersect_all(parts).groebner().polys == plain


def _points_meet_cube(field):
    """The three coordinate points of P^2 meet m^3, and the points."""
    R = PolyRing(("x", "y", "z"), field)
    x, y, z = R.gens()
    points = Ideal(R, [x * y, x * z, y * z])
    return Ideal(R, [g * v for g in points.gens for v in (x, y, z)]), points


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_saturate_irrelevant_fallback_intersects_the_colons(field, monkeypatch):
    I, points = _points_meet_cube(field)
    S, tried, meets = _saturate_traced(I, monkeypatch)
    # x + z vanishes at the y-point, so its colon is refused too.
    assert tried == [2, 2, 0, 1] and meets == 2  # one point per variable colon
    assert S.same_ideal(points) and not I.same_ideal(points)
    _assert_matches_oracle(I)


def test_saturate_irrelevant_rejects_a_colon_with_another_hilbert_polynomial(monkeypatch):
    # I = (x2) meet (x0, x1) is saturated, but I : x2^inf = (x0, x1) drops the line
    R = PolyRing(("x0", "x1", "x2"), PrimeField(32003))
    x0, x1, x2 = R.gens()
    I = Ideal(R, [x2 * x0, x2 * x1])
    assert colon_by_variable_power(I, 2).same_ideal(Ideal(R, [x0, x1]))
    S, tried, meets = _saturate_traced(I, monkeypatch)
    assert tried == [2, 2] and meets == 0  # x0 + x2 lies in neither component
    assert S.same_ideal(I)
    _assert_matches_oracle(I)


def test_saturate_irrelevant_of_m_primary_zero_and_nonhomogeneous_ideals():
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    assert _assert_matches_oracle(Ideal(R, [x * x, y * y, z * z, x * y])).is_unit()
    assert _assert_matches_oracle(Ideal(R, [])).is_zero()
    f = x - y * y  # (f) meet m^2 = f * m, not homogeneous
    I = Ideal(R, [v * f for v in (x, y, z)])
    assert not I.is_homogeneous()
    with pytest.raises(ValueError):
        saturate_irrelevant(I)


# --- derived ideals hold the reduced basis they were built from --------------

def _assert_holds_its_reduced_basis(J):
    """J holds one basis, with no Buchberger work behind it, and it is the
    reduced basis Buchberger computes from J's own gens in that order."""
    (gb,) = J._gb.values()
    assert gb.stats["pairs_processed"] == 0
    assert gb.polys == J.gens
    oracle = Ideal(J.ring, J.gens).groebner(gb.order)
    assert gb._basis == oracle._basis
    spair_certificate(gb)


def _assert_order_free_reads_run_no_buchberger(J, inside, count_kernel_work):
    """The Hilbert series of J and a containment in J read its held basis."""
    totals = count_kernel_work()
    hilbert_series(J)
    assert J.contains_ideal(inside)
    assert totals["calls"] == 0


def _assert_variable_colons_hold_their_bases(I, count_kernel_work):
    """Each I : x_i^inf that is not I holds its reduced basis, contains I and
    is saturated by x_i: no lead of its basis with x_i last contains x_i."""
    derived = 0
    for i in range(I.ring.nvars):
        F = _fresh(I)
        J = colon_by_variable_power(F, i)
        if J is not F:
            _assert_order_free_reads_run_no_buchberger(J, I, count_kernel_work)
            _assert_holds_its_reduced_basis(J)
            assert colon_by_variable_power(J, i) is J
            derived += 1
    return derived


def _family_ideals(fam):
    return (fam.curve, fam.complete_intersection, fam.residual,
            fam.almost_complete_intersection)


GRID_FAMILIES = [(m, n, False) for m, n in UNPRIMED_GRID] + [(m, n, True) for m, n in PRIMED_GRID]


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("m,n,primed", GRID_FAMILIES)
def test_variable_colons_of_the_grid_families_hold_their_reduced_bases(
        m, n, primed, char, count_kernel_work):
    from cmreg.families import build_family

    ideals = _family_ideals(build_family(m, n, primed=primed, char=char))
    # The curve is saturated by every variable, the others by at most one.
    assert sum(_assert_variable_colons_hold_their_bases(I, count_kernel_work)
               for I in ideals) > 2 * (ideals[0].ring.nvars - 1)


@pytest.mark.parametrize("m,n,primed", [(3, 3, False), (4, 2, False), (3, 2, True)])
def test_variable_colons_of_larger_families_hold_their_reduced_bases(
        m, n, primed, count_kernel_work):
    from cmreg.families import build_family

    ideals = _family_ideals(build_family(m, n, primed=primed))
    assert sum(_assert_variable_colons_hold_their_bases(I, count_kernel_work)
               for I in ideals) > 2 * (ideals[0].ring.nvars - 1)


@pytest.mark.parametrize("char", [32003, 0])
def test_intersection_colon_and_saturation_hold_their_reduced_bases(char, count_kernel_work):
    from cmreg.families import build_family, residual_pivot

    fam = build_family(2, 2, char=char)
    curve, ci, aci = fam.curve, fam.complete_intersection, fam.almost_complete_intersection
    meet = intersect(_fresh(curve), _fresh(fam.residual))
    _assert_order_free_reads_run_no_buchberger(
        meet, Ideal(fam.ring, [g * h for g in curve.gens for h in fam.residual.gens]),
        count_kernel_work)
    _assert_holds_its_reduced_basis(meet)
    assert curve.contains_ideal(meet) and fam.residual.contains_ideal(meet)
    pivot = residual_pivot(fam.ring, 2, 2)
    residual = colon(_fresh(ci), pivot)
    _assert_order_free_reads_run_no_buchberger(residual, ci, count_kernel_work)
    _assert_holds_its_reduced_basis(residual)
    assert ci.contains_ideal(Ideal(ci.ring, [pivot * g for g in residual.gens]))
    # The ACI's I^sat comes back through a coordinate change, holding no
    # basis (tests/test_kernel.py bounds its work); an I^sat that the
    # fallback intersects holds the basis of its last intersection.
    I, points = _points_meet_cube(fam.ring.field)
    S = saturate_irrelevant(I)
    assert S.same_ideal(points)
    _assert_order_free_reads_run_no_buchberger(S, I, count_kernel_work)
    _assert_holds_its_reduced_basis(S)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_colon_reduces_the_tails_of_its_quotients(field):
    # I is prime and x + y lies outside it, so I : (x + y) = I.  The basis
    # of I cap (x + y) divided by x + y has the lead y of one quotient in
    # the tail of the other.
    R = PolyRing(("x", "y", "z"), field)
    x, y, z = R.gens()
    I = Ideal(R, [2 * x + z, y])
    J = colon(I, x + y)
    _assert_holds_its_reduced_basis(J)
    assert J.groebner().polys == I.groebner().polys
