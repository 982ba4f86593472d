"""Buchberger engine: reduced bases, determinism, membership, certificates."""

from __future__ import annotations

import itertools
import random

import pytest

from cmreg import _kernel, groebner
from cmreg.groebner import Ideal, buchberger, member
from cmreg.hilbert import hilbert_series
from cmreg.idealops import _variable_last, colon_by_variable_power
from cmreg.ring import (GREVLEX, Block, PermutedGrevlex, PolyRing, PrimeField, QQ,
                        field_of_characteristic)
from oracles import reduce, spair_certificate, spoly


def twisted_cubic(ring):
    x, y, z, w = ring.gens()
    return Ideal(ring, [x * z - y * y, x * w - y * z, y * w - z * z])


@pytest.fixture(scope="module")
def ring4q():
    return PolyRing(("x", "y", "z", "w"), QQ)


def test_twisted_cubic_basis_is_the_minors(ring4q):
    I = twisted_cubic(ring4q)
    gb = I.groebner()
    got = sorted(str(g) for g in gb.polys)
    # grevlex leads are y^2, y*z, z^2 (lower z/w exponents rank higher)
    want = sorted(["y^2 - x*z", "y*z - x*w", "z^2 - y*w"])
    assert got == want


def test_reduced_basis_independent_of_generator_order(ring4q):
    x, y, z, w = ring4q.gens()
    gens = [x * z - y * y, x * w - y * z, y * w - z * z, x * x * w - x * y * z]
    rng = random.Random(11)
    reference = None
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * rng.choice([1, 2, 5]) for g in shuffled]
        polys = tuple(str(p) for p in buchberger(Ideal(ring4q, scaled), GREVLEX).polys)
        if reference is None:
            reference = polys
        assert polys == reference


def test_spair_certificate_counts_pairs(ring4q):
    gb = twisted_cubic(ring4q).groebner()
    assert spair_certificate(gb) == 3


@pytest.mark.parametrize("order", [Block(1), PermutedGrevlex((3, 1, 0, 2))], ids=repr)
def test_spair_certificate_in_a_basis_order(ring4q, order):
    # Polynomials keep grevlex terms, so spoly must cancel the leads under
    # the basis's own order, not the first terms.
    gb = twisted_cubic(ring4q).groebner(order)
    assert gb.leading_exps() != tuple(g.lm() for g in gb.polys)
    assert spair_certificate(gb) == len(gb) * (len(gb) - 1) // 2
    pack = order.bind(4).pack
    for (f, lf), (g, lg) in itertools.combinations(zip(gb.polys, gb.leading_exps()), 2):
        lcm = pack(tuple(map(max, lf, lg)))
        assert all(pack(e) < lcm for e, _ in spoly(f, g, order).terms)


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("order", [Block(2), PermutedGrevlex((2, 0, 3, 1))], ids=repr)
def test_basis_in_another_order_converts_like_the_checked_route(char, order, check_rational_form):
    R = PolyRing(("x", "y", "z", "w"), field_of_characteristic(char))
    x, y, z, w = R.gens()
    I = Ideal(R, [2 * x * z - 3 * y * y, x * w - 5 * y * z + w * w, y * w - 7 * z * z])
    gb = I.groebner(order)
    assert gb._polys is None and len(gb) > 3
    unpack = gb._ctx.unpack
    want = tuple(R.poly({unpack(k): c for k, c in d.items()}) for d in gb._basis)
    assert gb.polys == want
    assert [g.pdict for g in gb.polys] == [g.pdict for g in want]
    coeffs = [c for g in gb.polys for c in g.pdict.values()]
    if char:
        assert all(type(c) is int and 0 < c < char for c in coeffs)
    else:
        # Monic in x*z, the first generator has the tail coefficient -3/2.
        assert check_rational_form(coeffs) > 0


def test_saturated_variable_colon_leaves_the_basis_tuple_unbuilt():
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    I = twisted_cubic(R)
    for i in range(R.nvars):
        assert colon_by_variable_power(I, i) is I
        assert I.groebner(_variable_last(R.nvars, i))._polys is None


@pytest.mark.parametrize("char", [32003, 0])
def test_reducers_are_built_on_the_first_normal_form(char):
    R = PolyRing(("x", "y", "z", "w"), field_of_characteristic(char))
    x, y, z, w = R.gens()
    I = Ideal(R, [2 * x * z - 3 * y * y, x * w - 5 * y * z + w * w, y * w - 7 * z * z])
    gb = I.groebner(Block(2))
    words, exps = gb.lead_words(), gb.leading_exps()
    assert gb._reducers is None
    assert gb.reduces_to_zero(I.gens[0])
    assert [r.leadword for r in gb.reducers] == words
    assert tuple(gb._ctx.unpack(r.leadkey) for r in gb.reducers) == exps


def test_membership(ring4q):
    x, y, z, w = ring4q.gens()
    I = twisted_cubic(ring4q)
    assert member(x * z * w - y * y * w, I)
    assert member((x * w - y * z) * (z + w), I)
    assert not member(x * w, I)
    assert not member(ring4q.const(1), I)


def test_unit_ideal_detection():
    R = PolyRing(("x", "y"), PrimeField(32003))
    x, y = R.gens()
    I = Ideal(R, [x + y, x - y, x * y - 1])
    gb = I.groebner()
    assert [str(g) for g in gb.polys] == ["1"]
    assert I.is_unit()


def test_zero_generators_dropped():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = Ideal(R, [R.zero, x * x - y, R.zero])
    assert [str(g) for g in I.groebner().polys] == ["x^2 - y"]


def test_normal_form_idempotent_randomized():
    rng = random.Random(20260801)
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    gb = Ideal(R, [x * x - y * z, y * y * y - z * z * x]).groebner()
    basis = gb.polys
    mons = [x, y, z, x * y, z * z, x * y * z, y * y]
    for _ in range(200):
        f = R.zero
        for _ in range(rng.randrange(1, 6)):
            f = f + rng.randrange(1, 32003) * rng.choice(mons) * rng.choice(mons)
        r1, q1 = reduce(f, basis)
        r2, _ = reduce(r1, basis)
        assert r2 == r1
        rebuilt = r1
        for qi, gi in zip(q1, basis):
            rebuilt = rebuilt + qi * gi
        assert rebuilt == f


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["p", "q"])
def test_reduce_keeps_one_quotient_per_divisor_with_zero_divisors(field):
    R = PolyRing(("x", "y"), field)
    x, y = R.gens()
    f = x * y + y
    divisors = [R.zero, 2 * x, R.zero]
    r, quots = reduce(f, divisors)
    assert len(quots) == len(divisors)
    assert quots[0].is_zero() and quots[2].is_zero()
    assert r == y and f == sum((q * g for q, g in zip(quots, divisors)), r)


def test_lex_elimination_shape():
    # lex basis of a zero-dimensional system is triangular
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    gb = Ideal(R, [x * x + y * y - 1, x - y]).groebner(Block(2))
    strs = [str(g) for g in gb.polys]
    assert any("x" in s for s in strs)
    assert any("x" not in s and "y" in s for s in strs)


def test_same_ideal_under_different_generators(ring4q):
    x, y, z, w = ring4q.gens()
    I = twisted_cubic(ring4q)
    J = Ideal(ring4q, [g + (x * w - y * z) for g in I.gens] + [x * w - y * z])
    assert I.same_ideal(J)
    K = Ideal(ring4q, [x * z - y * y])
    assert not I.same_ideal(K)


# --- ideals that hold a basis -------------------------------------------------

def _unreduced(gb):
    """gb's packed basis made a Groebner basis of the same leads that is not
    reduced: each element tripled plus the next, of smaller lead, whose lead
    the tail then holds, and the first times its own lead appended."""
    field, basis = gb._ctx.field, gb._basis
    out = []
    for d, lower in zip(basis, basis[1:] + [{}]):
        tripled = {k: field.mul(c, field(3)) for k, c in d.items()}
        for k, c in lower.items():
            tripled[k] = field.add(tripled.get(k, field(0)), c)
        out.append({k: c for k, c in tripled.items() if c})
    first = basis[0]
    return out + [{k + max(first): c for k, c in first.items()}]


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("order", [GREVLEX, Block(1), PermutedGrevlex((3, 1, 0, 2))], ids=repr)
def test_reduced_basis_of_a_groebner_basis_is_buchbergers(char, order):
    R = PolyRing(("x", "y", "z", "w"), field_of_characteristic(char))
    x, y, z, w = R.gens()
    gb = Ideal(R, [2 * x * z - y * y + w * w, x * w - 3 * y * z, y * w - z * z + x * y]).groebner(order)
    ctx = gb._ctx
    reducers = [_kernel.Reducer.from_packed(ctx, d, sugar=0) for d in _unreduced(gb)]
    assert _kernel.reduced_basis(ctx, reducers) == gb._basis
    assert _kernel.reduced_basis(ctx, []) == []


@pytest.mark.parametrize("char", [32003, 0])
def test_an_ideal_made_holding_its_basis_runs_no_buchberger(char, monkeypatch):
    R = PolyRing(("x", "y", "z", "w"), field_of_characteristic(char))
    order = PermutedGrevlex((3, 1, 0, 2))
    source = twisted_cubic(R).groebner(order)
    J = Ideal._holding(R, order, source._ctx, source._basis)
    monkeypatch.setattr(groebner, "buchberger", None)
    gb = J.groebner(order)
    assert J._gb == {repr(order): gb}
    assert J.gens == gb.polys == source.polys
    assert gb.stats == {"pairs_processed": 0, "zero_reductions": 0, "basis_size": 3}
    # Containment and the Hilbert series read the held permuted grevlex basis.
    assert J.contains_ideal(twisted_cubic(R))
    assert hilbert_series(J).numerator == (1, 0, -3, 2)
    assert J._gb == {repr(order): gb}
    monkeypatch.undo()
    assert J.same_ideal(twisted_cubic(R))


def test_order_free_reads_prefer_a_held_basis(count_kernel_work):
    R = PolyRing(("x", "y", "z", "w"), PrimeField(32003))
    I = twisted_cubic(R)
    I.groebner(Block(1))
    permuted = I.groebner(PermutedGrevlex((3, 1, 0, 2)))
    totals = count_kernel_work()
    # With no grevlex basis held, containment and the Hilbert series read
    # the held permuted grevlex basis, not the block one.
    assert I._held_basis() is permuted
    assert I.contains_ideal(twisted_cubic(R))
    assert hilbert_series(I).numerator == (1, 0, -3, 2)
    assert totals["calls"] == 0
    # Once grevlex is held, it is read first.
    gb = I.groebner()
    assert I._held_basis() is gb
    J = twisted_cubic(R)
    J.groebner(Block(1))
    # A block basis alone is not read: grevlex is computed, once.
    assert J._held_basis() is J.groebner()


def test_zero_and_unit_tests_read_a_held_basis(count_kernel_work):
    R = PolyRing(("x", "y", "z"), PrimeField(32003))
    x, y, z = R.gens()
    # (x^2, x*y, x*z) : x^inf is the unit ideal, held in grevlex with x last.
    I = Ideal(R, [x * x, x * y, x * z])
    J = colon_by_variable_power(I, 0)
    totals = count_kernel_work()
    assert J.is_unit() and not J.is_zero()
    assert not I.is_unit() and not I.is_zero()
    assert totals["calls"] == 0
    assert J._gb.keys() == {repr(_variable_last(3, 0))}
