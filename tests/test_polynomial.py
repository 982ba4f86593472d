"""The packed representation of a polynomial: parsing sums into one dict, no
operation mutates its inputs, prime-field results keep their coefficients in
[1, p), and a polynomial has one value whatever route built it."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cmreg import _kernel
from cmreg.groebner import Ideal, buchberger
from cmreg.idealops import membership_exponent, substitute_variable
from cmreg.resolution import minimal_resolution
from cmreg.ring import (PermutedGrevlex, PolyRing, PrimeField, field_of_characteristic,
                        transport)
from oracles import reduce

NAMES = ("x", "y", "z", "w")


def _monomial_text(e):
    return "*".join(f"{nm}^{x}" for nm, x in zip(NAMES, e) if x) or "1"


@pytest.mark.parametrize("char", [7, 0])
def test_a_2000_term_generator_parses_to_its_summed_terms(char):
    """1,600 terms over a pool of 300 monomials, so most repeat, and 200
    pairs c*u - c*u over monomials of their own, which cancel."""
    rng = random.Random(20261019 + char)
    R = PolyRing(NAMES, field_of_characteristic(char))
    pool = [tuple(rng.randrange(6) for _ in NAMES) for _ in range(300)]
    cancelled = [(7 + k,) + tuple(rng.randrange(6) for _ in NAMES[1:]) for k in range(200)]

    def coeff():
        c = rng.choice((-1, 1)) * rng.randint(1, 30)
        return Fraction(c, rng.randint(1, 9)) if not char else c

    terms = [(e, coeff()) for e in rng.choices(pool, k=1600)]
    for e in cancelled:
        c = coeff()
        terms += [(e, c), (e, -c)]
    rng.shuffle(terms)
    assert len(terms) == 2000
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{_monomial_text(e)}" for e, c in terms)
    summed = {}
    for e, c in terms:
        summed[e] = summed.get(e, 0) + c
    f = R.from_string(text)
    assert f == R.poly(summed)
    exps = {e for e, _ in f.terms}
    assert exps <= set(pool) and len(exps) < 1600
    if char:
        assert all(0 < c < char for c in f.pdict.values())


def _random_form(rng, R, degree, nterms):
    """A homogeneous form of the given degree with up to nterms terms."""
    terms = {}
    for _ in range(nterms):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(R.nvars - 1))
        terms[tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (degree,)))] = \
            rng.randrange(1, R.p)
    return R.poly(terms)


def _random_inputs(p):
    rng = random.Random(20261019 + p)
    R = PolyRing(NAMES, PrimeField(p))
    gens = [_random_form(rng, R, d, 4) for d in (2, 2, 3)]
    f = _random_form(rng, R, 3, 6)
    l = _random_form(rng, R, 1, 4)
    return R, gens, f, l


@pytest.mark.parametrize("p", [7, 32003])
def test_no_operation_mutates_an_input_polynomial(p):
    R, gens, f, l = _random_inputs(p)
    I = Ideal(R, gens)
    gb = I.groebner()
    inputs = gens + [f, l] + list(gb.polys)
    snapshot = [dict(g.pdict) for g in inputs]
    ctx = _kernel.Context(R.bound, R.field)
    for g in inputs:
        assert _kernel.to_packed(ctx, g) is not g.pdict
    gb.normal_form(f)
    gb.reduces_to_zero(f * l)
    reduce(f, gens)
    buchberger(Ideal(R, gens + [f]))
    minimal_resolution(Ideal(R, gens))
    membership_exponent(I, l, f, 4)
    substitute_variable(I, 3, l)
    substitute_variable(Ideal(R, [f]), 0, l)
    assert [g.pdict for g in inputs] == snapshot


@pytest.mark.parametrize("p", [7, 32003])
def test_results_store_coefficients_in_one_to_p(p):
    R, gens, f, l = _random_inputs(p)
    g = gens[0]
    S = PolyRing(("u",) + NAMES, R.field)
    results = [f + g, f - g, g - g, -f, f + (-f), f * l, l * l * l - l ** 3, (f - g) * (f + g),
               f ** 2, l ** 7, 3 * f + p * g, R.from_string(f"{f} + {p + 2}*x*y*z - 5*x^3"),
               transport(f, S, [1, 2, 3, 4]), transport(transport(f, S, [4, 3, 2, 1]), R,
                                                       [None, 3, 2, 1, 0])]
    results += substitute_variable(Ideal(R, gens + [f]), 2, l).gens
    for r in results:
        assert all(type(c) is int and 0 < c < p for c in r.pdict.values()), r
    assert (g - g).is_zero() and (f + (-f)).is_zero() and (l * l * l - l ** 3).is_zero()


@pytest.mark.parametrize("p", [7, 32003])
def test_equal_polynomials_by_different_routes_are_one_value(p):
    R, gens, f, l = _random_inputs(p)
    x, y, z, w = R.gens()
    g = gens[0]
    perm = _kernel.Context(PermutedGrevlex((2, 0, 3, 1)).bind(R.nvars), R.field)
    S = PolyRing(("u",) + NAMES, R.field)
    routes = [
        [f, R.poly(dict(f.terms)), R.from_string(str(f)), (f + g) - g, f * R.one, -(-f),
         sum((R.monomial(e, c) for e, c in reversed(f.terms)), R.zero),
         _kernel.from_packed(perm, _kernel.to_packed(perm, f), R),
         transport(transport(f, S, [1, 2, 3, 4]), R, [None, 0, 1, 2, 3])],
        [(x + y) ** 2, x * x + 2 * x * y + y * y, R.from_string("y^2 + x*y + x^2 + x*y"),
         (x + y) * (y + x)],
        [l ** 3, l * l * l, l * (l * l), substitute_variable(Ideal(R, [x ** 3]), 0, l).gens[0]],
        [R.zero, f - f, R.poly({(1, 0, 0, 0): p}), R.from_string("x - x")],
    ]
    for polys in routes:
        for q in polys[1:]:
            assert q == polys[0] and hash(q) == hash(polys[0]), (q, polys[0])
