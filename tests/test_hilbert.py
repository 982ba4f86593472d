"""Hilbert series, dimension, multiplicity, finite-length quotients."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from cmreg.families import build_family
from cmreg.groebner import Ideal
from cmreg.hilbert import (dim_deg, finite_length, hilbert_function,
                           hilbert_series, indeg, monomial_numerator)
from cmreg.ring import (EXP_BITS, GREVLEX, Block, PermutedGrevlex, PolyRing, PrimeField, QQ,
                        minimal_words)
from cmreg.verify import PRIMED_GRID, UNPRIMED_GRID
from oracles import word_support


@pytest.fixture(scope="module")
def ring4():
    return PolyRing(("x", "y", "z", "w"), PrimeField(32003))


def test_twisted_cubic_series(ring4):
    x, y, z, w = ring4.gens()
    I = Ideal(ring4, [x * z - y * y, x * w - y * z, y * w - z * z])
    data = hilbert_series(I)
    assert data.numerator == (1, 0, -3, 2)
    assert (data.dimension, data.degree) == (2, 3)
    assert [hilbert_function(I, d) for d in range(5)] == [1, 4, 7, 10, 13]


def test_complete_intersection_numerator(ring4):
    x, y, z, w = ring4.gens()
    I = Ideal(ring4, [x ** 2 - y * w, z ** 3])
    # CI of degrees 2, 3: numerator (1-t^2)(1-t^3)
    assert hilbert_series(I).numerator == (1, 0, -1, -1, 0, 1)
    dim, deg = dim_deg(I)
    assert (dim, deg) == (2, 6)


def test_unit_and_zero_edges(ring4):
    assert dim_deg(Ideal(ring4, [ring4.const(1)])) == (-1, 0)
    Z = Ideal(ring4, [])
    assert dim_deg(Z) == (4, 1)
    assert indeg(Z) == math.inf
    assert indeg(Ideal(ring4, [ring4.gen(0) ** 3 - ring4.gen(1) ** 3])) == 3


def test_hilbert_function_against_monomial_counting():
    rng = random.Random(987654)
    R = PolyRing(("x", "y", "z"), QQ)

    def count_standard_monomials(lead_exps, d):
        total = 0
        for e in itertools.product(range(d + 1), repeat=3):
            if sum(e) != d:
                continue
            if not any(all(e[i] >= g[i] for i in range(3)) for g in lead_exps):
                total += 1
        return total

    for _ in range(25):
        gens = []
        for _ in range(rng.randrange(1, 7)):
            e = tuple(rng.randrange(0, 5) for _ in range(3))
            if sum(e) == 0:
                continue
            gens.append(R.monomial(e))
        if not gens:
            continue
        I = Ideal(R, gens)
        exps = [g.terms[0][0] for g in gens]
        for d in range(7):
            assert hilbert_function(I, d) == count_standard_monomials(exps, d)


def test_monomial_numerator_coprime_shortcut():
    # pairwise-coprime monomials: numerator is the product of (1 - t^deg)
    bound = GREVLEX.bind(3)
    words = [bound.word(bound.pack(e)) for e in [(2, 0, 0), (0, 3, 0)]]
    assert monomial_numerator(words, 3) == (1, 0, -1, -1, 0, 1)


@pytest.mark.parametrize("which", ["twisted-cubic", "aci22"])
def test_numerator_does_not_depend_on_the_basis_order(ring4, which):
    # Each order lays its words out differently and has its own initial
    # ideal, but every initial ideal has the Hilbert series of A/I.
    if which == "twisted-cubic":
        x, y, z, w = ring4.gens()
        I = Ideal(ring4, [x * z - y * y, x * w - y * z, y * w - z * z])
    else:
        I = build_family(2, 2).almost_complete_intersection
    n = I.ring.nvars
    want = hilbert_series(I).numerator
    initial = set()
    for order in (GREVLEX, PermutedGrevlex(reversed(range(n))), Block(1)):
        gb = I.groebner(order)
        assert monomial_numerator(gb.lead_words(), n) == want, order
        initial.add(frozenset(gb.leading_exps()))
    assert len(initial) > 1


def test_dim_deg_random_monomial_ideals_vs_growth():
    # sanity: dimension from the series matches saturation of the function's
    # polynomial growth, probed by exact differencing at large degrees
    rng = random.Random(4242)
    R = PolyRing(("x", "y", "z", "w"), QQ)
    for _ in range(10):
        gens = []
        for _ in range(rng.randrange(1, 5)):
            e = tuple(rng.randrange(0, 4) for _ in range(4))
            if sum(e) == 0:
                continue
            gens.append(R.monomial(e))
        if not gens:
            continue
        I = Ideal(R, gens)
        dim, deg = dim_deg(I)
        vals = [hilbert_function(I, d) for d in range(20, 26)]
        # difference dim-1 times: should land on the constant deg/(dim-1)! * ...
        diffs = vals
        for _ in range(max(dim - 1, 0)):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if dim <= 0:
            assert all(v == 0 for v in vals)
        else:
            assert len(set(diffs)) == 1, "hilbert polynomial degree mismatch"
            assert diffs[0] == deg


def test_finite_length_basic():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    small = Ideal(R, [x * x, x * y])
    big = Ideal(R, [x])
    data = finite_length(small, big)
    # (x)/(x^2, xy): spanned by x alone, in degree 1
    assert data.length == 1
    assert data.top_degree == 1
    assert data.coefficients == (0, 1)


def test_finite_length_zero_quotient():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    I = Ideal(R, [x])
    data = finite_length(I, Ideal(R, [x]))
    assert data.length == 0
    assert data.top_degree == -math.inf


def test_finite_length_rejects_infinite():
    R = PolyRing(("x", "y", "z"), QQ)
    x, y, z = R.gens()
    small = Ideal(R, [x * y])
    big = Ideal(R, [x])
    with pytest.raises(ValueError):
        finite_length(small, big)


def test_finite_length_requires_containment():
    R = PolyRing(("x", "y"), QQ)
    x, y = R.gens()
    with pytest.raises(ValueError):
        finite_length(Ideal(R, [x]), Ideal(R, [y]))


def test_series_cache_reused(ring4):
    x, y, z, w = ring4.gens()
    I = Ideal(ring4, [x * z - y * y])
    d1 = hilbert_series(I)
    d2 = hilbert_series(I)
    assert d1 is d2


# The oracle: the numerator recursion that splits on a variable x, with
# I + (x) and I : x as children, and multiplies out pairwise-coprime
# generators.
def _oracle_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _oracle_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _oracle_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _oracle_pairwise_coprime(gens, guards):
    seen = 0
    for g in gens:
        s = word_support(g, guards)
        if s & seen:
            return False
        seen |= s
    return True


def _oracle_split(gens, bound):
    guards = bound.guards
    supports = [word_support(g, guards) for g in gens]
    counts = sum(supports)
    piv = max(range(bound.n), key=lambda i: ((counts >> EXP_BITS * i) % (1 << EXP_BITS), -i))
    xg = 1 << EXP_BITS * piv
    plus = minimal_words([xg] + [g for g, s in zip(gens, supports) if not s & xg], guards)
    colon = minimal_words([g - xg if s & xg else g for g, s in zip(gens, supports)], guards)
    return plus, colon


def _oracle_numerator(lead_words, nvars):
    bound = GREVLEX.bind(nvars)
    root = minimal_words(lead_words, bound.guards)
    memo = {}
    stack = [root]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        if not gens:
            memo[gens] = (1,)
            stack.pop()
            continue
        if _oracle_pairwise_coprime(gens, bound.guards):
            val = (1,)
            for g in gens:
                d = bound.degree(g)
                val = _oracle_mul(val, (1,) + (0,) * (d - 1) + (-1,)) if d else (0,)
            memo[gens] = _oracle_trim(val) if val != (0,) else ()
            stack.pop()
            continue
        plus, colon = _oracle_split(gens, bound)
        pending = [c for c in (plus, colon) if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[gens] = _oracle_trim(_oracle_add(memo[plus], (0,) + memo[colon]))
        stack.pop()
    return memo[root]


def _words(n, exps):
    bound = GREVLEX.bind(n)
    return [bound.word(bound.pack(e)) for e in exps]


def _check_random_ideals_against_the_oracle(gens):
    """300 seeded ideals of 0 to 30 generators when gens is None, else 100
    of exactly gens minimal generators."""
    rng = random.Random(20261019)
    checked = 0
    while checked < (300 if gens is None else 100):
        n = rng.randint(1, 7)
        top = rng.choice((2, 5, 40))
        exps = [tuple(rng.randint(1, top) if rng.random() < 0.5 else 0 for _ in range(n))
                for _ in range(rng.randint(0, 30) if gens is None else gens)]
        words = _words(n, exps)
        if gens is not None and len(minimal_words(words, GREVLEX.bind(n).guards)) != gens:
            continue
        assert monomial_numerator(words, n) == _oracle_numerator(words, n), (n, exps)
        checked += 1


def test_numerator_matches_the_variable_split_oracle_on_random_ideals():
    _check_random_ideals_against_the_oracle(None)


# 4 and 5 minimal generators sit on either side of the largest
# inclusion-exclusion leaf.
@pytest.mark.parametrize("gens", [4, 5])
def test_numerator_matches_the_oracle_at_the_leaf_size(gens):
    _check_random_ideals_against_the_oracle(gens)


def _maximal_ideal_power(n, d):
    """The exponents of the minimal generators of m^d in n variables."""
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def _maximal_ideal_power_numerator(n, d):
    """(1 - t)^n sum_{k < d} C(k + n - 1, n - 1) t^k: A/m^d has the monomials below degree d."""
    out = [0] * (d + n)
    for k in range(d):
        for j in range(n + 1):
            out[k + j] += (-1) ** j * math.comb(n, j) * math.comb(k + n - 1, n - 1)
    return _oracle_trim(out)


@pytest.mark.parametrize("n, exps, want", [
    (3, [], (1,)),  # the zero ideal
    (3, [(0, 0, 0)], ()),  # the unit ideal
    (3, [(0, 0, 0), (1, 2, 0)], ()),
    (2, [(1, 1), (1, 1), (2, 1)], (1, 0, -1)),  # duplicate and non-minimal words
    (3, [(4, 0, 0), (0, 2, 0), (0, 0, 7)], None),  # pure powers
    (3, [(3, 0, 0), (5, 0, 0), (0, 0, 1)], (1, -1, 0, -1, 1)),
    (1, [(40,)], (1,) + (0,) * 39 + (-1,)),
    (4, [(2, 3, 0, 0), (0, 3, 1, 0), (1, 0, 0, 5), (0, 0, 2, 2)], None),
    # m^d with 78, 84 and 71 generators: each coefficient's slot is wider than 64 bits.
    (3, _maximal_ideal_power(3, 11), _maximal_ideal_power_numerator(3, 11)),
    (4, _maximal_ideal_power(4, 6), _maximal_ideal_power_numerator(4, 6)),
    (2, _maximal_ideal_power(2, 70), _maximal_ideal_power_numerator(2, 70)),
])
def test_numerator_edge_cases_match_the_oracle(n, exps, want):
    words = _words(n, exps)
    got = monomial_numerator(words, n)
    assert got == _oracle_numerator(words, n)
    if want is not None:
        assert got == want


@pytest.mark.parametrize("char", [32003, 0])
def test_numerator_matches_the_oracle_on_the_grid_lead_words(char):
    for primed, grid in ((False, UNPRIMED_GRID), (True, PRIMED_GRID)):
        for m, n in grid:
            inst = build_family(m, n, primed, char)
            for ideal in (inst.curve, inst.complete_intersection, inst.residual,
                          inst.almost_complete_intersection):
                words = ideal.groebner().lead_words()
                nv = ideal.ring.nvars
                assert monomial_numerator(words, nv) == _oracle_numerator(words, nv)
