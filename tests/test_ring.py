"""Polynomial ring layer: fields, monomial orders, arithmetic, parsing."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cmreg import ring
from cmreg.cli import parse_ideal_file
from cmreg.ring import (GREVLEX, MAX_EXP, Block, PermutedGrevlex, PolyRing, PrimeField, QQ,
                        field_of_characteristic, grevlex_keys_of_degree, minimal_words,
                        transport, word_lcm)
from oracles import word_support


def test_prime_field_basics():
    F = PrimeField(32003)
    assert F(32003) == 0
    assert F(-1) == 32002
    assert F.mul(F(2), F(16002)) == F(1)
    assert F.inv(F(7)) * 7 % 32003 == 1
    with pytest.raises(ValueError):
        PrimeField(32004)  # not prime
    with pytest.raises(ValueError):
        PrimeField(2)  # even


def test_rational_field():
    assert QQ(Fraction(1, 2)) + 0 == Fraction(1, 2)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert field_of_characteristic(0) is QQ


def test_rational_field_keeps_integral_values_ints(check_rational_form):
    half = Fraction(1, 2)
    assert QQ.inv(2) == half and type(QQ.inv(2)) is Fraction
    for got, want in [(QQ.inv(-1), -1), (QQ.inv(1), 1), (QQ(Fraction(4, 2)), 2),
                      (QQ.inv(Fraction(-1, 3)), -3), (QQ.add(half, half), 1),
                      (QQ.sub(half, -half), 1), (QQ.mul(Fraction(4, 3), Fraction(3, 2)), 2),
                      (QQ.neg(2), -2)]:
        assert type(got) is int and got == want
    R = PolyRing(("x", "y"), QQ)
    x = R.gen(0)
    f = R.from_string("4/2*x - 1/2*y")
    c = f.pdict[R.bound.pack((1, 0))]
    assert type(c) is int and c == 2
    assert check_rational_form(f.pdict.values()) == 1
    g = R.from_string("1/2*x")
    for h in (g + g, 2 * g, (x - g) * 2, g * g * 4):
        assert check_rational_form(h.pdict.values()) == 0
    assert str(2 * g) == "x" and str(f) == "2*x - 1/2*y"


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("value, build", [
    (0.5, lambda R, c: R.field(c)),
    (0.5, lambda R, c: R.const(c)),
    (2.5, lambda R, c: R.monomial((1, 0), c)),
    (0.1, lambda R, c: R.poly({(1, 0): 1, (0, 1): c})),
    ("%d", lambda R, c: R.monomial((1, 0), c)),
    ("1/2", lambda R, c: R.const(c)),
], ids=["field", "const", "monomial", "poly", "format-str", "str"])
def test_coefficients_that_are_not_rationals_rejected(char, value, build):
    R = PolyRing(("x", "y"), field_of_characteristic(char))
    kind = type(value).__name__
    with pytest.raises(ValueError, match=re.escape(f"coefficient {value!r} is a {kind}, not")):
        build(R, value)
    assert R.gen(0) != value and R.zero != value


def test_grevlex_degree_two_chain(ring3):
    x, y, z = ring3.gens()
    chain = [x * x, x * y, y * y, x * z, y * z, z * z]
    keys = [ring3.bound.pack(p.lm()) for p in chain]
    assert keys == sorted(keys, reverse=True), "grevlex deg-2 chain out of order"


def test_grevlex_vs_lex_disagree():
    R = PolyRing(("x", "y", "z"), QQ)
    lex = Block(3).bind(3)  # a block of every variable is pure lex
    # x^2 vs x*y^5: grevlex ranks by degree first, lex by the x exponent
    a, b = (2, 0, 0), (1, 5, 0)
    assert R.bound.pack(a) < R.bound.pack(b)
    assert lex.pack(a) > lex.pack(b)


def test_block_order_eliminates_first_block():
    pack = Block(2).bind(4).pack
    # lex on (s, t): any positive s-exponent dominates, whatever the tail
    assert pack((1, 0, 9, 0)) > pack((0, 3, 1, 0))
    assert pack((0, 1, 0, 0)) > pack((0, 0, 9, 9))
    # block-free monomials compare by grevlex on the tail
    assert pack((0, 0, 2, 0)) > pack((0, 0, 1, 1))


def test_order_multiplicativity_randomized():
    rng = random.Random(20260822)
    R = PolyRing(("a", "b", "c", "d"), QQ)
    pack = R.bound.pack
    for _ in range(1000):
        u = tuple(rng.randrange(0, 12) for _ in range(4))
        v = tuple(rng.randrange(0, 12) for _ in range(4))
        w = tuple(rng.randrange(0, 12) for _ in range(4))
        if pack(u) == pack(v):
            continue
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert (pack(u) > pack(v)) == (pack(uw) > pack(vw))
        # grevlex refines total degree
        if sum(u) != sum(v):
            assert (sum(u) > sum(v)) == (pack(u) > pack(v))


def test_pack_unpack_roundtrip_randomized():
    rng = random.Random(7)
    for order in (GREVLEX, Block(3), Block(1)):
        bound = order.bind(3)
        for _ in range(300):
            e = tuple(rng.randrange(0, 50) for _ in range(3))
            assert bound.unpack(bound.pack(e)) == e


def _random_exps(rng, n):
    """Exponents within the cap: small with zeros, one field at MAX_EXP, or
    a total degree of exactly MAX_EXP."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(rng.choice((0, 0, 1, rng.randrange(2, 40))) for _ in range(n))
    if kind == 1:
        e = [0] * n
        e[rng.randrange(n)] = MAX_EXP
        return tuple(e)
    cuts = sorted(rng.randrange(MAX_EXP + 1) for _ in range(n - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (MAX_EXP,)))


WORD_ORDERS = [GREVLEX, Block(2), Block(3), Block(4), PermutedGrevlex((2, 0, 3, 1))]


@pytest.mark.parametrize("order", WORD_ORDERS, ids=repr)
def test_exponent_words_match_tuple_arithmetic(order):
    n = 4
    bound = order.bind(n)
    word, key, guards = bound.word, bound.key, bound.guards
    rng = random.Random(20261018)
    divisible = 0
    for _ in range(400):
        a = _random_exps(rng, n)
        if rng.randrange(2):
            b = tuple(rng.randrange(x + 1) for x in a)  # a divisor of a
        else:
            b = _random_exps(rng, n)
        ka, kb = bound.pack(a), bound.pack(b)
        wa, wb = word(ka), word(kb)
        assert key(wa) == ka and key(wb) == kb
        assert bound.degree(wa) == sum(a) and bound.degree(wb) == sum(b)
        divides = all(x <= y for x, y in zip(b, a))
        assert (not (wa - wb) & guards) == divides, (a, b)
        divisible += divides
        sa, sb = word_support(wa, guards), word_support(wb, guards)
        assert bound.degree(sa) == sum(1 for x in a if x)
        assert (not sa & sb) == (not any(x and y for x, y in zip(a, b)))
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        assert key(word_lcm(wa, wb, guards)) == bound.raw(lcm), (a, b)
        assert key(word_lcm(wb, wa, guards)) == bound.raw(lcm), (a, b)
    assert 0 < divisible < 400


def _degree_sorted_minimal(words, bound):
    """The chain criterion's minimal lcm classes by a degree sort, as Buchberger
    once kept them: a proper divisor has a lower degree."""
    kept = []
    for gam in sorted(words, key=bound.degree):
        if any(not (gam - k) & bound.guards for k in kept):
            continue
        kept.append(gam)
    return kept


@pytest.mark.parametrize("n", range(3, 8))
def test_a_divisor_is_the_smaller_word(n):
    rng = random.Random(20261019 + n)
    orders = [GREVLEX, Block(1), Block(n), PermutedGrevlex(rng.sample(range(n), n))]
    for order in orders:
        bound = order.bind(n)
        word, guards = bound.word, bound.guards

        def small():
            return tuple(rng.choice((0, 0, 1, 2, rng.randrange(3, 9))) for _ in range(n))

        for _ in range(300):
            a, b = small(), small()
            ab = tuple(x + y for x, y in zip(a, b))
            assert word(bound.pack(a)) <= word(bound.pack(ab)), (order, a, b)
        for _ in range(60):
            f = word(bound.pack(small()))
            lcms = {word_lcm(word(bound.pack(small())), f, guards)
                    for _ in range(rng.randrange(1, 30))}
            got = minimal_words(lcms, guards)
            assert list(got) == sorted(got)
            assert set(got) == set(_degree_sorted_minimal(lcms, bound)), order
            assert minimal_words(list(lcms) * 2, guards) == got


def test_exponent_overflow_rejected(ring3):
    x = ring3.gen(0)
    with pytest.raises(OverflowError):
        x ** (2 ** 20)


@pytest.mark.parametrize("build", [lambda R: R.monomial((1, 2)),
                                   lambda R: R.poly({(1, 2, 0, 5): 3})],
                         ids=["short-monomial", "long-poly-key"])
def test_exponent_tuple_of_the_wrong_length_rejected(ring3, build):
    with pytest.raises(ValueError, match=r"entries for 3 variables"):
        build(ring3)


def test_arithmetic_identities(ring3):
    x, y, z = ring3.gens()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - y) * (x + y) == x * x - y * y
    f = 3 * x * y - z ** 3
    assert f - f == ring3.zero
    assert f * ring3.const(1) == f
    assert (f * 0).is_zero()
    assert f.degree() == 3
    assert ring3.zero.degree() == -1


def test_homogeneity_flag(ring3):
    x, y, z = ring3.gens()
    assert (x * y - z * z).is_homogeneous()
    assert not (x * y - z).is_homogeneous()
    assert ring3.zero.is_homogeneous()


def test_parser_roundtrip(ring3):
    cases = ["x^2*y - 3*z^3", "x - y", "2*x*y*z", "x^5", "7"]
    for s in cases:
        f = ring3.from_string(s)
        assert ring3.from_string(str(f)) == f


@pytest.mark.parametrize("char", [32003, 0])
def test_parser_roundtrip_of_random_polynomials(char):
    """from_string(str(f)) == f on seeded random polynomials in up to 4
    variables, exponents up to 40, coefficients over all residues or fractions."""
    rng = random.Random(char)
    F = field_of_characteristic(char)
    for nvars in range(1, 5):
        R = PolyRing(("x", "y", "X0", "X1")[:nvars], F)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = tuple(rng.randint(0, 40) for _ in range(nvars))
                terms[e] = (rng.randrange(char) if char else
                            Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)))
            f = R.poly(terms)
            assert R.from_string(str(f)) == f


# The ideal-file grammar on a ring whose names run together (X0X1).
GRAMMAR_NAMES = ("x", "y", "X0", "X1")
# (text, the polynomial it denotes as a function of the generators x, y, X0, X1)
GRAMMAR_ACCEPTED = [
    ("2x", lambda x, y, X0, X1: 2 * x),
    ("2 3 x", lambda x, y, X0, X1: 6 * x),
    ("X0X1^2", lambda x, y, X0, X1: X0 * X1 ** 2),
    ("x ^ 2", lambda x, y, X0, X1: x ** 2),
    ("- -x", lambda x, y, X0, X1: x),
    ("1/2*x", lambda x, y, X0, X1: Fraction(1, 2) * x),
    ("x - 1/2*y", lambda x, y, X0, X1: x - Fraction(1, 2) * y),
    ("  x*y - 3", lambda x, y, X0, X1: x * y - 3),
    ("x ", lambda x, y, X0, X1: x),
    ("x - y ", lambda x, y, X0, X1: x - y),
    ("x\t", lambda x, y, X0, X1: x),
]
# (text, the term its error names)
GRAMMAR_BAD_TERMS = [("x^", "x^"), ("1/", "1/"), ("1/2/3", "1/2/3"), ("y^13/2", "y^13/2"),
                     ("(x)", "(x)"), ("x.y", "x.y"), ("x^-1", "x^")]
# (text, its own error message)
GRAMMAR_REJECTED = [("", "empty polynomial text"), ("x +", "dangling sign"),
                    ("x + w", "unknown variable in 'w'")]


@pytest.mark.parametrize("char", [32003, 0])
@pytest.mark.parametrize("text,poly", GRAMMAR_ACCEPTED, ids=[repr(t) for t, _ in GRAMMAR_ACCEPTED])
def test_grammar_accepts(text, poly, char):
    R = PolyRing(GRAMMAR_NAMES, field_of_characteristic(char))
    assert R.from_string(text) == poly(*R.gens())


@pytest.mark.parametrize("text,term", GRAMMAR_BAD_TERMS, ids=[t for t, _ in GRAMMAR_BAD_TERMS])
def test_grammar_names_the_bad_term(text, term):
    R = PolyRing(GRAMMAR_NAMES, QQ)
    with pytest.raises(ValueError, match=re.escape(f"cannot parse term {term!r}")):
        R.from_string(text)


@pytest.mark.parametrize("text,message", GRAMMAR_REJECTED, ids=["empty", "dangling", "unknown"])
def test_grammar_rejects(text, message):
    R = PolyRing(GRAMMAR_NAMES, QQ)
    with pytest.raises(ValueError, match=re.escape(message)):
        R.from_string(text)


def test_parser_adjacent_names():
    R = PolyRing(("X0", "X1", "X2"), QQ)
    f = R.from_string("X0X1 + X2^2")
    g = R.gen(0) * R.gen(1) + R.gen(2) ** 2
    assert f == g


def test_parser_fraction_coefficients():
    R = PolyRing(("x", "y"), QQ)
    f = R.from_string("1/2*x^2 - 3/4*y")
    assert f.coeff((2, 0)) == Fraction(1, 2)
    assert f.coeff((0, 1)) == Fraction(-3, 4)


def test_parsing_integral_coefficients_constructs_no_fraction(monkeypatch):
    # A term's sign starts as an int, and only a factor with a denominator
    # makes a Fraction; aci_3_2p.txt has 9 terms, all integral, and so do the
    # integer factors below, on both fields.
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    text = (Path(__file__).resolve().parents[1] / "cmbench" / "inputs" / "aci_3_2p.txt").read_text()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    ideal = parse_ideal_file(text)
    polys = [PolyRing(("x", "y"), field_of_characteristic(char)).from_string("2*x - 3 4 y + 5")
             for char in (32003, 0)]
    assert made == []
    assert ideal.ring.field == PrimeField(32003)
    assert sum(len(g.pdict) for g in ideal.gens) == 9
    polys += ideal.gens
    assert all(type(c) is int for g in polys for c in g.pdict.values())
    assert sorted(polys[1].pdict.values()) == [-12, 2, 5]


def test_symmetric_residue_printing(ring3):
    x, y, _ = ring3.gens()
    assert str(x - y) == "x - y"
    assert str(x + y) == "x + y"
    f = ring3.from_string("x^4 - 3*y^4")
    assert str(f) == "x^4 - 3*y^4"


def test_transport_between_rings():
    R = PolyRing(("s", "t", "u"), QQ)
    S = PolyRing(("a", "b"), QQ)
    f = R.gen(1) ** 2 - R.gen(2)   # t^2 - u
    g = transport(f, S, [None, 0, 1])
    assert g == S.gen(0) ** 2 - S.gen(1)
    with pytest.raises(ValueError):
        transport(R.gen(0), S, [None, 0, 1])  # s has no image


def test_ring_equality_and_order_cache():
    R1 = PolyRing(("x", "y"), QQ)
    R2 = PolyRing(("x", "y"), QQ)
    assert R1 == R2 and hash(R1) == hash(R2)
    assert R1.bound is R2.bound  # one bound grevlex per variable count
    assert R1 != PolyRing(("x", "y"), PrimeField(32003))
    assert R1 != PolyRing(("y", "x"), QQ)


@pytest.mark.parametrize("first", ["grevlex", "identity"])
def test_identity_permutation_is_grevlex(first, monkeypatch):
    from cmreg.idealops import _variable_last

    monkeypatch.setattr(ring, "_BOUND_CACHE", {})
    n = 4
    ident = PermutedGrevlex(range(n))
    assert repr(ident) == "permuted-grevlex(0,1,2,3)" and ident != GREVLEX
    order_a, order_b = (GREVLEX, ident) if first == "grevlex" else (ident, GREVLEX)
    bound_a, bound_b = order_a.bind(n), order_b.bind(n)
    assert bound_a is not bound_b and bound_a.guards == bound_b.guards
    rng = random.Random(7)
    for _ in range(50):
        e = tuple(rng.randrange(0, 6) for _ in range(n))
        assert ident.bind(n).pack(e) == GREVLEX.bind(n).pack(e)
        assert ident.bind(n).unpack(GREVLEX.bind(n).pack(e)) == e
    for m in range(1, 6):
        assert _variable_last(m, m - 1) is GREVLEX
        for i in range(m - 1):
            order = _variable_last(m, i)
            assert order != GREVLEX and order.perm[-1] == i


def _exponent_tuples(n, d):
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1) for rest in _exponent_tuples(n - 1, d - a)]


@pytest.mark.parametrize("n", range(1, 8))
def test_degree_d_keys_are_the_packed_monomials_descending(n):
    bound = GREVLEX.bind(n)
    for d in range(13):
        keys = grevlex_keys_of_degree(n, d)
        assert keys == sorted(map(bound.pack, _exponent_tuples(n, d)), reverse=True)
        assert len(keys) == math.comb(d + n - 1, n - 1)
