"""Hilbert series, dimension, degree, and Hilbert functions.

The Hilbert series of A/I is read off the lead-term ideal of a Groebner
basis: HS(t) = N(t) / (1-t)^n with N the numerator computed by a pivot
recursion on the monomial generators (Bigatti, JPAA 119, 1997).  A
generator whose support meets no other generator's splits off a factor:
N(I) = (1 - t^deg g) N(rest).  Otherwise the pivot is x^e for the most
frequent variable x and its smallest positive exponent e.  Every generator
with x is divisible by x^e, so I + (x^e) is the generators without x plus
the coprime x^e, and N(I) = (1 - t^e) N(without x) + t^e N(I : x^e); only
I : x^e is minimalized.  The recursion runs on the basis's own lead words
(see ring.py): divisibility in the minimalization is a guarded subtraction,
a generator's support a guarded decrement, and the variable counts of the
pivot rule one sum of supports.  Field i of a word is the exponent of
some variable; which one does not matter, because N does not change when
the variables are renamed.  So the numerator needs no monomial order, and
any basis order gives it.  Each node's numerator is one int, its value at
t = 2**W: evaluation there is a ring map, so the recursion's products by
(1 - t^d) and t^e are exact shifts and subtractions.  Inclusion-exclusion,
N(I) = sum over subsets S of the generators of (-1)^|S| t^deg lcm(S),
bounds every coefficient by 2**g for g generators, so W = g + 2 for the
root's g keeps each coefficient inside its W-bit slot, and one
balanced-digit decode reads them off.  A node of at most LEAF generators is
that sum itself.  Dimension is the pole order at t = 1 and the degree
(multiplicity) is the value of the cancelled numerator there.

series_difference compares two Hilbert series exactly: their difference is
a polynomial exactly when the Hilbert polynomials agree, which for I_small
inside I_big means the quotient I_big/I_small has finite length.
finite_length reads the graded pieces of that quotient off the coefficients,
and saturate_irrelevant certifies a saturation with it.  nonzerodivisor
certifies I : f = I by one more series.  No truncation is involved anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

from .groebner import Ideal
from .ring import EXP_BITS, GREVLEX, minimal_words, word_lcm

# Nodes of at most this many generators are inclusion-exclusion leaves.  On
# the grid's numerators leaves of 4 and 5 tied, and 3 and 6 were 5-8% slower.
LEAF = 4


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _times_one_minus(a, d):
    """(1 - t^d) * a by one shifted subtraction."""
    out = list(a) + [0] * d
    for i, c in enumerate(a):
        out[i + d] -= c
    return _trim(out)


def monomial_numerator(lead_words, nvars):
    """Numerator of HS of A/(monomial ideal) over (1-t)^nvars, as coefficients.

    The generators' words may be in any order's layout: guards and degree
    are the same.  Every node of the recursion holds its numerator N as the
    one int N(2**W), with W = g + 2 for the g minimal generators at the root.
    Evaluation at t = 2**W is a ring map, so sums, differences and shifts of
    those ints are exact: (1 - t^d) N is N - (N << d W) and t^e N is N << e W.
    A node has at most g generators, since its children keep or drop them,
    and inclusion-exclusion writes its numerator as the sum over subsets S
    of its generators of (-1)^|S| t^deg lcm(S), so every coefficient lies
    within 2**g of 0, below 2**(W - 1); one balanced-digit decode at the
    root gives the coefficients.  A node of at most LEAF generators is that
    sum itself, over its subsets' lcm words, and is not split further.
    """
    bound = GREVLEX.bind(nvars)
    guards, degree = bound.guards, bound.degree
    ones = guards >> EXP_BITS - 1
    field = (1 << EXP_BITS) - 1
    shifts = range(0, EXP_BITS * nvars, EXP_BITS)
    # A field of a sum of supports counts the generators with that variable;
    # its bits 1 and up are set exactly when two generators share it.
    shared_bits = (field - 1) * ones & ~guards
    root = minimal_words(lead_words, guards)
    W = len(root) + 2

    def leaf(gens):
        """Inclusion-exclusion over the subsets of at most LEAF generators."""
        lcms = [(0, 1)]
        for g in gens:
            lcms += [(word_lcm(w, g, guards), -s) for w, s in lcms]
        return sum(s << degree(w) * W for w, s in lcms)

    def step(gens):
        """(rest, None, degrees) when generators of these degrees meet no
        other's support and split off their factors (1 - t^deg); else
        (the generators without x, gens : x^e, e) for the pivot x^e."""
        # Each support has the guard bit of each nonzero field: a guarded decrement.
        supports = [((g | guards) - ones) & guards for g in gens]
        counts = sum(supports) >> EXP_BITS - 1
        shared = (((counts & shared_bits) | guards) - ones) & guards
        rest = tuple(g for g, s in zip(gens, supports) if s & shared)
        if len(rest) < len(gens):
            return rest, None, [degree(g) for g, s in zip(gens, supports) if not s & shared]
        best = sh = 0
        for i in shifts:
            c = counts >> i & field
            if c > best:
                best, sh = c, i
        xg = guards & field << sh
        e = min(g >> sh & field for g, s in zip(gens, supports) if s & xg)
        plus = tuple(g for g, s in zip(gens, supports) if not s & xg)
        xe = e << sh
        colon = minimal_words([g - xe if s & xg else g for g, s in zip(gens, supports)], guards)
        return plus, colon, e

    # A tuple per generator set, ascending as ints, is the memo's key.
    memo = {}
    steps = {}
    stack = [root]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        if len(gens) <= LEAF:
            memo[gens] = leaf(gens)
            stack.pop()
            continue
        if gens not in steps:
            steps[gens] = step(gens)
            pending = [c for c in steps[gens][:2] if c is not None and c not in memo]
            if pending:
                stack.extend(pending)
                continue
        first, second, e = steps.pop(gens)
        val = memo[first]
        if second is None:
            for d in e:
                val -= val << d * W
        else:
            # N(I) = (1 - t^e) N(without x) + t^e N(I : x^e)
            val += (memo[second] - val) << e * W
        memo[gens] = val
        stack.pop()
    return _balanced_digits(memo[root], W)


def _balanced_digits(value, width):
    """The coefficients c_i, each of absolute value below 2**(width - 1), of
    value = sum c_i 2**(width i), lowest first, trailing zeros trimmed."""
    digits = []
    full = 1 << width
    half = full >> 1
    mask = full - 1
    while value:
        c = value & mask
        if c >= half:
            c -= full
        digits.append(c)
        value = (value - c) >> width
    return tuple(digits)


def _divide_by_one_minus_t(coeffs):
    """Exact quotient by (1-t), or None if not divisible."""
    run = 0
    out = []
    for c in coeffs:
        run += c
        out.append(run)
    if run != 0:
        return None
    return _trim(out[:-1])


class HilbertData(namedtuple("HilbertData", "numerator dimension degree nvars")):
    """Numerator coefficients of HS(A/I), Krull dimension, and multiplicity.

    dimension is -1 for the unit ideal (empty scheme).  degree is the
    normalized leading coefficient: for dimension 0 it is the length of A/I.
    """

    __slots__ = ()


def hilbert_series(ideal):
    """HilbertData of A/I, cached on the ideal.

    The numerator needs no particular order, so it is read off a basis the
    ideal holds in a degree order: grevlex if held, else the first permuted
    grevlex it received, as a variable colon hands it over.  Only an ideal
    that holds neither has its grevlex basis computed.
    """
    cached = ideal._cache.get("hilbert")
    if cached is not None:
        return cached
    gb = ideal._held_basis()
    num = monomial_numerator(gb.lead_words(), ideal.ring.nvars)
    data = _analyze(num, ideal.ring.nvars)
    ideal._cache["hilbert"] = data
    return data


def _analyze(num, nvars):
    if not num:
        return HilbertData(num, -1, 0, nvars)
    reduced = num
    cancelled = 0
    while cancelled < nvars:
        q = _divide_by_one_minus_t(reduced)
        if q is None:
            break
        reduced = q
        cancelled += 1
    dim = nvars - cancelled
    deg = sum(reduced)
    return HilbertData(num, dim, deg, nvars)


def dim_deg(ideal):
    """(Krull dimension of A/I, degree); dimension -1 flags the unit ideal."""
    data = hilbert_series(ideal)
    return data.dimension, data.degree


def hilbert_function(ideal, mu):
    """dim_k (A/I)_mu, exactly, via the numerator."""
    return hilbert_function_values(ideal, mu)[mu] if mu >= 0 else 0


def hilbert_function_values(ideal, top):
    """[dim_k (A/I)_d for d = 0, ..., top] from one expansion of the series:
    the numerator cut at degree top, times 1/(1-t) once per variable, each
    a running sum."""
    data = hilbert_series(ideal)
    values = list(data.numerator[:top + 1])
    values += [0] * (top + 1 - len(values))
    for _ in range(data.nvars):
        values = list(accumulate(values))
    return values


def nonzerodivisor(ideal, f):
    """Whether the homogeneous form f is a nonzerodivisor on A/I, I homogeneous.

    The exact sequence 0 -> ((I : f)/I)(-d) -> (A/I)(-d) -> A/I -> A/(I + f)
    -> 0, with d = deg f and multiplication by f in the middle, shows that
    HS(A/(I + f)) = (1 - t^d) HS(A/I) exactly when I : f = I.  The two
    series share the denominator (1-t)^n, so the numerators are compared.
    """
    if f.ring != ideal.ring or f.is_zero() or not f.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous form of the ideal's ring")
    if not ideal.is_homogeneous():
        raise ValueError("the Hilbert-series certificate needs a homogeneous ideal")
    num = hilbert_series(ideal).numerator
    shifted = _times_one_minus(num, f.degree())
    return hilbert_series(Ideal(ideal.ring, ideal.gens + (f,))).numerator == shifted


def indeg(ideal):
    """Smallest degree of a nonzero element; +inf for the zero ideal."""
    gb = ideal.groebner()
    if not gb.polys:
        return math.inf
    return min(g.degree() for g in gb.polys)


class FiniteLengthData(namedtuple("FiniteLengthData", "length top_degree coefficients")):
    """Length of I_big/I_small, its top degree (-inf for the zero quotient)
    and its graded dimensions by degree."""

    __slots__ = ()


def series_difference(data_a, data_b):
    """HS_a - HS_b of two HilbertData as coefficients when it is a
    polynomial, else None.

    The difference is (N_a - N_b) / (1-t)^n for the numerators N; it is a
    polynomial exactly when the two Hilbert polynomials agree.
    """
    diff = _trim(_poly_add(data_a.numerator, tuple(-c for c in data_b.numerator)))
    for _ in range(data_a.nvars):
        if not diff:
            break
        diff = _divide_by_one_minus_t(diff)
        if diff is None:
            return None
    return diff


def finite_length(ideal_small, ideal_big):
    """Length data of I_big/I_small when it is finite; error otherwise.

    Requires I_small contained in I_big (checked on generators).  The graded
    dimensions are the coefficients of HS(A/I_small) - HS(A/I_big), which must
    be a polynomial; if it is not, the quotient has infinite length and a
    ValueError is raised.
    """
    if ideal_small.ring != ideal_big.ring:
        raise ValueError("ideals from different rings")
    if not ideal_big.contains_ideal(ideal_small):
        raise ValueError("finite_length requires I_small contained in I_big")
    coeffs = series_difference(hilbert_series(ideal_small), hilbert_series(ideal_big))
    if coeffs is None:
        raise ValueError("quotient is not finite length")
    if any(c < 0 for c in coeffs):
        raise ValueError("series difference has negative coefficients; containment is not proper")
    if not coeffs:
        return FiniteLengthData(0, -math.inf, ())
    return FiniteLengthData(sum(coeffs), len(coeffs) - 1, coeffs)
