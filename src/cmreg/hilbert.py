"""Hilbert series, dimension, degree, and Hilbert functions.

The Hilbert series of A/I is read off the lead-term ideal of a Groebner
basis: HS(t) = N(t) / (1-t)^n with N the numerator computed by a pivot
recursion on the monomial generators (split on the most frequent variable).
The recursion runs on exponent words (see ring.py), packed once from the
lead exponents: divisibility in the minimalization is a guarded subtraction,
a generator's support a guarded decrement, and the variable counts of the
pivot rule one sum of supports (Bigatti, JPAA 119, 1997).
Dimension is the pole order at t = 1 and the degree (multiplicity) is the
value of the cancelled numerator there.

series_difference compares two Hilbert series exactly: their difference is
a polynomial exactly when the Hilbert polynomials agree, which for I_small
inside I_big means the quotient I_big/I_small has finite length.
finite_length reads the graded pieces of that quotient off the coefficients,
and saturate_irrelevant certifies a saturation with it.  nonzerodivisor
certifies I : f = I by one more series.  No truncation is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groebner import Ideal
from .ring import LEX, word_support


def _minimalize(gens, bound):
    """Minimal generating words: drop anything a kept one divides."""
    guards = bound.guards
    kept = []
    # By degree, ties by word: one tuple per generator set, for the memo.
    for g in sorted(sorted(set(gens)), key=bound.degree):
        for h in kept:
            if not (g - h) & guards:
                break
        else:
            kept.append(g)
    return tuple(kept)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_shift(a, k):
    return (0,) * k + tuple(a)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pairwise_coprime(gens, guards):
    seen = 0
    for g in gens:
        s = word_support(g, guards)
        if s & seen:
            return False
        seen |= s
    return True


def _split(gens, bound):
    """Children of the pivot recursion: (gens + (x), gens : x)."""
    supports = [word_support(g, bound.guards) for g in gens]
    counts = bound.unpack(sum(supports))
    piv = max(range(bound.n), key=lambda i: (counts[i], -i))
    xg = bound.raw(tuple(int(i == piv) for i in range(bound.n)))
    plus = _minimalize([xg] + [g for g, s in zip(gens, supports) if not s & xg], bound)
    colon = _minimalize([g - xg if s & xg else g for g, s in zip(gens, supports)], bound)
    return plus, colon


def monomial_numerator(lead_exps, nvars):
    """Numerator of HS of A/(monomial ideal) over (1-t)^nvars, as coefficients."""
    bound = LEX.bind(nvars)
    root = _minimalize([bound.pack(e) for e in lead_exps], bound)
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
        if _pairwise_coprime(gens, bound.guards):
            val = (1,)
            for g in gens:
                d = bound.degree(g)
                val = _poly_mul(val, (1,) + (0,) * (d - 1) + (-1,)) if d else (0,)
            memo[gens] = _trim(val) if val != (0,) else ()
            stack.pop()
            continue
        plus, colon = _split(gens, bound)
        pending = [c for c in (plus, colon) if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[gens] = _trim(_poly_add(memo[plus], _poly_shift(memo[colon], 1)))
        stack.pop()
    return memo[root]


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


@dataclass(frozen=True)
class HilbertData:
    """Numerator coefficients of HS(A/I), Krull dimension, and multiplicity.

    dimension is -1 for the unit ideal (empty scheme).  degree is the
    normalized leading coefficient: for dimension 0 it is the length of A/I.
    """

    numerator: tuple
    dimension: int
    degree: int
    nvars: int


def hilbert_series(ideal):
    """HilbertData of A/I, cached on the ideal."""
    cached = ideal._cache.get("hilbert")
    if cached is not None:
        return cached
    gb = ideal.groebner()
    num = monomial_numerator(gb.leading_exps(), ideal.ring.nvars)
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
    if mu < 0:
        return 0
    data = hilbert_series(ideal)
    n = data.nvars
    total = 0
    for k, c in enumerate(data.numerator):
        if k > mu:
            break
        if c:
            total += c * math.comb(mu - k + n - 1, n - 1)
    return total


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
    shifted = _trim(_poly_add(num, _poly_shift(tuple(-c for c in num), f.degree())))
    return hilbert_series(Ideal(ideal.ring, ideal.gens + (f,))).numerator == shifted


def indeg(ideal):
    """Smallest degree of a nonzero element; +inf for the zero ideal."""
    gb = ideal.groebner()
    if not gb.polys:
        return math.inf
    return min(g.degree() for g in gb.polys)


@dataclass(frozen=True)
class FiniteLengthData:
    length: int
    top_degree: object  # int, or -inf for the zero quotient
    coefficients: tuple  # graded dimensions of I_big/I_small by degree


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
