"""Construction of the monomial-curve ideal families and their residuals.

Each instance is indexed by integers (m, n) and a primed flag.  The primed
ambient ring has m + 3 variables, the unprimed one m + 2; the smooth monomial
curve is parametrized by an explicit exponent list starting 0, 1.  The curve
is toric: its ideal is the lattice-basis ideal of the binomials
X_j X_0^(a_j - 1) - X_1^(a_j), saturated by X_0 alone.

On top of the curve ideal the builder assembles a complete intersection of
binomial forms inside it, the residual ideal (the colon by the curve), and a
canonically chosen extra form of prescribed degree from the residual that
avoids the curve, giving the almost complete intersection whose regularity
the verification layer studies.  Graded pieces are echelonized as sparse
rows: every row is a monomial shift of a Groebner basis element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hilbert
from .groebner import Ideal
from .idealops import colon, colon_by_variable_power
from .ring import PolyRing, Polynomial, field_of_characteristic
from ._linalg import rref


def curve_exponents(m, n, primed=False):
    """The exponent list of the parametrization: 0, 1, then n^(m-j)(n+1)^j.

    The unprimed family drops the final exponent (n+1)^m, which projects the
    curve into one fewer variable.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    tail = [n ** (m - j) * (n + 1) ** j for j in range(m + 1)]
    exps = [0, 1] + tail
    if not primed:
        exps = exps[:-1]
    if len(set(exps)) != len(exps):
        raise ValueError(f"degenerate exponent list for (m, n) = ({m}, {n})")
    return tuple(exps)


def curve_ideal(exponents, char=32003):
    """(ring, ideal) of the projective monomial curve with the given exponents.

    The parametrization sends X_i to s^(D - a_i) t^(a_i) with D the largest
    exponent.  The kernel is toric: the lattice of the map has the basis
    e_j + (a_j - 1) e_0 - a_j e_1 (j >= 2), and inverting X_0 turns the
    quotient by the lattice-basis binomials into the domain k[X_0^+-1, X_1],
    so one saturation by X_0 gives the prime.  Stability under every
    variable and the (dim, deg) of the result are asserted.
    """
    exponents = tuple(exponents)
    if len(exponents) < 3 or exponents[0] != 0 or exponents[1] != 1:
        raise ValueError("exponent list must start 0, 1 and have length >= 3")
    if sorted(set(exponents)) != sorted(exponents):
        raise ValueError("exponents must be distinct")
    field = field_of_characteristic(char)
    nv = len(exponents)
    ring = PolyRing(tuple(f"X{i}" for i in range(nv)), field)
    D = max(exponents)
    gens = []
    for j, a in enumerate(exponents[2:], start=2):
        lead = [0] * nv
        lead[j], lead[0] = 1, a - 1
        gens.append(ring.monomial(lead) - ring.gen(1) ** a)
    cand = colon_by_variable_power(Ideal(ring, gens), 0)
    for i in range(nv):
        sat_i = colon_by_variable_power(cand, i)
        if not sat_i.same_ideal(cand):
            raise AssertionError("curve ideal is not saturated with respect to a variable")
    dim, deg = hilbert.dim_deg(cand)
    if dim != 2 or deg != D:
        raise AssertionError(
            f"curve ideal has (dim, deg) = ({dim}, {deg}), expected (2, {D})")
    return ring, cand


def parametrization_defect(poly, exponents):
    """Coefficients of f(t^a_0, ..., t^a_k) by power of t; empty means f vanishes
    on the affine chart of the curve."""
    out = {}
    for e, c in poly.terms:
        k = sum(x * a for x, a in zip(e, exponents))
        prev = out.get(k)
        v = c if prev is None else poly.ring.field.add(prev, c)
        if v == 0:
            out.pop(k, None)
        else:
            out[k] = v
    return out


def pq_products(m, ring):
    """The pair of coprime monomials built from alternating binomial powers.

    P collects X_{j+2}^binom(m, j) over even j, Q over odd j; both have
    degree 2^(m-1) and their quotient encodes the recursive curve relation.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if ring.nvars < m + 3:
        raise ValueError("ring too small for the product monomials")
    pe = [0] * ring.nvars
    qe = [0] * ring.nvars
    for j in range(m + 1):
        if j % 2 == 0:
            pe[j + 2] = math.comb(m, j)
        else:
            qe[j + 2] = math.comb(m, j)
    return ring.monomial(pe), ring.monomial(qe)


def ci_forms(m, n, ring, primed=False):
    """Generators of the complete intersection inside the curve ideal.

    The power forms X_i^(n+1) - X0 X_{i+1}^n run over i = 2..m+1 (primed) or
    2..m (unprimed); the remaining generator mixes the alternating product
    monomials with a parity twist on X0, X1.
    """
    if primed:
        if ring.nvars != m + 3:
            raise ValueError("primed forms need m + 3 variables")
        P, Q = pq_products(m, ring)
        if m % 2 == 0:
            first = ring.gen(0) * P - ring.gen(1) * Q
        else:
            first = ring.gen(1) * P - ring.gen(0) * Q
        forms = [first]
        for i in range(2, m + 2):
            forms.append(ring.gen(i) ** (n + 1) - ring.gen(0) * ring.gen(i + 1) ** n)
        return forms
    if m < 2:
        raise ValueError("the unprimed family needs m >= 2")
    if ring.nvars != m + 2:
        raise ValueError("unprimed forms need m + 2 variables")
    P, Q = pq_products(m - 1, ring)
    if m % 2 == 0:
        first = ring.gen(1) ** n * P - ring.gen(0) ** n * Q
    else:
        first = ring.gen(0) ** n * P - ring.gen(1) ** n * Q
    forms = [first]
    for i in range(2, m + 1):
        forms.append(ring.gen(i) ** (n + 1) - ring.gen(0) * ring.gen(i + 1) ** n)
    return forms


def residual_pivot(ring, m, n):
    """The binomial curve member X1^(n^m) - X0^(n^m - 1) X2 used to split off
    the residual: its pure X1 power avoids every coordinate-subspace prime."""
    e1 = [0] * ring.nvars
    e1[1] = n ** m
    e2 = [0] * ring.nvars
    e2[0] = n ** m - 1
    e2[2] = 1
    return ring.monomial(e1) - ring.monomial(e2)


def residual_ideal(ci, curve, pivot):
    """a = I : b^inf via the certified pivot: one colon, then exactness checks.

    The pivot g lies in the curve prime b, so the colon by g removes the
    b-component of the unmixed complete intersection in one step; stability
    (a : g = a) and the product containment b * a inside I are both asserted.
    """
    gbb = curve.groebner()
    if not gbb.reduces_to_zero(pivot):
        raise AssertionError("residual pivot is not a member of the curve ideal")
    a = colon(ci, pivot)
    if not colon(a, pivot).same_ideal(a):
        raise AssertionError("residual colon chain did not stabilize after one step")
    gbi = ci.groebner()
    for g in curve.gens:
        for h in a.gens:
            if not gbi.reduces_to_zero(g * h):
                raise AssertionError("product of curve and residual escapes the complete intersection")
    return a


def graded_piece_basis(ideal, d):
    """Canonical echelon basis of the degree-d piece of an ideal.

    The rows are the degree-d monomial shifts of the Groebner basis, as
    sparse rows over the degree-d monomials sorted descending in the ring
    order, brought to reduced echelon form; the output is ordered by
    descending leading monomial, so it is deterministic.
    """
    ring = ideal.ring
    monomials = _monomials_of_degree(ring, d)
    col_of = {e: i for i, e in enumerate(monomials)}
    rows = []
    gb = ideal.groebner().polys
    shifts = {k: _monomials_of_degree(ring, k) for k in {d - g.degree() for g in gb} if k >= 0}
    for g in gb:
        for shift in shifts.get(d - g.degree(), ()):
            rows.append({col_of[tuple(x + y for x, y in zip(e, shift))]: c
                         for e, c in g.terms})
    out = [Polynomial(ring, {monomials[j]: c for j, c in row.items()})
           for row in rref(rows, ring.field)]
    expected = (math.comb(d + ring.nvars - 1, ring.nvars - 1)
                - hilbert.hilbert_function(ideal, d))
    if len(out) != expected:
        raise AssertionError("echelon basis size disagrees with the Hilbert function")
    return out


def _monomials_of_degree(ring, d):
    """Degree-d exponent tuples, descending in the ring order."""
    n = ring.nvars
    out = []

    def rec(prefix, remaining, pos):
        if pos == n - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + [v], remaining - v, pos + 1)

    rec([], d, 0)
    pack = ring.bound.pack
    out.sort(key=pack, reverse=True)
    return out


def extra_form(residual, curve, d):
    """The canonical degree-d member of the residual that avoids the curve.

    Scans the echelon basis of the degree-d piece of the residual in order
    and returns the first polynomial outside the curve ideal.  Errors with a
    diagnostic if the whole piece lies inside the curve.
    """
    basis = graded_piece_basis(residual, d)
    gbb = curve.groebner()
    for f in basis:
        if not gbb.reduces_to_zero(f):
            return f
    raise AssertionError(
        f"every degree-{d} member of the residual lies on the curve "
        f"(searched {len(basis)} echelon rows)")


@dataclass
class FamilyInstance:
    """One constructed instance: the curve, its complete intersection,
    the residual, and the almost complete intersection."""

    m: int
    n: int
    primed: bool
    char: int
    ring: PolyRing
    exponents: tuple
    curve: Ideal
    complete_intersection: Ideal
    ci_degrees: tuple
    residual: Ideal
    extra_form: Polynomial
    extra_degree: int
    almost_complete_intersection: Ideal

    @property
    def codim_expected(self):
        return self.m + 1 if self.primed else self.m


_FAMILY_CACHE = {}


def check_parameters(m, n, primed):
    """Raise ValueError unless (m, n, primed) names a family instance."""
    if primed and m < 1:
        raise ValueError("primed instances need m >= 1")
    if not primed and m < 2:
        raise ValueError("unprimed instances need m >= 2")
    if n < 2:
        raise ValueError("need n >= 2")


def build_family(m, n, primed=False, char=32003):
    """Build and validate a family instance; cached per (m, n, primed, char)."""
    key = (m, n, bool(primed), char)
    cached = _FAMILY_CACHE.get(key)
    if cached is not None:
        return cached
    check_parameters(m, n, primed)
    exps = curve_exponents(m, n, primed)
    ring, curve = curve_ideal(exps, char)
    forms = ci_forms(m, n, ring, primed)
    for f in forms:
        if parametrization_defect(f, exps):
            raise AssertionError("complete intersection form does not vanish on the curve")
        if not curve.groebner().reduces_to_zero(f):
            raise AssertionError("complete intersection form escapes the curve ideal")
    ci = Ideal(ring, forms)
    codim = m + 1 if primed else m
    dim_ci, _ = hilbert.dim_deg(ci)
    if dim_ci != ring.nvars - codim:
        raise AssertionError("forms do not cut a complete intersection of the expected codimension")
    if primed:
        d = m * n + 2 ** (m - 1)
        expected_degrees = sorted([2 ** (m - 1) + 1] + [n + 1] * m)
    else:
        d = m * n + 2 ** (m - 2) - 1
        expected_degrees = sorted([n + 2 ** (m - 2)] + [n + 1] * (m - 1))
    degrees = sorted(f.degree() for f in forms)
    if degrees != expected_degrees:
        raise AssertionError(
            f"generator degrees {degrees} differ from the expected {expected_degrees}")
    pivot = residual_pivot(ring, m, n)
    a = residual_ideal(ci, curve, pivot)
    F = extra_form(a, curve, d)
    almost = Ideal(ring, forms + [F])
    dim_almost, _ = hilbert.dim_deg(almost)
    if dim_almost != 2:
        raise AssertionError("almost complete intersection does not define a surface cone")
    inst = FamilyInstance(
        m=m, n=n, primed=bool(primed), char=char, ring=ring, exponents=exps,
        curve=curve, complete_intersection=ci,
        ci_degrees=tuple(sorted((f.degree() for f in forms), reverse=True)),
        residual=a, extra_form=F, extra_degree=d,
        almost_complete_intersection=almost)
    _FAMILY_CACHE[key] = inst
    return inst
