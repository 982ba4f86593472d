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
the verification layer studies.  The curve and the residual are certified
from Hilbert series the builder holds anyway, with no further Groebner
basis: the curve by its Hilbert function against the semigroup count
|d Lambda| up to the Gruson-Lazarsfeld-Peskine bound (check_semigroup_count),
the residual by one generator off the curve and its degree deg CI - deg C
(residual_ideal).  Every membership in the curve, of the forms, the pivot,
the residual's generators and the extra form, reads the parametrization
alone: the curve ideal is the kernel of the monomial map, so a form lies on
the curve exactly when its parametrization_defect is empty.  Every
membership in the residual reads its grevlex basis, the one its colon made.
The almost complete intersection gets no basis here: it lies between CI
and the residual, both of dimension 2, so its dimension is 2 as well
(build_family).  The builder records on the complete and the almost
complete intersection how each is resolved (see resolution).  Graded
pieces are echelonized as sparse rows, one per monomial of in(I)_d: the
first monomial shift of a Groebner basis element with that lead, keyed by
the negated grevlex keys of its monomials.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice

from . import hilbert
from .groebner import Ideal
from .idealops import colon, colon_by_variable_power
from .ring import (MAX_EXP, PolyRing, Polynomial, field_of_characteristic,
                   grevlex_keys_of_degree)
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


def semigroup_sums(exponents):
    """The sets d Lambda for d = 0, 1, ..., as ints, Lambda the set of exponents.

    Bit e of the int for d Lambda is set when e is a sum of d exponents: it
    is the OR, over a in Lambda, of the int for (d - 1) Lambda shifted left
    by a.
    """
    sums = 1
    while True:
        yield sums
        nxt = 0
        for a in exponents:
            nxt |= sums << a
        sums = nxt


def semigroup_counts(exponents, top):
    """[|d Lambda| for d = 0, ..., top], Lambda the set of exponents.

    The monomials of degree d map to s^(dD - e) t^e with e in d Lambda, the
    sums of d exponents, so |d Lambda| is the Hilbert function of the
    curve's coordinate ring in degree d.
    """
    return [sums.bit_count() for sums in islice(semigroup_sums(exponents), top + 1)]


def check_semigroup_count(ideal, exponents):
    """Assert HF(A/I)(d) = |d Lambda| for 0 <= d <= D - codim + 2, with D
    the largest exponent and codim = len(exponents) - 2.

    For I inside the curve prime P_C this makes I = P_C: the two agree in
    every degree up to D - codim + 1, and P_C is generated in those degrees,
    since the curve spans its space (its monomials are independent) and so
    its regularity is at most D - codim + 1 (Gruson-Lazarsfeld-Peskine,
    Invent. Math. 72, 1983).  So I contains every generator of P_C.
    """
    top = max(exponents) - (len(exponents) - 2) + 2
    got = hilbert.hilbert_function_values(ideal, top)
    for d, (h, s) in enumerate(zip(got, semigroup_counts(exponents, top))):
        if h != s:
            raise AssertionError(f"curve ideal has HF({d}) = {h}, but |{d}Lambda| = {s}")


def curve_ideal(exponents, char=32003):
    """(ring, ideal) of the projective monomial curve with the given exponents.

    The parametrization sends X_i to s^(D - a_i) t^(a_i) with D the largest
    exponent.  The kernel is toric: the lattice of the map has the basis
    e_j + (a_j - 1) e_0 - a_j e_1 (j >= 2), and inverting X_0 turns the
    quotient by the lattice-basis binomials into the domain k[X_0^+-1, X_1],
    so one saturation by X_0 gives the prime.  The result lies in the curve
    prime, since the binomials vanish on the curve and X_0 does not; its
    (dim, deg) and its Hilbert function against the semigroup count
    (check_semigroup_count) are asserted, and the second makes it the prime.
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
    dim, deg = hilbert.dim_deg(cand)
    if dim != 2 or deg != D:
        raise AssertionError(
            f"curve ideal has (dim, deg) = ({dim}, {deg}), expected (2, {D})")
    check_semigroup_count(cand, exponents)
    return ring, cand


def parametrization_defect(poly, exponents):
    """Coefficients of f(t^a_0, ..., t^a_k) by power of t; empty means f vanishes
    on the affine chart of the curve.

    Each term adds its coefficient at the power sum(x_i * a_i) of its
    exponents x; over F_p the sums are reduced mod p, over Q they are
    brought to QQ's form by field.add.
    """
    ring = poly.ring
    unpack, add = ring.bound.unpack, ring.field.add
    out = {}
    for k, c in poly.pdict.items():
        e = sum(x * a for x, a in zip(unpack(k), exponents))
        v = add(out[e], c) if e in out else c
        if v:
            out[e] = v
        else:
            del out[e]
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

    With k = m and e = 1 (primed) or k = m - 1 and e = n (unprimed), a = X0^e,
    b = X1^e and (P, Q) = pq_products(k), the first form is a P - b Q when
    the parity of m matches the flag (m even and primed, or m odd and
    unprimed) and b P - a Q otherwise; the power forms X_i^(n+1) -
    X0 X_{i+1}^n follow for i = 2..k+1, in k + 3 variables.
    """
    if not primed and m < 2:
        raise ValueError("the unprimed family needs m >= 2")
    k, e = (m, 1) if primed else (m - 1, n)
    if ring.nvars != k + 3:
        raise ValueError(f"{'primed' if primed else 'unprimed'} forms need "
                         f"m + {3 if primed else 2} variables")
    a, b = ring.gen(0) ** e, ring.gen(1) ** e
    P, Q = pq_products(k, ring)
    first = a * P - b * Q if (m % 2 == 0) == primed else b * P - a * Q
    return [first] + [ring.gen(i) ** (n + 1) - ring.gen(0) * ring.gen(i + 1) ** n
                      for i in range(2, k + 2)]


def residual_pivot(ring, m, n):
    """The binomial curve member X1^(n^m) - X0^(n^m - 1) X2 used to split off
    the residual: its pure X1 power avoids every coordinate-subspace prime."""
    e1 = [0] * ring.nvars
    e1[1] = n ** m
    e2 = [0] * ring.nvars
    e2[0] = n ** m - 1
    e2[2] = 1
    return ring.monomial(e1) - ring.monomial(e2)


def residual_ideal(ci, exponents, pivot):
    """a = CI : b for the complete intersection CI inside the curve prime b,
    by one colon by a pivot g in b, certified by degree.

    Asserted: g lies in b; (alpha) some generator of a = CI : g lies outside
    b; (beta) dim_deg(a) = (dim CI, deg CI - deg b).  These make a = CI : b
    = CI : b^inf and CI = b cap a.  CI is unmixed, and Ass(CI : g) lies in
    Ass(CI), so every associated prime of a is a minimal prime p of CI, of
    the dimension of CI.  Let l_p(M) be the length of M at p.  Since a
    contains CI, l_p(A/a) <= l_p(A/CI) for each p, and by (alpha) a is the
    unit ideal at b, so the associativity formula gives
        deg a = sum over p != b of l_p(A/a) deg p <= deg CI - l_b(A/CI) deg b.
    With (beta) this forces l_b(A/CI) = 1, so the b-primary component of CI
    is b, and l_p(A/a) = l_p(A/CI) for every p != b, so a and CI agree at p
    and share its primary component.  Hence a is the intersection of CI's
    components other than b, CI = b cap a, and CI : b = CI : b^inf = a, as b
    lies in no associated prime of a.  That also gives the product b * a
    inside CI, and a : g = a: were g in some p != b, a_p = CI_p : g would be
    larger than CI_p.

    b is the curve with the given exponents, and membership in b, for g and
    for (alpha), reads its parametrization: b is the kernel of the monomial
    map (curve_ideal), and g and the generators of a are homogeneous, so
    each lies in b exactly when its parametrization_defect is empty.  deg b
    is the largest exponent, as curve_ideal asserts.
    """
    if parametrization_defect(pivot, exponents):
        raise AssertionError("residual pivot is not a member of the curve ideal")
    a = colon(ci, pivot)
    if not any(parametrization_defect(h, exponents) for h in a.gens):
        raise AssertionError("(alpha) every generator of the residual lies on the curve")
    dim_ci, deg_ci = hilbert.dim_deg(ci)
    deg_curve = max(exponents)
    got = hilbert.dim_deg(a)
    if got != (dim_ci, deg_ci - deg_curve):
        raise AssertionError(f"(beta) residual has (dim, deg) = {got}, expected "
                             f"{(dim_ci, deg_ci - deg_curve)}")
    return a


def graded_piece_basis(ideal, d):
    """Canonical echelon basis of the degree-d piece of an ideal.

    The rows are one degree-d monomial shift s * g of a Groebner basis
    element per monomial of in(I)_d: walking the basis in order, s * g is
    kept when its lead s * lead(g) is not claimed yet.  Rows with distinct
    leads are independent, and every monomial of in(I)_d is such a lead, so
    they span I_d.  A row's column is the negated grevlex key of its
    monomial, so the smallest column, on which rref pivots first, is the
    largest monomial; brought to reduced echelon form, the output is ordered
    by descending leading monomial, so it is deterministic.
    """
    ring = ideal.ring
    rows = []
    claimed = set()
    shifts = {}
    for g in ideal.groebner().polys:
        k = d - g.degree()
        if k < 0:
            continue
        if k not in shifts:
            shifts[k] = grevlex_keys_of_degree(ring.nvars, k)
        lead = max(g.pdict)
        for shift in shifts[k]:
            if shift + lead not in claimed:
                claimed.add(shift + lead)
                rows.append({-key - shift: c for key, c in g.pdict.items()})
    out = [Polynomial._wrap(ring, {-j: c for j, c in row.items()})
           for row in rref(rows, ring.field)]
    expected = (math.comb(d + ring.nvars - 1, ring.nvars - 1)
                - hilbert.hilbert_function(ideal, d))
    if len(out) != expected:
        raise AssertionError("echelon basis size disagrees with the Hilbert function")
    return out


def extra_form(residual, exponents, d):
    """The canonical degree-d member of the residual that avoids the curve.

    Scans the echelon basis of the degree-d piece of the residual in order
    and returns the first row that does not vanish on the curve with the
    given exponents.  A row is homogeneous of degree d, and the curve ideal
    is the kernel of the monomial parametrization, so the row lies on the
    curve exactly when its parametrization_defect is empty.  Errors with a
    diagnostic if the whole piece lies inside the curve.
    """
    basis = graded_piece_basis(residual, d)
    for f in basis:
        if parametrization_defect(f, exponents):
            return f
    raise AssertionError(
        f"every degree-{d} member of the residual lies on the curve "
        f"(searched {len(basis)} echelon rows)")


class FamilyInstance(namedtuple("FamilyInstance", "m n primed char ring exponents curve "
                                "complete_intersection ci_degrees residual extra_form "
                                "extra_degree almost_complete_intersection")):
    """One constructed instance: the curve, its complete intersection,
    the residual, and the almost complete intersection."""

    __slots__ = ()


_FAMILY_CACHE = {}


def check_parameters(m, n, primed):
    """Raise ValueError unless (m, n, primed) names a family instance whose
    largest curve exponent, (n+1)^m primed or n (n+1)^(m-1) unprimed, is at
    most ring.MAX_EXP."""
    if primed and m < 1:
        raise ValueError("primed instances need m >= 1")
    if not primed and m < 2:
        raise ValueError("unprimed instances need m >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    # The product stops once it passes the cap, so a huge m stays cheap.
    top, name = (1, f"{n + 1}^{m}") if primed else (n, f"{n}*{n + 1}^{m - 1}")
    for _ in range(m if primed else m - 1):
        top *= n + 1
        if top > MAX_EXP:
            raise ValueError(f"largest curve exponent {name} exceeds the exponent cap {MAX_EXP}")


def build_family(m, n, primed=False, char=32003):
    """Build and validate a family instance; cached per (m, n, primed, char).

    Membership in the curve reads the parametrization (parametrization_defect),
    and membership in the residual a its grevlex basis, the one the colon
    made; neither the curve nor the almost complete intersection gets a
    grevlex basis here.  Claims that need one compute it on first use.

    dim A/ACI = 2 follows with no basis of the ACI.  The ring has two
    variables more than there are forms, and the forms are asserted to be a
    regular sequence, dim A/CI = nvars - #forms = 2; residual_ideal asserts
    dim A/a = dim A/CI, a = CI : C being the ideal linked to the curve C by
    CI (Peskine-Szpiro, Invent. Math. 26, 1974).
    Every form and F are asserted to reduce to zero modulo a, so
    CI <= ACI <= a.  Then V(a) lies in V(ACI), which lies in V(CI), so
    2 = dim A/a <= dim A/ACI <= dim A/CI = 2.

    Three records ride on the ideals, each read and checked where it is
    used: how the complete and the almost complete intersection are
    resolved ("route", see resolution), the residual's link to the curve
    ("linked_curve", see sections.general_section) and the curve exponents
    that bigrade the almost complete intersection ("bigrading", see
    idealops.generic_by_bigrading).
    """
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
    ci = Ideal(ring, forms)
    # The forms are a regular sequence exactly when their height is their number.
    dim_ci, _ = hilbert.dim_deg(ci)
    if dim_ci != ring.nvars - len(forms):
        raise AssertionError("forms are not a regular sequence: they do not cut a complete "
                             "intersection")
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
    a = residual_ideal(ci, exps, pivot)
    F = extra_form(a, exps, d)
    gb_a = a._held_basis()
    if not all(gb_a.reduces_to_zero(f) for f in forms + [F]):
        raise AssertionError("almost complete intersection does not define a surface cone: "
                             "a generator lies outside the residual")
    almost = Ideal(ring, forms + [F])
    # How each is resolved, read and certified by resolution.minimal_resolution
    # on its first call: the forms are a regular sequence (the height check
    # above), and the almost complete intersection is linked to the curve.
    ci._cache["route"] = ("koszul",)
    almost._cache["route"] = ("linkage", ci, curve, a, F)
    # The bidegrees (1, a_i) that make the almost complete intersection
    # bigraded, read by idealops.generic_by_bigrading to certify lemma12's
    # forms with no basis.
    almost._cache["bigrading"] = exps
    ci_degrees = tuple(sorted((f.degree() for f in forms), reverse=True))
    # How a general hyperplane section of the residual is read, by
    # sections.general_section: from its link to the curve by CI.
    a._cache["linked_curve"] = (exps, ci_degrees)
    inst = FamilyInstance(
        m=m, n=n, primed=bool(primed), char=char, ring=ring, exponents=exps,
        curve=curve, complete_intersection=ci, ci_degrees=ci_degrees,
        residual=a, extra_form=F, extra_degree=d,
        almost_complete_intersection=almost)
    _FAMILY_CACHE[key] = inst
    return inst
