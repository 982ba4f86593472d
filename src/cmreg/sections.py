"""General hyperplane sections of surface cones and the derived point counts.

A dimension-2 graded quotient A/I defines a curve-like projective scheme; a
general linear form cuts it down to a finite group of points Z.  This module
draws seeded random linear forms and extracts the numbers the regularity
bound consumes: the degree of Z (Hilbert multiplicity of the saturated
section) and the initial degree of its ideal (the least degree of a
hypersurface of the hyperplane through Z), with the section's whole Hilbert
numerator.  The thm11 claim takes Z from the family's residual, the
top-dimensional part of the almost complete intersection: the two differ
only at finitely many points, which a general hyperplane misses, so both
saturate to the same Z.  general_section reads them by one of two routes.

The cut, for every ideal: perform the section inside the hyperplane ring
(one variable eliminated by substitution), saturate, and read the
saturated section's Groebner basis.  The hyperplane ring may order its
variables differently from the ambient ring.  When dim A/(I + x_i) =
dim A/I - 1, x_i lies in no top-dimensional component of A/I and
V(I + x_i) is a finite set of points.  A general hyperplane misses them, so
Z has no point on x_i = 0 and the saturation of the section is its colon by
x_i alone.  section_order moves the highest such x_i last in the hyperplane
ring; that colon then reuses the grevlex basis the dimension check builds,
and saturate_irrelevant's Hilbert-series certificate still decides.  With no
such variable the order is the ambient one.  The lifted ideal (I + l)^sat
follows the hyperplane ring's order back.

The linkage, for a family's residual a = CI : C, on which build_family
records the curve's exponents and the degrees of CI: no basis is cut.  a
and the curve C are linked by the complete intersection CI (Peskine-Szpiro,
Invent. Math. 26, 1974), and so are their sections Z and Z_C by CI + l
(Davis-Geramita-Orecchia, Proc. AMS 93, 1985): the h-vector of Z is that of
CI + l less that of Z_C, reversed.  Z_C is read off the parametrization, as
ranks of powers of t modulo the pullback of l.  Over F_p those ranks are
exact.  Over Q they are read mod the prime 2^31 - 1, which can only lower
them, and a form is served only when each one reaches its upper bound
min(D, HF(A/(P_C + l))(d)), read off the curve's semigroup (_section_caps):
the rational ranks lie between the two.  A form that misses the bound is
cut.  The facts the route needs are certified on every call
(_linked_invariants).

Genericity is realized as randomization plus validation: the dimension must
drop by exactly one and a second, independently seeded form must reproduce
the same numeric invariants (in fact the whole Hilbert numerator); on
disagreement new seeds are drawn, with a bounded number of retries.  The
linkage route certifies the drop for every form with nonzero coefficients,
and keeps the second form and the retries.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from itertools import count

from . import families, hilbert
from ._linalg import echelon
from .groebner import Ideal
from .idealops import linear_coefficients, linear_form, saturate_irrelevant, substitute_variable
from .ring import PolyRing, PrimeField, bihomogeneous, transport

# The field in which the curve section's ranks over Q are read: its ints
# stay below 2^31, and mod so large a prime a random form's ranks rarely
# drop (a drop costs the form a cut, not a wrong number).
_CERTIFYING_FIELD = PrimeField(2 ** 31 - 1)


class GenericityFailure(RuntimeError):
    """Raised when repeated random draws fail the section validation."""


def check_section_field(field):
    """Raise ValueError unless random sections may draw from field: F_p needs p > 1000."""
    p = field.p
    if p is not None and p <= 1000:
        raise ValueError(f"coefficient field F_{p} too small for random sections (need p > 1000)")


def random_linear_form(ring, seed):
    """A seeded degree-1 form with every coefficient nonzero.

    Over F_p the coefficients are uniform in [1, p-1] and p > 1000 is
    required; over the rationals they are integers in [1, 10^6].
    """
    check_section_field(ring.field)
    p = ring.field.p
    rng = random.Random(seed * 1_000_003 + ring.nvars)
    top = 10 ** 6 if p is None else p
    return linear_form(ring, [ring.field(rng.randrange(1, top)) for _ in range(ring.nvars)])


def substitute_linear(I, l, perm=None):
    """Image of I in the hyperplane ring A/(l), as an ideal in one fewer variable.

    Solves l = sum c_j x_j for the last variable (possible since c_last is
    nonzero) and substitutes x_last -> sum_(j < last) c_j x_j / (-c_last)
    into each generator.  substitute_variable clears the denominator: each
    image is a power of the unit -c_last times the plain one, so integer
    coefficients over Q stay integers.  Variable k of the
    hyperplane ring is x_perm[k] (default: x_0, ..., x_(n-2) in order), so
    transport by perm lifts an ideal back to the ambient ring.
    """
    ring = I.ring
    n = ring.nvars
    if n < 2:
        raise ValueError("need at least two variables to take a hyperplane section")
    coeffs = linear_coefficients(l)
    if coeffs[-1] == 0:
        raise ValueError("section form must involve the last variable")
    perm = list(range(n - 1)) if perm is None else list(perm)
    if sorted(perm) != list(range(n - 1)):
        raise ValueError(f"perm must order the variables 0..{n - 2}, got {perm}")
    S = PolyRing(tuple(ring.names[j] for j in perm), ring.field)
    repl = linear_form(S, [coeffs[j] for j in perm])
    return S, substitute_variable(I, n - 1, repl, ring.field.neg(coeffs[-1]))


def section_order(I):
    """The ambient indices of the hyperplane ring's variables for sections of I.

    x_0, ..., x_(n-2) in order, except that the highest x_i among them with
    dim A/(I + x_i) = dim A/I - 1 is moved last.
    """
    ring = I.ring
    n = ring.nvars
    dim, _ = hilbert.dim_deg(I)
    last = next((i for i in range(n - 2, -1, -1)
                 if hilbert.dim_deg(Ideal(ring, I.gens + (ring.gen(i),)))[0] == dim - 1), n - 2)
    return [j for j in range(n - 1) if j != last] + [last]


class SectionData(namedtuple("SectionData", "seed attempted_seeds linear_form hyperplane_ring "
                             "section_ideal lifted_ideal deg_section indeg_section validation",
                             defaults=(None,))):
    """One validated general section: the form, the saturated section ideal
    (in the hyperplane ring, whose variables may be ordered differently from
    the ambient ring's, see section_order), its lift (I + l)^sat back to the
    ambient ring through that order, and the two numeric invariants.  When
    the linkage route serves the form, no basis is cut, and the hyperplane
    ring, the section and its lift are None.  validation defaults to a
    fresh dict."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rec = super().__new__(cls, *args, **kwargs)
        return rec if rec.validation is not None else rec._replace(validation={})


def _section_invariants(I, l, perm):
    """(hyperplane ring, saturated section, deg, indeg, numerator) for one form,
    or None when the cut is not generic (dimension fails to drop to 1)."""
    S, J = substitute_linear(I, l, perm)
    dim, _ = hilbert.dim_deg(J)
    if dim != 1:
        return None
    Jsat = saturate_irrelevant(J)
    dim_s, deg = hilbert.dim_deg(Jsat)
    if dim_s != 1 or deg < 1:
        return None
    ideg = hilbert.indeg(Jsat)
    numer = hilbert.hilbert_series(Jsat).numerator
    return S, Jsat, deg, ideg, numer


def _section_caps(exponents, top):
    """[U(d) for d = 0, ..., top], U(d) = min(D, |d Lambda| - |(d - 1) Lambda|)
    and D = max Lambda: over every field, the most HF(Z_C)(d) can be, Z_C
    the section of the curve with the given exponents by a form l whose
    coefficients are all nonzero.

    The pullback of a degree-d form to k[t]/(g) (_curve_section_values)
    kills P_C and l, so it factors through A/(P_C + l), and k[t]/(g) has
    dimension D.  l is a nonzerodivisor on the domain A/P_C, whose Hilbert
    function is |d Lambda| (families.semigroup_counts), so
    HF(A/(P_C + l))(d) is the difference.
    """
    D = max(exponents)
    counts = families.semigroup_counts(exponents, top)
    return [min(D, c - b) for c, b in zip(counts, [0] + counts)]


def _curve_section_values(exponents, coeffs, field, caps):
    """[HF(Z_C)(d) for d = 0, ..., len(caps) - 1] over field = F_p, Z_C the
    section of the curve with the given exponents by l = sum c_i X_i, every
    c_i nonzero, and caps the bounds U(d) of _section_caps.

    l pulls back to g(t) = sum c_i t^(a_i), of degree D = max a_i with
    g(0) != 0, and Z_C is Spec k[t]/(g) in the chart X_0 != 0, where X_j/X_0
    is t^(a_j).  On Z_C, l solves for the variable of exponent D, so the
    degree-d forms there are spanned by the monomials in the others: they
    pull back to t^e with e in d Lambda', Lambda' the exponents below D, and
    HF(Z_C)(d) is the rank of {t^e mod g : e in d Lambda'}.  As 0 is in
    Lambda', d Lambda' holds (d - 1) Lambda', and each degree echelonizes
    only its new exponents, in increasing order, until the rank reaches
    U(d): no further row can raise it, so each lies in the span already.
    A residue is the dense row of its coefficients below D, stepped from
    the last by t^D = -sum_(a < D) (c_a / c_D) t^a.

    For rational c_i and a prime q that divides no numerator or
    denominator of them, the residues have coefficients with denominators
    prime to q, and reduction mod q is a ring map on those: given the c_i
    mod q and field = F_q, each value is at most the rank over Q.
    """
    D, p = max(exponents), field.p
    scale = -pow(coeffs[exponents.index(D)], -1, p)
    rest = [a for a in exponents if a != D]
    tail = [(a, c * scale % p) for a, c in zip(exponents, coeffs) if a != D]
    residues = [[1] + [0] * (D - 1)]

    def row(e):
        while len(residues) <= e:
            r = residues[-1]
            top_c, r = r[-1], [0] + r[:-1]
            if top_c:
                for a, c in tail:
                    r[a] = (r[a] + top_c * c) % p
            residues.append(r)
        return {j: c for j, c in enumerate(residues[e]) if c}

    values, pivots, seen = [], {}, 0
    for sums, cap in zip(families.semigroup_sums(rest), caps):
        new, seen = sums & ~seen, sums
        while new and len(pivots) < cap:
            low = new & -new
            echelon([row(low.bit_length() - 1)], field, pivots)
            new ^= low
        values.append(len(pivots))
    return values


def _linked_invariants(I, l, exponents, ci_degrees):
    """(None, None, deg, indeg, numerator) of the section of I by l, read
    from the link of I to the curve with the given exponents by the
    complete intersection CI of the given degrees: no basis is cut.  None
    over Q when the curve section's ranks are not certified; the caller
    then cuts.

    Certified on every call: every coefficient of l is nonzero, and every
    generator of I is bihomogeneous (ring.bihomogeneous).  With I =
    CI : C and one generator of I off C, as build_family asserts, V(I) is
    stable under the torus of the bigrading, so it meets C only in fixed
    points, the two coordinate points of C, and l misses both.  So the
    sections Z of V(I) and Z_C of C are disjoint, and CI + l, a complete
    intersection in the hyperplane, links them.  As 1 is an exponent, the
    parametrization is a closed immersion on the torus, so a form vanishes
    on Z_C exactly when g divides its pullback (_curve_section_values).

    Over F_p the values HF(Z_C)(d) are ranks in the field itself, so they
    are exact.  Over Q they are ranks mod q = 2^31 - 1, at most the
    rational ones, which are at most U(d) (_section_caps); the route serves
    the form only when every value for d <= s equals U(d), which pins the
    rational rank.  A coefficient of l whose numerator or denominator q
    divides, or a value below U(d), returns None.

    With s = sum(d_i - 1) and h_X the h-vector of CI + l,
    h_Z(t) = h_X(s - t) - Delta HF(Z_C)(s - t).  Asserted besides:
    HF(Z_C)(s) = deg C, every h_Z(t) >= 0, and sum h_Z = deg(A/I) from the
    held series.  Then deg Z = sum h_Z, indeg is the first t with
    HF(Z)(t) = sum_(u <= t) h_Z(u) below the C(t + N - 2, N - 2) forms of
    the hyperplane ring, and the numerator is h_Z (1 - t)^(N - 2).
    """
    ring = I.ring
    coeffs = linear_coefficients(l)
    if any(c == 0 for c in coeffs):
        raise AssertionError("the section form has a zero coefficient, so it may meet "
                             "the curve at a coordinate point")
    if not bihomogeneous(I.gens, exponents):
        raise AssertionError("a generator of the linked ideal is not bihomogeneous for "
                             f"the curve exponents {tuple(exponents)}")
    D = max(exponents)
    s = sum(d - 1 for d in ci_degrees)
    caps = _section_caps(exponents, s)
    exact = ring.field.p is not None
    field = ring.field if exact else _CERTIFYING_FIELD
    try:
        coeffs = [field(c) for c in coeffs]
    except ValueError:  # q divides a denominator
        return None
    if not all(coeffs):
        return None
    hf = _curve_section_values(exponents, coeffs, field, caps)
    if not exact and hf != caps:
        return None
    if hf[s] != D:
        raise AssertionError(f"the curve's section has HF({s}) = {hf[s]}, not its degree {D}")
    h_x = [1]
    for d in ci_degrees:
        h_x = [sum(h_x[max(0, k - d + 1):k + 1]) for k in range(len(h_x) + d - 1)]
    h_z = [h_x[s - t] - hf[s - t] + (hf[s - t - 1] if t < s else 0) for t in range(s + 1)]
    if min(h_z) < 0:
        raise AssertionError(f"the linked section has a negative h-vector {h_z}")
    deg = sum(h_z)
    _, deg_a = hilbert.dim_deg(I)
    if deg != deg_a:
        raise AssertionError(f"the linked section has degree {deg}, but deg(A/I) = {deg_a}")
    n = ring.nvars
    hf_z = 0
    for t in count():
        hf_z += h_z[t] if t <= s else 0
        if hf_z < math.comb(t + n - 2, n - 2):
            break
    numer = h_z
    for _ in range(n - 2):
        numer = [a - b for a, b in zip(numer + [0], [0] + numer)]
    while numer[-1] == 0:
        numer.pop()
    return None, None, deg, t, tuple(numer)


def general_section(I, seed):
    """Cut Proj(A/I) (required dimension 2) by a validated general linear form.

    Validation per attempt: the substituted ideal has dimension 1, and a
    second independently seeded form reproduces (deg, indeg) and the whole
    Hilbert numerator of the saturated section.  Up to five attempts, then
    GenericityFailure listing every seed tried.

    On a family's residual, which carries its link to the curve
    (build_family), each form's invariants come from the linkage
    (_linked_invariants) and no basis is cut: hyperplane_ring, section_ideal
    and lifted_ideal are then None.  That holds on both fields, except for a
    form over Q whose curve-section ranks the linkage does not certify.
    That form, and every form on every other ideal, is cut, in the order
    section_order computes on the first cut.
    """
    dim, _ = hilbert.dim_deg(I)
    if dim != 2:
        raise ValueError(f"general_section needs dim(A/I) = 2, got {dim}")
    ring = I.ring
    linked = I._cache.get("linked_curve")
    perm = None

    def invariants(l):
        nonlocal perm
        if linked is not None:
            got = _linked_invariants(I, l, *linked)
            if got is not None:
                return got
        if perm is None:
            perm = section_order(I)
        return _section_invariants(I, l, perm)

    attempted = []
    notes = []
    for round_no in range(5):
        sa = seed + 104729 * round_no
        sb = sa + 52361
        la = random_linear_form(ring, sa)
        lb = random_linear_form(ring, sb)
        if la == lb:
            notes.append(f"seed collision between {sa} and {sb}; redrew")
            sb += 1
            lb = random_linear_form(ring, sb)
        attempted.extend([sa, sb])
        va = invariants(la)
        vb = invariants(lb)
        if va is None or vb is None:
            notes.append(f"round {round_no}: dimension drop failed "
                         f"(seeds {sa}, {sb})")
            continue
        Sa, Jsat_a, deg_a, ideg_a, num_a = va
        _, _, deg_b, ideg_b, num_b = vb
        if (deg_a, ideg_a, num_a) != (deg_b, ideg_b, num_b):
            notes.append(f"round {round_no}: invariants disagree "
                         f"({deg_a},{ideg_a}) vs ({deg_b},{ideg_b})")
            continue
        lifted = (None if Jsat_a is None
                  else Ideal(ring, [transport(g, ring, perm) for g in Jsat_a.gens] + [la]))
        return SectionData(
            seed=sa, attempted_seeds=tuple(attempted), linear_form=la,
            hyperplane_ring=Sa, section_ideal=Jsat_a, lifted_ideal=lifted,
            deg_section=deg_a, indeg_section=ideg_a,
            validation={
                "agreeing_seeds": (sa, sb),
                "hilbert_numerator": list(num_a),
                "notes": list(notes),
            })
    raise GenericityFailure(
        f"no stable general section after 5 rounds; seeds tried: {attempted}; "
        f"notes: {notes}")


def thm11_rhs(degrees, m, deg_z, i_z):
    """The two-factor regularity bound from the generator degrees and the
    section invariants: (d1...dm - degZ + 1)(d1+...+d(m+1) - m - iZ) + iZ."""
    degrees = list(degrees)
    if degrees != sorted(degrees, reverse=True):
        raise ValueError("degrees must be sorted in decreasing order")
    if len(degrees) <= m:
        raise ValueError("need more generators than the codimension")
    if m < 1:
        raise ValueError("codimension must be at least 1")
    if deg_z < 1 or i_z < 1:
        raise ValueError("section invariants must be positive")
    prod = 1
    for d in degrees[:m]:
        prod *= d
    top = sum(degrees[: m + 1])
    return (prod - deg_z + 1) * (top - m - i_z) + i_z


def cor13_rhs(m, d, dim):
    """The closed-form bounds for ideals generated in degrees at most d in
    m+2 variables: the dim <= 1 bound and both dim-2 variants."""
    if d < 1:
        raise ValueError("need d >= 1")
    if dim not in (0, 1, 2):
        raise ValueError("dim must be 0, 1 or 2")
    dim1 = (m + 2) * (d - 1)
    body = (m + 2) * d ** m * (d - 1)
    abstract = (m + 1) * d ** m * (d - 1)
    return dim1, body, abstract
