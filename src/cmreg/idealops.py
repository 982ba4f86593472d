"""Ideal arithmetic: sums, products, intersections, colons, saturations,
and variable elimination.

Intersections go through the classic auxiliary-variable trick (t*I + (1-t)*J,
eliminate t with a block order), colons divide the intersection with a
principal ideal, and saturations iterate colons until the chain stabilizes,
reporting the number of strict steps.

Saturation by an ideal generated by variables (the irrelevant ideal, or the
coordinate-subspace primes used by the residual checks) has an exact fast
path: I : (x_i, i in S)^inf equals the intersection over S of I : x_i^inf,
and each of those comes from one Groebner basis in a grevlex order with x_i
moved last, dividing every basis element by its x_i power (Bayer-Stillman:
in(I : x_i) = in(I) : x_i for revlex with x_i last).  That shortcut requires
homogeneous input and is checked against the literal route in the test
suite.

The irrelevant saturation I^sat usually needs only one of those colons.
Each J = I : x_i^inf contains I^sat, and J = I^sat exactly when J/I^sat has
finite length, which the Hilbert series certify: HS(A/I) - HS(A/J) is a
polynomial.  saturate_irrelevant returns the first certified colon and
intersects all of them only when none is certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ._kernel import BudgetExceeded
from .groebner import Ideal, member
from .ring import Block, PermutedGrevlex, PolyRing, transport
from . import hilbert


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return Ideal(I.ring, [g * h for g in I.gens for h in J.gens])


def _aux_ring(ring):
    name = "t_aux"
    while name in ring.names:
        name += "_"
    return PolyRing((name,) + ring.names, ring.field, Block(1)), name


def intersect(I, J):
    """I cap J via an auxiliary variable and a block elimination order."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not I.gens:
        return Ideal(ring, [])
    if not J.gens:
        return Ideal(ring, [])
    ext, _ = _aux_ring(ring)
    up = list(range(1, ring.nvars + 1))
    t = ext.gen(0)
    gens = [t * transport(g, ext, up) for g in I.gens]
    gens += [(ext.one - t) * transport(h, ext, up) for h in J.gens]
    gb = Ideal(ext, gens).groebner()
    down = [None] + list(range(ring.nvars))
    out = []
    for g in gb:
        if all(e[0] == 0 for e, _ in g.terms):
            out.append(transport(g, ring, down))
    return Ideal(ring, out)


def quotient_exact(f, g):
    """The exact quotient f/g; raises if g does not divide f."""
    from .ring import reduce as ring_reduce

    rem, quots = ring_reduce(f, [g])
    if not rem.is_zero():
        raise ValueError("polynomial division is not exact")
    return quots[0]


def colon(I, f):
    """The colon ideal I : f for a single polynomial f."""
    if f.ring != I.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        raise ValueError("colon by zero")
    if f.degree() == 0:
        return Ideal(I.ring, I.gens)
    meet = intersect(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [quotient_exact(g, f) for g in meet.gens])


def colon_ideal(I, J):
    """The colon ideal I : J, computed elementwise and intersected."""
    if not J.gens:
        raise ValueError("colon by the zero ideal")
    parts = [colon(I, g) for g in J.gens]
    return _materialize_intersection(parts)


def saturate(I, f, max_steps=200):
    """(I : f^inf, q): iterate colon until the chain stabilizes.

    q is the number of strict steps, so q == 0 means I is already saturated
    with respect to f.
    """
    current = I
    q = 0
    for _ in range(max_steps):
        nxt = colon(current, f)
        if nxt.same_ideal(current):
            return current, q
        current = nxt
        q += 1
    raise BudgetExceeded(f"saturation chain did not stabilize within {max_steps} steps")


def saturate_ideal(I, J, max_steps=200):
    """I : J^inf for an ideal J, via the variable fast path when J is
    generated by variables and I is homogeneous, else by iterating colon_ideal."""
    var_idx = _variable_indices(J)
    if var_idx is not None and I.is_homogeneous():
        parts = [colon_by_variable_power(I, i) for i in var_idx]
        return _materialize_intersection(parts)
    current = I
    for _ in range(max_steps):
        nxt = colon_ideal(current, J)
        if nxt.same_ideal(current):
            return current
        current = nxt
    raise BudgetExceeded(f"saturation chain did not stabilize within {max_steps} steps")


def _variable_indices(J):
    """If J is generated by single variables, their indices; else None."""
    idx = []
    for g in J.gens:
        if len(g.terms) != 1:
            return None
        e, c = g.terms[0]
        if sum(e) != 1:
            return None
        idx.append(e.index(1))
    return sorted(set(idx)) or None


def _divide_variable_power(g, i):
    v = min(e[i] for e, _ in g.terms)
    if v == 0:
        return g
    data = {}
    for e, c in g.terms:
        e2 = list(e)
        e2[i] -= v
        data[tuple(e2)] = c
    from .ring import Polynomial

    return Polynomial(g.ring, data)


def colon_by_variable_power(I, i):
    """I : x_i^inf for homogeneous I, from one basis with x_i moved last."""
    ring = I.ring
    if not I.is_homogeneous():
        raise ValueError("variable saturation shortcut needs a homogeneous ideal")
    perm = [j for j in range(ring.nvars) if j != i] + [i]
    gb = I.groebner(PermutedGrevlex(perm))
    return Ideal(ring, [_divide_variable_power(g, i) for g in gb])


def saturate_irrelevant(I):
    """I^sat = I : (x_0,...,x_n)^inf, cached on the ideal.

    For homogeneous I each colon J = I : x_i^inf contains I^sat.  When
    HS(A/I) - HS(A/J) is a polynomial, J and I^sat share a Hilbert
    polynomial, so J/I^sat has finite length; A/I^sat has no m-torsion, so
    then J = I^sat.  The colons are tried from the last variable down (the
    last one reuses the grevlex basis of I) and the first that passes is the
    answer.  When none passes, I^sat is the intersection of all of them.
    Non-homogeneous input goes through saturate_ideal.
    """
    cached = I._cache.get("sat")
    if cached is None:
        ring = I.ring
        if I.is_homogeneous():
            hs = hilbert.hilbert_series(I)
            parts = []
            for i in range(ring.nvars - 1, -1, -1):
                J = colon_by_variable_power(I, i)
                if hilbert.series_difference(hs, hilbert.hilbert_series(J)) is not None:
                    cached = J
                    break
                parts.append(J)
            else:
                cached = functools.reduce(intersect, reversed(parts))
        else:
            cached = saturate_ideal(I, Ideal(ring, ring.gens()))
        I._cache["sat"] = cached
    return cached


def _materialize_intersection(parts):
    """Intersection of a list of ideals; prefers a member contained in all others."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty intersection")
    if len(parts) == 1:
        return parts[0]
    for j, cand in enumerate(parts):
        if all(i == j or other.contains_ideal(cand) for i, other in enumerate(parts)):
            return cand
    out = parts[0]
    for other in parts[1:]:
        out = intersect(out, other)
    return out


def eliminate(I, variables):
    """The elimination ideal: elements of I free of the named variables.

    variables may be names or indices.  Internally the eliminated block is
    moved first and a block order does the work; the result lives in the
    original ring and its generators do not involve the eliminated variables.
    """
    ring = I.ring
    idx = []
    for v in variables:
        if isinstance(v, str):
            if v not in ring._name_index:
                raise ValueError(f"unknown variable {v!r}")
            idx.append(ring._name_index[v])
        else:
            idx.append(int(v))
    idx = sorted(set(idx))
    if not idx:
        return Ideal(ring, I.gens)
    if len(idx) >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    rest = [j for j in range(ring.nvars) if j not in idx]
    new_names = tuple(ring.names[j] for j in idx) + tuple(ring.names[j] for j in rest)
    ext = PolyRing(new_names, ring.field, Block(len(idx)))
    fwd = [None] * ring.nvars
    for pos, j in enumerate(idx + rest):
        fwd[j] = pos
    gb = Ideal(ext, [transport(g, ext, fwd) for g in I.gens]).groebner()
    k = len(idx)
    back = [None] * ext.nvars
    for pos, j in enumerate(idx + rest):
        back[pos] = j if pos >= k else None
    out = []
    for g in gb:
        if all(all(e[c] == 0 for c in range(k)) for e, _ in g.terms):
            out.append(transport(g, ring, back))
    return Ideal(ring, out)


def membership_exponent(I, l, g, jmax):
    """min j with l^j * g in I, scanning j = 0..jmax; None if not reached.

    Iterates normal forms, NF(l * NF(l^(j-1) * g)) == NF(l^j * g), so each
    step multiplies a remainder by l instead of carrying the growing power.
    """
    gb = I.groebner()
    cur = gb.normal_form(g)
    for j in range(jmax + 1):
        if cur.is_zero():
            return j
        cur = gb.normal_form(cur * l)
    return None


@dataclass
class SaturationBound:
    """Report of the saturation-exponent inequality for one linear form.

    q is the number of strict colon steps to reach I^sat; the asserted chain
    is q <= a0(A/I) - indeg(I^sat) + 1 <= reg(I) - indeg(I^sat).  status is
    "ok", "saturated" (bound trivial, q = 0), or "not_generic" when the
    chosen form fails its genericity checks.
    """

    q: object
    a0: object
    indeg_sat: object
    reg_ideal: int
    bound_mid: object
    bound_right: object
    holds: object
    status: str
    method: str
    precondition_certified: bool
    notes: list = field(default_factory=list)


def saturation_exponent_bound_check(I, l, method="auto"):
    """Check the saturation-exponent bound for the linear form l.

    method "chain" iterates literal colons (exact, any size); "membership"
    derives q from membership exponents of the saturated generators, which
    matches the chain length whenever l is generic (the caller is expected
    to validate genericity; small rings get an exact colon certificate here).
    """
    from .resolution import a0 as a0_of, regularity_ideal

    ring = I.ring
    if l.ring != ring or l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("l must be a linear form of the ideal's ring")
    S = saturate_irrelevant(I)
    reg_i = regularity_ideal(I)
    a0_val = a0_of(I)
    ind = hilbert.indeg(S)
    if S.same_ideal(I):
        return SaturationBound(
            q=0, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i, bound_mid=None,
            bound_right=reg_i - ind, holds=True, status="saturated",
            method="trivial", precondition_certified=True,
            notes=["ideal is saturated; q = 0 and the bound is trivial"])
    bound_mid = a0_val - ind + 1
    bound_right = reg_i - ind
    if method == "auto":
        method = "chain" if ring.nvars <= 4 and reg_i <= 12 else "membership"
    notes = []
    certified = False
    status = "ok"
    if method == "chain":
        chain_sat, q = saturate(I, l)
        if not chain_sat.same_ideal(S):
            return SaturationBound(
                q=None, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i,
                bound_mid=bound_mid, bound_right=bound_right, holds=None,
                status="not_generic", method=method, precondition_certified=False,
                notes=["I : l^inf differs from I^sat; the form is not generic"])
        certified = True
        notes.append("chain stabilized at I^sat; colon chain is exact")
    else:
        jmax = max(bound_mid + 3, 3)
        exps = []
        sat_gens = S.groebner().polys
        for g in sat_gens:
            j = membership_exponent(I, l, g, jmax)
            if j is None:
                return SaturationBound(
                    q=None, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i,
                    bound_mid=bound_mid, bound_right=bound_right, holds=False,
                    status="not_generic", method=method, precondition_certified=False,
                    notes=[f"l^j * g stayed outside I through j = {jmax}; "
                           "either the bound fails or the form is not generic"])
            exps.append(j)
        q = max(exps)
        notes.append(f"membership exponents of {len(exps)} saturated generators, max {q}")
        if ring.nvars <= 4 and reg_i <= 12:
            C = colon(I, l)
            if S.contains_ideal(C):
                certified = True
                notes.append("exact colon certificate: I : l is contained in I^sat")
            else:
                return SaturationBound(
                    q=q, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i,
                    bound_mid=bound_mid, bound_right=bound_right, holds=None,
                    status="not_generic", method=method, precondition_certified=False,
                    notes=["I : l escapes I^sat; the form is not generic"])
    holds = q <= bound_mid and bound_mid <= bound_right
    return SaturationBound(
        q=q, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i, bound_mid=bound_mid,
        bound_right=bound_right, holds=holds, status=status, method=method,
        precondition_certified=certified, notes=notes)
