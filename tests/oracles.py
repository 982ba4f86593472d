"""Reference implementations the tests compare the engine against.

No module of the package calls these; each is the plain route to an answer
the engine reaches another way: division with quotients against a list of
polynomials, S-polynomials and the S-pair certificate of a basis, the
elimination ideal read off a block-order basis (the reference for
idealops.intersect), the support word of an exponent word, and the extra
form found by membership in the curve (the reference for
families.extra_form).
"""

from __future__ import annotations

from cmreg import _kernel
from cmreg.families import graded_piece_basis
from cmreg.groebner import Ideal
from cmreg.ring import EXP_BITS, GREVLEX, Block


# --- Words -------------------------------------------------------------------

def word_support(w, guards):
    """The word with a 1 in each nonzero field of w: a guarded decrement."""
    ones = guards >> (EXP_BITS - 1)
    return (((w | guards) - ones) & guards) >> (EXP_BITS - 1)


# --- S-polynomials -----------------------------------------------------------

def spoly(f, g, order=GREVLEX):
    """The S-polynomial of f and g: the lcm cross-multiple with leads under order cancelled."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise ValueError("polynomials from different rings")
    pack = order.bind(ring.nvars).pack
    (lf, cf), (lg, cg) = (max(h.terms, key=lambda t: pack(t[0])) for h in (f, g))
    lcm = tuple(map(max, lf, lg))
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, lf)), ring.field.inv(cf))
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, lg)), ring.field.inv(cg))
    return mf * f - mg * g


def spair_certificate(gb):
    """Check that every S-pair of a basis reduces to zero; returns pair count.

    This is the defining Groebner property, asserted over emitted bases in the
    test suite rather than assumed.
    """
    polys = gb.polys
    count = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = spoly(polys[i], polys[j], gb.order)
            if not s.is_zero() and not gb.reduces_to_zero(s):
                raise AssertionError(f"S-pair ({i},{j}) does not reduce to zero")
            count += 1
    return count


# --- Division ----------------------------------------------------------------

def reduce(f, basis):
    """Full normal form of f against basis, in grevlex.

    Returns (remainder, quotients), one quotient per basis element (zero for
    a zero element), with f == sum(q*g) + remainder and the remainder having
    no term divisible by any basis leading monomial.  The highest reducible
    term is rewritten first and ties among reducers go to the smallest basis
    index, so the result is deterministic.
    """
    ring = f.ring
    for g in basis:
        if g.ring != ring:
            raise ValueError("basis polynomial from a different ring")
    ctx = _kernel.Context(ring.bound, ring.field)
    reducers = [_kernel.Reducer.from_packed(ctx, _kernel.to_packed(ctx, g), index=i)
                for i, g in enumerate(basis) if not g.is_zero()]
    rem, quots = _kernel.normal_form(ctx, _kernel.to_packed(ctx, f), reducers, track=True)
    out_quots = []
    for i, g in enumerate(basis):
        q = _kernel.from_packed(ctx, quots.get(i, {}), ring)
        out_quots.append(q if g.is_zero() else q * ring.const(ring.field.inv(g.lc())))
    return _kernel.from_packed(ctx, rem, ring), out_quots


# --- Elimination -------------------------------------------------------------

def eliminate(I, k, ring=None):
    """The elimination ideal of the first k variables: the elements of I's
    basis in the block order Block(k) that are free of them.  It lies in I's
    ring, or in ring when given: a ring over the same field on the other
    variables, in order.

    The result holds those elements as its reduced grevlex basis: on
    polynomials free of the block, Block(k) is grevlex on the other
    variables, and the kept elements are monic, with minimal leads and tails
    reduced against every lead.
    """
    n = I.ring.nvars
    if not 1 <= k < n:
        raise ValueError(f"can eliminate 1 to {n - 1} leading variables, not {k}")
    if ring is not None and (ring.nvars != n - k or ring.field != I.ring.field):
        raise ValueError(f"the target ring needs {n - k} variables over {I.ring.field}")
    gb = I.groebner(Block(k))
    # The first k fields are the top of a Block(k) word, and in Block(k) a
    # lead free of them makes every term free of them.
    rest = 1 << EXP_BITS * (n - k)
    kept = [pd for pd, w in zip(gb._basis, gb.lead_words()) if w < rest]
    # Free of the block, a Block(k) key is already the grevlex key of the
    # other variables; in I's ring it is re-keyed.
    if ring is None:
        ring = I.ring
        kept = [_kernel.from_packed(gb._ctx, pd, ring).pdict for pd in kept]
    ctx = _kernel.Context(ring.bound, ring.field)
    return Ideal._holding(ring, GREVLEX, ctx, kept)


# --- The extra form ----------------------------------------------------------

def first_row_off_the_curve(residual, curve, d):
    """The first row of the residual's degree-d echelon basis that the basis
    the curve holds does not reduce to zero: the extra form by a membership
    test, where families.extra_form reads the curve's parametrization."""
    gbb = curve._held_basis()
    return next(f for f in graded_piece_basis(residual, d) if not gbb.reduces_to_zero(f))
