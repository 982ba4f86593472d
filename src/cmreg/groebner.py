"""Ideals and Groebner bases.

Buchberger's algorithm with Gebauer-Moeller pair elimination and
degree-then-sugar pair selection, always returning the reduced basis, which
is canonical for a given ideal and order.  Ideal objects cache one basis per
order; the cache is written once and read-only afterwards, so sharing across
threads is safe.
"""

from __future__ import annotations

from . import _kernel
from .ring import PolyRing, Polynomial


class GroebnerBasis:
    """A reduced Groebner basis: monic polynomials sorted by decreasing lead."""

    __slots__ = ("ring", "order", "polys", "stats", "_ctx", "_reducers")

    def __init__(self, ring, order, polys, stats, ctx, reducers):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.stats = dict(stats)
        self._ctx = ctx
        self._reducers = reducers

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def leading_exps(self):
        """Leading exponent tuples under this basis's own order."""
        return tuple(self._ctx.unpack(r.leadkey) for r in self._reducers)

    def normal_form(self, f):
        """Canonical remainder of f modulo the ideal, in this order."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        pd = _kernel.to_packed(self._ctx, f)
        rem, _ = _kernel.normal_form(self._ctx, pd, self._reducers)
        return _kernel.from_packed(self._ctx, rem, self.ring)

    def reduces_to_zero(self, f):
        pd = _kernel.to_packed(self._ctx, f)
        rem, _ = _kernel.normal_form(self._ctx, pd, self._reducers)
        return not rem

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys, order={self.order!r})"


class Ideal:
    """An ideal of a polynomial ring, given by generators."""

    def __init__(self, ring, gens):
        self.ring = ring
        cleaned = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a polynomial")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = {}
        self._cache = {}

    def groebner(self, order=None):
        """The reduced Groebner basis in the given order (default: ring order)."""
        order = self.ring.order if order is None else order
        key = repr(order)
        gb = self._gb.get(key)
        if gb is None:
            gb = buchberger(self, order)
            self._gb[key] = gb
        return gb

    def is_zero(self):
        return len(self.groebner()) == 0

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].degree() == 0

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def contains_ideal(self, other):
        if other.ring != self.ring:
            raise ValueError("ideals from different rings")
        gb = self.groebner()
        return all(gb.reduces_to_zero(g) for g in other.gens)

    def same_ideal(self, other):
        """Equality as ideals, decided by reduced-basis comparison."""
        if other.ring != self.ring:
            raise ValueError("ideals from different rings")
        return self.groebner().polys == other.groebner().polys

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"


def buchberger(ideal_or_gens, order=None):
    """Compute the reduced Groebner basis of an ideal.

    Accepts an Ideal or a list of polynomials.  The result is independent of
    generator order and duplicates (reduced bases are unique), which the test
    suite asserts by recomputation.
    """
    if isinstance(ideal_or_gens, Ideal):
        ring = ideal_or_gens.ring
        gens = ideal_or_gens.gens
    else:
        gens = list(ideal_or_gens)
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    order = ring.order if order is None else order
    bound = order.bind(ring.nvars)
    ctx = _kernel.Context(bound, ring.field)
    packed = [_kernel.to_packed(ctx, g) for g in gens if not g.is_zero()]
    basis, stats = _kernel.buchberger(ctx, packed)
    polys = [_kernel.from_packed(ctx, d, ring) for d in basis]
    reducers = [_kernel.Reducer.from_packed(ctx, d, index=i, sugar=0) for i, d in enumerate(basis)]
    return GroebnerBasis(ring, order, polys, stats, ctx, reducers)


def member(f, ideal, order=None):
    """Ideal membership by reduction to zero against a cached basis."""
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    gb = ideal.groebner(order)
    return gb.reduces_to_zero(f)


def spair_certificate(gb):
    """Check that every S-pair of a basis reduces to zero; returns pair count.

    This is the defining Groebner property, asserted over emitted bases in the
    test suite rather than assumed.
    """
    from .ring import spoly

    polys = gb.polys
    count = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = spoly(polys[i], polys[j], gb.order)
            if not s.is_zero() and not gb.reduces_to_zero(s):
                raise AssertionError(f"S-pair ({i},{j}) does not reduce to zero")
            count += 1
    return count
