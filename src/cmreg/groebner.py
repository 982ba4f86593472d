"""Ideals, Groebner bases and normal forms.

A monomial order belongs to a basis, grevlex by default; polynomials are
packed in grevlex whatever the basis order.  Buchberger's algorithm
with Gebauer-Moeller pair elimination and degree-then-sugar pair selection
always returns the reduced basis, which is canonical for a given ideal and
order.  Ideal objects cache one basis per order; the cache is written once
and read-only afterwards.  An ideal that an operation derives from a
Groebner basis (a variable colon, an intersection, a colon; see
idealops) arrives holding the reduced basis it was built from, so no later
Buchberger run rebuilds it, and questions that need no particular order
(containment, the Hilbert series) read a basis the ideal holds before
asking for a new one.  A basis keeps the kernel's packed dicts; its tuple
of polynomials, polys, is built the first time it is read, and its kernel
reducers the first time a normal form needs them.  Each fill is idempotent
(a race builds equal values), so sharing across threads stays safe.
"""

from __future__ import annotations

from . import _kernel
from .ring import GREVLEX, PermutedGrevlex, Polynomial


class GroebnerBasis:
    """A reduced Groebner basis: monic polynomials sorted by decreasing lead.

    It keeps the kernel's packed basis; polys, the tuple of ring
    polynomials, is built the first time it is read, and the reducers the
    first time a normal form needs them.  The leads are read off the
    packed dicts.
    """

    __slots__ = ("ring", "order", "stats", "_ctx", "_basis", "_reducers", "_polys")

    def __init__(self, ring, order, basis, stats, ctx):
        self.ring = ring
        self.order = order
        self.stats = dict(stats)
        self._ctx = ctx
        self._basis = basis
        self._reducers = None
        self._polys = None

    @property
    def polys(self):
        polys = self._polys
        if polys is None:
            polys = self._polys = tuple(_kernel.from_packed(self._ctx, d, self.ring)
                                        for d in self._basis)
        return polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._basis)

    def __getitem__(self, i):
        return self.polys[i]

    @property
    def reducers(self):
        """The kernel's reducers of the basis, built the first time a normal
        form needs them; most bases are only read for their leads."""
        reducers = self._reducers
        if reducers is None:
            ctx = self._ctx
            reducers = self._reducers = [_kernel.Reducer.from_packed(ctx, d, index=i, sugar=0)
                                         for i, d in enumerate(self._basis)]
        return reducers

    def leading_exps(self):
        """Leading exponent tuples under this basis's own order."""
        unpack = self._ctx.unpack
        return tuple(unpack(max(d)) for d in self._basis)

    def lead_words(self):
        """Exponent words of the leads, in this order's word layout (see ring.py)."""
        word = self._ctx.word
        return [word(max(d)) for d in self._basis]

    def normal_form(self, f):
        """Canonical remainder of f modulo the ideal, in this order."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        pd = _kernel.to_packed(self._ctx, f)
        rem, _ = _kernel.normal_form(self._ctx, pd, self.reducers)
        return _kernel.from_packed(self._ctx, rem, self.ring)

    def reduces_to_zero(self, f):
        pd = _kernel.to_packed(self._ctx, f)
        rem, _ = _kernel.normal_form(self._ctx, pd, self.reducers)
        return not rem

    def __repr__(self):
        return f"GroebnerBasis({len(self)} polys, order={self.order!r})"


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

    @classmethod
    def _holding(cls, ring, order, ctx, basis):
        """The ideal generated by a reduced basis in order, given as monic
        packed dicts of ctx sorted descending by lead; it holds that basis
        and its gens are the basis's polynomials."""
        stats = {"pairs_processed": 0, "zero_reductions": 0, "basis_size": len(basis)}
        gb = GroebnerBasis(ring, order, basis, stats, ctx)
        ideal = cls(ring, ())
        ideal.gens = gb.polys
        ideal._gb[repr(order)] = gb
        return ideal

    def groebner(self, order=GREVLEX):
        """The reduced Groebner basis in the given order."""
        key = repr(order)
        gb = self._gb.get(key)
        if gb is None:
            gb = buchberger(self, order)
            self._gb[key] = gb
        return gb

    def _held_basis(self):
        """A basis the ideal holds in a degree order: grevlex if held, else the
        first permuted grevlex it received; the grevlex basis, computed, when
        it holds neither."""
        held = self._gb.get(repr(GREVLEX))
        if held is None:
            held = next((gb for gb in tuple(self._gb.values())
                         if isinstance(gb.order, PermutedGrevlex)), None)
        return held if held is not None else self.groebner()

    # The zero and the unit ideal have one reduced basis in every order.
    def is_zero(self):
        return len(self._held_basis()) == 0

    def is_unit(self):
        gb = self._held_basis()
        return len(gb) == 1 and gb[0].degree() == 0

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def contains_ideal(self, other):
        if other.ring != self.ring:
            raise ValueError("ideals from different rings")
        # Membership holds in every Groebner basis.
        gb = self._held_basis()
        return all(gb.reduces_to_zero(g) for g in other.gens)

    def same_ideal(self, other):
        """Equality as ideals, decided by reduced-basis comparison."""
        if other.ring != self.ring:
            raise ValueError("ideals from different rings")
        return self.groebner().polys == other.groebner().polys

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"


def buchberger(ideal, order=GREVLEX):
    """Compute the reduced Groebner basis of an ideal.

    The result is independent of generator order and duplicates (reduced
    bases are unique), which the test suite asserts by recomputation.
    """
    ring = ideal.ring
    ctx = _kernel.Context(order.bind(ring.nvars), ring.field)
    packed = [_kernel.to_packed(ctx, g) for g in ideal.gens]
    basis, stats = _kernel.buchberger(ctx, packed)
    return GroebnerBasis(ring, order, basis, stats, ctx)


def member(f, ideal, order=GREVLEX):
    """Ideal membership by reduction to zero against a cached basis."""
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    gb = ideal.groebner(order)
    return gb.reduces_to_zero(f)
