"""Graded free resolutions, Betti tables, and regularity.

A Betti table comes by one of three routes, named in Resolution.stats.
The complete and the almost complete intersection that
families.build_family makes record how each is resolved
(I._cache["route"]); every other ideal takes the Schreyer route.

- koszul: the builder's complete intersection, whose forms are a regular
  sequence (the builder asserts that its height equals their number), is
  resolved by their Koszul complex, which is minimal: beta_{i,j} counts the
  i-subsets of the form degrees that sum to j.
- linkage: the almost complete intersection I = CI + (F), with F of degree
  d in the residual a and off the curve P.  The builder certifies CI =
  P cap a, so P * a lies in CI, and F in a is asserted here, so P lies in
  CI : F.  By the exact sequence 0 -> A/(CI : F)(-d) -> A/CI -> A/I -> 0,
  whose first map is multiplication by F, CI : F = P exactly when the
  Hilbert numerators satisfy N(A/I) = N(A/CI) - t^d N(A/P).  The mapping
  cone of a lift of that map, from P's minimal resolution shifted by d into
  CI's, then resolves A/I (Peskine and Szpiro, Invent. Math. 26, 1974).  It
  is minimal unless the lift has a constant entry, which needs a degree-j
  generator of CI's i-th module and a degree-(j - d) one of P's.  So where
  no (i, j) has both, beta_{i,j}(A/I) = beta_{i,j}(A/CI)
  + beta_{i-1,j-d}(A/P), and the lift is never computed; where some (i, j)
  has both, I takes the Schreyer route.  The numerator identity is the one
  certificate, and the cone's Euler check below makes it: CI's and P's
  tables each passed their own, so the cone's alternating sum is
  N(A/CI) - t^d N(A/P), and it must equal N(A/I).
- schreyer: every other ideal, as below.

Every route's table must pass the Euler check against the Hilbert numerator
of A/I itself.

The Schreyer resolution of A/I is built by iterated syzygies in the Schreyer order:
the reduced Groebner basis gives the first matrix, and at each level the
surviving S-pairs (after lead-divisibility pruning inside each component)
reduce to zero, and each reduction writes the next level's syzygy as it
goes.  Each level's free module is a _kernel.ModContext: a module term
is one packed int in the Schreyer order, so the S-pairs and their
reductions are the kernel's _spair and _reduce, as for ideals.

The Schreyer resolution F is not minimal, and it is never minimized: the
graded Betti numbers are the homology of F tensored with the field, whose
differentials are the constant entries of F's.  So
beta_{i,j} = r_{i,j} - rank C_{i,j} - rank C_{i+1,j}, where r_{i,j} counts
the degree-j generators of F_i and C_{i,j} is the block of constant entries
of d_i between degree-j generators (Erocal, Motsak, Schreyer and Steenpass,
"Refined algorithms to compute syzygies", JSC 74, 2016).

Every level is stored as its reducers hold it: monic over F_p, and over Q
each element a primitive integer vector with a positive lead.  A syzygy is
written once, by the reduction that proves it (_kernel._reduce tracks its
steps in the next module's keys), so over Q no syzygy passes through a
Fraction.

Certification is part of the construction: every S-pair must reduce to zero
with its predicted syzygy lead.  One pass over the finished levels then
decodes each stored term once: it adds the term's image into the level
below, an integer sum on both fields, so consecutive Schreyer differentials
must compose to zero, and it collects the constant entries, which must join
generators of one degree, while it counts the generators by degree.  No
Betti number may come out negative, the length must not exceed the number
of variables, and the alternating sum of the Betti numbers must reproduce
the Hilbert numerator computed independently from lead terms.  Any failure
is a hard error, not a warning.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import gcd

from . import hilbert
from ._kernel import ModContext, Reducer, _reduce, _spair, reducer_form
from ._linalg import echelon
from .ring import GREVLEX, word_lcm


class BettiTable:
    """Graded Betti numbers beta_{i,j} of a module, with renderers."""

    def __init__(self, module_label, entries):
        self.module_label = module_label
        self.entries = {k: v for k, v in entries.items() if v}

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    def pdim(self):
        if not self.entries:
            return 0
        return max(i for i, _ in self.entries)

    def regularity(self):
        if not self.entries:
            return 0
        return max(j - i for i, j in self.entries)

    def total(self, i):
        return sum(b for (ii, _), b in self.entries.items() if ii == i)

    def to_json_obj(self):
        rows = [{"i": i, "j": j, "b": b}
                for (i, j), b in sorted(self.entries.items())]
        return {"module": self.module_label, "betti": rows}

    def to_text(self):
        if not self.entries:
            return "empty Betti table\n"
        imax = self.pdim()
        rmin = min(j - i for i, j in self.entries)
        rmax = max(j - i for i, j in self.entries)
        cols = list(range(imax + 1))
        totals = [self.total(i) for i in cols]
        grid = []
        for r in range(rmin, rmax + 1):
            grid.append([self.beta(i, i + r) for i in cols])
        width = max(len(str(v)) for v in totals + [b for row in grid for b in row]) + 2
        head_label = max(len(f"{r}:" ) for r in range(rmin, rmax + 1))
        head_label = max(head_label, len("total:"))
        lines = []
        lines.append(" " * head_label + "".join(str(i).rjust(width) for i in cols))
        lines.append("total:".ljust(head_label)
                     + "".join(str(t).rjust(width) for t in totals))
        for r, row in zip(range(rmin, rmax + 1), grid):
            cells = "".join((str(b) if b else ".").rjust(width) for b in row)
            lines.append(f"{r}:".ljust(head_label) + cells)
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({self.module_label}, pdim={self.pdim()}, reg={self.regularity()})"


class Resolution(namedtuple("Resolution", "ring betti stats")):
    """The graded Betti table of A/I and the work behind it; stats["route"]
    names the route (see the module docstring)."""

    __slots__ = ()


def _schreyer_levels(ctx, gb_packed, nvars):
    """Iterated Schreyer syzygies; returns (levels, modules).

    levels[l] lists the elements of level l + 1, sorted descending by lead,
    as packed dicts in the keys of modules[l], the free module they live in.
    Each element is stored as its reducer holds it (see
    _kernel.reducer_form): monic over F_p, a primitive integer vector with
    a positive lead over Q, so the next level's syzygies refer to exactly
    these elements.  modules[0] is the ring, of rank one, where a module key
    is the ring key; modules[l + 1] has one basis element per element of
    levels[l].  gb_packed is the ideal's reduced grevlex basis as its
    GroebnerBasis holds it, sorted descending by lead; level 1 may share
    its dicts, so no level is written to once it is made.
    """
    word, degree = ctx.word, ctx.degree
    module = ModContext(ctx, [0], [()], [0])
    modules = [module]
    current = [reducer_form(ctx, d, max(d)) for d in gb_packed]
    levels = []
    while current:
        levels.append(current)
        imgkeys, chains, degs = [], [], []
        for i, el in enumerate(current):
            lead = max(el)
            img = lead >> module.cbits
            imgkeys.append(img)
            chains.append(module.chains[module.comp[lead & module.cmask]] + (i,))
            degs.append(degree(word(img)))
        new = ModContext(ctx, imgkeys, chains, degs)
        current = _syzygies(ctx, module, new, current)
        current.sort(key=max, reverse=True)
        modules.append(new)
        module = new
        if len(levels) > nvars + 5:
            raise RuntimeError("resolution exceeded the level budget before terminating")
    return levels, modules


def _syzygies(ctx, module, new, elems):
    """The Schreyer syzygies of elems, in reducer form, keyed in new.

    Within each lead component, a pair (i, j) survives when no kept pair
    (i, j') has a monomial cofactor T' dividing its T.  Its S-pair,
    a_i x^si e_i - a_j x^sj e_j mapped to module with the scalars of _spair
    (1 over F_p), reduces to zero by _reduce against the elems.  That
    reduction writes its steps into the syzygy seeded with those two terms,
    in new's keys, so it ends as the syzygy itself: monic over F_p, and over
    Q an integer vector with a positive lead, divided by its content.
    """
    p = ctx.p
    keyof, degree, guards = ctx.key, ctx.degree, ctx.guards
    cbits, cmask = module.cbits, module.cmask
    reds = [Reducer.of_form(module, el, max(el), index=i, sugar=0) for i, el in enumerate(elems)]
    by_rank = {}
    for red in reds:
        by_rank.setdefault(red.leadkey & cmask, []).append(red)
    ncbits, rank = new.cbits, new.rank
    out = []
    for group in by_rank.values():
        for a, ri in enumerate(group):
            wi = ri.leadword
            cands = []
            for rj in group[a + 1:]:
                T = word_lcm(wi, rj.leadword, guards) - wi
                cands.append((degree(T), rj.index, T))
            # Sorted by degree, a candidate is dropped exactly when a proper
            # divisor or an equal T of smaller j comes before it.
            cands.sort()
            kept = []
            for _, j, T in cands:
                for Tk, _ in kept:
                    if not (T - Tk) & guards:
                        break
                else:
                    kept.append((T, j))
            i = ri.index
            for T, j in kept:
                rj = reds[j]
                lcmkey = ri.leadkey + (keyof(T) << cbits)
                # x^si e_i and x^sj e_j both map to the S-pair's lcm.  No
                # step of the reduction writes over them: each reduces a term
                # below the lcm, with a reducer other than i and j when the
                # term shares the lcm's ring part.
                top = (lcmkey >> cbits) << ncbits
                lead = top | rank[i]
                g = gcd(ri.lc, rj.lc)
                aj = ri.lc // g
                syz = {lead: rj.lc // g, top | rank[j]: p - aj if p else -aj}
                rem, _, _ = _reduce(module, _spair(ri, rj, lcmkey, p), by_rank, (syz, ncbits, rank))
                if rem:
                    raise AssertionError("S-pair of a Schreyer basis failed to reduce to zero")
                if max(syz) != lead:
                    raise AssertionError("Schreyer syzygy lead differs from its predicted value")
                out.append(reducer_form(module, syz, lead))
    return out


def _betti_entries(levels, modules):
    """The graded Betti numbers of A/I and the constant rank, read off the
    Schreyer levels in one certified pass.

    Each term x^k e_c of a level-i element is decoded once.  Above level 1
    it adds x^k times element c of level i - 1, as stored, into the
    element's image.  Every stored coefficient is an int on both fields
    (over Q the levels are primitive integer vectors), so the image is an
    integer sum; it accumulates without reduction, so over F_p an image
    vanishes when it is 0 mod p, and every image must vanish.  A constant
    term (k = 0) is an
    entry of the element's row in C_{i,j}, whose row and column must both
    have degree j.  Returns ({(i, j): beta_{i,j}}, sum of the ranks).
    """
    p, field = modules[0].p, modules[0].field
    entries, blocks = {(0, 0): 1}, {}
    for i, elems in enumerate(levels, start=1):
        module, degs = modules[i - 1], modules[i].degs
        comp, imgkeys, lower_degs = module.comp, module.imgkeys, module.degs
        cbits, cmask = module.cbits, module.cmask
        # Level 1 lives in the ring, of rank one, with no level below.  The
        # level below is read once, as item tuples.
        if i > 1:
            lower, lower_cbits = [tuple(d.items()) for d in levels[i - 2]], modules[i - 2].cbits
        else:
            lower, lower_cbits = [()], 0
        for col, el in enumerate(elems):
            j = degs[col]
            entries[(i, j)] = entries.get((i, j), 0) + 1
            acc, row = {}, {}
            for K, coef in el.items():
                # K decodes to x^k e_c, as module.dec(K) would give it.
                c = comp[K & cmask]
                k = (K >> cbits) - imgkeys[c]
                if not k:
                    if lower_degs[c] != j:
                        raise AssertionError("a constant entry joins generators of different degrees")
                    row[c] = coef
                shift = k << lower_cbits
                for K2, c2 in lower[c]:
                    key = K2 + shift
                    acc[key] = acc.get(key, 0) + coef * c2
            for v in acc.values():
                if v % p if p else v:
                    raise AssertionError("consecutive Schreyer differentials do not compose to zero")
            if row:
                blocks.setdefault((i, j), []).append(row)
    cancelled = 0
    for (i, j), rows in blocks.items():
        rank = len(echelon(rows, field))
        entries[(i, j)] -= rank
        entries[(i - 1, j)] -= rank
        cancelled += rank
    return entries, cancelled


def minimal_resolution(I):
    """The Betti table of the minimal graded free resolution of A/I, by the
    route the ideal records (see the module docstring), certified as it is
    computed.

    Requires homogeneous generators and a proper ideal.  Cached on the ideal.
    """
    cached = I._cache.get("resolution")
    if cached is not None:
        return cached
    route, *args = I._cache.get("route", ("schreyer",))
    res = None
    if route == "koszul":
        res = _minimal_route(I, route, _koszul_entries([g.degree() for g in I.gens]))
    elif route == "linkage":
        res = _linkage_resolution(I, *args)
    if res is None:
        res = _schreyer_resolution(I)
    I._cache["resolution"] = res
    return res


def _schreyer_resolution(I):
    ring = I.ring
    if not I.is_homogeneous():
        raise ValueError("resolutions need homogeneous generators")
    gb = I.groebner(GREVLEX)
    if not gb._basis:
        return Resolution(ring, BettiTable("A/I", {(0, 0): 1}),
                          {"route": "schreyer", "levels": 0, "cancelled": 0})
    if max(gb._basis[-1]) == 0:
        raise ValueError("the unit ideal has no minimal free resolution of A/I")
    levels, modules = _schreyer_levels(gb._ctx, gb._basis, ring.nvars)
    betti_entries, cancelled = _betti_entries(levels, modules)

    if any(b < 0 for b in betti_entries.values()):
        raise AssertionError("constant ranks exceed a non-minimal rank")

    table = BettiTable("A/I", betti_entries)
    if table.pdim() > ring.nvars:
        raise AssertionError("resolution length exceeds the number of variables")
    _check_euler(I, table)
    return Resolution(ring, table,
                      {"route": "schreyer", "levels": len(levels), "cancelled": cancelled,
                       "nonminimal_ranks": [len(l) for l in levels]})


def _koszul_entries(degrees):
    """beta_{i,j} of the Koszul complex on forms of the given degrees: the
    number of i-subsets of the degrees that sum to j."""
    return Counter((i, sum(subset)) for i in range(len(degrees) + 1)
                   for subset in combinations(degrees, i))


def _cone_entries(ci_entries, curve_entries, d):
    """beta_{i,j}(A/CI) + beta_{i-1,j-d}(A/P), the mapping cone's table."""
    entries = Counter(ci_entries)
    for (i, j), b in curve_entries.items():
        entries[(i + 1, j + d)] += b
    return entries


def _linkage_resolution(I, ci, curve, residual, F):
    """The mapping cone's Resolution of A/I for I = ci + (F), certified as
    the module docstring says; None on a degree coincidence."""
    d = F.degree()
    ci_entries, curve_entries = betti(ci).entries, betti(curve).entries
    if any((i, j - d) in curve_entries for i, j in ci_entries):
        return None
    if I.gens != ci.gens + (F,):
        raise AssertionError("a linked ideal is not its complete intersection plus the extra form")
    if not residual._held_basis().reduces_to_zero(F):
        raise AssertionError(f"the degree-{d} extra form of a linkage is not in the residual")
    return _minimal_route(I, "linkage", _cone_entries(ci_entries, curve_entries, d))


def _minimal_route(I, route, entries):
    """The Resolution of a route that writes down a minimal resolution: its
    ranks are its Betti totals and nothing cancels.  The table must pass
    the Euler check."""
    table = BettiTable("A/I", entries)
    _check_euler(I, table)
    pd = table.pdim()
    return Resolution(I.ring, table,
                      {"route": route, "levels": pd, "cancelled": 0,
                       "nonminimal_ranks": [table.total(i) for i in range(1, pd + 1)]})


def _check_euler(I, table):
    """Alternating Betti sum must equal the Hilbert numerator from lead terms."""
    alt = {}
    for (i, j), b in table.entries.items():
        alt[j] = alt.get(j, 0) + (-1) ** i * b
    numerator = hilbert.hilbert_series(I).numerator
    if {j: v for j, v in alt.items() if v} != {j: c for j, c in enumerate(numerator) if c}:
        raise AssertionError("Betti numbers contradict the Hilbert numerator")


def betti(I):
    return minimal_resolution(I).betti


def regularity(I):
    """Castelnuovo-Mumford regularity of A/I."""
    return minimal_resolution(I).betti.regularity()


def regularity_ideal(I):
    """Regularity of the ideal itself: reg(I) = reg(A/I) + 1 for proper nonzero I."""
    table = minimal_resolution(I).betti
    if table.pdim() == 0:
        raise ValueError("regularity of the zero ideal is undefined here")
    return table.regularity() + 1


def pdim(I):
    """Projective dimension of A/I."""
    return minimal_resolution(I).betti.pdim()

