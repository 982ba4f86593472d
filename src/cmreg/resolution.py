"""Graded free resolutions, Betti tables, and regularity.

The resolution of A/I is built by iterated syzygies in the Schreyer order:
the reduced Groebner basis gives the first matrix, and at each level the
surviving S-pairs (after lead-divisibility pruning inside each component)
reduce to zero with tracked quotients, which are exactly the next level's
syzygies.  Each level's free module is a _kernel.ModContext: a module term
is one packed int in the Schreyer order, so the S-pairs and their
reductions are the kernel's _spair and _reduce, as for ideals.

The Schreyer resolution F is not minimal, and it is never minimized: the
graded Betti numbers are the homology of F tensored with the field, whose
differentials are the constant entries of F's.  So
beta_{i,j} = r_{i,j} - rank C_{i,j} - rank C_{i+1,j}, where r_{i,j} counts
the degree-j generators of F_i and C_{i,j} is the block of constant entries
of d_i between degree-j generators (Erocal, Motsak, Schreyer and Steenpass,
"Refined algorithms to compute syzygies", JSC 74, 2016).

Certification is part of the construction: every S-pair must reduce to zero
with its predicted syzygy lead, consecutive Schreyer differentials must
compose to zero, no Betti number may come out negative, the length must not
exceed the number of variables, and the alternating sum of the Betti
numbers must reproduce the Hilbert numerator computed independently from
lead terms.  Any failure is a hard error, not a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import _kernel, hilbert
from ._kernel import Context, ModContext, Reducer, _reduce, _spair
from ._linalg import echelon
from .groebner import Ideal
from .ring import GREVLEX, word_lcm

NEG_INF = float("-inf")


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


@dataclass
class Resolution:
    """The graded Betti table of A/I and the Schreyer work behind it."""

    ring: object
    betti: BettiTable
    stats: dict


def _schreyer_levels(ctx, gb_packed, nvars):
    """Iterated Schreyer syzygies; returns (levels, modules).

    levels[l] lists the elements of level l + 1, sorted descending by lead,
    as packed dicts in the keys of modules[l], the free module they live in.
    modules[0] is the ring, of rank one, where a module key is the ring key;
    modules[l + 1] has one basis element per element of levels[l].
    """
    word, degree = ctx.word, ctx.degree
    module = ModContext(ctx, [0], [()], [0])
    modules = [module]
    current = sorted(gb_packed, key=max, reverse=True)
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
    """The Schreyer syzygies of the monic elems of module, keyed in new.

    Within each lead component, a pair (i, j) survives when no kept pair
    (i, j') has a monomial cofactor T' dividing its T.  Its S-pair, lambda
    times x^si e_i - x^sj e_j mapped to module, reduces to zero by _reduce
    against the elems, and lambda e_i x^si - lambda e_j x^sj minus the
    quotients, made monic, is the syzygy.  Over F_p, lambda is 1; over Q
    _spair forms lambda = lcm(lc_i, lc_j) times the monic S-pair.
    """
    field, p = ctx.field, ctx.p
    keyof, degree, guards = ctx.key, ctx.degree, ctx.guards
    cbits, cmask = module.cbits, module.cmask
    reds = [Reducer.from_packed(module, el, index=i, sugar=0) for i, el in enumerate(elems)]
    by_rank = {}
    for red in reds:
        by_rank.setdefault(red.leadkey & cmask, []).append(red)
    enc = new.enc
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
                if any(not (T - Tk) & guards for Tk, _ in kept):
                    continue
                kept.append((T, j))
            i = ri.index
            for T, j in kept:
                rj = reds[j]
                si = keyof(T)
                lcmkey = ri.leadkey + (si << cbits)
                rem, _, quots = _reduce(module, _spair(ri, rj, lcmkey, p), by_rank, True)
                if rem:
                    raise AssertionError("S-pair of a Schreyer basis failed to reduce to zero")
                lam = field(lcm(ri.lc, rj.lc))
                lead = enc(i, si)
                syz = {lead: lam, enc(j, (lcmkey - rj.leadkey) >> cbits): field.neg(lam)}
                for t, qd in quots.items():
                    for shift, coef in qd.items():
                        key = enc(t, shift >> cbits)
                        prev = syz.get(key)
                        val = field.neg(coef) if prev is None else field.sub(prev, coef)
                        if val:
                            syz[key] = val
                        else:
                            syz.pop(key, None)
                if max(syz) != lead:
                    raise AssertionError("Schreyer syzygy lead differs from its predicted value")
                lc = syz[lead]
                if lc != field(1):
                    inv = field.inv(lc)
                    syz = {t: field.mul(cf, inv) for t, cf in syz.items()}
                out.append(syz)
    return out


def _check_complex(levels, modules):
    """Assert d_l composed with d_{l+1} vanishes for the Schreyer levels.

    Term x^k e_c of a level l + 1 element maps to x^k times element c of
    level l, whose keys move by k << cbits of that level's module.  The sums
    accumulate without reduction, so over F_p a sum vanishes when it is 0
    mod p.
    """
    p = modules[0].p
    for lvl in range(1, len(levels)):
        lower, lower_cbits = levels[lvl - 1], modules[lvl - 1].cbits
        dec = modules[lvl].dec
        for el in levels[lvl]:
            acc = {}
            for K, coef in el.items():
                c, k = dec(K)
                shift = k << lower_cbits
                for K2, c2 in lower[c].items():
                    key = K2 + shift
                    acc[key] = acc.get(key, 0) + coef * c2
            if any(v % p for v in acc.values()) if p else any(acc.values()):
                raise AssertionError("consecutive Schreyer differentials do not compose to zero")


def _constant_blocks(levels, modules):
    """The constant entries of each differential, by level and degree.

    Returns {(i, j): {col: {row: coef}}} over the columns of level i (its
    elements) and the rows of level i - 1 (its module's basis).  A term K
    in component c is constant exactly when its monomial is img(c), K >>
    cbits == imgkeys[c], and then its column and row must have the same
    degree j.
    """
    blocks = {}
    for i, (elems, module) in enumerate(zip(levels, modules), start=1):
        cbits, cmask, comp, imgkeys = module.cbits, module.cmask, module.comp, module.imgkeys
        degs = modules[i].degs
        for col, el in enumerate(elems):
            for K, coef in el.items():
                c = comp[K & cmask]
                if K >> cbits == imgkeys[c]:
                    if module.degs[c] != degs[col]:
                        raise AssertionError("a constant entry joins generators of different degrees")
                    blocks.setdefault((i, degs[col]), {}).setdefault(col, {})[c] = coef
    return blocks


def minimal_resolution(I):
    """The Betti table of the minimal graded free resolution of A/I, read
    off the Schreyer resolution and certified as it is computed.

    Requires homogeneous generators and a proper ideal.  Cached on the ideal.
    """
    cached = I._cache.get("resolution")
    if cached is not None:
        return cached
    ring = I.ring
    if not I.is_homogeneous():
        raise ValueError("resolutions need homogeneous generators")
    gb = I.groebner(GREVLEX)
    if gb.polys and gb.polys[-1].degree() == 0:
        raise ValueError("the unit ideal has no minimal free resolution of A/I")
    if not gb.polys:
        res = Resolution(ring, BettiTable("A/I", {(0, 0): 1}),
                         {"levels": 0, "cancelled": 0})
        I._cache["resolution"] = res
        return res
    ctx = Context(GREVLEX.bind(ring.nvars), ring.field)
    gb_packed = [_kernel.to_packed(ctx, g) for g in gb.polys]
    levels, modules = _schreyer_levels(ctx, gb_packed, ring.nvars)
    _check_complex(levels, modules)

    betti_entries = {(0, 0): 1}
    for i in range(1, len(levels) + 1):
        for d in modules[i].degs:
            betti_entries[(i, d)] = betti_entries.get((i, d), 0) + 1
    cancelled = 0
    for (i, j), block in _constant_blocks(levels, modules).items():
        rank = len(echelon(block.values(), ring.field))
        betti_entries[(i, j)] -= rank
        betti_entries[(i - 1, j)] -= rank
        cancelled += rank
    if any(b < 0 for b in betti_entries.values()):
        raise AssertionError("constant ranks exceed a non-minimal rank")

    table = BettiTable("A/I", betti_entries)
    if table.pdim() > ring.nvars:
        raise AssertionError("resolution length exceeds the number of variables")
    _check_euler(I, table)
    res = Resolution(ring, table,
                     {"levels": len(levels), "cancelled": cancelled,
                      "nonminimal_ranks": [len(l) for l in levels]})
    I._cache["resolution"] = res
    return res


def _check_euler(I, table):
    """Alternating Betti sum must equal the Hilbert numerator from lead terms."""
    num = dict(enumerate(hilbert.hilbert_series(I).numerator))
    alt = {}
    for (i, j), b in table.entries.items():
        alt[j] = alt.get(j, 0) + (-1) ** i * b
    alt = {j: v for j, v in alt.items() if v}
    num = {j: v for j, v in num.items() if v}
    if alt != num:
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


def a0(I):
    """Top degree of the finite-length quotient I^sat / I; -inf when saturated."""
    from .idealops import saturate_irrelevant

    S = saturate_irrelevant(I)
    data = hilbert.finite_length(I, S)
    return data.top_degree


def a1_via_sequence(m, n, primed=False, char=32003):
    """a1 of the curve coordinate ring, read off the almost complete
    intersection through the twist exact sequence: a0(A/J) - d."""
    from .families import build_family

    fam = build_family(m, n, primed=primed, char=char)
    val = a0(fam.almost_complete_intersection)
    if val == NEG_INF:
        raise AssertionError("almost complete intersection is saturated; sequence degenerates")
    return val - fam.extra_degree
