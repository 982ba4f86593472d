"""Minimal graded free resolutions, Betti tables, and regularity.

The resolution of A/I is built by iterated syzygies in the Schreyer order:
the reduced Groebner basis gives the first matrix, and at each level the
surviving S-pairs (after lead-divisibility pruning inside each component)
reduce to zero with tracked quotients, which are exactly the next level's
syzygies.  Each level's free module is a _kernel.ModContext: a module term
is one packed int in the Schreyer order, so the S-pairs and their
reductions are the kernel's _spair and _reduce, as for ideals.  The result
is then minimized over the field by cancelling degree-zero unit entries
with exact column operations.

Certification is part of the construction: compositions of consecutive
minimized matrices must vanish, no unit entries may remain, the length must
not exceed the number of variables, and the alternating sum of the Betti
numbers must reproduce the Hilbert numerator computed independently from
lead terms.  Any failure is a hard error, not a warning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import lcm

from . import _kernel, hilbert
from ._kernel import Context, ModContext, Reducer, _reduce, _spair, pdict_addmul
from .groebner import Ideal
from .ring import GREVLEX, Polynomial, word_lcm

NEG_INF = float("-inf")


@dataclass(frozen=True)
class GradedMatrix:
    """A graded matrix between free modules, with sparse polynomial entries."""

    ring: object
    row_degrees: tuple
    col_degrees: tuple
    entries: dict  # (row, col) -> Polynomial

    def entry(self, r, c):
        e = self.entries.get((r, c))
        if e is None:
            return self.ring.zero
        return e

    def check_graded(self):
        for (r, c), p in self.entries.items():
            if p.is_zero():
                continue
            if not p.is_homogeneous() or p.degree() != self.col_degrees[c] - self.row_degrees[r]:
                raise AssertionError("matrix entry degree disagrees with the grading")

    def has_unit_entry(self):
        return any(not p.is_zero() and p.degree() == 0 for p in self.entries.values())


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
    """A minimal graded free resolution of A/I with its Betti table."""

    ring: object
    matrices: list
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


def _column_form(levels, modules):
    """Per level: {col_id: {row_id: packed poly dict}}, module keys decoded."""
    cols_by_level = {}
    for lvl, (elems, module) in enumerate(zip(levels, modules), start=1):
        dec = module.dec
        cols = {}
        for ci, el in enumerate(elems):
            col = {}
            for K, coef in el.items():
                c, k = dec(K)
                col.setdefault(c, {})[k] = coef
            cols[ci] = col
        cols_by_level[lvl] = cols
    return cols_by_level


def _is_unit_entry(pd):
    return len(pd) == 1 and 0 in pd


def _minimize(ctx, cols_by_level, top_level):
    """Cancel unit entries with exact column operations; mutates in place.

    A heap worklist holds (level, col, row) of unit entries: seeded once,
    pushed whenever a column operation leaves a unit, and checked again when
    popped.  So each step cancels the smallest unit entry left, as a full
    rescan would.  Each level keeps a row index, row -> set of the columns
    with an entry in that row, so cancelling the unit u at (lvl, ci, ri)
    touches only the columns of row ri: each gives up its entry v there,
    which the operation col -= (v / u) * pivot_col would cancel exactly, and
    takes -(v / u) * pivot_col on the pivot's other rows.  Row ci of level
    lvl + 1 is dropped through that level's index.  Column ri of level
    lvl - 1 is dropped without updating its index, which is never read
    again: levels are popped in ascending order, and a column operation
    leaves units only on its own level.
    """
    field = ctx.field
    rows_by_level = {}
    work = []
    for lvl in range(1, top_level + 1):
        rows = rows_by_level[lvl] = {}
        for ci, col in cols_by_level.get(lvl, {}).items():
            for ri, pd in col.items():
                rows.setdefault(ri, set()).add(ci)
                if _is_unit_entry(pd):
                    work.append((lvl, ci, ri))
    heapq.heapify(work)
    cancelled = 0
    while work:
        lvl, ci, ri = heapq.heappop(work)
        cols, rows = cols_by_level[lvl], rows_by_level[lvl]
        pivot_col = cols.get(ci)
        if pivot_col is None or not _is_unit_entry(pivot_col.get(ri, {})):
            continue
        del cols[ci]
        for r in pivot_col:
            rows[r].discard(ci)
        scale = field.neg(field.inv(pivot_col.pop(ri)[0]))
        for cj in rows.pop(ri):
            col = cols[cj]
            v = col.pop(ri)
            for r2, pd in pivot_col.items():
                tgt = col.setdefault(r2, {})
                pdict_addmul(ctx, tgt, v, pd, scale)
                if not tgt:
                    del col[r2]
                    rows[r2].discard(cj)
                    continue
                rows.setdefault(r2, set()).add(cj)
                if _is_unit_entry(tgt):
                    heapq.heappush(work, (lvl, cj, r2))
        for cj in rows_by_level.get(lvl + 1, {}).pop(ci, ()):
            del cols_by_level[lvl + 1][cj][ci]
        if lvl >= 2:
            cols_by_level[lvl - 1].pop(ri, None)
        cancelled += 1
    return cancelled


def _compose_is_zero(ctx, lower_cols, upper_cols):
    """Whether M_l composed with M_{l+1} vanishes, on packed columns."""
    for col in upper_cols.values():
        acc = {}
        for s, pd in col.items():
            lower = lower_cols.get(s)
            if lower is None:
                if pd:
                    return False
                continue
            for r, pdl in lower.items():
                tgt = acc.setdefault(r, {})
                pdict_addmul(ctx, tgt, pd, pdl)
                if not tgt:
                    del acc[r]
        if any(acc.values()):
            return False
    return True


def minimal_resolution(I):
    """The minimal graded free resolution of A/I, certified as it is built.

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
        res = Resolution(ring, [], BettiTable("A/I", {(0, 0): 1}),
                         {"levels": 0, "cancelled": 0})
        I._cache["resolution"] = res
        return res
    ctx = Context(GREVLEX.bind(ring.nvars), ring.field)
    gb_packed = [_kernel.to_packed(ctx, g) for g in gb.polys]
    levels, modules = _schreyer_levels(ctx, gb_packed, ring.nvars)
    cols_by_level = _column_form(levels, modules)
    top = len(levels)
    cancelled = _minimize(ctx, cols_by_level, top)
    while top >= 1 and not cols_by_level.get(top):
        cols_by_level.pop(top, None)
        top -= 1

    live = {0: [0]}
    for lvl in range(1, top + 1):
        live[lvl] = sorted(cols_by_level[lvl])
    degs = {0: {0: 0}}
    for lvl in range(1, top + 1):
        degs[lvl] = {ci: modules[lvl].degs[ci] for ci in live[lvl]}

    matrices = []
    betti_entries = {(0, 0): 1}
    for lvl in range(1, top + 1):
        rows = live[lvl - 1]
        cols = live[lvl]
        rpos = {r: idx for idx, r in enumerate(rows)}
        cpos = {c: idx for idx, c in enumerate(cols)}
        entries = {}
        for ci in cols:
            for ri, pd in cols_by_level[lvl][ci].items():
                if ri not in rpos:
                    raise AssertionError("matrix entry on a cancelled row")
                poly = _kernel.from_packed(ctx, pd, ring)
                if not poly.is_zero():
                    entries[(rpos[ri], cpos[ci])] = poly
        row_degrees = tuple(degs[lvl - 1][r] for r in rows)
        col_degrees = tuple(degs[lvl][c] for c in cols)
        gm = GradedMatrix(ring, row_degrees, col_degrees, entries)
        gm.check_graded()
        if gm.has_unit_entry():
            raise AssertionError("minimized resolution still has a unit entry")
        matrices.append(gm)
        for d in col_degrees:
            betti_entries[(lvl, d)] = betti_entries.get((lvl, d), 0) + 1

    for lvl in range(1, top):
        if not _compose_is_zero(ctx, cols_by_level[lvl], cols_by_level[lvl + 1]):
            raise AssertionError("consecutive resolution matrices do not compose to zero")

    table = BettiTable("A/I", betti_entries)
    if table.pdim() > ring.nvars:
        raise AssertionError("resolution length exceeds the number of variables")
    _check_euler(I, table)
    res = Resolution(ring, matrices, table,
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
