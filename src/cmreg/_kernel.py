"""Packed-key computational kernel behind the Groebner and resolution layers.

Polynomials enter as {packed_key: coeff} dicts under a bound monomial order
(see ring.py): key addition is monomial multiplication and integer comparison
is the order comparison, so the hot loops touch only ints and dicts.  A
Polynomial is such a dict in grevlex, so for a grevlex context to_packed
copies it and from_packed wraps one; block and permuted orders re-key
through exponent tuples.  A free module in a Schreyer order packs the same
way (see ModContext): a term x^k e_c is one int whose integer order is the
Schreyer order and whose low bits name the component, so Schreyer syzygies
go through the same Reducer, _spair and _reduce as ideals do, with reducers
grouped by component.

Monomial tests run on exponent words, derived from a key when a term is
popped: a reducer's lead word divides w when (w - lead) & guards == 0, the
Gebauer-Moeller update keeps lcm words and reads their degrees off by one
multiply, and a pair's heap key is key(lcm word), which equals the packed
lcm, so the pair order is that of the exponent tuples.  A popped word with
a guard bit set is a term whose exponent passed the cap; the normal-form
loop raises OverflowError for it rather than reduce a term that is not there.

Buchberger autoreduces its inputs in one ascending pass, keeps its S-pairs in
a heap in normal order, and prunes them by Gebauer-Moeller.  The update for a
new lead f computes each lcm(lead_i, f) once: the old-pair deletion reads
that list, one dict keeps the first index of each lcm class and one set the
classes with a coprime member.  ring.minimal_words keeps the minimal classes
(the chain criterion) by one int sort; heap ties break on the pair's
indices, so the push order does not matter.  The final pass keeps the
elements of minimal lead, sorts them once by lead, and reduces each tail
against that one list, the element itself included (a lead divides no
smaller term), before putting the monic lead back.  On prime fields every
stored coefficient is in [1, p): no path stores a negative residue or a zero
term.

Over Q the Groebner work runs on Python ints.  A Reducer holds the primitive
integer multiple of its polynomial, and a normal form carries one common
denominator for all its terms and reduces fraction-free (see _reduce), so
Buchberger's S-pairs and remainders never leave the integers.  Fractions
appear only at the boundary: normal_form returns them and the reduced basis
is monic in them.  Schreyer syzygies over Q reduce fraction-free the same
way.  Products of packed dicts outside the normal-form loop go through
ring.pdict_addmul, which runs on Fractions over Q.

Everything here is internal; the public API wraps it in ring.py, groebner.py
and resolution.py.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

from .ring import MAX_EXP, Polynomial, minimal_words, word_lcm


class BudgetExceeded(RuntimeError):
    """A Groebner basis computation ran past its pair budget."""


class Context:
    """A bound order plus field, with the order's key and word maps."""

    __slots__ = ("bound", "field", "p", "unpack", "word", "key", "degree", "guards", "cmask")

    def __init__(self, bound, field):
        self.bound = bound
        self.field = field
        self.p = getattr(field, "p", None)
        self.unpack = bound.unpack
        self.word = bound.word
        self.key = bound.key
        self.degree = bound.degree
        self.guards = bound.guards
        self.cmask = None


class ModContext:
    """A free module over a ring Context, in the Schreyer order, on packed keys.

    Basis element c maps to a term of packed ring key imgkeys[c]; chains[c]
    breaks ties (a smaller chain means a larger module term) and degs[c] is
    its internal degree.  The term x^k e_c packs into one int,

        K = ((k + imgkeys[c]) << cbits) | rank[c],

    where rank orders the basis by descending chain and cbits is the bit
    length of the largest rank.  Integer order is then the Schreyer order,
    K + (s << cbits) is K times x^s, and the component is K & cmask.
    word(K) is the ring word of the composite x^k * img(c), K >> cbits:
    within a component it is x^k's word plus a fixed word, so divisibility
    and lcm differences are those of x^k, and a guard bit flags a composite
    past the exponent cap.  unpack gives the composite's exponents.
    """

    __slots__ = ("field", "p", "word", "unpack", "guards", "cmask", "cbits",
                 "imgkeys", "chains", "degs", "rank", "comp")

    def __init__(self, ctx, imgkeys, chains, degs):
        self.field, self.p, self.guards = ctx.field, ctx.p, ctx.guards
        self.imgkeys, self.chains, self.degs = imgkeys, chains, degs
        self.comp = sorted(range(len(imgkeys)), key=chains.__getitem__, reverse=True)
        self.rank = [0] * len(imgkeys)
        for r, c in enumerate(self.comp):
            self.rank[c] = r
        cbits = self.cbits = (len(imgkeys) - 1).bit_length()
        self.cmask = (1 << cbits) - 1
        word, unpack = ctx.word, ctx.unpack
        self.word = lambda K: word(K >> cbits)
        self.unpack = lambda K: unpack(K >> cbits)

    def enc(self, c, k):
        """The packed key of x^k e_c."""
        return ((k + self.imgkeys[c]) << self.cbits) | self.rank[c]

    def dec(self, K):
        """(c, k) with enc(c, k) == K."""
        c = self.comp[K & self.cmask]
        return c, (K >> self.cbits) - self.imgkeys[c]


def _overflow(ctx, k):
    return OverflowError(f"exponent overflow in a reduction: term {ctx.unpack(k)} "
                         f"has an exponent above {MAX_EXP}")


def to_packed(ctx, poly):
    """A new packed dict of poly under ctx's order; poly's own dict is never shared."""
    if ctx.bound is poly.ring.bound:
        return dict(poly.pdict)
    raw, unpack = ctx.bound.raw, poly.ring.bound.unpack
    return {raw(unpack(k)): c for k, c in poly.pdict.items()}


def from_packed(ctx, pdict, ring):
    """The ring polynomial of a packed dict of field elements; zero entries are dropped."""
    if ctx.bound is ring.bound:
        return Polynomial._wrap(ring, {k: c for k, c in pdict.items() if c})
    # Each coefficient is a field element and each exponent is inside the
    # cap: the kernel raises on any guard bit.
    raw, unpack = ring.bound.raw, ctx.unpack
    return Polynomial._wrap(ring, {raw(unpack(k)): c for k, c in pdict.items() if c})


class Reducer:
    """A reducer: lead data plus tail terms, ready for the NF loop.

    Over F_p the reducer is monic: lc is 1 and every coefficient is in
    [1, p).  Over Q it holds the primitive integer multiple of the
    polynomial: denominators cleared, content divided out, and the integer
    lead coefficient lc positive.
    """

    __slots__ = ("index", "leadkey", "leadword", "lc", "tail", "sugar")

    def __init__(self, index, leadkey, leadword, tail, sugar=0, lc=1):
        self.index = index
        self.leadkey = leadkey
        self.leadword = leadword
        self.lc = lc
        self.tail = tail
        self.sugar = sugar

    @classmethod
    def from_packed(cls, ctx, pdict, index=0, sugar=None):
        if not pdict:
            raise ValueError("zero polynomial cannot reduce")
        leadkey = max(pdict)
        if ctx.p is not None:
            lc = pdict[leadkey]
            field = ctx.field
            if lc != field(1):
                inv = field.inv(lc)
                pdict = {k: c * inv % ctx.p for k, c in pdict.items()}
            lc = 1
        else:
            pdict, _ = _integral(pdict)
            content = gcd(*pdict.values())
            if pdict[leadkey] < 0:
                content = -content
            pdict = {k: c // content for k, c in pdict.items()}
            lc = pdict[leadkey]
        tail = tuple((k, c) for k, c in pdict.items() if k != leadkey)
        if sugar is None:
            word, degree = ctx.word, ctx.degree
            sugar = max(degree(word(k)) for k in pdict)
        return cls(index, leadkey, ctx.word(leadkey), tail, sugar=sugar, lc=lc)


def reducer_dict(red):
    """The reducer's packed dict: monic over F_p, primitive integers over Q."""
    d = {red.leadkey: red.lc}
    d.update(red.tail)
    return d


def _integral(f):
    """(h, den) with integer h and h / den == f, for a packed dict over Q."""
    den = lcm(*[c.denominator for c in f.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in f.items()}, den


def normal_form(ctx, f, reducers, track=False):
    """Full normal form of packed f against the reducers.

    Returns (remainder, quotients); quotients maps reducer.index to a packed
    quotient dict with f == sum(q * monic reducer) + remainder.  The highest
    term is rewritten first and the first reducer in list order wins, so the
    result is deterministic in the given reducer order.  Over Q the work is
    done on integers (see _reduce); only the results are Fractions.
    """
    if ctx.p is not None:
        rem, _, quots = _reduce(ctx, dict(f), reducers, track)
        return rem, quots
    h, den = _integral(f)
    rem, den, quots = _reduce(ctx, h, reducers, track, den)
    return _fractions(rem, den), quots


def _fractions(h, den):
    return {k: Fraction(c, den) for k, c in h.items()}


def _reduce(ctx, h, reducers, track=False, den=1):
    """The normal-form loop; returns (rem, den, quots), the remainder rem / den.

    h is consumed.  Over F_p, den stays 1 and the loop is field arithmetic.
    Over Q, h holds ints and stands for h / den, and each step is a
    fraction-free pseudo-reduction: for top coefficient c and reducer lead
    lc, with g = gcd(c, lc) and a = lc / g, the pending terms, the remainder
    and den are multiplied by a, and (c / g) * x^shift * tail is subtracted.
    The quotient term of that step is c / den.

    A ring Context (cmask None) scans the reducer list.  A ModContext takes
    reducers grouped by lead component, {rank: list}, and scans only the
    group of the popped term's component, k & cmask.
    """
    p = ctx.p
    word = ctx.word
    guards = ctx.guards
    cmask = ctx.cmask
    heap = [-k for k in h]
    heapq.heapify(heap)
    rem = {}
    quots = {} if track else None
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        k = -pop(heap)
        c = h.pop(k, None)
        if c is None:
            continue
        w = word(k)
        if w & guards:
            raise _overflow(ctx, k)
        for red in reducers if cmask is None else reducers.get(k & cmask, ()):
            if not (w - red.leadword) & guards:
                break
        else:
            rem[k] = c
            continue
        shift = k - red.leadkey
        if p is not None:
            if track:
                qd = quots.setdefault(red.index, {})
                prev = qd.get(shift)
                qd[shift] = c if prev is None else (prev + c) % p
            for tk, tc in red.tail:
                nk = tk + shift
                prev = h.get(nk)
                if prev is None:
                    v = -c * tc % p
                    if v:
                        h[nk] = v
                        push(heap, -nk)
                else:
                    v = (prev - c * tc) % p
                    if v:
                        h[nk] = v
                    else:
                        del h[nk]
        else:
            if track:
                q = Fraction(c, den)
                qd = quots.setdefault(red.index, {})
                prev = qd.get(shift)
                qd[shift] = q if prev is None else prev + q
            lc = red.lc
            if lc != 1:
                g = gcd(c, lc)
                a = lc // g
                if a != 1:
                    h = {t: v * a for t, v in h.items()}
                    rem = {t: v * a for t, v in rem.items()}
                    den *= a
                c //= g
            for tk, tc in red.tail:
                nk = tk + shift
                prev = h.get(nk)
                if prev is None:
                    h[nk] = -c * tc
                    push(heap, -nk)
                else:
                    v = prev - c * tc
                    if v:
                        h[nk] = v
                    else:
                        del h[nk]
    return rem, den, quots


def _spair(gi, gj, lcmkey, p):
    """The S-polynomial of two reducers, leads cancelled, up to a scalar.

    Over F_p both reducers are monic.  Over Q it is the integer combination
    (lc_j / g) * x^si * gi - (lc_i / g) * x^sj * gj with g = gcd(lc_i, lc_j).
    """
    g = gcd(gi.lc, gj.lc)
    ai = gj.lc // g
    aj = gi.lc // g
    h = {}
    si = lcmkey - gi.leadkey
    for k, c in gi.tail:
        h[k + si] = ai * c
    sj = lcmkey - gj.leadkey
    for k, c in gj.tail:
        nk = k + sj
        prev = h.get(nk)
        v = -aj * c if prev is None else prev - aj * c
        if p is not None:
            v %= p
        if v:
            h[nk] = v
        else:
            del h[nk]
    return h


def buchberger(ctx, pdicts, max_pairs=2_000_000):
    """Reduced Groebner basis of the ideal generated by packed polys.

    The inputs are autoreduced in one pass in ascending lead order: each is
    reduced against the survivors before it, and its monic remainder, if
    any, survives.  A survivor whose lead the new lead divides goes back in
    the queue; that happens only when a lead drops, which a homogeneous input
    under a degree order never does.  Pairs are pruned by Gebauer-Moeller and
    taken from a heap in normal order (min lcm degree, then sugar, then lcm
    key); a final minimalize-and-tail-reduce pass gives the reduced basis.
    Returns (basis, stats) with the basis monic and sorted descending by lead.
    """
    p = ctx.p
    key, degree, guards = ctx.key, ctx.degree, ctx.guards
    one = 1 if p is not None else Fraction(1)
    stats = {"pairs_processed": 0, "zero_reductions": 0}
    G = []
    lme = []
    pairs = {}
    queue = []
    push = heapq.heappush

    def update(newred):
        # Gebauer-Moeller update of the pair set for a newly appended element.
        t = newred.index
        lmf = newred.leadword
        lcms = [word_lcm(lme[i], lmf, guards) for i in range(t)]
        for i, j in [(i, j) for (i, j), gam in pairs.items()
                     if not (gam - lmf) & guards and gam != lcms[i] and gam != lcms[j]]:
            del pairs[(i, j)]
        first = {}
        coprime = set()
        for i, gam in enumerate(lcms):
            first.setdefault(gam, i)
            if lme[i] + lmf == gam:
                coprime.add(gam)
        # Chain criterion: only the minimal lcm classes need a heap key.
        fsug = newred.sugar - degree(lmf)
        for gam in minimal_words(first, guards):
            # Product criterion: a coprime member retires the whole lcm class.
            if gam in coprime:
                continue
            i = first[gam]
            deg = degree(gam)
            if deg > MAX_EXP:
                raise OverflowError(f"S-pair lcm of total degree {deg} exceeds {MAX_EXP}")
            sug = deg + max(G[i].sugar - degree(lme[i]), fsug)
            pairs[(i, t)] = gam
            push(queue, (deg, sug, key(gam), (i, t)))

    def add(red):
        red.index = len(G)
        G.append(red)
        lme.append(red.leadword)
        update(red)

    tick = itertools.count()
    todo = [(max(d), next(tick), dict(d) if p is not None else _integral(d)[0])
            for d in pdicts if d]
    heapq.heapify(todo)
    start = []
    while todo:
        rem = _reduce(ctx, heapq.heappop(todo)[2], start)[0]
        if not rem:
            continue
        red = Reducer.from_packed(ctx, rem)
        if red.leadkey == 0:
            return [{0: one}], stats
        for s in [s for s in start if not (s.leadword - red.leadword) & guards]:
            start.remove(s)
            push(todo, (s.leadkey, next(tick), reducer_dict(s)))
        start.append(red)
    for red in start:
        add(red)

    while queue:
        deg, sug, lcmkey, ij = heapq.heappop(queue)
        if pairs.pop(ij, None) is None:
            continue
        stats["pairs_processed"] += 1
        if stats["pairs_processed"] > max_pairs:
            raise BudgetExceeded(
                f"Groebner basis computation exceeded the pair budget ({max_pairs} pairs)")
        s = _spair(G[ij[0]], G[ij[1]], lcmkey, p)
        rem = _reduce(ctx, s, G)[0]
        if not rem:
            stats["zero_reductions"] += 1
            continue
        add(Reducer.from_packed(ctx, rem, sugar=sug))

    if not G:
        return [], stats
    # Minimalize leads, then one tail-reduction pass gives the reduced basis.
    minimal = set(minimal_words([r.leadword for r in G], guards))
    kept = sorted((r for r in G if r.leadword in minimal), key=lambda r: r.leadkey)
    # A lead divides no smaller term, so each tail reduces against all of
    # kept, itself included, and the monic lead goes back on top.
    final = []
    for red in reversed(kept):
        rem, den, _ = _reduce(ctx, dict(red.tail), kept, den=red.lc)
        out = {red.leadkey: one}
        out.update(rem if p is not None else _fractions(rem, den))
        final.append(out)
    stats["basis_size"] = len(final)
    return final, stats
