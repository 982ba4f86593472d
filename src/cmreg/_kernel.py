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

Buchberger and the intersection run take their inputs the same way
(_intake): in ascending lead order, each reduced against the basis so far,
its nonzero remainder added.  Both keep their S-pairs in a PairSet: a heap
in normal order, pruned by Gebauer-Moeller.  The update for a new lead f
computes each lcm(lead_i, f) once: the old-pair deletion reads that list,
one dict keeps the first index of each lcm class and one the first coprime
member.  ring.minimal_words keeps the minimal classes (the chain
criterion) by one int sort; heap ties break on the pair's indices, so the
push order does not matter.  The intersection run starts its PairSet from
a Groebner basis whose pairs are never queued, and reads the generators of
an intersection off the pairs that reduce to zero and the pairs the
product criterion retires.  The final pass, reduced_basis, keeps the
elements of minimal lead, sorts them once by lead, and reduces each tail
against the elements of smaller lead only (a lead divides no smaller term)
before putting the monic lead back; it also makes the reduced basis of a
Groebner basis that an ideal operation derives from another (see
idealops).  On prime fields every stored coefficient is in [1, p): no path
stores a negative residue or a zero term.

Over Q the Groebner work runs on Python ints.  A Reducer holds the primitive
integer multiple of its polynomial, and a normal form carries one common
denominator for all its terms and reduces fraction-free (see _reduce), so
Buchberger's S-pairs and remainders never leave the integers.  _reduce is
one loop for both fields: a prime field is the case in which every reducer
lead is 1, so no step rescales and each sum is reduced mod p.  At the
boundary, normal_form's results and the monic reduced basis are rationals
in ring.QQ's form: an int where the common denominator divides the value,
a Fraction only where one is left.  So a basis of monomials and binomials
with coefficients +-1 never builds a Fraction.  Schreyer syzygies over Q
never meet a Fraction: _reduce tracks its steps in one flat integer dict
keyed like the next module, which it rescales with the pending terms, so a
syzygy is written once, during the reduction that proves it, and divided
by its content is the primitive reducer of the next level.  Products of
packed dicts outside the normal-form loop go through ring.pdict_addmul,
which keeps QQ's form.

Everything here is internal; the public API wraps it in ring.py, groebner.py
and resolution.py.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .ring import MAX_EXP, Polynomial, minimal_words, pdict_addmul, word_lcm


class BudgetExceeded(RuntimeError):
    """A Groebner basis computation ran past its pair budget."""


class Context:
    """A bound order plus field, with the order's key and word maps."""

    __slots__ = ("bound", "field", "p", "unpack", "word", "key", "degree", "guards",
                 "cmask", "cbits")

    def __init__(self, bound, field):
        self.bound = bound
        self.field = field
        self.p = field.p
        self.unpack = bound.unpack
        self.word = bound.word
        self.key = bound.key
        self.degree = bound.degree
        self.guards = bound.guards
        self.cmask = None
        self.cbits = 0


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
        return cls.of_form(ctx, reducer_form(ctx, pdict, leadkey), leadkey, index, sugar)

    @classmethod
    def of_form(cls, ctx, pdict, leadkey, index=0, sugar=None):
        """The reducer of a dict already in reducer_form, of lead leadkey."""
        tail = tuple((k, c) for k, c in pdict.items() if k != leadkey)
        if sugar is None:
            word, degree = ctx.word, ctx.degree
            sugar = max(degree(word(k)) for k in pdict)
        return cls(index, leadkey, ctx.word(leadkey), tail, sugar=sugar,
                   lc=pdict[leadkey])


def reducer_form(ctx, pdict, leadkey):
    """The multiple of a nonzero packed dict that a Reducer holds, pdict
    itself when it is one already: monic over F_p; over Q primitive
    integers with a positive lead.

    Over Q a dict with a Fraction anywhere (a Polynomial's, or a basis made
    monic, whose lead is the int 1) is cleared of denominators first; the
    kernel's own remainders and syzygies, and any all-int dict, skip that.
    """
    lc = pdict[leadkey]
    p = ctx.p
    if p is not None:
        if lc == 1:
            return pdict
        inv = ctx.field.inv(lc)
        return {k: c * inv % p for k, c in pdict.items()}
    if not all(type(c) is int for c in pdict.values()):
        pdict, _ = _integral(pdict)
        lc = pdict[leadkey]
    content = gcd(*pdict.values())
    if lc < 0:
        content = -content
    return pdict if content == 1 else {k: c // content for k, c in pdict.items()}


def reducer_dict(red):
    """The reducer's packed dict: monic over F_p, primitive integers over Q."""
    d = {red.leadkey: red.lc}
    d.update(red.tail)
    return d


def _integral(f):
    """(h, den) with integer h and h / den == f, for a packed dict over Q;
    h is a new dict, a plain copy when every value is an int."""
    den = lcm(*[c.denominator for c in f.values()])
    if den == 1:
        return dict(f), 1
    return {k: c.numerator * (den // c.denominator) for k, c in f.items()}, den


def normal_form(ctx, f, reducers, track=False):
    """Full normal form of packed f against the reducers.

    Returns (remainder, quotients); quotients maps reducer.index to a packed
    quotient dict with f == sum(q * monic reducer) + remainder.  The highest
    term is rewritten first and the first reducer in list order wins, so the
    result is deterministic in the given reducer order.  Over Q the work is
    done on integers (see _reduce); only the results are rationals.  The
    quotients are read once, at the end, off _reduce's flat track, whose
    key (k << bits) | index holds the step at ring key k.
    """
    p = ctx.p
    h, den = (dict(f), 1) if p is not None else _integral(f)
    if track:
        bits = max([red.index for red in reducers], default=0).bit_length()
        track = ({}, bits, range(1 << bits))
    rem, den, syz = _reduce(ctx, h, reducers, track, den)
    if p is None:
        rem = _ratios(rem, den)
    if syz is None:
        return rem, None
    by_index = {red.index: red for red in reducers}
    mask = (1 << bits) - 1
    quots = {}
    for K, v in syz.items():
        red = by_index[K & mask]
        # The step subtracted -v * x^shift * red from den * f; red / lc is monic.
        q = -v % p if p is not None else _ratio(-v * red.lc, den)
        quots.setdefault(red.index, {})[(K >> bits) - red.leadkey] = q
    return rem, quots


def _ratio(n, den):
    """n / den for den > 0 in ring.QQ's form: an int when den divides n."""
    return n // den if not n % den else Fraction(n, den)


def _ratios(h, den):
    """The dict h / den in ring.QQ's form, h itself when den is 1."""
    if den == 1:
        return h
    return {k: _ratio(c, den) for k, c in h.items()}


def _reduce(ctx, h, reducers, track=None, den=1):
    """The normal-form loop; returns (rem, den, syz), the remainder rem / den.

    h is consumed; its ints stand for h / den.  One step body serves both
    fields, and F_p is the case lc = 1.  For top coefficient c and reducer
    lead lc != 1, which only Q has (F_p reducers are monic), the step is a
    fraction-free pseudo-reduction: with g = gcd(c, lc) and a = lc / g, the
    pending terms, the remainder, den and the track are multiplied by a, and
    c becomes c / g.  The multiplier is then negated once, p - c over F_p and
    -c over Q, and each tail term adds multiplier * coefficient at its
    shifted key, reduced mod p over F_p.  Over F_p every value stays in
    [1, p) and den stays 1: a new term is the product of two values in
    [1, p), never 0 mod p, so only a sum can vanish.

    track, when given, is (syz, bits, tags): a dict written in place and the
    layout of its keys.  A step at popped key k with reducer red writes its
    negated multiplier at key ((k >> cbits) << bits) | tags[red.index].  So
    syz * reducers - (h + rem) only ever changes by the common scale.
    Popped keys strictly decrease, so no step key is written twice; seeded
    with a vector whose image is h, syz ends as a syzygy when h reduces to
    zero.  When the tags are the next module's ranks of the reducers, that
    key is the next module's key of x^shift * e_t.

    A ring Context (cmask None) scans the reducer list.  A ModContext takes
    reducers grouped by lead component, {rank: list}, and scans only the
    group of the popped term's component, k & cmask.
    """
    p = ctx.p
    word = ctx.word
    guards = ctx.guards
    cmask = ctx.cmask
    cbits = ctx.cbits
    heap = [-k for k in h]
    heapq.heapify(heap)
    rem = {}
    syz, bits, tags = track if track else (None, 0, None)
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
        lc = red.lc
        if lc != 1:
            g = gcd(c, lc)
            a = lc // g
            if a != 1:
                h = {t: v * a for t, v in h.items()}
                rem = {t: v * a for t, v in rem.items()}
                den *= a
                if syz is not None:
                    for t, v in syz.items():
                        syz[t] = v * a
            c //= g
        c = p - c if p is not None else -c
        if syz is not None:
            syz[((k >> cbits) << bits) | tags[red.index]] = c
        for tk, tc in red.tail:
            nk = tk + shift
            prev = h.get(nk)
            if prev is None:
                h[nk] = c * tc % p if p is not None else c * tc
                push(heap, -nk)
            else:
                v = (prev + c * tc) % p if p is not None else prev + c * tc
                if v:
                    h[nk] = v
                else:
                    del h[nk]
    return rem, den, syz


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


class PairSet:
    """The S-pairs of a growing basis G, pruned by Gebauer-Moeller and
    counted against a budget.

    add(red) appends red to G and updates the pairs for its lead f: an old
    pair goes when f divides its lcm and the lcm is neither new lcm with f;
    each lcm(lead_i, f) is computed once, one dict keeps the first index of
    each lcm class and another its first coprime member.
    ring.minimal_words keeps the minimal classes (the chain criterion) by one
    int sort, and a minimal class with a coprime member is retired (the
    product criterion).  pop() takes the live pairs from a heap in normal
    order (min lcm degree, then sugar, then lcm key); heap ties break on the
    pair's indices, so the push order does not matter.

    The reducers given at construction are a Groebner basis: their pairs
    all reduce to zero, so none is queued.
    """

    __slots__ = ("ctx", "G", "lme", "pairs", "queue", "max_pairs", "processed")

    def __init__(self, ctx, max_pairs, basis=()):
        self.ctx = ctx
        self.G = []
        self.lme = []
        for red in basis:
            red.index = len(self.G)
            self.G.append(red)
            self.lme.append(red.leadword)
        self.pairs = {}
        self.queue = []
        self.max_pairs = max_pairs
        self.processed = 0

    def add(self, red):
        """Append red as G[t] and update the pairs for it.  Returns the pairs
        (i, t) the product criterion retired, one per minimal lcm class, with
        i its first coprime member."""
        ctx = self.ctx
        guards, degree, key = ctx.guards, ctx.degree, ctx.key
        G, lme, pairs = self.G, self.lme, self.pairs
        t = red.index = len(G)
        lmf = red.leadword
        lcms = [word_lcm(w, lmf, guards) for w in lme]
        G.append(red)
        lme.append(lmf)
        for i, j in [(i, j) for (i, j), gam in pairs.items()
                     if not (gam - lmf) & guards and gam != lcms[i] and gam != lcms[j]]:
            del pairs[(i, j)]
        first = {}
        coprime = {}
        for i, gam in enumerate(lcms):
            first.setdefault(gam, i)
            if lme[i] + lmf == gam:
                coprime.setdefault(gam, i)
        # Chain criterion: only the minimal lcm classes need a heap key.
        fsug = red.sugar - degree(lmf)
        retired = []
        for gam in minimal_words(first, guards):
            # Product criterion: a coprime member retires the whole lcm class.
            if gam in coprime:
                retired.append((coprime[gam], t))
                continue
            i = first[gam]
            deg = degree(gam)
            if deg > MAX_EXP:
                raise OverflowError(f"S-pair lcm of total degree {deg} exceeds {MAX_EXP}")
            sug = deg + max(G[i].sugar - degree(lme[i]), fsug)
            pairs[(i, t)] = gam
            heapq.heappush(self.queue, (deg, sug, key(gam), (i, t)))
        return retired

    def pop(self):
        """The next live pair as (sugar, lcm key, (i, j)), None when no pair
        is left; raises BudgetExceeded past the budget."""
        queue, pairs = self.queue, self.pairs
        while queue:
            _, sug, lcmkey, ij = heapq.heappop(queue)
            if pairs.pop(ij, None) is None:
                continue
            self.processed += 1
            if self.processed > self.max_pairs:
                raise BudgetExceeded("Groebner basis computation exceeded the pair budget "
                                     f"({self.max_pairs} pairs)")
            return sug, lcmkey, ij
        return None


def _intake(ctx, pdicts):
    """The nonzero inputs as new packed dicts, integral over Q, sorted
    ascending by lead (ties keep the input order)."""
    p = ctx.p
    return sorted((dict(d) if p is not None else _integral(d)[0] for d in pdicts if d),
                  key=max)


def buchberger(ctx, pdicts, max_pairs=2_000_000):
    """Reduced Groebner basis of the ideal generated by packed polys.

    The inputs are taken as intersection takes them (_intake), each reduced
    against the basis so far and its nonzero remainder added; a constant
    remainder ends the run with the unit ideal.  Each S-pair the PairSet
    pops is then reduced against the basis, and a nonzero remainder joins
    it.  An element can keep a lead that a later lead divides, but only
    after a lead drops, which a homogeneous input under a degree order never
    does; reduced_basis keeps only the minimal leads and reduces the tails.
    Returns (basis, stats) with the basis monic and sorted descending by lead.
    """
    p = ctx.p
    pairs = PairSet(ctx, max_pairs)
    G = pairs.G
    for h in _intake(ctx, pdicts):
        rem = _reduce(ctx, h, G)[0]
        if not rem:
            continue
        red = Reducer.from_packed(ctx, rem)
        if red.leadkey == 0:
            return [{0: 1}], {"pairs_processed": 0, "zero_reductions": 0}
        pairs.add(red)
    zero = 0
    while (pair := pairs.pop()) is not None:
        sug, lcmkey, (i, j) = pair
        rem = _reduce(ctx, _spair(G[i], G[j], lcmkey, p), G)[0]
        if rem:
            pairs.add(Reducer.from_packed(ctx, rem, sugar=sug))
        else:
            zero += 1
    final = reduced_basis(ctx, G)
    return final, {"pairs_processed": pairs.processed, "zero_reductions": zero,
                   "basis_size": len(final)}


def intersection(ctx, basis, pdicts, max_pairs=2_000_000):
    """Generators of I cap J from one Buchberger run on I + J.

    basis is a reduced Groebner basis of I, packed, and pdicts generate J.
    The run starts a PairSet from I's basis, so no pair of two of its
    elements is queued, reduces each generator of J against the basis in
    ascending lead order and adds the nonzero remainders, then runs the
    pairs.  Every element q it adds carries a part (v, s): v in J and s*q - v
    in I, with s = 1 over F_p (q monic) and an integer over Q (q primitive),
    so no Fraction is made; I's elements carry none.  A remainder's part is
    read off the steps _reduce writes into its track, each a multiple of a
    reducer whose part is scaled in.

    Mapping e_q to v/s sends every syzygy of the elements into I cap J, and
    every f in I cap J is the image of one (f in J, minus f in I).  The
    syzygies come from the S-pairs of the final Groebner basis (Schreyer),
    so I cap J is generated by the combined part of each generator of J and
    each S-pair that reduce to zero, and by s_t*q_t*v_i - s_i*q_i*v_t for
    each pair (i, t) the product criterion retires, i the coprime member of
    its lcm class.  Pairs the chain criteria drop add nothing.  Returns
    (gens, stats): packed dicts of ctx, integral over Q, and the run's pairs
    and zero reductions.
    """
    p = ctx.p
    pairs = PairSet(ctx, max_pairs, [Reducer.from_packed(ctx, d) for d in basis])
    G = pairs.G
    parts = [None] * len(G)
    gens = []
    zero = 0

    def reduce_tracked(h, v, steps):
        # h is either an element of part (v, 1) or the sum of the steps, each
        # a multiple x^shift * G[i] keyed (shift + lead_i, i).  _reduce scales
        # both by den and adds minus each multiple it subtracts to the steps,
        # so rem's part is den * v plus the steps' parts, at one scale s.
        bits = len(G).bit_length()
        seed = {(k << bits) | i: c for (k, i), c in steps.items()}
        rem, den, seed = _reduce(ctx, dict(h), G, (seed, bits, range(1 << bits)))
        mask = (1 << bits) - 1
        used = {}
        for K, c in seed.items():
            i = K & mask
            if parts[i] is not None:
                used.setdefault(i, {})[(K >> bits) - G[i].leadkey] = c
        s = 1 if p is not None else lcm(*[parts[i][1] for i in used])
        v = {k: c * den * s for k, c in v.items()}
        for i, q in used.items():
            vi, si = parts[i]
            pdict_addmul(p, v, q, vi, s // si)
        return rem, v, s

    def settle(rem, v, s, sugar=None):
        nonlocal zero
        if not rem:
            zero += 1
            if v:
                gens.append(v)
            return
        red = Reducer.from_packed(ctx, rem, sugar=sugar)
        lead = rem[red.leadkey]
        if p is not None:
            inv = ctx.field.inv(lead)
            v = {k: c * inv % p for k, c in v.items()}
        else:
            s *= lead // red.lc
            g = gcd(s, *v.values())
            if g != 1:
                v, s = {k: c // g for k, c in v.items()}, s // g
        parts.append((v, s))
        for i, t in pairs.add(red):
            # s_t * q_t * v_i - s_i * q_i * v_t; I's elements carry v = 0, s = 1.
            koszul = {}
            for a, b, sign in ((i, t, 1), (t, i, -1)):
                if parts[a] is not None:
                    sb = 1 if parts[b] is None else parts[b][1]
                    pdict_addmul(p, koszul, reducer_dict(G[b]), parts[a][0], sign * sb)
            if koszul:
                gens.append(koszul)

    for h in _intake(ctx, pdicts):
        settle(*reduce_tracked(h, h, {}))
    while (pair := pairs.pop()) is not None:
        sug, lcmkey, (i, j) = pair
        gi, gj = G[i], G[j]
        # The S-pair is ai * x^si * G[i] - aj * x^sj * G[j]: seeded with
        # those two steps, the track ends holding the remainder alone.
        g = gcd(gi.lc, gj.lc)
        aj = gi.lc // g
        steps = {(lcmkey, i): gj.lc // g, (lcmkey, j): -aj if p is None else p - aj}
        settle(*reduce_tracked(_spair(gi, gj, lcmkey, p), {}, steps), sugar=sug)
    return gens, {"pairs_processed": pairs.processed, "zero_reductions": zero}


def reduced_basis(ctx, reducers):
    """The reduced basis of a Groebner basis held as reducers of distinct leads.

    The elements of minimal lead are kept and sorted once by lead.  Every
    term met while reducing the tail of kept[r] is below its lead, and a
    lead divides no smaller term, so kept[:r] holds every reducer that can
    act, in the same first-divisor order as all of kept.  The monic lead goes
    back on top.  Returns the monic packed dicts sorted descending by lead.
    """
    p = ctx.p
    minimal = set(minimal_words([r.leadword for r in reducers], ctx.guards))
    kept = sorted((r for r in reducers if r.leadword in minimal), key=lambda r: r.leadkey)
    final = []
    for r in range(len(kept) - 1, -1, -1):
        red = kept[r]
        rem, den, _ = _reduce(ctx, dict(red.tail), kept[:r], den=red.lc)
        out = {red.leadkey: 1}
        out.update(rem if p is not None else _ratios(rem, den))
        final.append(out)
    return final
