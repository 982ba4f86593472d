"""Multivariate polynomial rings with exact coefficients and fast monomial orders.

The ring layer is the substrate for everything else in this package: exact
arithmetic over a prime field F_p or over the rationals, standard-graded
polynomial rings, and the monomial orders (grevlex, block elimination,
permuted grevlex) a Groebner basis is computed in.  It imports no other
module of the package.

Monomials are exponent tuples at the API surface.  Internally every bound
order packs a monomial into a single integer key such that

    key(a) + key(b) == key(a * b)        (multiplication is int addition)
    key(a) <  key(b)  iff  a < b         (comparison is int comparison)

which is what makes the reduction kernel fast.  Each exponent sits in a
field of EXP_BITS = 21 bits: 20 value bits and a guard bit above them.

A Polynomial is one {grevlex key: nonzero coeff} dict, the packed dict the
kernel (_kernel.py) computes on in grevlex.  pdict_addmul, the fused target
+= scale * a * b on packed dicts, does all polynomial arithmetic: +, - and *,
parsing, the substitutions and remainder products of idealops, and the
products of the kernel's intersection run.  Exponent tuples
appear only at the edge: construction, terms, lm, parsing, printing.

Each bound order also maps a key to its exponent word, word(key), and back,
key(word).  The word holds one field per variable, which makes the kernel's
monomial tests integer operations on whole words:

    v divides w           (w - v) & guards == 0      (a short field borrows)
    v divides w  =>       v <= w as ints             (w - v is a word)
    lcm(v, w)             one guarded subtraction picks each field's max
    total degree of w     one multiply sums the fields into the top one
    v * w                 v + w

The word is -key mod 2**(21 n) for grevlex and permuted grevlex, and the lex
block above the grevlex word of the rest for block orders.  Exponents and
total degrees are capped at MAX_EXP = 2**20 - 1.  The cap is checked where
tuples enter (pack, which Polynomial construction and parsing use) and after
every product of polynomials, where an exponent past the cap shows as its
field's guard bit.  In the kernel, such a guard bit makes the normal-form
loops raise an OverflowError rather than carry silently into the next field;
an S-pair whose lcm passes the degree cap raises one too.

All values are immutable after construction and all operations are pure, so
objects can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
import re

EXP_BITS = 21
MAX_EXP = (1 << (EXP_BITS - 1)) - 1
_FIELD = (1 << EXP_BITS) - 1


def _is_probable_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (covers the 2**31 bound)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p < 2**31.  Elements are ints in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not 2 < p < 2 ** 31 or not _is_probable_prime(p):
            raise ValueError(f"characteristic must be an odd prime below 2**31, got {p!r}")
        self.p = p
        self.char = p

    def __call__(self, a):
        if isinstance(a, Fraction):
            try:
                return a.numerator % self.p * pow(a.denominator, -1, self.p) % self.p
            except ValueError:
                raise ValueError(f"the fraction {a} has no value mod {self.p}") from None
        if not isinstance(a, int):
            raise _not_rational(a)
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals.  An element is an int when its denominator is
    1 and a fractions.Fraction of denominator > 1 otherwise, so integral data
    never passes through fractions; an int compares, hashes and prints like
    the Fraction it stands for.  Every operation returns that form."""

    char = 0
    p = None

    def __call__(self, a):
        if isinstance(a, Fraction):
            return _rational(a)
        if not isinstance(a, int):
            raise _not_rational(a)
        return int(a)

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)
        return _rational(Fraction(a.denominator, a.numerator))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


def _rational(a):
    """The rational a, an int or a Fraction, as an element of QQ: its
    numerator when its denominator is 1."""
    return a.numerator if a.denominator == 1 else a


def _not_rational(a):
    return ValueError(f"coefficient {a!r} is a {type(a).__name__}, not an int or a Fraction")


QQ = RationalField()


def field_of_characteristic(char):
    """Return F_char for a prime char, or the rationals for char 0."""
    return QQ if char == 0 else PrimeField(char)


class MonomialOrder:
    """Base descriptor for a monomial order; bind(nvars) yields the packer."""

    def bind(self, nvars):
        key = (repr(self), nvars)
        cached = _BOUND_CACHE.get(key)
        if cached is None:
            cached = _BOUND_CACHE[key] = self._build(nvars)
        return cached

    def __eq__(self, other):
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


_BOUND_CACHE = {}


class _Bound:
    """A monomial order bound to a fixed number of variables.

    word maps a key to its exponent word and key inverts word (see the module
    docstring); shifts[i] is the bit offset of variable i's field in the
    word.  pack maps an exponent tuple to its key, checking its length and
    the cap, and unpack inverts it; raw is pack without the checks, for
    tuples that were checked when they entered a Polynomial.  guards is the
    mask of the words' guard bits and degree(word) the total degree.
    """

    __slots__ = ("n", "word", "key", "raw", "pack", "unpack", "degree", "guards")

    def __init__(self, n, shifts, word, key):
        def raw(e):
            w = 0
            for x, s in zip(e, shifts):
                w += x << s
            return key(w)

        def pack(e):
            if len(e) != n:
                raise ValueError(f"exponent tuple {tuple(e)} has {len(e)} entries for {n} variables")
            _check_exps(e)
            return raw(e)

        def unpack(k):
            w = word(k)
            return tuple((w >> s) & _FIELD for s in shifts)

        self.n = n
        self.word = word
        self.key = key
        self.raw = raw
        self.pack = pack
        self.unpack = unpack
        self.degree = _word_degree(n)
        self.guards = _guards(n)


def _check_exps(e):
    d = 0
    for x in e:
        if x < 0 or x > MAX_EXP:
            raise OverflowError(f"exponent {x} outside [0, {MAX_EXP}]")
        d += x
    if d > MAX_EXP:
        raise OverflowError(f"total degree {d} exceeds {MAX_EXP}")


def _guards(n):
    """The guard bits of an n-field word: the top bit of every field."""
    return sum(1 << (EXP_BITS * i + EXP_BITS - 1) for i in range(n))


def _word_degree(n):
    """Total degree of an n-field word: one multiply sums the fields into the top one.

    Exact while the degree is below 2**EXP_BITS, so for every product of two
    monomials within the cap.
    """
    if not n:
        return lambda w: 0
    ones = _guards(n) >> (EXP_BITS - 1)
    top = EXP_BITS * (n - 1)

    def degree(w):
        return w * ones >> top & _FIELD

    return degree


def word_lcm(a, b, guards):
    """The lcm of two exponent words.

    Where a's field is at least b's, its guard bit survives (a | guards) - b;
    those guards widen to a mask of a's fields, and b fills the rest.
    """
    m = ((a | guards) - b) & guards
    m -= m >> (EXP_BITS - 1)
    return b ^ ((a ^ b) & m)


def minimal_words(words, guards):
    """The tuple of the words that no other given word divides, once each,
    ascending as ints.

    A word that divides another is the smaller int, so after an int sort
    one scan against the kept words settles divisibility.
    """
    kept = []
    for w in sorted(words):
        for v in kept:
            if not (w - v) & guards:
                break
        else:
            kept.append(w)
    return tuple(kept)


def _grevlex_maps(n):
    """(shifts, word, key) of grevlex on n variables.

    The key is d * S - rp for the total degree d, S = 2**(EXP_BITS * n) and
    rp the word, with variable i in field i; so the word is -key mod S.
    """
    S = 1 << (EXP_BITS * n)
    M = S - 1
    degree = _word_degree(n)

    def word(key):
        return -key & M

    def key(w):
        return degree(w) * S - w

    return tuple(EXP_BITS * i for i in range(n)), word, key


def grevlex_keys_of_degree(n, d):
    """The grevlex keys of the degree-d monomials in n variables, descending.

    At one degree the key d * S - w descends as the word w ascends, and the
    words ascend with the last variable's exponent rising slowest.  Each
    word starts with all of d in field 0; moving e units up to field i adds
    e * (2**(EXP_BITS * i) - 1), from the last variable down, so no key is
    packed or sorted.
    """
    words = [d]
    for i in range(n - 1, 0, -1):
        step = (1 << EXP_BITS * i) - 1
        words = [v for w in words for v in range(w, w + ((w & _FIELD) + 1) * step, step)]
    top = d << EXP_BITS * n
    return [top - w for w in words]


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic order; ties from the last variable."""

    def _build(self, n):
        return _Bound(n, *_grevlex_maps(n))

    def __repr__(self):
        return "grevlex"


class Block(MonomialOrder):
    """Lexicographic on the first k variables, grevlex on the rest; eliminates them.

    The key is the lex block above a grevlex key of the rest; the word puts
    the block's fields above the grevlex word of the rest.  Block(n) on n
    variables is pure lex: its key is the lex word shifted left by EXP_BITS.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError("block size must be at least 1")
        self.k = k

    def _build(self, n):
        k = self.k
        if k > n:
            raise ValueError(f"block size {k} exceeds {n} variables")
        gshifts, gword, gkey = _grevlex_maps(n - k)
        ws = EXP_BITS * (n - k)
        hs = ws + EXP_BITS
        low = (1 << hs) - 1
        rest = (1 << ws) - 1

        def word(key):
            return (key >> hs << ws) | gword(key & low)

        def key(w):
            return (w >> ws << hs) + gkey(w & rest)

        shifts = tuple(ws + EXP_BITS * (k - 1 - i) for i in range(k)) + gshifts
        return _Bound(n, shifts, word, key)

    def __repr__(self):
        return f"block({self.k})"


class PermutedGrevlex(MonomialOrder):
    """Grevlex applied to a fixed reordering of the variables.

    perm lists source variable indices in the order the comparison reads
    them; perm[-1] plays the role of the last grevlex variable.  Used
    internally for colon and saturation shortcuts; not part of the order
    grammar accepted in ideal files.  Words are those of grevlex on the
    reordered variables.
    """

    def __init__(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation: {perm!r}")
        self.perm = perm

    def _build(self, n):
        if len(self.perm) != n:
            raise ValueError(f"permutation of {len(self.perm)} entries for {n} variables")
        gshifts, word, key = _grevlex_maps(n)
        shifts = [0] * n
        for pos, src in enumerate(self.perm):
            shifts[src] = gshifts[pos]
        return _Bound(n, tuple(shifts), word, key)

    def __repr__(self):
        return f"permuted-grevlex({','.join(map(str, self.perm))})"


GREVLEX = Grevlex()
# The packed grevlex dict of the polynomial 1: the zero exponent tuple has key 0.
_ONE = {0: 1}


def pdict_addmul(p, target, a, b, scale=1):
    """target += scale * a * b on packed dicts, in place; returns target.

    Key addition is monomial multiplication.  With p a prime every sum is
    reduced mod p, so target keeps its coefficients in [1, p); with p None
    they are rationals in QQ's form, an int unless a denominator is left.
    A term that cancels is removed.  target must not be a or b.
    """
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in b.items():
            k = k1 + k2
            prev = target.get(k)
            v = c1 * c2 if prev is None else prev + c1 * c2
            if p is not None:
                v %= p
            else:
                v = _rational(v)
            if v:
                target[k] = v
            elif prev is not None:
                del target[k]
    return target


class PolyRing:
    """A standard-graded polynomial ring over a prime field (of prime p) or the
    rationals (p None).  A basis in another order is Ideal.groebner(order)."""

    def __init__(self, names, field):
        names = tuple(names)
        if len(set(names)) != len(names) or not names:
            raise ValueError("variable names must be nonempty and distinct")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise ValueError(f"bad variable name {nm!r}")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self.p = field.p
        self.bound = GREVLEX.bind(self.nvars)
        self._name_index = {nm: i for i, nm in enumerate(names)}
        self.zero = Polynomial(self, {})
        self.one = self.const(1)

    def gen(self, i):
        return self.monomial(tuple(int(j == i) for j in range(self.nvars)))

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=1):
        c = self.field(coeff)
        if c == 0:
            return self.zero
        return Polynomial(self, {tuple(exps): c})

    def const(self, c):
        return self.monomial((0,) * self.nvars, c)

    def poly(self, terms):
        """Build a polynomial from an {exps: coeff} mapping."""
        data = {tuple(e): self.field(c) for e, c in terms.items()}
        return Polynomial(self, {e: c for e, c in data.items() if c})

    def from_string(self, text):
        return _parse_poly(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.names == self.names
                and other.field == self.field)

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"{self.field}[{','.join(self.names)}]"


class Polynomial:
    """An immutable polynomial: one {grevlex key: nonzero coeff} dict, pdict.

    Polynomial(ring, {exps: coeff}) packs each exponent tuple, checking its
    length and the cap; the coefficients must be nonzero field elements.
    The dict is never mutated after construction.  terms is the view of it
    as (exps, coeff) pairs, descending in grevlex.
    """

    __slots__ = ("ring", "pdict", "_hash")

    def __init__(self, ring, data):
        pack = ring.bound.pack
        self.ring = ring
        self.pdict = {pack(e): c for e, c in data.items()}
        self._hash = None

    @classmethod
    def _wrap(cls, ring, pdict):
        """The polynomial of a packed dict of nonzero field elements, taken over."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.pdict = pdict
        poly._hash = None
        return poly

    @classmethod
    def _product(cls, ring, pdict):
        """_wrap of a sum of products of in-cap monomials, checked against the cap:
        an exponent past it sets its field's guard bit, and grevlex is graded,
        so the largest key has the largest total degree."""
        if pdict:
            bound = ring.bound
            word, guards = bound.word, bound.guards
            over = [k for k in pdict if word(k) & guards] or [max(pdict)]
            _check_exps(bound.unpack(over[0]))
        return cls._wrap(ring, pdict)

    @property
    def terms(self):
        unpack = self.ring.bound.unpack
        return tuple((unpack(k), self.pdict[k]) for k in sorted(self.pdict, reverse=True))

    def is_zero(self):
        return not self.pdict

    def __bool__(self):
        return bool(self.pdict)

    def lm(self):
        """Leading monomial as an exponent tuple."""
        if not self.pdict:
            raise ValueError("zero polynomial has no leading term")
        return self.ring.bound.unpack(max(self.pdict))

    def lc(self):
        if not self.pdict:
            raise ValueError("zero polynomial has no leading term")
        return self.pdict[max(self.pdict)]

    def _degree_of(self, k):
        bound = self.ring.bound
        return bound.degree(bound.word(k))

    def degree(self):
        """Total degree, that of the largest key; -1 for the zero polynomial."""
        if not self.pdict:
            return -1
        return self._degree_of(max(self.pdict))

    def is_homogeneous(self):
        """Whether the largest and the smallest key have one degree."""
        if not self.pdict:
            return True
        return self._degree_of(max(self.pdict)) == self._degree_of(min(self.pdict))

    def coeff(self, exps):
        return self.pdict.get(self.ring.bound.pack(tuple(exps)), self.ring.field(0))

    def _coerce(self, other):
        if not isinstance(other, Polynomial):
            return self.ring.const(other)
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")
        return other

    def _plus(self, other, sign):
        pdict = pdict_addmul(self.ring.p, dict(self.pdict), self._coerce(other).pdict, _ONE, sign)
        return Polynomial._wrap(self.ring, pdict)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Polynomial._wrap(self.ring, pdict_addmul(self.ring.p, {}, self.pdict, _ONE, -1))

    def __mul__(self, other):
        pdict = pdict_addmul(self.ring.p, {}, self.pdict, self._coerce(other).pdict)
        return Polynomial._product(self.ring, pdict)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return not self.pdict
            other = self.ring.const(other)
        return self.ring == other.ring and self.pdict == other.pdict

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.pdict.items())))
        return self._hash

    def __repr__(self):
        return format_poly(self)


def transport(poly, target, index_map):
    """Reinterpret poly in target: source variable i becomes target variable index_map[i].

    index_map[i] may be None only when variable i does not occur in poly.
    """
    unpack = poly.ring.bound.unpack
    data = {}
    for k, c in poly.pdict.items():
        out = [0] * target.nvars
        for i, x in enumerate(unpack(k)):
            if x == 0:
                continue
            j = index_map[i]
            if j is None:
                raise ValueError(f"variable {poly.ring.names[i]} has no image in target ring")
            out[j] = x
        data[tuple(out)] = c
    return target.poly(data)


def bihomogeneous(polys, exponents):
    """Whether every polynomial is bihomogeneous when X_i has the bidegree
    (1, a_i), a_i = exponents[i]: all its terms share the degree and the
    weight sum(x_i * a_i).  The curve with these exponents, and every ideal
    generated by such polynomials, is stable under the torus that scales X_i
    by u v^(a_i)."""
    exponents = tuple(exponents)
    for f in polys:
        if len(exponents) != f.ring.nvars:
            raise ValueError(f"{len(exponents)} exponents for {f.ring.nvars} variables")
        unpack = f.ring.bound.unpack
        bidegrees = {(sum(x), sum(xi * a for xi, a in zip(x, exponents)))
                     for x in map(unpack, f.pdict)}
        if len(bidegrees) > 1:
            return False
    return True


# --- parsing and printing ---------------------------------------------------

# The grammar of one term: factors, each an integer with an optional /integer
# or a name with an optional ^integer, joined by whitespace or one *.  The
# lookaheads keep a run of digits or of name characters whole.
_INT = r"\d+(?!\d)"
_FACTOR = re.compile(rf"({_INT})(?:\s*/\s*({_INT}))?"
                     rf"|([A-Za-z_][A-Za-z_0-9]*)(?![A-Za-z_0-9])(?:\s*\^\s*({_INT}))?")
_TERM = re.compile(rf"(?:{_FACTOR.pattern})(?:\s*(?:\*\s*)?(?:{_FACTOR.pattern}))*")
# A run of signs, with the whitespace in and after it, between two terms.
_SIGNS = re.compile(r"([+-][\s+-]*)")


def _split_vars(ring, ident):
    """Split an identifier like X1X2 into the indices of known variable names, greedily."""
    out = []
    rest = ident
    while rest:
        for ln in range(len(rest), 0, -1):
            if rest[:ln] in ring._name_index:
                out.append(ring._name_index[rest[:ln]])
                rest = rest[ln:]
                break
        else:
            raise ValueError(f"unknown variable in {ident!r}")
    return out


def _parse_poly(ring, text):
    """Parse ASCII polynomial text: terms joined by runs of + and - signs, each
    term a product of integer or a/b coefficients and names with ^ powers."""
    pieces = _SIGNS.split(text.strip())
    if not pieces[-1]:
        raise ValueError("empty polynomial text" if len(pieces) == 1
                         else "dangling sign in polynomial text")
    pack = ring.bound.pack
    data = {}
    for signs, piece in zip(["+", *pieces[1::2]], pieces[0::2]):
        term = piece.strip()
        if not term:  # the text starts with a sign
            continue
        if not _TERM.fullmatch(term):
            raise ValueError(f"cannot parse term {term!r}")
        coeff = -1 if signs.count("-") % 2 else 1
        exps = [0] * ring.nvars
        for num, den, name, power in _FACTOR.findall(term):
            if name:
                *firsts, last = _split_vars(ring, name)
                for i in firsts:
                    exps[i] += 1
                exps[last] += int(power or 1)
            elif den and int(den) == 0:
                raise ValueError(f"zero denominator in term {term!r}")
            else:
                coeff *= Fraction(int(num), int(den)) if den else int(num)
        c = ring.field(coeff)
        if not c:
            continue
        try:
            key = pack(exps)
        except OverflowError as exc:
            raise ValueError(f"term {term!r}: {exc}") from None
        pdict_addmul(ring.p, data, {key: c}, _ONE)
    return Polynomial._wrap(ring, data)


def _coeff_text(ring, c):
    """Render a coefficient with sign split off: (sign, magnitude text or None)."""
    if ring.field.char == 0:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        return sign, None if mag == 1 else str(mag)
    p = ring.field.p
    r = c % p
    if r > p // 2:
        return "-", None if p - r == 1 else str(p - r)
    return "+", None if r == 1 else str(r)


def format_poly(poly):
    """Canonical text: terms descending in grevlex, symmetric residues."""
    if not poly.pdict:
        return "0"
    ring = poly.ring
    parts = []
    for e, c in poly.terms:
        sign, mag = _coeff_text(ring, c)
        factors = []
        for i, x in enumerate(e):
            if x == 0:
                continue
            factors.append(ring.names[i] if x == 1 else f"{ring.names[i]}^{x}")
        body = "*".join(factors)
        if mag is not None:
            body = f"{mag}*{body}" if body else mag
        elif not body:
            body = "1"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
