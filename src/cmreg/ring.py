"""Multivariate polynomial rings with exact coefficients and fast monomial orders.

The ring layer is the substrate for everything else in this package: exact
arithmetic over a prime field F_p or over the rationals, standard-graded
polynomial rings, and the monomial orders (grevlex, lex, block, weighted)
used by the Groebner engine.

Monomials are exponent tuples at the API surface.  Internally every bound
order packs a monomial into a single integer key such that

    key(a) + key(b) == key(a * b)        (multiplication is int addition)
    key(a) <  key(b)  iff  a < b         (comparison is int comparison)

which is what makes the reduction kernel fast.  Each exponent sits in a
field of EXP_BITS = 21 bits: 20 value bits and a guard bit above them.

Each bound order also maps a key to its exponent word, word(key), and back,
key(word).  The word holds one field per variable, which makes the kernel's
monomial tests integer operations on whole words:

    v divides w           (w - v) & guards == 0      (a short field borrows)
    lcm(v, w)             one guarded subtraction picks each field's max
    total degree of w     one multiply sums the fields into the top one
    v * w                 v + w

The word is -key mod 2**(21 n) for grevlex, permuted grevlex and weighted
orders, the key itself for lex, and the lex block above the grevlex word of
the rest for block orders.  Exponents and total degrees are capped at
MAX_EXP = 2**20 - 1.  The cap is checked where tuples enter (pack, which
Polynomial construction, parsing and monomial use).  In the kernel, a product
whose exponent passes the cap sets that field's guard bit, which the
normal-form loops turn into an OverflowError rather than a silent carry into
the next field; an S-pair whose lcm passes the degree cap raises one too.

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
    """The field of rationals.  Elements are fractions.Fraction values."""

    char = 0

    def __call__(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def field_of_characteristic(char):
    """Return F_char for a prime char, or the rationals for char 0."""
    return QQ if char == 0 else PrimeField(char)


class MonomialOrder:
    """Base descriptor for a monomial order; bind(nvars) yields the packer."""

    name = "order"

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
    word.  pack maps an exponent tuple to its key, checking the cap, and
    unpack inverts it; raw is pack without the check, for tuples that were
    checked when they entered a Polynomial.  guards is the mask of the
    words' guard bits and degree(word) the total degree.  eliminates is the
    size of a leading lex block whose variables the order is an elimination
    order for (0 when there is none).
    """

    __slots__ = ("n", "word", "key", "raw", "pack", "unpack", "degree", "guards",
                 "eliminates")

    def __init__(self, n, shifts, word, key, eliminates=0):
        def raw(e):
            w = 0
            for x, s in zip(e, shifts):
                w += x << s
            return key(w)

        def pack(e):
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
        self.eliminates = eliminates


def _check_exps(e):
    d = 0
    for x in e:
        if x < 0 or x > MAX_EXP:
            raise OverflowError(f"exponent {x} outside [0, {MAX_EXP}]")
        d += x
    if d > MAX_EXP:
        raise OverflowError(f"total degree {d} exceeds {MAX_EXP}")
    return d


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


def word_support(w, guards):
    """The word with a 1 in each nonzero field of w: a guarded decrement."""
    ones = guards >> (EXP_BITS - 1)
    return (((w | guards) - ones) & guards) >> (EXP_BITS - 1)


def _identity(k):
    return k


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


def _grevlex_pack_unpack(n):
    """pack and unpack of grevlex on n variables, outside the bound-order cache."""
    bound = _Bound(n, *_grevlex_maps(n))
    return bound.pack, bound.unpack


class Grevlex(MonomialOrder):
    """Graded reverse lexicographic order; ties from the last variable."""

    name = "grevlex"

    def _build(self, n):
        return _Bound(n, *_grevlex_maps(n))

    def __repr__(self):
        return "grevlex"


class Lex(MonomialOrder):
    """Pure lexicographic order, first variable dominant; the key is the word."""

    name = "lex"

    def _build(self, n):
        shifts = tuple(EXP_BITS * (n - 1 - i) for i in range(n))
        return _Bound(n, shifts, _identity, _identity, eliminates=n)

    def __repr__(self):
        return "lex"


class Block(MonomialOrder):
    """Lex on the first k variables, grevlex on the rest; eliminates the block.

    The key is the lex block above a grevlex key of the rest; the word puts
    the block's fields above the grevlex word of the rest.
    """

    name = "block"

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
        return _Bound(n, shifts, word, key, eliminates=k)

    def __repr__(self):
        return f"block({self.k})"


class Weighted(MonomialOrder):
    """Order by a positive weight vector, ties broken by grevlex."""

    name = "weighted"

    def __init__(self, weights):
        weights = tuple(int(w) for w in weights)
        if not weights or any(w <= 0 or w > MAX_EXP for w in weights):
            raise ValueError("weights must be positive and below 2**20")
        self.weights = weights

    def _build(self, n):
        if len(self.weights) != n:
            raise ValueError(f"weight vector has {len(self.weights)} entries for {n} variables")
        shifts, gword, gkey = _grevlex_maps(n)
        hs = EXP_BITS * (n + 1)
        weights = tuple(zip(shifts, self.weights))

        def key(w):
            wd = sum(((w >> s) & _FIELD) * wi for s, wi in weights)
            return (wd << hs) + gkey(w)

        return _Bound(n, shifts, gword, key)

    def __repr__(self):
        return f"weighted({','.join(map(str, self.weights))})"


class PermutedGrevlex(MonomialOrder):
    """Grevlex applied to a fixed reordering of the variables.

    perm lists source variable indices in the order the comparison reads
    them; perm[-1] plays the role of the last grevlex variable.  Used
    internally for colon and saturation shortcuts; not part of the order
    grammar accepted in ideal files.  The identity permutation is grevlex
    itself: the same repr and the grevlex packers, so a basis cached under
    either order is found under the other.  Words are those of grevlex on
    the reordered variables.
    """

    name = "permuted-grevlex"

    def __init__(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation: {perm!r}")
        self.perm = perm
        self._identity = perm == tuple(range(len(perm)))

    def _build(self, n):
        if len(self.perm) != n:
            raise ValueError(f"permutation of {len(self.perm)} entries for {n} variables")
        if self._identity:
            return GREVLEX._build(n)
        gshifts, word, key = _grevlex_maps(n)
        shifts = [0] * n
        for pos, src in enumerate(self.perm):
            shifts[src] = gshifts[pos]
        return _Bound(n, tuple(shifts), word, key)

    def __repr__(self):
        if self._identity:
            return "grevlex"
        return f"permuted-grevlex({','.join(map(str, self.perm))})"


GREVLEX = Grevlex()
LEX = Lex()


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class PolyRing:
    """A standard-graded polynomial ring over a prime field or the rationals."""

    def __init__(self, names, field, order=GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names) or not names:
            raise ValueError("variable names must be nonempty and distinct")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nm):
                raise ValueError(f"bad variable name {nm!r}")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self.order = order
        self.bound = order.bind(self.nvars)
        self._name_index = {nm: i for i, nm in enumerate(names)}
        self._zero_exps = (0,) * self.nvars
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {self._zero_exps: field(1)})

    def gen(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field(1)})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=1):
        c = self.field(coeff)
        if c == 0:
            return self.zero
        return Polynomial(self, {tuple(exps): c})

    def const(self, c):
        c = self.field(c)
        return Polynomial(self, {self._zero_exps: c} if c != 0 else {})

    def poly(self, terms):
        """Build a polynomial from an {exps: coeff} mapping."""
        data = {}
        for e, c in terms.items():
            c = self.field(c)
            if c != 0:
                data[tuple(e)] = c
        return Polynomial(self, data)

    def from_string(self, text):
        return _parse_poly(self, text)

    def with_order(self, order):
        return self if order == self.order else PolyRing(self.names, self.field, order)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.names == self.names
                and other.field == self.field and other.order == self.order)

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"{self.field}[{','.join(self.names)}] order={self.order!r}"


class Polynomial:
    """An immutable polynomial: terms sorted descending in the ring's order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, data):
        self.ring = ring
        pack = ring.bound.pack
        self.terms = tuple(sorted(data.items(), key=lambda t: pack(t[0]), reverse=True))
        self._hash = None

    @classmethod
    def _from_sorted(cls, ring, terms):
        """A polynomial from nonzero terms already sorted descending in ring's order."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        poly._hash = None
        return poly

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lm(self):
        """Leading monomial as an exponent tuple."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    def coeff(self, exps):
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return self.ring.field(0)

    def _require_same_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._require_same_ring(other)
        f = self.ring.field
        data = dict(self.terms)
        for e, c in other.terms:
            s = f.add(data.get(e, 0), c) if e in data else c
            if e in data and s == 0:
                del data[e]
            else:
                data[e] = s
        return Polynomial(self.ring, data)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._require_same_ring(other)
        f = self.ring.field
        data = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                prev = data.get(e)
                s = f.mul(c1, c2) if prev is None else f.add(prev, f.mul(c1, c2))
                if s == 0:
                    data.pop(e, None)
                else:
                    data[e] = s
        return Polynomial(self.ring, data)

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
            if other == 0:
                return not self.terms
            other = self.ring.const(other)
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __repr__(self):
        return format_poly(self)


def transport(poly, target, index_map):
    """Reinterpret poly in target: source variable i becomes target variable index_map[i].

    index_map[i] may be None only when variable i does not occur in poly.
    """
    data = {}
    f = target.field
    for e, c in poly.terms:
        out = [0] * target.nvars
        for i, x in enumerate(e):
            if x == 0:
                continue
            j = index_map[i]
            if j is None:
                raise ValueError(f"variable {poly.ring.names[i]} has no image in target ring")
            out[j] = x
        c2 = f(c)
        if c2 != 0:
            exps = tuple(out)
            prev = data.get(exps)
            data[exps] = f.add(prev, c2) if prev is not None else c2
            if data[exps] == 0:
                del data[exps]
    return Polynomial(target, data)


# --- parsing and printing ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^)|(\*)|(\+)|(-)|(/)|(\())|(\))")


def _split_vars(ring, ident):
    """Split an identifier like X1X2 into known variable names, greedily."""
    out = []
    rest = ident
    while rest:
        for ln in range(len(rest), 0, -1):
            if rest[:ln] in ring._name_index:
                out.append(rest[:ln])
                rest = rest[ln:]
                break
        else:
            raise ValueError(f"unknown variable in {ident!r}")
    return out


def _parse_poly(ring, text):
    """Parse ASCII polynomial text: integer or a/b coefficients, ^ powers, optional *."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize polynomial at {text[pos:pos + 12]!r}")
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            for nm in _split_vars(ring, m.group(2)):
                tokens.append(("var", nm))
        elif m.group(3):
            tokens.append(("pow", None))
        elif m.group(4):
            tokens.append(("mul", None))
        elif m.group(5):
            tokens.append(("plus", None))
        elif m.group(6):
            tokens.append(("minus", None))
        elif m.group(7):
            tokens.append(("slash", None))
        elif m.group(8) or m.group(9):
            raise ValueError("parentheses are not part of the ideal file grammar")

    result = ring.zero
    i = 0
    nt = len(tokens)
    terms = iter([t.strip() for t in re.split("[+-]", text) if t.strip()])  # to name a bad term
    while i < nt:
        sign = 1
        while i < nt and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= nt:
            raise ValueError("dangling sign in polynomial text")
        term = next(terms)
        coeff = Fraction(sign)
        exps = [0] * ring.nvars
        saw_factor = False
        while i < nt and tokens[i][0] not in ("plus", "minus"):
            kind, val = tokens[i]
            if kind == "mul":
                i += 1
                continue
            if kind == "int":
                num = val
                i += 1
                if i < nt and tokens[i][0] == "slash":
                    i += 1
                    if i >= nt or tokens[i][0] != "int":
                        raise ValueError("fraction without denominator")
                    if tokens[i][1] == 0:
                        raise ValueError(f"zero denominator in term {term!r}")
                    coeff *= Fraction(num, tokens[i][1])
                    i += 1
                else:
                    coeff *= num
                saw_factor = True
                continue
            if kind == "var":
                vi = ring._name_index[val]
                i += 1
                power = 1
                if i < nt and tokens[i][0] == "pow":
                    i += 1
                    if i >= nt or tokens[i][0] != "int":
                        raise ValueError("^ without integer exponent")
                    power = tokens[i][1]
                    i += 1
                exps[vi] += power
                saw_factor = True
                continue
            raise ValueError(f"unexpected token {kind} in polynomial text")
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        try:
            result = result + ring.monomial(exps, coeff)
        except OverflowError as exc:
            raise ValueError(f"term {term!r}: {exc}") from None
    return result


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
    """Canonical text: terms descending in the ring order, symmetric residues."""
    if not poly.terms:
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


# --- division and S-polynomials --------------------------------------------

def reduce(f, basis, order=None):
    """Full normal form of f against basis.

    Returns (remainder, quotients) with f == sum(q*g) + remainder, the
    remainder having no term divisible by any basis leading monomial.  The
    highest reducible term is rewritten first and ties among reducers go to
    the smallest basis index, so the result is deterministic.
    """
    from . import _kernel

    ring = f.ring
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != ring:
            raise ValueError("basis polynomial from a different ring")
    bound = ring.bound if order is None else order.bind(ring.nvars)
    ctx = _kernel.Context(bound, ring.field)
    reducers = [_kernel.Reducer.from_packed(ctx, _kernel.to_packed(ctx, g), index=i)
                for i, g in enumerate(basis)]
    rem, quots = _kernel.normal_form(ctx, _kernel.to_packed(ctx, f), reducers, track=True)
    out_rem = _kernel.from_packed(ctx, rem, ring)
    out_quots = []
    for i, g in enumerate(basis):
        q = _kernel.from_packed(ctx, quots.get(i, {}), ring)
        lcinv = ring.field.inv(g.lc())
        out_quots.append(q * ring.const(lcinv))
    return out_rem, out_quots


def spoly(f, g, order=None):
    """The S-polynomial of f and g: the lcm cross-multiple with leads cancelled."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise ValueError("polynomials from different rings")
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        f = transport(f, ring, list(range(ring.nvars)))
        g = transport(g, ring, list(range(ring.nvars)))
    lf, lg = f.lm(), g.lm()
    lcm = mono_lcm(lf, lg)
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, lf)), ring.field.inv(f.lc()))
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, lg)), ring.field.inv(g.lc()))
    return mf * f - mg * g
