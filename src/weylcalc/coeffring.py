"""Exact coefficient arithmetic.

Coefficients are rationals (Fraction).  Polynomials are sparse dicts
mapping exponent tuples to coefficients, over a ring of named symbols.  A
ring may adjoin square roots of earlier polynomials (e.g. r with
r^2 = x^2 + y^2 + z^2, or the imaginary unit i with i^2 = -1); products
are reduced so every adjunct appears with exponent 0 or 1.  Rational
functions keep an adjunct-free, monic, gcd-reduced denominator, which
makes the zero test a plain dict emptiness check.

An adjunct square that is a diagonal quadratic form of rank >= 3, such as
x^2 + y^2 + z^2, is certified irreducible (a product of two linear forms
has rank <= 2).  Gcds and reductions against a power of a certified square
are trial exact divisions by it; every other gcd runs the subresultant PRS.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, sub
from struct import Struct


class CoeffRingError(Exception):
    pass


class ZeroDenominator(CoeffRingError):
    pass


class UnknownSymbol(CoeffRingError):
    pass


class NotPolynomial(CoeffRingError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise CoeffRingError("not an exact rational: %r" % (x,))


_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- product kernel -------------------------------------------------------------


# field formats for packed exponents, by the largest value they hold
_FIELDS = ((0xFF, "B"), (0xFFFF, "H"), (0xFFFFFFFF, "I"), (0xFFFFFFFFFFFFFFFF, "Q"))


@lru_cache(maxsize=None)
def _struct(nfields: int, code: str) -> Struct:
    return Struct(">%d%s" % (nfields, code))


def _packer(nfields: int, top: int, guarded: bool = False) -> Struct:
    """Big-endian Struct of nfields fields, each the narrowest of 8, 16, 32
    or 64 bits that holds values up to top, so int.from_bytes(pack(...),
    "big") orders keys as their field tuples.  A guarded field keeps its
    top bit clear, for the borrow test of the exact division.  Raises
    CoeffRingError past 64 bits rather than wrap."""
    for limit, code in _FIELDS:
        if top <= (limit >> 1 if guarded else limit):
            return _struct(nfields, code)
    raise CoeffRingError("exponent %d too large to pack" % top)


def _exp_bound(terms: dict, nsyms: int) -> int:
    """Largest exponent in terms; a negative one cannot be packed."""
    if not nsyms:
        return 0
    if min(map(min, terms)) < 0:
        raise CoeffRingError("negative exponent in a product")
    return max(map(max, terms))


def _numerators(coeffs):
    """(common denominator d, [integer numerators over d]).  coeffs is
    walked twice, so a one-pass iterator is read into a list first."""
    if iter(coeffs) is coeffs:
        coeffs = list(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _scaled(terms: dict, pack):
    """(common denominator, [(packed monomial, integer numerator)])."""
    den, nums = _numerators(terms.values())
    return den, [(int.from_bytes(pack(*e), "big"), n) for e, n in zip(terms, nums)]


def _shifted(m: int, a: dict, b: dict, nsyms: int) -> dict:
    """m*a*b when a or b has one term: an exponent shift and a coefficient
    scale, with the convolution's exponent checks, integer arithmetic and
    term order (b's when a is the one term, a's otherwise).  A shift by 0
    keeps the keys, and a scale by 1 keeps the coefficients, so a product
    by 1 is a copy."""
    _packer(nsyms, _exp_bound(a, nsyms) + _exp_bound(b, nsyms))
    if len(a) == 1:
        ((s, c),), terms = a.items(), b
    else:
        ((s, c),), terms = b.items(), a
    keys = [tuple(map(add, e, s)) for e in terms] if any(s) else terms
    return dict(zip(keys, _times(terms.values(), c, m)))


def _times(values, c: Fraction, m: int = 1) -> list:
    """[m*c*v for v in values] for a nonzero c, on integer numerators over
    one common denominator: no Fraction product per value.  A scale by 1
    keeps the values."""
    if m == 1 and c == 1:
        return list(values)
    den, nums = _numerators(values)
    cn, d = c.numerator * m, c.denominator * den
    return [Fraction(n * cn, d) for n in nums]


def _dot_terms(triples, nsyms: int) -> dict:
    """Sum of m*a*b over (int m, term dict a, term dict b), exact to the term.

    Fraction-free on packed monomials (after Monagan & Pearce, CASC 2007):
    each exponent tuple becomes one int of fixed-width fields wide enough
    for the largest exponent sum over all triples, so adding two packed
    ints adds the exponents and no field carries into the next.  Each
    distinct operand is scaled once to integer numerators over its own
    common denominator; every triple then convolves integers into one
    accumulator over the lcm d of the triples' denominators, and every
    surviving term becomes one reduced Fraction over d.  The terms come out
    in the order of a loop over the triples, then a (outer) and b (inner),
    that drops a sum when it cancels.

    A lone triple with a one-term operand skips all of that set-up: it is
    an exponent shift plus a coefficient scale (_shifted).
    """
    triples = [t for t in triples if t[0] and t[1] and t[2]]
    if not triples:
        return {}
    if len(triples) == 1:
        m, a, b = triples[0]
        if len(a) == 1 or len(b) == 1:
            return _shifted(m, a, b, nsyms)
    ops = {}
    for _, a, b in triples:
        ops[id(a)] = a
        ops[id(b)] = b
    bound = {i: _exp_bound(t, nsyms) for i, t in ops.items()}
    packer = _packer(nsyms, max(bound[id(a)] + bound[id(b)] for _, a, b in triples))
    unpack, size = packer.unpack, packer.size
    scaled = {i: _scaled(t, packer.pack) for i, t in ops.items()}
    d = lcm(*(scaled[id(a)][0] * scaled[id(b)][0] for _, a, b in triples))
    out = {}
    get = out.get
    for m, a, b in triples:
        da, pa = scaled[id(a)]
        db, pb = scaled[id(b)]
        f = m * (d // (da * db))
        if f != 1:  # fold m and the lift to d into the shorter operand
            if len(pa) <= len(pb):
                pa = [(k, n * f) for k, n in pa]
            else:
                pb = [(k, n * f) for k, n in pb]
        for ka, na in pa:
            for kb, nb in pb:
                k = ka + kb
                n = get(k, 0) + na * nb
                if n:
                    out[k] = n
                else:
                    out.pop(k, None)
    return {unpack(k.to_bytes(size, "big")): Fraction(n, d) for k, n in out.items()}


def _div_term(terms: dict, divisor: dict) -> dict:
    """terms / a one-term divisor: an exponent shift down and a coefficient
    division, in the descending grlex order of the leading-term loop."""
    ((s, c),) = divisor.items()
    if min(s) < 0 or min(map(min, terms)) < 0:
        raise CoeffRingError("negative exponent in a division")
    monic = c == 1
    out = {}
    for e in sorted(terms, key=grlex_key, reverse=True):
        q = tuple(map(sub, e, s))
        if min(q) < 0:
            raise NotPolynomial("not divisible")
        out[q] = terms[e] if monic else terms[e] / c
    return out


def _div_packed(terms: dict, divisor: dict, nsyms: int) -> dict:
    """terms / divisor by leading terms, on packed grlex keys (after Monagan
    & Pearce, JSC 2011), in descending grlex order.

    Each monomial becomes one big-endian int of fields (degree, e0, e1, …),
    so int order is grlex order: the remainder's leading term is the top of
    a heap of keys, and a quotient monomial is one subtraction.  Every field
    keeps its top bit clear; setting those guard bits before subtracting the
    divisor's leading key leaves one cleared exactly where the leading
    exponent is larger, which is the divisibility test.  No monomial of a
    product q*g passes the larger total degree of dividend and divisor, so
    no field overflows.

    The coefficients are integers: the dividend's numerators over its
    common denominator, and the divisor's divided by their content, with
    leading coefficient L.  A quotient coefficient is the remainder's
    leading one over L; when L does not divide it, the remainder is first
    multiplied by the least factor that makes it divisible, and the factor
    joins the remainder's denominator.  A divisor with L = +-1 (monic ones
    included) never needs one, and a primitive one never does on an exact
    quotient (Gauss's lemma).  Raises NotPolynomial at the first remainder
    term that the leading term does not divide, as the plain loop does.
    """
    if min(map(min, terms)) < 0 or min(map(min, divisor)) < 0:
        raise CoeffRingError("negative exponent in a division")
    top = max(max(map(sum, terms)), max(map(sum, divisor)))
    packer = _packer(nsyms + 1, top, guarded=True)
    pack, size = packer.pack, packer.size
    width = size // (nsyms + 1)
    guard = int.from_bytes((b"\x80" + bytes(width - 1)) * (nsyms + 1), "big")
    da, a_nums = _numerators(terms.values())
    rem = {int.from_bytes(pack(sum(e), *e), "big"): n for e, n in zip(terms, a_nums)}
    db, b_nums = _numerators(divisor.values())
    content = gcd(*b_nums)
    rest = {int.from_bytes(pack(sum(e), *e), "big"): n // content for e, n in zip(divisor, b_nums)}
    lead = max(rest)
    lc = rest.pop(lead)
    rest = list(rest.items())
    heap = [-k for k in rem]
    heapify(heap)
    scale = 1  # the remainder's denominator, relative to the dividend's
    quot = []
    while heap:
        k = -heappop(heap)
        v = rem.pop(k, None)
        if v is None:  # cancelled, or a second heap entry of a taken key
            continue
        q = (k | guard) - lead
        if q & guard != guard:
            raise NotPolynomial("not divisible")
        q ^= guard
        if lc != 1:
            f = abs(lc) // gcd(lc, v)
            if f != 1:
                scale *= f
                v *= f
                rem = {key: n * f for key, n in rem.items()}
            v //= lc
        quot.append((q, v, scale))
        for k2, b in rest:
            k2 += q
            n = rem.get(k2)
            if n is None:
                rem[k2] = -v * b
                heappush(heap, -k2)
                continue
            n -= v * b
            if n:
                rem[k2] = n
            else:
                del rem[k2]
    # quotient = db / (da * content) * (integer quotient / scale)
    unpack, den = packer.unpack, da * content
    return {
        unpack(q.to_bytes(size, "big"))[1:]: Fraction(n * db, den * s) for q, n, s in quot
    }


class Adjunct:
    """Adjoined square root: symbol s at a ring position, with s^2 = square."""

    __slots__ = ("symbol", "index", "square")

    def __init__(self, symbol, index, square):
        self.symbol = symbol
        self.index = index
        self.square = square


class PolyRing:
    """Named-symbol polynomial ring, optionally with square-root adjuncts.

    An adjunct's defining square is a polynomial in strictly earlier plain
    symbols, never in another adjunct, so replacing s^2 by its square
    raises no adjunct exponent and each adjunct reduces in one pass.
    """

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise CoeffRingError("duplicate symbols")
        self.index = {s: k for k, s in enumerate(self.symbols)}
        self.nsyms = len(self.symbols)
        self.adjuncts = []          # sorted by index, ascending
        self._adjunct_at = {}       # index -> Adjunct
        self._zero_exps = (0,) * self.nsyms
        self.prime_squares = []     # certified irreducible adjunct squares

    def define_adjunct(self, symbol, square: "MultiPoly"):
        """Adjoin symbol as a square root: symbol^2 = square.

        Raises CoeffRingError when symbol is already an adjunct or is used
        by another adjunct's square, and when square uses symbol, a later
        symbol or an adjunct.

        A square that is a diagonal quadratic form with at least three
        terms, sum c_i*x_i^2, is certified irreducible and joins
        prime_squares, the base that gcds and reductions trial-divide by.
        The form has rank >= 3, while a product of two linear forms has rank
        <= 2, so it has no factor over C, and so none over Q.  No other
        square is certified: x^2 - y^2 = (x + y)(x - y) is not.
        """
        idx = self.index_of(symbol)
        if square.ring is not self:
            raise CoeffRingError("adjunct square from a different ring")
        if idx in self._adjunct_at:
            raise CoeffRingError("%s is already an adjunct" % symbol)
        if any(a.square.uses(symbol) for a in self.adjuncts):
            raise CoeffRingError("%s is used by an adjunct square" % symbol)
        for exps in square.terms:
            if any(exps[idx:]) or any(exps[a.index] for a in self.adjuncts):
                raise CoeffRingError(
                    "adjunct %s square must use earlier plain symbols only" % symbol
                )
        adj = Adjunct(symbol, idx, square)
        self.adjuncts.append(adj)
        self.adjuncts.sort(key=lambda a: a.index)
        self._adjunct_at[idx] = adj
        if _diagonal_rank(square) >= 3:
            self.prime_squares.append(PrimeSquare(square))

    def index_of(self, symbol) -> int:
        try:
            return self.index[symbol]
        except KeyError:
            raise UnknownSymbol("unknown symbol %r" % (symbol,)) from None

    def is_adjunct(self, symbol) -> bool:
        return self.index_of(symbol) in self._adjunct_at

    # -- constructors ------------------------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return MultiPoly(self, {self._zero_exps: _ONE})

    def const(self, c) -> "MultiPoly":
        c = _frac(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {self._zero_exps: c})

    def var(self, symbol, power=1) -> "MultiPoly":
        idx = self.index_of(symbol)
        exps = [0] * self.nsyms
        exps[idx] = power
        return MultiPoly(self, {tuple(exps): _ONE}, reduce=power > 1)

    def monomial(self, coeff, **powers) -> "MultiPoly":
        coeff = _frac(coeff)
        if not coeff:
            return self.zero()
        exps = [0] * self.nsyms
        for s, p in powers.items():
            exps[self.index_of(s)] = p
        return MultiPoly(self, {tuple(exps): coeff}, reduce=True)

    def poly(self, terms) -> "MultiPoly":
        """Build from {exps: coeff} with reduction."""
        d = {}
        for exps, c in terms.items():
            c = _frac(c)
            if c:
                d[tuple(exps)] = c
        return MultiPoly(self, d, reduce=True)

    # -- adjunct reduction -------------------------------------------------

    def _reduce_terms(self, terms: dict) -> dict:
        """Rewrite so every adjunct exponent is 0 or 1: s^(2k+j) becomes
        square^k * s^j.  A square is adjunct-free, so rewriting one adjunct
        leaves every other adjunct exponent as it was: one pass per
        adjunct."""
        for adj in self.adjuncts:
            idx, square = adj.index, adj.square
            for exps in terms:
                if exps[idx] >= 2:
                    break
            else:  # no exponent of this adjunct to rewrite
                continue
            out = {}
            for exps, c in terms.items():
                e = exps[idx]
                if e < 2:
                    out[exps] = out.get(exps, 0) + c
                    continue
                k, rem = divmod(e, 2)
                base = list(exps)
                base[idx] = rem
                # multiply square^k into the base monomial
                acc = {tuple(base): c}
                for _ in range(k):
                    acc = _dot_terms(((1, acc, square.terms),), self.nsyms)
                for key, v in acc.items():
                    out[key] = out.get(key, 0) + v
            terms = {e: c for e, c in out.items() if c}
        return terms


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial: {exponent tuple: Fraction}."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, reduce: bool = False):
        self.ring = ring
        if reduce:
            terms = ring._reduce_terms(terms)
        self.terms = terms
        self._hash = None

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.ring._zero_exps in self.terms
        )

    def const_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if self.is_const():
            return self.terms[self.ring._zero_exps]
        raise NotPolynomial("not a constant: %s" % self)

    def degree_in(self, symbol) -> int:
        idx = self.ring.index_of(symbol)
        return max((e[idx] for e in self.terms), default=0)

    def uses(self, symbol) -> bool:
        idx = self.ring.index_of(symbol)
        return any(e[idx] for e in self.terms)

    def has_adjuncts(self) -> bool:
        return any(
            e[a.index] for e in self.terms for a in self.ring.adjuncts
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self):
        """(exps, coeff) maximal in graded-lex order."""
        if not self.terms:
            raise CoeffRingError("leading term of zero")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise CoeffRingError("mixed rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            v = out.get(e)
            s = c if v is None else v + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return self.ring.zero()
            # a constant factor raises no adjunct exponent: no reduction
            terms = self.terms
            return MultiPoly(self.ring, dict(zip(terms, _times(terms.values(), c))))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = _dot_terms(((1, a, b),), self.ring.nsyms)
        return MultiPoly(self.ring, out, reduce=bool(self.ring.adjuncts))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise CoeffRingError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- calculus and substitution ------------------------------------------

    def diff_poly_part(self, symbol) -> "MultiPoly":
        """Plain partial derivative, ignoring adjunct dependence on symbol.

        Lowering the exponent of symbol is one-to-one on the terms that
        carry it, so no two terms meet and no coefficient vanishes.
        """
        idx = self.ring.index_of(symbol)
        terms = {
            e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
            for e, c in self.terms.items()
            if e[idx]
        }
        return MultiPoly(self.ring, terms)

    def differentiate(self, symbol) -> "Expr":
        """d/d symbol, with chain rule through adjunct square roots."""
        result = Expr.of_poly(self.diff_poly_part(symbol))
        ring = self.ring
        for adj in ring.adjuncts:
            if adj.symbol == symbol:
                raise CoeffRingError(
                    "cannot differentiate with respect to adjunct %s" % symbol
                )
            if not adj.square.uses(symbol):
                continue
            part = {e: c for e, c in self.terms.items() if e[adj.index]}
            if not part:
                continue
            # sum c*m*s  ->  (sum c*m*s) * (d square / d symbol) / (2 square)
            p = MultiPoly(ring, part)
            dsq = adj.square.differentiate(symbol)
            result = result + Expr.of_poly(p) * dsq / Expr.of_poly(adj.square * 2)
        return result

    def map_ring(self, dst: PolyRing, bindings: dict | None = None) -> "Expr":
        """Image in ring dst: a symbol named in bindings maps to its value
        (an Expr, MultiPoly or rational of dst), every other symbol to the
        symbol of the same name in dst.  A substitution is the image in
        self's own ring.

        The unbound symbols of a term stay one monomial of dst, and the
        bound ones are multiplied in from a cache of their powers.  Raises
        UnknownSymbol for a binding name not in self's ring, and for a
        symbol that a term uses but that has no image.
        """
        src = self.ring
        images = {src.index_of(s): Expr.of(dst, v) for s, v in (bindings or {}).items()}
        slots = [dst.index.get(s) for s in src.symbols]
        powers = {}
        total = Expr.of_poly(dst.zero())
        for e, c in self.terms.items():
            keep = [0] * dst.nsyms
            factors = []
            for i, k in enumerate(e):
                if not k:
                    continue
                if i in images:
                    f = powers.get((i, k))
                    if f is None:
                        f = powers[i, k] = images[i] ** k
                    factors.append(f)
                elif slots[i] is None:
                    raise UnknownSymbol(
                        "symbol %s has no image in the target ring" % src.symbols[i]
                    )
                else:
                    keep[slots[i]] = k
            term = Expr.of_poly(MultiPoly(dst, {tuple(keep): c}, reduce=True))
            for f in factors:
                term = term * f
            total = total + term
        return total

    def evaluate(self, point: dict) -> Fraction:
        """Value at a full rational point (adjunct symbols included explicitly)."""
        out = _ZERO
        vals = {self.ring.index_of(s): _frac(v) for s, v in point.items()}
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if not k:
                    continue
                if i not in vals:
                    raise UnknownSymbol(
                        "no value for %s" % self.ring.symbols[i]
                    )
                v = v * vals[i] ** k
            out = out + v
        return out

    # -- division ------------------------------------------------------------

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/other; raises NotPolynomial if not divisible.

        A constant divisor is a product by its inverse, which keeps self's
        term order.  Any other one-term divisor is an exponent shift plus a
        coefficient division (_div_term), and a longer divisor runs the
        leading-term division on packed grlex keys (_div_packed); both give
        the quotient's terms in descending grlex order.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.has_adjuncts():
            raise NotPolynomial("divisor must be adjunct-free")
        if other.is_const():
            return self * (1 / other.const_value())
        if not self.terms:
            return MultiPoly(self.ring, {})
        if len(other.terms) == 1:
            return MultiPoly(self.ring, _div_term(self.terms, other.terms))
        return MultiPoly(self.ring, _div_packed(self.terms, other.terms, self.ring.nsyms))

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotPolynomial:
            return False

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "MultiPoly(%s)" % self


def format_monomial(names, exps) -> str:
    """name or name^k for each nonzero exponent k, joined by '*'; '' for none."""
    return "*".join(
        name if k == 1 else "%s^%d" % (name, k) for name, k in zip(names, exps) if k
    )


def format_sum(parts) -> str:
    """Printed terms joined by ' + ', or by ' - ' in place of a term's own
    leading '-'."""
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        mono = format_monomial(p.ring.symbols, e)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(str(c) + "*" + mono)
    return format_sum(parts)


# -- gcd over the coefficient field -----------------------------------------


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    if lc == 1:
        return p
    return p * (1 / lc)


def _min_exps_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd when either argument is a single term."""
    mins = None
    for src in (a, b):
        for e in src.terms:
            if mins is None:
                mins = list(e)
            else:
                mins = [min(x, y) for x, y in zip(mins, e)]
    return MultiPoly(a.ring, {tuple(mins): _ONE})


def _main_symbol(a: MultiPoly, b: MultiPoly):
    n = a.ring.nsyms
    for i in range(n - 1, -1, -1):
        if any(e[i] for e in a.terms) or any(e[i] for e in b.terms):
            return i
    return None


def _split_by(p: MultiPoly, idx: int) -> dict:
    """Degree in symbol idx -> coefficient poly (exponent at idx zeroed).

    Distinct terms of one degree stay distinct with that exponent zeroed,
    so each coefficient is copied, never summed.
    """
    out = {}
    for e, c in p.terms.items():
        out.setdefault(e[idx], {})[e[:idx] + (0,) + e[idx + 1:]] = c
    return {k: MultiPoly(p.ring, d) for k, d in out.items()}


def _join_by(parts: dict, idx: int, ring: PolyRing) -> MultiPoly:
    terms = {}
    for k, poly in parts.items():
        for e, c in poly.terms.items():
            key = list(e)
            key[idx] = e[idx] + k
            terms[tuple(key)] = c
    return MultiPoly(ring, terms)


def _diagonal_rank(square: MultiPoly) -> int:
    """Rank of square as a quadratic form when it is diagonal, sum c_i*x_i^2
    with every c_i nonzero (its number of terms); 0 for any other
    polynomial."""
    for e in square.terms:
        if sum(e) != 2 or 2 not in e:
            return 0
    return len(square.terms)


class PrimeSquare:
    """A certified irreducible adjunct square s, made monic, with its powers
    s^k (built as they are first asked for, in descending grlex order).

    s is prime in the polynomial ring, so the divisors of s^k are the
    powers s^j, j <= k, up to units: gcd(s^k, q) is s^j for j the number of
    exact divisions of q by s that succeed, at most k.  That needs no PRS.
    """

    __slots__ = ("powers", "nterms")

    def __init__(self, square: MultiPoly):
        s = _monic(square)
        self.powers = [s.ring.one(), MultiPoly(s.ring, dict(s.sorted_terms()))]
        self.nterms = len(s.terms)

    def power(self, k: int) -> MultiPoly:
        powers = self.powers
        while len(powers) <= k:
            p = powers[-1] * powers[1]
            powers.append(MultiPoly(p.ring, dict(p.sorted_terms())))
        return powers[k]

    def exponent(self, p: MultiPoly):
        """(k, c) when p is c*s^k for a constant c and k >= 1, else (0, 1).
        Every term of s^k has degree 2k, and a diagonal form of n terms to
        the k-th has comb(k+n-1, n-1) terms, so one term's degree names the
        only candidate power and the term count screens it before the
        comparison.  c is p's coefficient at the leading term of s^k; a
        monic p is one dict comparison."""
        k, odd = divmod(sum(next(iter(p.terms))), 2)
        n = self.nterms
        if not k or odd or len(p.terms) != comb(k + n - 1, n - 1):
            return 0, 1
        power = self.power(k).terms
        c = p.terms.get(next(iter(power)))
        if c == 1:
            same = p.terms == power
        else:
            get = p.terms.get
            same = c is not None and all(get(e) == c * v for e, v in power.items())
        return (k, c) if same else (0, 1)

    def divide_out(self, q: MultiPoly, limit: int) -> list:
        """[q, q/s, ..., q/s^j] for the largest j <= limit that divides.

        A multiple of s has at least as many terms as s, so a shorter
        quotient ends the chain with no division: the Newton polytope of
        s*t is the Minkowski sum of s's, a simplex with one vertex per term
        of s, and t's, so it has at least that many vertices, and the
        coefficient at a vertex is a product of two nonzero ones.
        """
        s = self.powers[1]
        chain = [q]
        while len(chain) <= limit and len(chain[-1].terms) >= self.nterms:
            try:
                chain.append(chain[-1].exact_div(s))
            except NotPolynomial:
                break
        return chain

    def gcd(self, a: MultiPoly, b: MultiPoly):
        """gcd(a, b) when a or b is a power of s; None otherwise."""
        ka, kb = self.exponent(a)[0], self.exponent(b)[0]
        if ka and kb:
            return self.power(min(ka, kb))
        if not ka and not kb:
            return None
        k, other = (ka, b) if ka else (kb, a)
        return self.power(len(self.divide_out(other, k)) - 1)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of adjunct-free polynomials over the rationals.

    When one argument is a constant times a power s^k of a certified
    adjunct square s of the ring (PolyRing.define_adjunct), the gcd is s^j,
    j the number of exact divisions of the other argument by s that
    succeed, up to k, and gcd(s^a, s^b) is s^min(a, b): no PRS runs.

    Otherwise it recurses in the main (highest-index) symbol: gcd = gcd of
    the contents times the primitive gcd from the subresultant PRS (Brown,
    J. ACM 1971; Geddes, Czapor & Labahn, ch. 7).  The content of the
    argument with fewer terms is taken first; when it is 1 the gcd is
    primitive, so the other argument's content cannot change it and is
    never computed: the PRS takes that argument as it is.
    """
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.has_adjuncts() or b.has_adjuncts():
        raise NotPolynomial("gcd arguments must be adjunct-free")
    if a.is_const() or b.is_const():
        return a.ring.one()
    if a.terms == b.terms:
        return _monic(a)
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _min_exps_gcd(a, b)
    for prime in a.ring.prime_squares:
        g = prime.gcd(a, b)
        if g is not None:
            return g
    idx = _main_symbol(a, b)
    if idx is None:
        return a.ring.one()
    da = a.degree_in(a.ring.symbols[idx])
    db = b.degree_in(b.ring.symbols[idx])
    if da == 0 or db == 0:
        # one argument is free of the main symbol: gcd divides its coeff gcd
        free, other = (a, b) if da == 0 else (b, a)
        g = free
        for _, p in sorted(_split_by(other, idx).items()):
            g = poly_gcd(g, p)
            if g.is_const():
                return a.ring.one()
        return _monic(g)
    small, large = (a, b) if len(a.terms) < len(b.terms) else (b, a)
    c_small, p_small = _content_and_primitive(small, idx)
    if c_small.is_const():
        return _monic(_primitive_prs(large, small, idx))
    c_large, p_large = _content_and_primitive(large, idx)
    return _monic(poly_gcd(c_small, c_large) * _primitive_prs(p_large, p_small, idx))


def _content_and_primitive(p: MultiPoly, idx: int):
    """(content, primitive part) of p in symbol idx; the content is monic.

    A nonzero constant coefficient part makes the content 1 at once, with
    no gcd; otherwise the parts are gcd'd smallest first, ties by degree in
    symbol idx, stopping at 1, so the work depends on p's value and not on
    the order of its terms.
    """
    parts = _split_by(p, idx)
    if any(q.is_const() for q in parts.values()):
        return p.ring.one(), p
    cont = None
    for _, _, q in sorted((len(q.terms), k, q) for k, q in parts.items()):
        cont = q if cont is None else poly_gcd(cont, q)
        if cont.is_const():
            return p.ring.one(), p
    cont = _monic(cont)
    prim = _join_by(
        {k: q.exact_div(cont) for k, q in parts.items()}, idx, p.ring
    )
    return cont, prim


def _primitive_prs(f: MultiPoly, g: MultiPoly, idx: int) -> MultiPoly:
    """Primitive gcd of f and g via the subresultant remainder sequence:
    each pseudo-remainder is divided by a predicted factor, which keeps
    coefficient growth polynomial without per-step content extraction.  The
    inputs need not be primitive: the last nonzero remainder is a multiple
    of the gcd, and only its primitive part is returned.
    """
    ring = f.ring
    sym = ring.symbols[idx]
    if f.degree_in(sym) < g.degree_in(sym):
        f, g = g, f
    lead = ring.one()
    h = ring.one()
    while True:
        delta = f.degree_in(sym) - g.degree_in(sym)
        r = _pseudo_rem(f, g, idx)
        if r.is_zero():
            _, prim = _content_and_primitive(g, idx)
            return prim
        if not r.degree_in(sym):
            return ring.one()
        f, g = g, r.exact_div(lead * h ** delta)
        lead = _split_by(f, idx)[f.degree_in(sym)]
        if delta:
            h = (lead ** delta).exact_div(h ** (delta - 1))


def _pseudo_rem(f: MultiPoly, g: MultiPoly, idx: int) -> MultiPoly:
    """Strict pseudo-remainder lc(g)^(δ+1)·f mod g in symbol idx, where
    δ = deg f − deg g; f itself when δ < 0.

    One pass over f's coefficient parts in symbol idx, from the top
    degree down, so no step splits the remainder again.  When lc(g) is a
    constant c the step is plain division by c over the field, and the
    remainder is scaled by c^(δ+1) once at the end; otherwise each step
    multiplies the remainder by lc(g).  Both give the same polynomial.
    """
    ring = f.ring
    g_parts = _split_by(g, idx)
    dg = max(g_parts)
    lc_g = g_parts.pop(dg)
    rem = _split_by(f, idx)
    df = max(rem, default=-1)
    if df < dg:
        return f
    const = lc_g.is_const()
    if const:
        c = lc_g.const_value()
        inv = 1 / c
    for d in range(df, dg - 1, -1):
        lc_r = rem.pop(d, None)
        if not const:
            rem = {k: q * lc_g for k, q in rem.items()}
        if lc_r is None:
            continue
        if const:
            lc_r = lc_r * inv
        for k, gk in g_parts.items():
            key = k + d - dg
            part = rem.get(key)
            part = -(gk * lc_r) if part is None else part - gk * lc_r
            if part.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = part
    out = _join_by(rem, idx, ring)
    if const and c != 1:
        out = out * c ** (df - dg + 1)
    return out


# -- rational functions -------------------------------------------------------


class Expr:
    """Reduced rational function num/den.

    Invariants: den is adjunct-free, monic in graded-lex order, and shares
    no non-unit factor with num's adjunct-free content.  Zero is 0/1, and a
    constant den is exactly 1.  The form is unique, so equal values have
    equal terms.

    Arithmetic keeps the form by Henrici's rule (J. ACM 1956; Knuth, TAOCP
    vol. 2, 4.5.1), taking gcds against what two denominators share rather
    than against their product.  For a/b + c/d with g = gcd(b, d) != 1,
    t = a*(d/g) + c*(b/g) is reduced against g alone: a factor of b/g or
    d/g cannot divide t's content, and multiplying by an adjunct-free
    polynomial scales every adjunct group alike.  A sum with b or d = 1, or
    with g = 1, is already in lowest terms.  A product where a is
    adjunct-free cross-cancels gcd(a, d) and gcd(content(c), b) and is then
    in lowest terms; when both numerators carry adjuncts their product can
    gain a factor (r*r = x^2+y^2+z^2), so it is reduced whole by make.
    Division by an adjunct-free numerator multiplies by the reciprocal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _trusted=False):
        if not _trusted:
            raise CoeffRingError("use Expr.of_poly or Expr.make")
        self.num = num
        self.den = den

    @staticmethod
    def of(ring: PolyRing, v) -> "Expr":
        """v as an Expr of ring: an Expr or MultiPoly of ring, or a rational
        constant.  A value from another ring raises CoeffRingError."""
        if isinstance(v, Expr):
            if v.num.ring is not ring:
                raise CoeffRingError("expression from a different ring")
            return v
        if isinstance(v, MultiPoly):
            if v.ring is not ring:
                raise CoeffRingError("polynomial from a different ring")
            return Expr.of_poly(v)
        return Expr.of_poly(ring.const(v))

    @staticmethod
    def of_poly(p: MultiPoly) -> "Expr":
        return Expr(p, p.ring.one(), _trusted=True)

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> "Expr":
        if num.ring is not den.ring:
            raise CoeffRingError("mixed rings")
        return _reduce_fraction(num, den)

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_const():
            raise NotPolynomial("denominator %s is not constant" % self.den)
        c = self.den.const_value()
        if c == 1:
            return self.num
        return self.num * (1 / c)

    def const_value(self) -> Fraction:
        return self.as_poly().const_value()

    def __add__(self, other):
        other = Expr.of(self.ring, other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.terms == d.terms:
            return Expr.make(a + c, b)
        if b.is_const():
            return Expr(a * d + c, d, _trusted=True)
        if d.is_const():
            return Expr(c * b + a, b, _trusted=True)
        for prime in self.ring.prime_squares:
            kb, kd = prime.exponent(b)[0], prime.exponent(d)[0]
            if kb and kd:  # monic s^kb and s^kd: the quotients by g are powers
                m = min(kb, kd)
                g, b, d = prime.power(m), prime.power(kb - m), prime.power(kd - m)
                break
        else:
            g = poly_gcd(b, d)
            if g.is_const():
                return Expr(a * d + c * b, b * d, _trusted=True)
            b, d = b.exact_div(g), d.exact_div(g)
        t, g = _cancel(a * d + c * b, g)
        return Expr(t, g * b * d, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = Expr.of(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Expr(-self.num, self.den, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return Expr.of_poly(self.ring.zero())
            return Expr(self.num * c, self.den, _trusted=True)
        other = Expr.of(self.ring, other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_const() and d.is_const():
            return Expr.of_poly(a * c)
        if not a.terms or not c.terms:
            return Expr.of_poly(self.ring.zero())
        if a.has_adjuncts():
            if c.has_adjuncts():
                return Expr.make(a * c, b * d)
            a, b, c, d = c, d, a, b
        # a is adjunct-free: cross-cancel, and the product is in lowest terms
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return Expr(a * c, b * d, _trusted=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expr.of(self.ring, other)
        if other.is_zero():
            raise ZeroDenominator("division by zero expression")
        if other.num.has_adjuncts():
            return Expr.make(self.num * other.den, self.den * other.num)
        return self * _monic_fraction(other.den, other.num)

    def __rtruediv__(self, other):
        return Expr.of(self.ring, other) / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("zero to a negative power")
            return Expr.make(self.den ** (-n), self.num ** (-n))
        return Expr.make(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = Expr.of(self.ring, other)
        if not isinstance(other, Expr):
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def differentiate(self, symbol) -> "Expr":
        """d/d symbol of num/den, with the chain rule through adjuncts.

        When den is c*s^k, k >= 1, for a certified adjunct square s, and
        every adjunct square that uses symbol is a constant multiple of s,
        the quotient rule has a closed form (_square_power_derivative):
        with n_pp num's plain partial derivative and p the terms of num
        that carry such an adjunct,

            D(num/(c*s^k)) = (2*s*n_pp + (p - 2*k*num)*s') / (2*c*s^(k+1)),

        and n_pp/(c*s^k) when s' = 0.  That numerator is in lowest terms
        when num/den is: modulo s its adjunct group g is
        (e_g - 2*k)*num_g*s', with e_g the number of such adjuncts in g
        (0 or 1 in R3 and AMB, which adjoin one root of s), which is
        nonzero because k >= 1 and the prime s divides neither s' nor some
        num_g.  The trial division by s stays as the exactness guard.
        Every other value runs (n'*b - n*b')/b/b, two divisions by b.
        """
        if self.den.is_const():
            dn = self.num.differentiate(symbol)
            c = self.den.const_value()
            return dn if c == 1 else dn * (1 / c)
        if self.num.ring.prime_squares:
            closed = _square_power_derivative(self.num, self.den, symbol)
            if closed is not None:
                return closed
        dn = self.num.differentiate(symbol)
        dd = self.den.differentiate(symbol)
        den_e = Expr.of_poly(self.den)
        return (dn * den_e - Expr.of_poly(self.num) * dd) / den_e / den_e

    def map_ring(self, dst: PolyRing, bindings: dict | None = None) -> "Expr":
        """Image in ring dst, as MultiPoly.map_ring."""
        num = self.num.map_ring(dst, bindings)
        den = self.den.map_ring(dst, bindings)
        if den.is_zero():
            raise ZeroDenominator("the image of the denominator is zero")
        return num / den

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        n = str(self.num)
        if len(self.num.terms) > 1:
            n = "(%s)" % n
        d = str(self.den)
        if len(self.den.terms) > 1:
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    def __repr__(self):
        return "Expr(%s)" % self


def _sum_products(ring: PolyRing, items) -> Expr:
    """Sum of m*c*e over (int m, Expr c, Expr e) items.

    Items sharing a pair of denominators are summed in one kernel call on
    their numerators and then adjunct-reduced; reduction is linear, so that
    equals summing the reduced products.  Only a group with a non-constant
    denominator goes through Expr.make, and the groups are added as Exprs.
    """
    groups = {}
    for m, c, e in items:
        groups.setdefault((c.den, e.den), []).append((m, c.num.terms, e.num.terms))
    total = Expr.of_poly(ring.zero())
    for (dc, de), triples in groups.items():
        num = MultiPoly(ring, _dot_terms(triples, ring.nsyms), reduce=True)
        if dc.is_const() and de.is_const():  # both 1: the denominator is monic
            part = Expr(num, dc, _trusted=True)
        else:
            part = Expr.make(num, dc * de)
        total = part if total.is_zero() else total + part
    return total


def _adjunct_groups(p: MultiPoly) -> dict:
    """p's terms grouped by their adjunct monomial: {adjunct part, as a full
    exponent tuple: adjunct-free MultiPoly}, so a term is a group's key plus
    one of its exponents."""
    adj_idx = [a.index for a in p.ring.adjuncts]
    groups = {}
    for e, c in p.terms.items():
        mono = list(p.ring._zero_exps)
        base = list(e)
        for i in adj_idx:
            mono[i] = e[i]
            base[i] = 0
        groups.setdefault(tuple(mono), {})[tuple(base)] = c
    return {mono: MultiPoly(p.ring, d) for mono, d in groups.items()}


def _reduce_fraction(num: MultiPoly, den: MultiPoly) -> Expr:
    ring = num.ring
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return Expr(ring.zero(), ring.one(), _trusted=True)
    # rationalize: eliminate adjunct symbols from the denominator
    while den.has_adjuncts():
        adj = next(a for a in reversed(ring.adjuncts)
                   if any(e[a.index] for e in den.terms))
        parts = _split_by(den, adj.index)
        d0, d1 = parts.get(0, ring.zero()), parts[1]
        s = ring.var(adj.symbol)
        num = num * (d0 - d1 * s)
        den = d0 * d0 - d1 * d1 * adj.square
        if den.is_zero():
            raise ZeroDenominator("denominator vanishes identically")
    return _monic_fraction(*_cancel(num, den))


def _cancel(num: MultiPoly, den: MultiPoly):
    """(num/h, den/h) for h the gcd of adjunct-free den and num's adjunct
    content, the gcd of its adjunct groups; den/h keeps den's leading
    coefficient.

    When den is c*s^k, a constant c times a power of a certified adjunct
    square s (such as the -(x^2+y^2+z^2) that rationalizing 1/r leaves), h
    is s^j for the least j over num's adjunct groups of the exact divisions
    by s that succeed, up to k: each group is trial-divided, and no content
    gcd is taken.  Otherwise h is taken against den first, one group at a
    time, stopping at 1: a gcd with den is no larger than den, while two
    groups (the parts of a value with and without i) can both be large.
    """
    if den.is_const():
        return num, den
    for prime in num.ring.prime_squares:
        k, lc = prime.exponent(den)
        if k:
            return _cancel_power(num, den, prime, k, lc)
    h = den
    for q in _adjunct_groups(num).values() if num.ring.adjuncts else (num,):
        h = poly_gcd(h, q)
        if h.is_const():
            return num, den
    return _div_grouped(num, h), den.exact_div(h)


def _cancel_power(num: MultiPoly, den: MultiPoly, prime: PrimeSquare, k: int, lc):
    """_cancel of num against den = lc*s^k, s = prime's square."""
    chains = []
    j = k
    for mono, q in _adjunct_groups(num).items():
        chain = prime.divide_out(q, j)
        j = len(chain) - 1
        if not j:
            return num, den
        chains.append((mono, chain))
    out = {}
    for mono, chain in chains:
        for e, c in chain[j].terms.items():
            out[tuple(map(add, e, mono))] = c
    den = prime.power(k - j)
    return MultiPoly(num.ring, out), den if lc == 1 else den * lc


def _square_power_derivative(num: MultiPoly, den: MultiPoly, symbol):
    """d/d symbol of num/den by the closed form of Expr.differentiate, or
    None when den is not c*s^k, k >= 1, for a certified square s, when
    symbol is an adjunct, or when an adjunct square that uses symbol is not
    a constant multiple of s."""
    ring = num.ring
    for prime in ring.prime_squares:
        k, c = prime.exponent(den)
        if k:
            break
    else:
        return None
    roots = []  # indices of the adjuncts whose square uses symbol
    for adj in ring.adjuncts:
        if adj.symbol == symbol:
            return None
        if adj.square.uses(symbol):
            if prime.exponent(adj.square)[0] != 1:
                return None
            roots.append(adj.index)
    s = prime.powers[1]
    ds = s.diff_poly_part(symbol)
    n_pp = num.diff_poly_part(symbol)
    if ds.is_zero():
        return _monic_fraction(*_cancel_power(n_pp, den, prime, k, c))
    # q = p - 2*k*num, adjunct exponents being 0 or 1
    q = {}
    for e, v in num.terms.items():
        m = sum(e[i] for i in roots) - 2 * k
        if m:
            q[e] = v * m
    out = _dot_terms(((2, n_pp.terms, s.terms), (1, q, ds.terms)), ring.nsyms)
    return _monic_fraction(
        *_cancel_power(MultiPoly(ring, out), prime.power(k + 1) * (2 * c), prime, k + 1, 2 * c)
    )


def _monic_fraction(num: MultiPoly, den: MultiPoly) -> Expr:
    """num/den in lowest terms, with den adjunct-free and nonzero, scaled so
    den is monic (exactly 1 when constant)."""
    if den.is_const():
        c = den.const_value()
        if c != 1:
            num = num * (1 / c)
        return Expr(num, num.ring.one(), _trusted=True)
    _, lc = den.leading()
    if lc != 1:
        inv = 1 / lc
        num = num * inv
        den = den * inv
    return Expr(num, den, _trusted=True)


def _div_grouped(num: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division of num by adjunct-free g, adjunct monomials untouched."""
    if not num.has_adjuncts():
        return num.exact_div(g)
    out = {}
    for mono, q in _adjunct_groups(num).items():
        for e, c in q.exact_div(g).terms.items():
            out[tuple(map(add, e, mono))] = c
    return MultiPoly(num.ring, out)
