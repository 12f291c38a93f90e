"""Seeded random inputs shared by the property-test modules.

Everything takes an explicit random.Random so each test controls its own
seed and failures reproduce exactly.
"""

from fractions import Fraction

from weylcalc.coeffring import Expr, PolyRing
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import VariableSpec, mul_op, partial, zero_op


def adjoin_i(ring):
    """A copy of ring, which must adjoin nothing, with the imaginary unit i
    as a new first symbol, adjoined with i^2 = -1."""
    out = PolyRing(("i",) + ring.symbols)
    out.define_adjunct("i", out.const(-1))
    return out


XYZ = PolyRing(("x", "y", "z"))
# the Gaussian test rings: XYZ and the (r, u) chart with i adjoined
XYZI = adjoin_i(XYZ)
RUI = adjoin_i(RU)
RUI_SPEC = VariableSpec(RUI, RU_SPEC.space)


def random_fraction(rng, span=6, nonzero=False):
    num = rng.randint(-span, span)
    if nonzero:
        while num == 0:
            num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, span))


def _has_i(ring) -> bool:
    return "i" in ring.index and ring.is_adjunct("i")


def random_gauss(rng, ring, span=6, nonzero=False, real=False):
    """re + im*i with small rational parts, as a constant of ring: just re
    when ring does not adjoin i, or when real.  Both parts are drawn either
    way, so a seed draws the same numbers in every ring."""
    while True:
        re, im = random_fraction(rng, span), random_fraction(rng, span)
        g = ring.const(re)
        if im and not real and _has_i(ring):
            g = g + ring.var("i") * im
        if not (nonzero and g.is_zero()):
            return g


def random_poly(ring, rng, symbols=None, terms=3, degree=2, span=6, nonzero=False, real=False):
    """Sparse polynomial in symbols (by default every symbol of ring but i)
    with small random_gauss coefficients."""
    if symbols is None:
        symbols = [s for s in ring.symbols if s != "i"]
    out = ring.zero()
    for _ in range(rng.randint(0 if not nonzero else 1, terms)):
        term = random_gauss(rng, ring, span, real=real)
        for s in symbols:
            term = term * ring.var(s) ** rng.randint(0, degree)
        out = out + term
    if nonzero and out.is_zero():
        out = random_gauss(rng, ring, span, nonzero=True, real=real)
    return out


def random_expr(ring, rng, symbols=None, terms=2, degree=2, span=4, den_degree=1, real=False):
    num = random_poly(ring, rng, symbols, terms, degree, span, real=real)
    den = random_poly(ring, rng, symbols, terms, den_degree, span, nonzero=True, real=real)
    return Expr.make(num, den)


def factor_pool(ring):
    """Four adjunct-free factors over the ring's first three plain symbols
    a, b, c: (a^2+b^2+c^2, a+b, beta (c without one), a^2+b^2).  In R3
    they are s = x^2+y^2+z^2, x+y, beta and x^2+y^2."""
    plain = [s for s in ring.symbols if not ring.is_adjunct(s)]
    a, b, c = (ring.var(s) for s in plain[:3])
    beta = ring.var("beta") if "beta" in ring.index else c
    return (a * a + b * b + c * c, a + b, beta, a * a + b * b)


def random_reduced_expr(ring, rng, symbols=None):
    """Expr.make of a small numerator over a random_gauss constant times up
    to two factors from factor_pool(ring).  Half the numerators carry a pool
    factor too, so shared factors and partial cancellation are frequent;
    one numerator in five is a constant."""
    pool = factor_pool(ring)
    den = random_gauss(rng, ring, 4, nonzero=True)
    for _ in range(rng.randint(0, 2)):
        den = den * rng.choice(pool)
    if rng.randint(0, 4):
        num = random_poly(ring, rng, symbols, terms=2, degree=1, span=4, nonzero=True)
    else:
        num = random_gauss(rng, ring, 4, nonzero=True)
    if rng.randint(0, 1):
        num = num * rng.choice(pool)
    return Expr.make(num, den)


def random_op(rng, terms=2, order=1, cdeg=1, span=4, symbols=("r", "u", "beta"), spec=RUI_SPEC):
    """Small normal-ordered operator on the (r, u) chart with polynomial
    coefficients, Gaussian ones over the default RUI_SPEC; sized so
    thousand-case property loops stay fast."""
    op = zero_op(spec)
    for _ in range(rng.randint(1, terms)):
        coeff = random_poly(spec.ring, rng, symbols, terms=1, degree=cdeg, span=span, nonzero=True)
        piece = mul_op(spec, coeff)
        for var in spec.space:
            k = rng.randint(0, order)
            if k:
                piece = piece.compose(partial(spec, var, k))
        op = op + piece
    return op


def random_point(ring, rng, span=5):
    return {s: random_fraction(rng, span) for s in ring.symbols}
