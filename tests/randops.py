"""Seeded random inputs shared by the property-test modules.

Everything takes an explicit random.Random so each test controls its own
seed and failures reproduce exactly.
"""

from fractions import Fraction

from weylcalc.coeffring import Expr, GaussRat, MultiPoly, PolyRing
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import DiffOp, identity, mul_op, partial, zero_op

XYZ = PolyRing(("x", "y", "z"))


def random_fraction(rng, span=6, nonzero=False):
    num = rng.randint(-span, span)
    if nonzero:
        while num == 0:
            num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, span))


def random_gauss(rng, span=6, nonzero=False):
    g = GaussRat(random_fraction(rng, span), random_fraction(rng, span))
    if nonzero:
        while g.is_zero():
            g = GaussRat(random_fraction(rng, span), random_fraction(rng, span))
    return g


def random_poly(ring, rng, symbols=None, terms=3, degree=2, span=6, nonzero=False):
    """Sparse polynomial with small GaussRat coefficients."""
    if symbols is None:
        symbols = ring.symbols
    out = ring.zero()
    for _ in range(rng.randint(0 if not nonzero else 1, terms)):
        term = ring.const(random_gauss(rng, span))
        for s in symbols:
            term = term * ring.var(s) ** rng.randint(0, degree)
        out = out + term
    if nonzero and out.is_zero():
        out = ring.const(random_gauss(rng, span, nonzero=True))
    return out


def random_expr(ring, rng, symbols=None, terms=2, degree=2, span=4, den_degree=1):
    num = random_poly(ring, rng, symbols, terms, degree, span)
    den = random_poly(ring, rng, symbols, terms, den_degree, span, nonzero=True)
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
    """Expr.make of a small numerator over a Gaussian constant times up to
    two factors from factor_pool(ring).  Half the numerators carry a pool
    factor too, so shared factors and partial cancellation are frequent;
    one numerator in five is a constant."""
    pool = factor_pool(ring)
    den = ring.const(random_gauss(rng, 4, nonzero=True))
    for _ in range(rng.randint(0, 2)):
        den = den * rng.choice(pool)
    if rng.randint(0, 4):
        num = random_poly(ring, rng, symbols, terms=2, degree=1, span=4, nonzero=True)
    else:
        num = ring.const(random_gauss(rng, 4, nonzero=True))
    if rng.randint(0, 1):
        num = num * rng.choice(pool)
    return Expr.make(num, den)


def random_op(rng, terms=2, order=1, cdeg=1, span=4, symbols=("r", "u", "beta")):
    """Small normal-ordered operator on the (r, u) chart with polynomial
    coefficients; sized so thousand-case property loops stay fast."""
    op = zero_op(RU_SPEC)
    for _ in range(rng.randint(1, terms)):
        coeff = random_poly(RU, rng, symbols, terms=1, degree=cdeg, span=span, nonzero=True)
        piece = mul_op(RU_SPEC, coeff)
        for var in RU_SPEC.space:
            k = rng.randint(0, order)
            if k:
                piece = piece.compose(partial(RU_SPEC, var, k))
        op = op + piece
    return op


def random_point(ring, rng, span=5):
    return {s: random_fraction(rng, span) for s in ring.symbols}
