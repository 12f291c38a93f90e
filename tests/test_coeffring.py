"""Coefficient-ring properties: Gaussian rationals, sparse polynomials,
reduced quotients, and square-root adjuncts."""

import random
from fractions import Fraction

from randops import XYZ, random_expr, random_fraction, random_gauss, random_poly, random_point

from weylcalc import coeffring
from weylcalc.coeffring import (
    CoeffRingError,
    Expr,
    GaussRat,
    MultiPoly,
    NotPolynomial,
    PolyRing,
    UnknownSymbol,
    ZeroDenominator,
    _dot_terms,
    _monic,
    _pseudo_rem,
    _sum_products,
    format_poly,
    poly_gcd,
)
from weylcalc.spaces import R3

REPS = 1000


def test_gaussrat_field_axioms():
    rng = random.Random(101)
    one = GaussRat.of(1)
    for _ in range(REPS):
        a = random_gauss(rng)
        b = random_gauss(rng)
        c = random_gauss(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * one == a
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * (one / b) == one
        assert (a * b).conj() == a.conj() * b.conj()
        assert GaussRat(a.re, a.im) == a
        assert a.is_real() == (a.im == 0)


def test_gaussrat_pow_and_str():
    i = GaussRat(Fraction(0), Fraction(1))
    assert i * i == GaussRat.of(-1)
    assert i ** 3 == -i
    assert i ** 4 == GaussRat.of(1)
    assert GaussRat.of(2) ** -2 == GaussRat.of(Fraction(1, 4))
    assert str(GaussRat.of(Fraction(-3, 2))) == "-3/2"
    assert str(i) == "i"


def test_multipoly_ring_axioms():
    rng = random.Random(202)
    one = XYZ.one()
    zero = XYZ.zero()
    for _ in range(REPS):
        f = random_poly(XYZ, rng, terms=2)
        g = random_poly(XYZ, rng, terms=2)
        h = random_poly(XYZ, rng, terms=2)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert (f + g) * h == f * h + g * h
        assert (f - f) == zero
        assert f * one == f
        assert f * zero == zero


def test_multipoly_evaluate_is_ring_homomorphism():
    rng = random.Random(303)
    for _ in range(300):
        f = random_poly(XYZ, rng)
        g = random_poly(XYZ, rng)
        pt = random_point(XYZ, rng)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def test_poly_gcd_divides_both():
    rng = random.Random(404)
    for _ in range(400):
        f = random_poly(XYZ, rng, terms=2, nonzero=True)
        g = random_poly(XYZ, rng, terms=2, nonzero=True)
        d = poly_gcd(f, g)
        assert not d.is_zero()
        assert d.divides(f), "gcd %s does not divide %s" % (d, f)
        assert d.divides(g), "gcd %s does not divide %s" % (d, g)
        assert poly_gcd(f.exact_div(d), g.exact_div(d)).is_const()


X, Y, Z = XYZ.var("x"), XYZ.var("y"), XYZ.var("z")
I = GaussRat(0, 1)


def _product(factors):
    out = XYZ.one()
    for f in factors:
        out = out * f
    return out


def _assert_gcd(g, a, b):
    """poly_gcd(g*a, g*b) is monic g, for a and b coprime by construction."""
    want = _monic(g)
    assert poly_gcd(g * a, g * b) == want
    assert poly_gcd(g * b, g * a) == want


def test_poly_gcd_of_known_factors():
    # the smaller argument is primitive in z, the larger one has content x + 1
    _assert_gcd(Z + X, (X + 1) * (Z + Y) * (Z - 3), Z + X * 2)
    # both contents non-trivial: (x + 1) and (x + 1)(y + 2); their gcd x + 1
    _assert_gcd((X + 1) * (Z + X), Z + Y, (Y + 2) * (Z - Y * 2))
    # divisors with constant leading coefficients 3 and 2 + i in z
    _assert_gcd(Z * 3 + X, Z + Y, Z * 3 - Y)
    _assert_gcd(Z * (2 + I) + X, Z * 2 + Y * I, (Z + 1) * (Z - X))
    # the lower-degree argument first, a Gaussian content and leading coefficient
    _assert_gcd(Z * (1 - I) + Y, X * (1 + I) + 2, (Z - X * I) * (Z + Y) * (Z + 1))
    # the gcd is only content: the primitive parts are coprime
    _assert_gcd(X * Y + 1, Z + X, Z - X)


def test_poly_gcd_of_random_linear_factors():
    """Random Gaussian linear forms, pairwise non-proportional, are distinct
    irreducibles; gcd(G*A, G*B) = G*gcd(A, B) = G when A and B share none."""
    rng = random.Random(1414)
    forms = []
    while len(forms) < 24:
        coeffs = [GaussRat(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
        if not any(coeffs[1:]):
            continue
        form = _monic(XYZ.const(coeffs[0]) + X * coeffs[1] + Y * coeffs[2] + Z * coeffs[3])
        if form not in forms:
            forms.append(form)
    for _ in range(40):
        picked = rng.sample(forms, 6)
        k = rng.randint(1, 3)
        g = _product(picked[:k]) * random_gauss(rng, nonzero=True)
        a = _product(picked[k:k + 2]) * random_gauss(rng, nonzero=True)
        b = _product(picked[k + 2:]) * random_gauss(rng, nonzero=True)
        _assert_gcd(g, a, b)


def _check_pseudo_rem(f, g, idx):
    sym = XYZ.symbols[idx]
    r = _pseudo_rem(f, g, idx)
    df, dg = f.degree_in(sym), g.degree_in(sym)
    if df < dg:
        assert r == f
        return
    assert r.is_zero() or r.degree_in(sym) < dg
    lc = XYZ.zero()
    for e, c in g.terms.items():
        if e[idx] == dg:
            rest = list(e)
            rest[idx] = 0
            lc = lc + XYZ.poly({tuple(rest): c})
    # g divides lc(g)^(deg f - deg g + 1) * f - r
    (lc ** (df - dg + 1) * f - r).exact_div(g)


def test_pseudo_rem_defining_identity():
    rng = random.Random(1515)
    for _ in range(150):
        idx = rng.randrange(3)
        sym = XYZ.symbols[idx]
        rest = [s for s in XYZ.symbols if s != sym]
        u, v = (XYZ.var(s) for s in rest)
        lc = rng.choice([XYZ.one(), XYZ.const(3), XYZ.const(2 + I), u + v * I, u * v - 2])
        dg = rng.randint(1, 3)
        g = lc * XYZ.var(sym, dg)
        g = g + random_poly(XYZ, rng, symbols=rest, terms=2)
        for k in range(1, dg):
            g = g + random_poly(XYZ, rng, symbols=rest, terms=2) * XYZ.var(sym, k)
        f = random_poly(XYZ, rng, terms=4, degree=3, nonzero=True)
        _check_pseudo_rem(f, g, idx)
    # the degree of f below the degree of g, with a constant lc(g) != 1
    _check_pseudo_rem(Z * X + 1, Z ** 2 * 3 + X, 2)
    _check_pseudo_rem(Z * X + 1, Z ** 3 * (2 + I) + Y, 2)


def test_poly_gcd_skips_the_content_of_a_primitive_pair(monkeypatch):
    """When the argument with fewer terms is primitive, the content of the
    other argument cannot change the gcd and is never computed."""
    s = X ** 2 + Y ** 2 + Z ** 2
    f = s * (X + 1) * (Z + Y)  # content x + 1 in z
    seen = []
    content = coeffring._content_and_primitive

    def recording(p, idx):
        seen.append(p)
        return content(p, idx)

    monkeypatch.setattr(coeffring, "_content_and_primitive", recording)
    assert poly_gcd(f, s ** 2) == s
    assert seen
    assert all(p.terms != f.terms for p in seen)


def test_reduce_invariants():
    rng = random.Random(505)
    for _ in range(400):
        num = random_poly(XYZ, rng, terms=2)
        den = random_poly(XYZ, rng, terms=2, nonzero=True)
        e = Expr.make(num, den)
        # cross-multiplication identity: e equals num/den as a quotient
        assert e.num * den == num * e.den
        # lowest terms
        assert poly_gcd(e.num, e.den).is_const() or e.num.is_zero()
        # canonical form is a fixed point
        e2 = Expr.make(e.num, e.den)
        assert e2.num == e.num and e2.den == e.den


def test_expr_field_ops():
    rng = random.Random(606)
    two = ("x", "y")
    for _ in range(300):
        a = random_expr(XYZ, rng, symbols=two)
        b = random_expr(XYZ, rng, symbols=two)
        c = random_expr(XYZ, rng, symbols=two)
        assert ((a + b) * c - (a * c + b * c)).is_zero()
        assert (a - a).is_zero()
        assert (a * b - b * a).is_zero()
        if not b.is_zero():
            assert ((a / b) * b - a).is_zero()


def test_expr_differentiate_rules():
    rng = random.Random(707)
    two = ("x", "y")
    for _ in range(300):
        a = random_expr(XYZ, rng, symbols=two)
        b = random_expr(XYZ, rng, symbols=two)
        var = rng.choice(XYZ.symbols)
        da, db = a.differentiate(var), b.differentiate(var)
        # linearity and the product rule
        assert ((a + b).differentiate(var) - (da + db)).is_zero()
        assert ((a * b).differentiate(var) - (da * b + a * db)).is_zero()
        if not b.is_zero():
            # quotient rule
            q = (a / b).differentiate(var)
            assert (q - (da * b - a * db) / (b * b)).is_zero()


def test_adjunct_square_substitution():
    x, y, z, r = (R3.var(s) for s in ("x", "y", "z", "r"))
    assert r * r == x * x + y * y + z * z
    assert r ** 3 == (x * x + y * y + z * z) * r


def test_adjunct_chain_rule():
    x, y, z, r = (R3.var(s) for s in ("x", "y", "z", "r"))
    one = R3.one()
    # d r / dx = x / r
    d = Expr.of_poly(r).differentiate("x")
    assert (d - Expr.make(x, r)).is_zero()
    # d r^3 / dx = 3 x r
    d3 = Expr.of_poly(r ** 3).differentiate("x")
    assert (d3 - Expr.of_poly(x * r * 3)).is_zero()
    # d (1/r) / dy = -y / r^3
    dinv = Expr.make(one, r).differentiate("y")
    assert (dinv - Expr.make(-y, r ** 3)).is_zero()


def test_adjunct_conjugate_rationalization():
    # 1/(x + r) has the square root cleared from the denominator
    x, r = R3.var("x"), R3.var("r")
    e = Expr.make(R3.one(), x + r)
    assert not e.den.has_adjuncts()
    assert (e * Expr.of_poly(x + r) - Expr.of_poly(R3.one())).is_zero()


def test_grlex_order():
    x, y = XYZ.var("x"), XYZ.var("y")
    f = x * x + x * y + y * y + x + XYZ.one()
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 0)]


def test_format_poly():
    x, y = XYZ.var("x"), XYZ.var("y")
    assert format_poly((x + y) * (x + y)) == "x^2 + 2*x*y + y^2"
    assert format_poly(x * Fraction(-1, 2) + XYZ.one()) == "-1/2*x + 1"
    assert format_poly(XYZ.zero()) == "0"


def test_error_conditions():
    import pytest

    with pytest.raises(UnknownSymbol):
        XYZ.var("nope")
    with pytest.raises(ZeroDenominator):
        Expr.make(XYZ.one(), XYZ.zero())
    with pytest.raises(NotPolynomial):
        Expr.make(XYZ.one(), XYZ.var("x")).as_poly()


# -- the product kernel against a schoolbook reference ------------------------------


def _schoolbook(a: dict, b: dict) -> dict:
    """Plain double loop over GaussRat coefficients, dropping cancelled sums."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key, GaussRat(0)) + c1 * c2
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
    return out


def _reference_product(p: MultiPoly, q: MultiPoly) -> dict:
    """p*q by schoolbook products, with adjunct squares substituted until
    every adjunct exponent is 0 or 1."""
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    terms = _schoolbook(a, b)
    while True:
        hot = [
            (e, adj)
            for e in terms
            for adj in p.ring.adjuncts
            if e[adj.index] >= 2
        ]
        if not hot:
            return terms
        e, adj = hot[0]
        base = list(e)
        base[adj.index] -= 2
        c = terms.pop(e)
        for key, v in _schoolbook({tuple(base): c}, adj.square.terms).items():
            s = terms.pop(key, GaussRat(0)) + v
            if not s.is_zero():
                terms[key] = s


def _exact(terms: dict) -> dict:
    return {e: (c.re, c.im) for e, c in terms.items()}


def _assert_product(p: MultiPoly, q: MultiPoly):
    got = (p * q).terms
    want = _reference_product(p, q)
    assert _exact(got) == _exact(want)
    for c in got.values():
        assert type(c.re) is Fraction and type(c.im) is Fraction
    if not p.ring.adjuncts:
        assert list(got) == list(want)  # the same term order as the plain loop


def test_product_kernel_matches_schoolbook():
    rng = random.Random(808)
    for _ in range(400):
        p = random_poly(XYZ, rng, terms=5, degree=3, span=9)
        q = random_poly(XYZ, rng, terms=5, degree=3, span=9)
        _assert_product(p, q)
        # real operands take the integer-only loop
        _assert_product(
            MultiPoly(XYZ, {e: GaussRat(c.re) for e, c in p.terms.items() if c.re}),
            MultiPoly(XYZ, {e: GaussRat(c.re) for e, c in q.terms.items() if c.re}),
        )


def test_product_kernel_with_adjunct_matches_schoolbook():
    rng = random.Random(909)
    for _ in range(200):
        p = random_poly(R3, rng, symbols=("x", "y", "r"), terms=4, degree=3)
        q = random_poly(R3, rng, symbols=("y", "z", "r"), terms=4, degree=3)
        _assert_product(p, q)


def test_product_kernel_edge_cases():
    x, y = XYZ.var("x"), XYZ.var("y")
    # cancellation inside the convolution
    assert (x + y) * (x - y) == x * x - y * y
    assert ((x + y) * (x - y) - (x * x - y * y)).is_zero()
    assert len(((x + y) * (x - y)).terms) == 2
    # x*y cancels after two contributions and comes back with the third
    _assert_product(x + y + XYZ.one(), y - x + x * y)
    # cancellation through the adjunct square: (r - x)(r + x) = y^2 + z^2
    rx, r3 = R3.var("x"), R3.var("r")
    assert (r3 - rx) * (r3 + rx) == R3.var("y") ** 2 + R3.var("z") ** 2
    # mixed denominators and a non-real constant operand
    p = x * Fraction(1, 6) + y * GaussRat(Fraction(-2, 9), Fraction(5, 4))
    c = XYZ.const(GaussRat(Fraction(3, 10), Fraction(-7, 15)))
    _assert_product(p, c)
    _assert_product(c, p)
    # zero operand
    assert (p * XYZ.zero()).terms == {}
    assert (XYZ.zero() * p).terms == {}
    # exponents past the 8- and 16-bit field limits
    for a, b in ((200, 100), (255, 1), (40000, 30000), (2**33, 5)):
        big = XYZ.var("x", a) * Fraction(1, 3) + y
        _assert_product(big, x ** b + XYZ.const(GaussRat(0, 1)))
    assert (XYZ.var("x", 255) * x).terms == {(256, 0, 0): GaussRat(1)}


def test_product_kernel_rejects_unpackable_exponents():
    import pytest

    x = XYZ.var("x")
    bad = MultiPoly(XYZ, {(0, -1, 0): GaussRat(1)})
    with pytest.raises(CoeffRingError):
        bad * x
    with pytest.raises(CoeffRingError):
        x * bad
    # a sum past the widest 64-bit field raises instead of wrapping
    with pytest.raises(CoeffRingError):
        XYZ.var("x", 2**64 - 1) * x


# -- the multiply-accumulate kernel against a schoolbook reference -------------------


def _schoolbook_dot(triples) -> dict:
    """Plain loop over the triples, then a (outer) and b (inner), over
    GaussRat coefficients, dropping a sum when it cancels."""
    out = {}
    for m, a, b in triples:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key, GaussRat(0)) + c1 * c2 * m
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def _assert_dot(triples, nsyms=3):
    got = _dot_terms(triples, nsyms)
    want = _schoolbook_dot(triples)
    assert _exact(got) == _exact(want)
    assert list(got) == list(want)  # the same term order as the plain loop
    for c in got.values():
        assert type(c.re) is Fraction and type(c.im) is Fraction


def test_dot_kernel_matches_schoolbook():
    rng = random.Random(1212)
    for _ in range(300):
        polys = [random_poly(XYZ, rng, terms=4, degree=2, span=9) for _ in range(4)]
        triples = [
            (rng.choice((1, -1, 2, -3, 6, 35)), rng.choice(polys).terms, rng.choice(polys).terms)
            for _ in range(rng.randint(1, 5))
        ]
        _assert_dot(triples)
        # real operands take the integer-only loop
        real = [
            (m, {e: GaussRat(c.re) for e, c in a.items() if c.re},
             {e: GaussRat(c.re) for e, c in b.items() if c.re})
            for m, a, b in triples
        ]
        _assert_dot(real)


def test_dot_kernel_edge_cases():
    x, y, z = (XYZ.var(s).terms for s in "xyz")
    third = (XYZ.var("x") * Fraction(1, 3)).terms
    # different denominators; x*y cancels across triples and comes back last
    triples = [
        (2, third, (XYZ.var("y") * Fraction(3, 2)).terms),
        (-1, x, (XYZ.var("y") + XYZ.var("z") * GaussRat(0, Fraction(2, 7))).terms),
        (3, (XYZ.var("x") * Fraction(5, 4)).terms, y),
    ]
    _assert_dot(triples)
    assert list(_dot_terms(triples, 3)) == [(1, 0, 1), (1, 1, 0)]
    # a sum that cancels to nothing
    assert _dot_terms([(1, x, y), (-1, y, x)], 3) == {}
    # empty and zero operands, and a zero multiplier, add nothing
    assert _dot_terms((), 3) == {}
    assert _dot_terms([(1, {}, x), (4, x, {})], 3) == {}
    _assert_dot([(1, {}, x), (0, x, y), (5, third, z), (1, x, {})])
    # one triple past the 8-bit field widens the field for all of them
    big = XYZ.var("x", 300).terms
    _assert_dot([(2, x, y), (-1, big, third), (1, z, x)])
    assert _dot_terms([(1, x, y), (1, big, x)], 3) == {
        (1, 1, 0): GaussRat(1), (301, 0, 0): GaussRat(1)
    }


def test_dot_kernel_rejects_unpackable_exponents():
    import pytest

    x = XYZ.var("x").terms
    bad = {(0, -1, 0): GaussRat(1)}
    with pytest.raises(CoeffRingError):
        _dot_terms([(1, x, x), (2, bad, x)], 3)
    with pytest.raises(CoeffRingError):
        _dot_terms([(1, x, x), (2, x, bad)], 3)
    # a sum past the widest 64-bit field raises instead of wrapping
    with pytest.raises(CoeffRingError):
        _dot_terms([(1, x, x), (1, XYZ.var("x", 2**64 - 1).terms, x)], 3)


def test_sum_products_matches_expr_arithmetic():
    """Grouping by denominator pair, adjunct reduction and the final Expr
    sum give the same canonical Expr as term-by-term arithmetic."""
    rng = random.Random(1313)
    r = R3.var("r")
    s2 = R3.var("x") ** 2 + R3.var("y") ** 2 + R3.var("z") ** 2
    dens = [R3.one(), r, s2, R3.var("x") + R3.var("y")]
    for _ in range(60):
        exprs = [
            Expr.make(
                random_poly(R3, rng, symbols=("x", "y", "r"), terms=2, degree=2),
                rng.choice(dens),
            )
            for _ in range(3)
        ]
        items = [
            (rng.choice((1, 2, -3)), rng.choice(exprs), rng.choice(exprs))
            for _ in range(rng.randint(1, 4))
        ]
        got = _sum_products(R3, items)
        want = Expr.of_poly(R3.zero())
        for m, c, e in items:
            want = want + c * e * m
        assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
