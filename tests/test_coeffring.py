"""Coefficient-ring properties: sparse polynomials over the rationals,
reduced quotients, and square-root adjuncts, i among them."""

import random
from fractions import Fraction

from randops import (
    XYZ,
    XYZI,
    factor_pool,
    random_expr,
    random_fraction,
    random_gauss,
    random_point,
    random_poly,
    random_reduced_expr,
)

from weylcalc import coeffring
from weylcalc.coeffring import (
    CoeffRingError,
    Expr,
    MultiPoly,
    NotPolynomial,
    PolyRing,
    UnknownSymbol,
    ZeroDenominator,
    _dot_terms,
    _monic,
    _packer,
    _pseudo_rem,
    _sum_products,
    format_monomial,
    format_poly,
    format_sum,
    grlex_key,
    poly_gcd,
)
from weylcalc.spaces import AMB, R3, RU

REPS = 1000


def _split_i(p: MultiPoly):
    """(re, im) of an XYZI constant re + im*i."""
    return p.terms.get((0, 0, 0, 0), 0), p.terms.get((1, 0, 0, 0), 0)


def test_adjoined_i_constants_form_a_field():
    """The constants re + im*i of a ring with i adjoined are the Gaussian
    rationals: a field, with division by rationalizing (re - im*i)."""
    rng = random.Random(101)
    one = Expr.of_poly(XYZI.one())
    for _ in range(REPS):
        a, b, c = (Expr.of_poly(random_gauss(rng, XYZI)) for _ in range(3))
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
            assert (a / b).is_poly()  # |b|^2 is a rational constant
        # (re + im*i)(re' + im'*i) = (re*re' - im*im') + (re*im' + im*re')*i
        (ra, ia), (rb, ib) = _split_i(a.num), _split_i(b.num)
        assert _split_i((a * b).num) == (ra * rb - ia * ib, ra * ib + ia * rb)


def test_adjoined_i_pow_and_str():
    i = XYZI.var("i")
    assert i * i == XYZI.const(-1)
    assert i ** 3 == -i
    assert i ** 4 == XYZI.one()
    assert Expr.of_poly(XYZI.const(2)) ** -2 == Fraction(1, 4)
    assert str(XYZI.const(Fraction(-3, 2))) == "-3/2"
    assert str(i) == "i"
    # i leads each monomial it is in
    assert str(XYZI.var("x") * i * 3 + XYZI.var("y")) == "3*i*x + y"


def test_multipoly_ring_axioms():
    # Gaussian coefficients: XYZI adjoins i
    rng = random.Random(202)
    one = XYZI.one()
    zero = XYZI.zero()
    for _ in range(REPS):
        f = random_poly(XYZI, rng, terms=2)
        g = random_poly(XYZI, rng, terms=2)
        h = random_poly(XYZI, rng, terms=2)
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
    # divisors with constant leading coefficients 3 and 2/3 in z
    _assert_gcd(Z * 3 + X, Z + Y, Z * 3 - Y)
    _assert_gcd(Z * Fraction(2, 3) + X, Z * 2 + Y * 5, (Z + 1) * (Z - X))
    # the lower-degree argument first, a rational content and leading coefficient
    _assert_gcd(Z * 5 + Y, X * Fraction(3, 4) + 2, (Z - X * 2) * (Z + Y) * (Z + 1))
    # the gcd is only content: the primitive parts are coprime
    _assert_gcd(X * Y + 1, Z + X, Z - X)


def test_poly_gcd_of_random_linear_factors():
    """Random rational linear forms, pairwise non-proportional, are distinct
    irreducibles; gcd(G*A, G*B) = G*gcd(A, B) = G when A and B share none."""
    rng = random.Random(1414)
    forms = []
    while len(forms) < 24:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        if not any(coeffs[1:]):
            continue
        form = _monic(XYZ.const(coeffs[0]) + X * coeffs[1] + Y * coeffs[2] + Z * coeffs[3])
        if form not in forms:
            forms.append(form)
    for _ in range(40):
        picked = rng.sample(forms, 6)
        k = rng.randint(1, 3)
        g = _product(picked[:k]) * random_gauss(rng, XYZ, nonzero=True)
        a = _product(picked[k:k + 2]) * random_gauss(rng, XYZ, nonzero=True)
        b = _product(picked[k + 2:]) * random_gauss(rng, XYZ, nonzero=True)
        _assert_gcd(g, a, b)


def _permuted(rng, p: MultiPoly) -> MultiPoly:
    """p with its terms in a random order: the same value."""
    return MultiPoly(p.ring, dict(rng.sample(list(p.terms.items()), len(p.terms))))


def test_poly_gcd_work_depends_on_values_only(monkeypatch):
    """Permuting both arguments' terms changes neither the gcd nor the
    number of poly_gcd calls: the content's parts are taken by term count,
    then degree, and the free-of-main-symbol branch by degree."""
    rng = random.Random(1616)
    real = coeffring.poly_gcd
    count = [0]

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    monkeypatch.setattr(coeffring, "poly_gcd", counting)
    for n in range(120):
        g = random_poly(XYZ, rng, terms=2, degree=1, nonzero=True)
        a, b = (
            g * random_poly(XYZ, rng, ("x", "y"), terms=3, degree=2, nonzero=True)
            * random_poly(XYZ, rng, terms=3, degree=2, nonzero=True)
            for _ in range(2)
        )
        if n % 2:  # a free of z: the gcd walks b's parts in z
            a = _product(rng.sample((X + 1, Y - 2, X + Y, X * Y + 3), 2))
            b = b * rng.choice((X + 1, Y - 2, X * Y + 3))
        elif rng.randint(0, 2):
            b = b * (X + Y)
        runs = []
        for _ in range(4):
            count[0] = 0
            got = coeffring.poly_gcd(_permuted(rng, a), _permuted(rng, b))
            runs.append((got.terms, count[0]))
        assert all(run == runs[0] for run in runs), (a, b, runs)


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
        lc = rng.choice([XYZ.one(), XYZ.const(3), XYZ.const(Fraction(2, 3)), u + v * 2, u * v - 2])
        dg = rng.randint(1, 3)
        g = lc * XYZ.var(sym, dg)
        g = g + random_poly(XYZ, rng, symbols=rest, terms=2)
        for k in range(1, dg):
            g = g + random_poly(XYZ, rng, symbols=rest, terms=2) * XYZ.var(sym, k)
        f = random_poly(XYZ, rng, terms=4, degree=3, nonzero=True)
        _check_pseudo_rem(f, g, idx)
    # the degree of f below the degree of g, with a constant lc(g) != 1
    _check_pseudo_rem(Z * X + 1, Z ** 2 * 3 + X, 2)
    _check_pseudo_rem(Z * X + 1, Z ** 3 * Fraction(2, 3) + Y, 2)


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
    # Gaussian coefficients: XYZI adjoins i, and 1/(x + i*y) is rationalized
    rng = random.Random(606)
    two = ("x", "y")
    for _ in range(300):
        a = random_expr(XYZI, rng, symbols=two)
        b = random_expr(XYZI, rng, symbols=two)
        c = random_expr(XYZI, rng, symbols=two)
        assert ((a + b) * c - (a * c + b * c)).is_zero()
        assert (a - a).is_zero()
        assert (a * b - b * a).is_zero()
        if not b.is_zero():
            assert ((a / b) * b - a).is_zero()


def test_expr_differentiate_rules():
    rng = random.Random(707)
    two = ("x", "y")
    for _ in range(300):
        a = random_expr(XYZI, rng, symbols=two)
        b = random_expr(XYZI, rng, symbols=two)
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


def test_define_adjunct_keeps_squares_flat():
    import pytest

    ring = PolyRing(("x", "y", "s", "t"))
    x, y, s = (ring.var(v) for v in ("x", "y", "s"))
    ring.define_adjunct("s", x * x + y * y)
    with pytest.raises(CoeffRingError):  # a second square would go unread
        ring.define_adjunct("s", x * x)
    with pytest.raises(CoeffRingError):  # a square over an adjunct
        ring.define_adjunct("t", s * x + ring.one())
    with pytest.raises(CoeffRingError):  # a square over a later symbol
        ring.define_adjunct("s", ring.var("t"))
    assert ring.adjuncts[0].square == x * x + y * y and len(ring.adjuncts) == 1
    # a symbol that a square already uses stays plain
    late = PolyRing(("x", "s", "t"))
    late.define_adjunct("t", late.var("s") + late.var("x"))
    with pytest.raises(CoeffRingError):
        late.define_adjunct("s", late.var("x"))


# -- certified adjunct squares: trial division in place of the PRS --------------------


def _certified(square_of) -> list:
    """prime_squares of a fresh (x, y, z, w, s) ring whose adjunct s has the
    square that square_of(x, y, z, w) builds."""
    ring = PolyRing(("x", "y", "z", "w", "s"))
    ring.define_adjunct("s", square_of(*(ring.var(v) for v in "xyzw")))
    return [p.powers[1] for p in ring.prime_squares]


def test_only_diagonal_forms_of_rank_three_are_certified():
    x, y, z = (R3.var(v) for v in "xyz")
    # R3 adjoins i^2 = -1, a constant, and r^2 = x^2 + y^2 + z^2
    assert [p.powers[1] for p in R3.prime_squares] == [x * x + y * y + z * z]
    # AMB adjoins rho^2 = x^2 + y^2 (rank 2) and r^2 = x^2 + y^2 + z^2
    ax, ay, az = (AMB.var(v) for v in "xyz")
    assert [p.powers[1] for p in AMB.prime_squares] == [ax * ax + ay * ay + az * az]
    assert len(_certified(lambda x, y, z, w: x * x + y * y + z * z)) == 1
    # certified monic: 2x^2 - 3y^2 + (3/2)w^2 has rank 3 over C
    (p,) = _certified(lambda x, y, z, w: x * x * 2 - y * y * 3 + w * w * Fraction(3, 2))
    assert p.leading()[1] == 1
    assert _certified(lambda x, y, z, w: x * x + y * y) == []  # rank 2
    assert _certified(lambda x, y, z, w: x * x - y * y) == []  # rank 2, (x + y)(x - y)
    assert _certified(lambda x, y, z, w: x * x + y * y + z * z + 1) == []  # not homogeneous
    assert _certified(lambda x, y, z, w: x * y + z * z) == []  # not diagonal
    assert _certified(lambda x, y, z, w: x * x + y * y + z * w) == []  # not diagonal
    assert RU.prime_squares == [] and XYZ.prime_squares == []


def test_prime_square_recognises_exactly_its_powers():
    """exponent(p) is (k, c) for p = c*s^k, a constant multiple of a power
    of s (rationalizing 1/r leaves -s), and (0, 1) for anything else."""
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    x, y = R3.var("x"), R3.var("y")
    for k in range(1, 6):
        assert prime.exponent(s ** k) == (k, 1)
        assert prime.exponent(s ** k * 2) == (k, 2)
        assert prime.exponent(-(s ** k) * Fraction(3, 7)) == (k, Fraction(-3, 7))
        # homogeneous, of the same degree and, for k = 1, the same term count
        assert prime.exponent(s ** k - x ** (2 * k) + y ** (2 * k) * 3) == (0, 1)
        # the same terms as s^k with one coefficient off the common multiple
        assert prime.exponent(s ** k * 2 + x ** (2 * k)) == (0, 1)
    for p in (R3.one(), x * x + y * y, s * x, s + 1, -s + x * x * 2):
        assert prime.exponent(p) == (0, 1)


def test_cancel_trial_divides_a_constant_multiple_of_a_square_power(monkeypatch):
    """Rationalizing 1/r and x/r^3 leaves the denominators -s and -s^3 (s =
    x^2+y^2+z^2), which _cancel trial-divides without a PRS: the results
    are those of the content gcd."""
    x, r = R3.var("x"), R3.var("r")
    s = x * x + R3.var("y") ** 2 + R3.var("z") ** 2
    cases = ((R3.one(), r), (x, r ** 3))
    want = [_without_prime_squares(monkeypatch, lambda: Expr.make(*c)) for c in cases]
    monkeypatch.setattr(coeffring, "_primitive_prs", _refuse_prs)
    got = [Expr.make(*c) for c in cases]
    for g, w in zip(got, want):
        assert list(g.num.terms.items()) == list(w.num.terms.items())
        assert list(g.den.terms.items()) == list(w.den.terms.items())
    assert got[0] == Expr.make(r, s) and str(got[0]) == "r/(x^2 + y^2 + z^2)"
    assert got[1] == Expr.make(x * r, s * s)
    # a power of s times a constant cancels partly: the constant stays
    num, den = coeffring._cancel(x * s * 5, s ** 3 * -2)
    assert num == x * 5 and den == s ** 2 * -2


def _refuse_prs(*args):
    raise AssertionError("the subresultant PRS ran")


R3_ALGEBRAIC = ("x", "y", "z", "beta")


def test_a_multiple_of_a_certified_square_has_at_least_its_terms(monkeypatch):
    """The term-count screen of the trial division: s*t keeps at least the
    three terms of s, so a quotient with fewer ends the chain undivided."""
    rng = random.Random(3030)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    x, y = R3.var("x"), R3.var("y")
    for _ in range(200):
        t = random_poly(R3, rng, R3_ALGEBRAIC, terms=3, degree=2, nonzero=True, real=True)
        t = t * rng.choice((R3.one(), x + y * 2, x * x + y * y - R3.var("z") ** 2))
        assert len((s * t).terms) >= 3, t
    monkeypatch.setattr(MultiPoly, "exact_div", lambda *args: 1 / 0)
    short = (x * x + y * y, x ** 4 * 3 - y * 5, x * y)
    assert [len(prime.divide_out(q, 3)) for q in short] == [1, 1, 1]


def _without_prime_squares(monkeypatch, compute, ring=R3):
    """compute() with ring's certified squares withdrawn: the PRS path."""
    with monkeypatch.context() as m:
        m.setattr(ring, "prime_squares", [])
        return compute()


def test_gcd_with_a_square_power_matches_the_prs(monkeypatch):
    """gcd(s^k, q) by trial division equals the PRS gcd, for q = s^j f with
    j below, at and above k, rational coefficients and linear factors.
    poly_gcd takes adjunct-free arguments, so no factor uses i."""
    rng = random.Random(3131)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    x, y = R3.var("x"), R3.var("y")
    lines = (x + y * 2, x - y * 2, x + y + 1)
    seen = set()
    for _ in range(120):
        k = rng.randint(1, 4)
        j = rng.randint(0, 5)
        q = s ** j * random_poly(R3, rng, R3_ALGEBRAIC, terms=3, degree=1, nonzero=True, real=True)
        for line in rng.sample(lines, rng.randint(0, 2)):
            q = q * line
        q = q * random_gauss(rng, R3, nonzero=True, real=True)
        seen.add((j > k) - (j < k))
        for a, b in ((s ** k, q), (q, s ** k)):
            got = poly_gcd(a, b)
            want = _without_prime_squares(monkeypatch, lambda: poly_gcd(a, b))
            assert got == want, (k, j, q)
            # q / s^j has degree <= 1 in z, so s divides it no further
            assert list(got.terms) == list(prime.power(min(j, k)).terms)
    assert seen == {-1, 0, 1}
    # gcd(s^a, s^b) = s^min(a, b), and x^2 + y^2 shares nothing with s
    assert poly_gcd(s ** 4, s ** 2) == s ** 2 == poly_gcd(s ** 2, s ** 3)
    assert poly_gcd(s ** 3, (x * x + y * y) ** 2).is_const()


def test_cancel_against_a_square_power_matches_the_content_gcd(monkeypatch):
    """Expr.make(num, s^k) trial-divides every adjunct group of num: the
    same terms, in the same order, as reducing against num's content gcd.
    The groups carry different powers of s, so the least one decides, and
    the parts use i: R3 adjoins it."""
    rng = random.Random(3232)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    x, y, r, i = R3.var("x"), R3.var("y"), R3.var("r"), R3.var("i")
    seen = set()
    for _ in range(120):
        k = rng.randint(1, 4)
        groups = [rng.randint(0, 5) for _ in range(rng.randint(1, 2))]
        num = R3.zero()
        for mono, j in zip((R3.one(), r), groups):
            part = random_poly(R3, rng, R3_ALGEBRAIC, terms=2, degree=1, nonzero=True)
            if rng.randint(0, 1):
                part = part * (x + y * i)
            num = num + s ** j * part * mono
        seen.add((len(groups), min(groups) >= k))
        den = s ** k
        if rng.randint(0, 3):
            den = den * random_gauss(rng, R3, nonzero=True, real=True)
        got = Expr.make(num, den)
        want = _without_prime_squares(monkeypatch, lambda: Expr.make(num, den))
        assert list(got.num.terms.items()) == list(want.num.terms.items()), (num, k)
        assert list(got.den.terms.items()) == list(want.den.terms.items()), (num, k)
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


R3_PLAIN = ("x", "y", "z", "alpha", "E", "beta")


def _assert_same_value(got: Expr, want: Expr, context=None):
    """The reduced form is unique: equal values have equal num and den
    dicts, whatever the order of their terms."""
    assert got.num.terms == want.num.terms, context
    assert got.den.terms == want.den.terms, context


def _over_square_power(rng, s, k):
    """Expr.make(num, s^k) for a num with one to four of the adjunct groups
    1, r, i and i*r; one group in three is a multiple of s."""
    r, i = R3.var("r"), R3.var("i")
    num = R3.zero()
    monos = (R3.one(), r, i, i * r)
    for mono in rng.sample(monos, rng.randint(1, 4)):
        part = random_poly(R3, rng, R3_PLAIN, terms=2, degree=rng.randint(1, 2), nonzero=True)
        if not rng.randint(0, 2):
            part = part * s
        num = num + part * mono
    return Expr.make(num, s ** k)


def _spy(monkeypatch, name):
    """Wrap coeffring.<name>, recording (args, result) of every call."""
    calls = []
    real = getattr(coeffring, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(coeffring, name, spy)
    return calls


def test_square_power_derivative_matches_the_general_path(monkeypatch):
    """D(n/s^k) by the closed form (2*s*n_pp + (p - 2*k*n)*s')/(2*s^(k+1))
    equals the quotient rule with R3's certified square withdrawn, for
    numerators over the groups 1, r, i and i*r, k = 1..4, and the symbols
    of s (x, y, z) and those outside it (alpha, E, beta)."""
    rng = random.Random(3333)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    taken = _spy(monkeypatch, "_square_power_derivative")
    seen, groups = set(), set()
    for _ in range(240):
        v = _over_square_power(rng, s, rng.randint(1, 4))
        k = prime.exponent(v.den)[0]
        if not k:
            continue
        sym = rng.choice(R3_PLAIN)
        got = v.differentiate(sym)
        want = _without_prime_squares(monkeypatch, lambda: v.differentiate(sym))
        _assert_same_value(got, want, (v, sym))
        seen.add((k, sym))
        groups.add(len(coeffring._adjunct_groups(v.num)))
    assert all(out is not None for _, out in taken) and len(taken) >= 200
    assert {(k, sym) for k in range(1, 5) for sym in R3_PLAIN} <= seen
    assert groups == {1, 2, 3, 4}


def test_square_power_derivative_edge_cases():
    import pytest

    (prime,) = R3.prime_squares
    s = prime.powers[1]
    x, alpha, beta, r = (R3.var(v) for v in ("x", "alpha", "beta", "r"))
    # d/dalpha of (1 + alpha*s)/s = 1/s + alpha is 1: n_pp = s cancels
    v = Expr.make(alpha * s + 1, s)
    assert v.den == s
    d = v.differentiate("alpha")
    assert d.num == R3.one() and d.den == R3.one()
    # a zero derivative
    v = Expr.make(x + alpha * r, s ** 2)
    d = v.differentiate("beta")
    assert d.is_zero() and d.den == R3.one()
    # d/dx (1/s) = -2x/s^2, and d/dx (r/s) = d/dx (1/r) = -x*r/s^2
    assert v.den == s ** 2
    d = Expr.make(R3.one(), s).differentiate("x")
    assert d.num == x * -2 and d.den == s ** 2
    d = Expr.make(r, s).differentiate("x")
    assert d.num == x * r * -1 and d.den == s ** 2
    # an adjunct is no differentiation variable, on either path
    for sym in ("r", "i"):
        with pytest.raises(CoeffRingError):
            Expr.make(x + r, s).differentiate(sym)
        with pytest.raises(CoeffRingError):
            Expr.make(x + r, x + beta).differentiate(sym)


def test_square_power_derivative_leaves_lowest_terms_uncancelled(monkeypatch):
    """For a symbol of s the closed form's numerator is in lowest terms
    over 2*s^(k+1): modulo s its adjunct group g is (e_g - 2k)*n_g*s',
    e_g = 1 on the r groups, so _cancel_power returns it as it is."""
    rng = random.Random(3434)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    values = [_over_square_power(rng, s, rng.randint(1, 4)) for _ in range(120)]
    values = [v for v in values if not v.is_poly()]
    calls = _spy(monkeypatch, "_cancel_power")
    for v in values:
        for sym in "xyz":
            del calls[:]
            d = v.differentiate(sym)
            ((num, den, _, k, _), (num_out, den_out)) = calls[0]
            assert len(calls) == 1 and num_out is num and den_out is den
            assert k == prime.exponent(v.den)[0] + 1
            assert d.den == s ** k


def test_uncertified_squares_keep_the_general_quotient_rule(monkeypatch):
    """AMB adjoins rho^2 = x^2 + y^2, not certified, and r^2 = s: d/dx
    goes through rho and takes the general path, d/dz only through r and
    takes the closed form, and both agree with the path without s."""
    (prime,) = AMB.prime_squares
    s = prime.powers[1]
    x, z, rho, r = (AMB.var(v) for v in ("x", "z", "rho", "r"))
    calls = _spy(monkeypatch, "_square_power_derivative")
    for num in (x + rho, rho * z + r, x * rho * r + 3, rho * s + x):
        for k in (1, 2, 3):
            v = Expr.make(num, s ** k)
            for sym in ("x", "y", "z"):
                del calls[:]
                got = v.differentiate(sym)
                want = _without_prime_squares(monkeypatch, lambda: v.differentiate(sym), AMB)
                _assert_same_value(got, want, (v, sym))
                if not v.is_poly():
                    ((_, out),) = calls
                    assert (out is None) == (sym != "z"), (v, sym)


def test_sums_over_powers_of_a_square_take_no_gcd(monkeypatch):
    """a/s^kb + c/s^kd takes g = s^min and the quotients by g as powers of
    s, with no poly_gcd: the sums equal those with the square withdrawn,
    for kb below, equal to and above kd, numerators with r and i groups."""
    rng = random.Random(3535)
    (prime,) = R3.prime_squares
    s = prime.powers[1]
    cases = []
    for _ in range(150):
        u = _over_square_power(rng, s, rng.randint(1, 4))
        w = _over_square_power(rng, s, rng.randint(1, 4))
        kb, kd = prime.exponent(u.den)[0], prime.exponent(w.den)[0]
        if kb and kd:
            want = _without_prime_squares(monkeypatch, lambda: (u + w, u - w))
            cases.append((u, w, (kb > kd) - (kb < kd), want))
    monkeypatch.setattr(coeffring, "poly_gcd", _refuse_gcd)
    for u, w, _, (total, diff) in cases:
        _assert_same_value(u + w, total, (u, w))
        _assert_same_value(u - w, diff, (u, w))
    assert {order for _, _, order, _ in cases} == {-1, 0, 1}
    # 1/s - 1/s^2 + (1 - s)/s^2 = 0
    one = Expr.of_poly(R3.one())
    total = one / Expr.of_poly(s) - one / Expr.of_poly(s ** 2)
    assert (total + Expr.make(R3.one() - s, s ** 2)).is_zero()


def _refuse_gcd(*args):
    raise AssertionError("poly_gcd ran")


def test_rank_two_adjunct_squares_are_not_trial_divided():
    """A rank-two square such as x^2 - y^2 = (x + y)(x - y) is reducible, so
    a gcd or a reduction against it must find the linear factors; AMB's
    rho^2 = x^2 + y^2 is not certified either, and goes through the PRS."""
    ring = PolyRing(("x", "y", "z", "s"))
    x, y, z = (ring.var(v) for v in "xyz")
    square = x * x - y * y
    ring.define_adjunct("s", square)
    assert ring.prime_squares == []
    q = (x + y) * (z + 2)
    assert poly_gcd(q, square ** 2) == x + y
    assert poly_gcd(square ** 2, q) == x + y
    e = Expr.make(x + y, square)
    assert e.num == 1 and e.den == x - y
    ax, ay, az = (AMB.var(v) for v in "xyz")
    rho2 = ax * ax + ay * ay
    assert poly_gcd(rho2 * (az + 2), rho2 ** 2) == rho2
    assert Expr.make(rho2 * az, rho2 ** 2) == Expr.make(az, rho2)


def test_rings_without_a_certified_square_never_try_one(monkeypatch):
    def refuse(*args):
        raise AssertionError("fast path entered")

    monkeypatch.setattr(coeffring.PrimeSquare, "exponent", refuse)
    monkeypatch.setattr(coeffring.PrimeSquare, "gcd", refuse)
    monkeypatch.setattr(coeffring, "_square_power_derivative", refuse)
    s = X * X + Y * Y + Z * Z
    assert poly_gcd(s ** 2 * (X + 1), s ** 3) == s ** 2
    assert Expr.make(s * (Y + 2), s ** 2) == Expr.make(Y + 2, s)
    ring = PolyRing(("x", "y", "rho"))
    ring.define_adjunct("rho", ring.var("x") ** 2 - ring.var("y") ** 2)
    e = Expr.make(ring.var("x") + ring.var("y"), ring.var("rho") ** 2)
    assert e.den == ring.var("x") - ring.var("y")
    # over Q(i) x + i*y would cancel against x^2 + y^2; with i adjoined the
    # denominator stays rational, so the value is kept, not the quotient
    xi, yi, i = XYZI.var("x"), XYZI.var("y"), XYZI.var("i")
    e = Expr.make(xi + yi * i, xi * xi + yi * yi)
    assert e.den == xi * xi + yi * yi
    assert e == Expr.make(XYZI.one(), xi - yi * i)
    # the quotient rule over a square's power, with and without i adjoined
    assert Expr.make(X, s ** 2).differentiate("x") == Expr.make(s - X * X * 4, s ** 3)
    si = xi * xi + yi * yi + XYZI.var("z") ** 2
    d = Expr.make(xi + yi * i, si).differentiate("y")
    assert d == Expr.make(i * si - (xi + yi * i) * yi * 2, si * si)
    assert e.differentiate("x") == Expr.make(XYZI.one(), xi - yi * i).differentiate("x")
    rx, ry, rho = (ring.var(v) for v in ("x", "y", "rho"))
    d = Expr.make(rho, rx + 1).differentiate("y")
    assert d == Expr.make(-ry * rho, (rx + 1) * (rx * rx - ry * ry))


def test_numerators_reads_a_one_pass_iterator_once():
    values = [Fraction(1, 2), Fraction(-2, 3), Fraction(1, 4), Fraction(5)]
    want = coeffring._numerators(values)
    assert want == (12, [6, -8, 3, 60])
    assert coeffring._numerators(v for v in values) == want
    assert coeffring._numerators(iter(values)) == want


# -- images: substitution is the image in the polynomial's own ring ------------------


def _value(e: Expr, point: dict) -> Fraction:
    return e.num.evaluate(point) / e.den.evaluate(point)


def test_substitution_matches_evaluation():
    rng = random.Random(404)
    x = XYZ.var("x")
    for _ in range(200):
        f = random_expr(XYZ, rng)
        bindings = {"x": random_poly(XYZ, rng, ("y", "z")), "y": random_expr(XYZ, rng, ("z",))}
        if rng.randint(0, 1):
            bindings["z"] = random_fraction(rng)
        pt = random_point(XYZ, rng)
        if not bindings["y"].den.evaluate(pt):
            continue
        at = dict(pt, x=bindings["x"].evaluate(pt), y=_value(bindings["y"], pt))
        at["z"] = bindings.get("z", pt["z"])
        if not f.den.evaluate(at):
            continue
        assert _value(f.map_ring(XYZ, bindings), pt) == _value(f, at)
    # an unbound symbol keeps its monomial, and no binding is the identity
    assert (x * x).map_ring(XYZ) == Expr.of_poly(x * x)


# Pythagorean quadruples x^2 + y^2 + z^2 = r^2: points where r is rational
QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (2, 6, 9, 11), (4, 4, 7, 9))


def test_substitution_with_the_r_adjunct_matches_evaluation():
    """E = -beta^2/2 into expressions over R3, and alpha to an expression in
    r, checked at points where r is rational."""
    rng = random.Random(505)
    x, r, beta = R3.var("x"), R3.var("r"), R3.var("beta")
    energy = Expr.of_poly(beta * beta) * Fraction(-1, 2)
    for _ in range(120):
        f = random_expr(R3, rng, ("x", "y", "z", "alpha", "E", "r"), den_degree=1, real=True)
        bindings = {"E": energy}
        if rng.randint(0, 1):
            bindings["alpha"] = Expr.make(r, x + R3.one() * 3)
        a, b, c, d = rng.choice(QUADRUPLES)
        k = rng.choice((1, -1, 2))
        pt = dict(zip(("x", "y", "z", "r"), (a * k, b * k, c * k, d * abs(k))))
        pt["alpha"], pt["beta"] = random_fraction(rng), random_fraction(rng, nonzero=True)
        at = dict(pt, E=-pt["beta"] ** 2 / 2)
        if "alpha" in bindings:
            at["alpha"] = Fraction(pt["r"], pt["x"] + 3)
        if not f.den.evaluate(at):
            continue
        image = f.map_ring(R3, bindings)
        assert not image.num.uses("E") and not image.den.uses("E")
        assert _value(image, pt) == _value(f, at)


def test_chart_map_matches_evaluation():
    """u -> rho^2 carries an expression on the (r, u) chart to (r, rho)."""
    from weylcalc.spaces import RRP

    rng = random.Random(606)
    rho = Expr.of_poly(RRP.var("rho"))
    chart = ("r", "u", "beta", "mu", "p")
    for _ in range(150):
        f = random_expr(RU, rng, chart)
        pt = random_point(RRP, rng)
        at = {s: pt[s] for s in chart if s != "u"}
        at["u"] = pt["rho"] ** 2
        if not f.den.evaluate(at):
            continue
        image = f.map_ring(RRP, {"u": rho * rho})
        assert image.ring is RRP
        assert _value(image, pt) == _value(f, at)


def test_image_errors():
    import pytest
    from weylcalc.spaces import RRP

    x, y = XYZ.var("x"), XYZ.var("y")
    with pytest.raises(UnknownSymbol):  # a binding name the ring lacks
        (x + y).map_ring(XYZ, {"w": 1})
    with pytest.raises(UnknownSymbol):
        Expr.make(x, y).map_ring(XYZ, {"w": 1})
    with pytest.raises(UnknownSymbol):  # n has no image on the (r, rho) chart
        (RU.var("r") * RU.var("n")).map_ring(RRP)
    assert RU.var("r").map_ring(RRP) == Expr.of_poly(RRP.var("r"))
    with pytest.raises(ZeroDenominator):
        Expr.make(x, y - XYZ.one()).map_ring(XYZ, {"y": 1})


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


def test_monomial_and_sum_printers():
    assert format_monomial(("x", "y", "z"), (2, 0, 1)) == "x^2*z"
    assert format_monomial(("D[r]", "D[u]"), (1, 3)) == "D[r]*D[u]^3"
    assert format_monomial(("x", "y"), (0, 0)) == ""
    assert format_sum(["x", "-2*y", "1"]) == "x - 2*y + 1"
    assert format_sum(["-x"]) == "-x"


def test_expr_of_coerces_constants_and_values_of_its_ring():
    import pytest

    x = XYZ.var("x")
    assert Expr.of(XYZ, 3) == XYZ.const(3)
    assert Expr.of(XYZ, Fraction(-2, 7)).const_value() == Fraction(-2, 7)
    assert Expr.of(XYZI, 1 - XYZI.var("i")).num == 1 - XYZI.var("i")
    assert Expr.of(XYZ, x).num is x
    e = Expr.make(x, x + 1)
    assert Expr.of(XYZ, e) is e
    other = PolyRing(("x", "y", "z"))
    for v in (other.var("x"), Expr.of_poly(other.var("x"))):
        with pytest.raises(CoeffRingError):
            Expr.of(XYZ, v)
        with pytest.raises(CoeffRingError):
            Expr.of_poly(x) + v
        with pytest.raises(CoeffRingError):
            x.map_ring(XYZ, {"y": v})


def test_packer_picks_the_narrowest_big_endian_field():
    import pytest

    for top, width in ((0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4),
                       (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)):
        assert _packer(3, top).size == 3 * width, top
    for top, width in ((127, 1), (128, 2), (2**63 - 1, 8)):
        assert _packer(2, top, guarded=True).size == 2 * width, top
    with pytest.raises(CoeffRingError):
        _packer(3, 2**64)
    with pytest.raises(CoeffRingError):
        _packer(3, 2**63, guarded=True)
    # int order of the packed keys is the order of the field tuples
    rng = random.Random(2020)
    pack = _packer(3, 300).pack
    tuples = [tuple(rng.randint(0, 300) for _ in range(3)) for _ in range(200)]
    keys = {t: int.from_bytes(pack(*t), "big") for t in tuples}
    assert sorted(tuples) == sorted(tuples, key=keys.get)


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
    """Plain double loop over Fraction coefficients, dropping cancelled sums."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
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
            s = terms.pop(key, 0) + v
            if s:
                terms[key] = s


def _assert_fractions(terms: dict):
    assert all(type(c) is Fraction for c in terms.values())


def _real_part(p: MultiPoly) -> MultiPoly:
    """The terms of an XYZI polynomial that do not use i, over XYZ."""
    return MultiPoly(XYZ, {e[1:]: c for e, c in p.terms.items() if not e[0]})


def _assert_product(p: MultiPoly, q: MultiPoly):
    got = (p * q).terms
    want = _reference_product(p, q)
    assert got == want
    _assert_fractions(got)
    if not p.ring.adjuncts:
        assert list(got) == list(want)  # the same term order as the plain loop


def test_product_kernel_matches_schoolbook():
    rng = random.Random(808)
    for _ in range(400):
        p = random_poly(XYZI, rng, terms=5, degree=3, span=9)
        q = random_poly(XYZI, rng, terms=5, degree=3, span=9)
        _assert_product(p, q)
        # the real parts, in a ring with no adjunct, keep the loop's term order
        _assert_product(_real_part(p), _real_part(q))


def test_product_kernel_with_adjunct_matches_schoolbook():
    # R3 adjoins i and r: Gaussian coefficients and r^2 = x^2 + y^2 + z^2
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
    # mixed denominators and a Gaussian constant operand, over XYZI
    xi, yi, i = XYZI.var("x"), XYZI.var("y"), XYZI.var("i")
    p = xi * Fraction(1, 6) + yi * (Fraction(-2, 9) + i * Fraction(5, 4))
    c = Fraction(3, 10) + i * Fraction(-7, 15)
    _assert_product(p, c)
    _assert_product(c, p)
    # and through i^2 = -1: (x + i*y)(x - i*y) = x^2 + y^2
    assert (xi + i * yi) * (xi - i * yi) == xi * xi + yi * yi
    # zero operand
    assert (p * XYZI.zero()).terms == {}
    assert (XYZI.zero() * p).terms == {}
    # exponents past the 8- and 16-bit field limits
    for a, b in ((200, 100), (255, 1), (40000, 30000), (2**33, 5)):
        big = XYZI.var("x", a) * Fraction(1, 3) + yi
        _assert_product(big, xi ** b + i)
    assert (XYZ.var("x", 255) * x).terms == {(256, 0, 0): 1}


def test_product_kernel_rejects_unpackable_exponents():
    import pytest

    x = XYZ.var("x")
    bad = MultiPoly(XYZ, {(0, -1, 0): Fraction(1)})
    with pytest.raises(CoeffRingError):
        bad * x
    with pytest.raises(CoeffRingError):
        x * bad
    # a sum past the widest 64-bit field raises instead of wrapping
    with pytest.raises(CoeffRingError):
        XYZ.var("x", 2**64 - 1) * x


def test_one_term_product_matches_schoolbook():
    """A one-term operand is an exponent shift and a coefficient scale:
    the constant 1, a constant, and a monomial with i, on either side; a
    Gaussian constant re + im*i has two terms."""
    rng = random.Random(1616)
    x, y, i = XYZI.var("x"), XYZI.var("y"), XYZI.var("i")
    for _ in range(150):
        p = random_poly(XYZI, rng, terms=6, degree=3, span=9)
        real = MultiPoly(XYZI, {e: c for e, c in p.terms.items() if not e[0]})
        c = random_gauss(rng, XYZI, span=9, nonzero=True)
        mono = XYZI.monomial(random_fraction(rng, 9, nonzero=True), i=1, x=rng.randint(0, 3),
                             z=rng.randint(0, 3))
        for one in (XYZI.one(), c, XYZI.const(random_fraction(rng, 9, nonzero=True)), mono,
                    x, XYZI.const(-1)):
            for q in (p, real):
                _assert_product(one, q)
                _assert_product(q, one)
    # a product by 1 is a copy: the same coefficients in a new dict
    p = x * Fraction(2, 3) + y * (1 - i)
    got = XYZI.one() * p
    assert got.terms == p.terms and got.terms is not p.terms
    assert list(got.terms) == list(p.terms)
    # the multiplier of a lone triple folds into the scale
    third = (x * Fraction(1, 3)).terms
    _assert_dot([(-6, third, p.terms)], 4)
    _assert_dot([(5, p.terms, (y * i * 2).terms)], 4)


def test_one_term_product_with_adjunct_matches_schoolbook():
    """A shift that creates i^2 or r^2 is followed by adjunct reduction."""
    rng = random.Random(1717)
    r = R3.var("r")
    for _ in range(100):
        p = random_poly(R3, rng, symbols=("x", "y", "r"), terms=4, degree=3)
        for one in (R3.one(), random_gauss(rng, R3, nonzero=True),
                    R3.monomial(random_fraction(rng, nonzero=True), i=1, r=1,
                                x=rng.randint(0, 2)),
                    r):
            _assert_product(one, p)
            _assert_product(p, one)
    assert r * r == R3.var("x") ** 2 + R3.var("y") ** 2 + R3.var("z") ** 2
    assert (r * (r * R3.var("y"))).terms == (R3.var("y") * r * r).terms


def test_one_term_product_rejects_unpackable_exponents():
    import pytest

    bad = MultiPoly(XYZ, {(0, -1, 0): Fraction(1)})
    for one in (XYZ.one(), XYZ.const(3), XYZ.const(Fraction(1, 2))):
        with pytest.raises(CoeffRingError):
            bad * one
        with pytest.raises(CoeffRingError):
            one * bad
    with pytest.raises(CoeffRingError):
        bad * (XYZ.var("x") + XYZ.var("y"))
    with pytest.raises(CoeffRingError):
        _dot_terms([(2, XYZ.one().terms, bad.terms)], 3)
    # the shift checks the exponent sum like the convolution
    two = XYZ.var("x") + XYZ.var("y")
    with pytest.raises(CoeffRingError):
        XYZ.var("x", 2**64 - 1) * two
    with pytest.raises(CoeffRingError):
        two * XYZ.var("x", 2**64 - 1)
    with pytest.raises(CoeffRingError):
        XYZ.var("x", 2**64) * XYZ.const(3)
    assert (XYZ.var("x", 2**64 - 2) * XYZ.var("x")).terms == {(2**64 - 1, 0, 0): 1}


# -- exact division against the plain leading-term loop -----------------------------


def _reference_div(a: dict, b: dict) -> dict:
    """The plain loop: take the grlex-largest remainder term, divide it by the
    leading term of b, subtract; None when a term is not divisible.  A
    constant b divides each term in place, keeping a's order."""
    lt_e = max(b, key=grlex_key)
    lt_c = b[lt_e]
    if not any(lt_e):
        return {e: c / lt_c for e, c in a.items()}
    rem = dict(a)
    quot = {}
    while rem:
        r_e = max(rem, key=grlex_key)
        q_e = tuple(x - y for x, y in zip(r_e, lt_e))
        if min(q_e) < 0:
            return None
        q_c = rem[r_e] / lt_c
        quot[q_e] = q_c
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(q_e, e2))
            v = rem.get(key, 0) - q_c * c2
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


def _assert_div(p: MultiPoly, d: MultiPoly):
    """exact_div, divides and the plain loop agree, to the term order."""
    want = _reference_div(p.terms, d.terms)
    assert d.divides(p) == (want is not None)
    if want is None:
        import pytest

        with pytest.raises(NotPolynomial):
            p.exact_div(d)
        return None
    got = p.exact_div(d).terms
    assert got == want
    assert list(got) == list(want)  # descending grlex, as the loop emits them
    _assert_fractions(got)
    return got


def test_exact_div_of_products():
    """(G*A)/G == A and (G*A)/A == G on seeded rational polynomials."""
    rng = random.Random(1919)
    for _ in range(200):
        g = random_poly(XYZ, rng, terms=4, degree=3, span=9, nonzero=True)
        a = random_poly(XYZ, rng, terms=4, degree=3, span=9, nonzero=True)
        prod = g * a
        assert _assert_div(prod, g) == a.terms
        assert _assert_div(prod, a) == g.terms


def test_exact_div_by_special_divisors():
    x, y, z = X, Y, Z
    rng = random.Random(2020)
    divisors = [
        x * y ** 2,  # one term, monic
        z * Fraction(-2, 3),  # one term, rational coefficient
        x * 2 + y,  # leading coefficient 2
        x * 3 + y * Fraction(1, 2) + 1,
        (x + y) * 3,  # integer content: quotients over 3
        (x * 2 + y * 4 - z * 6) * Fraction(5, 3),  # integer content 2 and a rational factor
        x ** 130 + y,  # past the 7-bit guarded field
        x ** 300 * z + y ** 2,  # past 255
        x ** 40000 + z * 3,  # past 32767
        y ** 70000 * x + z ** 3,  # past 65535
    ]
    for d in divisors:
        for _ in range(12):
            a = random_poly(XYZ, rng, terms=4, degree=3, span=9, nonzero=True)
            assert _assert_div(d * a, d) == a.terms
            assert _assert_div(d * a, a) == d.terms
        assert _assert_div(XYZ.zero(), d) == {}
        assert _assert_div(d, d) == {(0, 0, 0): 1}
    # a quotient coefficient that is not an integer
    assert _assert_div(x * x + x * y, (x + y) * 3) == {(1, 0, 0): Fraction(1, 3)}
    # a dividend with i over a divisor without it: i is one more exponent
    xi, yi, i = XYZI.var("x"), XYZI.var("y"), XYZI.var("i")
    d = xi * 2 + yi
    assert _assert_div(d * (xi + i * yi * 3), d) == (xi + i * yi * 3).terms


def test_exact_div_rejects_what_does_not_divide():
    x, y, z = X, Y, Z
    g = x * 2 + y * z + 1
    a = x ** 2 * y - z * Fraction(1, 3) + y
    # the leading term of the dividend is not a multiple of lt(g)
    assert _assert_div(y ** 3 + x, g) is None
    assert _assert_div(y ** 3 + x ** 2, x ** 2) is None
    # every term divides until a trailing one that does not
    assert _assert_div(g * a + z ** 2 * Fraction(2, 7), g) is None
    assert _assert_div(g * a + 1, g) is None
    assert _assert_div(x ** 2 * y + y, x * y) is None
    assert _assert_div(x ** 3 + y ** 2, x ** 2) is None
    # every monomial divides, but the leading coefficient 2 does not divide
    # 3: the remainder is scaled, and the division still fails
    assert _assert_div(x ** 2 * 3 + x * y, x * 2 + y) is None
    # a lower-degree dividend and a one-term dividend
    assert _assert_div(x, g) is None
    assert _assert_div(z * x, x + z) is None
    # a divisor that uses an adjunct is refused
    xi, i = XYZI.var("x"), XYZI.var("i")
    assert not (xi + i).divides(xi * xi + 1)


def test_divides_matches_the_plain_loop():
    rng = random.Random(2121)
    found = 0
    for _ in range(400):
        d = random_poly(XYZ, rng, terms=rng.randint(1, 3), degree=2, nonzero=True)
        if d.is_const():
            continue
        p = random_poly(XYZ, rng, terms=3, degree=2, nonzero=True)
        if rng.random() < 0.5:
            p = p * d
        found += _assert_div(p, d) is not None
    assert 100 < found < 300, "the sample must exercise both answers"


def test_exact_div_rejects_unpackable_exponents():
    import pytest

    bad = MultiPoly(XYZ, {(0, -1, 0): Fraction(1), (1, 0, 0): Fraction(2)})
    for d in (X, X + Y):
        with pytest.raises(CoeffRingError):
            bad.exact_div(d)
    with pytest.raises(CoeffRingError):
        X.exact_div(MultiPoly(XYZ, {(1, -1, 0): Fraction(1)}))
    with pytest.raises(CoeffRingError):
        X.exact_div(MultiPoly(XYZ, {(1, -1, 0): Fraction(1), (0, 0, 1): Fraction(1)}))
    # a total degree past the widest guarded field raises instead of wrapping
    with pytest.raises(CoeffRingError):
        (XYZ.var("x", 2**63) + 1).exact_div(X + 1)


# -- the multiply-accumulate kernel against a schoolbook reference -------------------


def _schoolbook_dot(triples) -> dict:
    """Plain loop over the triples, then a (outer) and b (inner), over
    Fraction coefficients, dropping a sum when it cancels."""
    out = {}
    for m, a, b in triples:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key, 0) + c1 * c2 * m
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def _assert_dot(triples, nsyms=3):
    got = _dot_terms(triples, nsyms)
    want = _schoolbook_dot(triples)
    assert got == want
    assert list(got) == list(want)  # the same term order as the plain loop
    _assert_fractions(got)


def test_dot_kernel_matches_schoolbook():
    rng = random.Random(1212)
    for _ in range(300):
        polys = [random_poly(XYZI, rng, terms=4, degree=2, span=9) for _ in range(4)]
        triples = [
            (rng.choice((1, -1, 2, -3, 6, 35)), rng.choice(polys).terms, rng.choice(polys).terms)
            for _ in range(rng.randint(1, 5))
        ]
        # i is one more exponent here: the kernel reduces no adjunct
        _assert_dot(triples, 4)
        # and the terms without i alone
        real = [
            (m, {e: c for e, c in a.items() if not e[0]}, {e: c for e, c in b.items() if not e[0]})
            for m, a, b in triples
        ]
        _assert_dot(real, 4)


def test_dot_kernel_edge_cases():
    x, y, z = (XYZ.var(s).terms for s in "xyz")
    third = (XYZ.var("x") * Fraction(1, 3)).terms
    # different denominators; x*y cancels across triples and comes back last
    triples = [
        (2, third, (XYZ.var("y") * Fraction(3, 2)).terms),
        (-1, x, (XYZ.var("y") + XYZ.var("z") * Fraction(2, 7)).terms),
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
    assert _dot_terms([(1, x, y), (1, big, x)], 3) == {(1, 1, 0): 1, (301, 0, 0): 1}


def test_dot_kernel_rejects_unpackable_exponents():
    import pytest

    x = XYZ.var("x").terms
    bad = {(0, -1, 0): Fraction(1)}
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


# -- Henrici arithmetic against the single-reduction forms -------------------


def _sum_by_make(a, b):
    if a.den.terms == b.den.terms:
        return Expr.make(a.num + b.num, a.den)
    return Expr.make(a.num * b.den + b.num * a.den, a.den * b.den)


def _product_by_make(a, b):
    return Expr.make(a.num * b.num, a.den * b.den)


def _quotient_by_make(a, b):
    return Expr.make(a.num * b.den, a.den * b.num)


def _derivative_by_make(e, var):
    """Quotient rule over the square of the denominator, reduced once."""
    dn = e.num.differentiate(var)
    db = e.den.diff_poly_part(var)
    return Expr.make(dn.num * e.den - dn.den * e.num * db, dn.den * e.den * e.den)


def _assert_same(got, want, *context):
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms, (
        "%s != %s for %s" % (got, want, ", ".join(map(str, context)))
    )


def _add_case(a, b):
    if a.den.terms == b.den.terms:
        return "equal"
    if a.den.is_const() or b.den.is_const():
        return "one"
    return "coprime" if poly_gcd(a.den, b.den).is_const() else "shared"


HENRICI_RINGS = (
    (R3, ("x", "y", "beta", "r")),
    (AMB, ("x", "z", "rho", "r")),
    (RU, ("r", "u", "beta")),
)


def test_henrici_arithmetic_matches_single_reduction():
    """Sums, products, quotients and derivatives give the canonical Expr
    that one Expr.make of the whole fraction gives, on every branch."""
    rng = random.Random(1414)
    seen = {}
    for ring, symbols in HENRICI_RINGS:
        for _ in range(120):
            a, b = (random_reduced_expr(ring, rng, symbols) for _ in range(2))
            if not rng.randint(0, 3):  # b over a's denominator, or over a multiple of it
                den = a.den * b.den if rng.randint(0, 1) else a.den
                b = Expr.make(b.num, den)
            kind = _add_case(a, b)
            seen[kind] = seen.get(kind, 0) + 1
            _assert_same(a + b, _sum_by_make(a, b), a, b)
            _assert_same(b + a, _sum_by_make(b, a), a, b)
            _assert_same(a - b, _sum_by_make(a, -b), a, b)
            _assert_same(a + -a, Expr.of_poly(ring.zero()), a)
            # (a + b) - b shares b's denominator, and t cancels to a's
            ab = a + b
            _assert_same(ab - b, _sum_by_make(ab, -b), a, b)
            _assert_same(ab - b, a, a, b)
            adj = (a.num.has_adjuncts(), b.num.has_adjuncts())
            kind = "both" if all(adj) else "one" if any(adj) else "none"
            seen["mul-" + kind] = seen.get("mul-" + kind, 0) + 1
            _assert_same(a * b, _product_by_make(a, b), a, b)
            _assert_same(b * a, _product_by_make(a, b), a, b)
            if not b.is_zero():
                kind = "div-adjunct" if b.num.has_adjuncts() else "div-free"
                seen[kind] = seen.get(kind, 0) + 1
                _assert_same(a / b, _quotient_by_make(a, b), a, b)
            var = rng.choice(("x", "y", "z") if ring is not RU else ("r", "u"))
            _assert_same(a.differentiate(var), _derivative_by_make(a, var), a, var)
    for kind in ("equal", "one", "coprime", "shared", "mul-none", "mul-one",
                 "mul-both", "div-free", "div-adjunct"):
        assert seen.get(kind, 0) >= 10, (kind, seen)


def test_henrici_arithmetic_edge_cases():
    """Hand-picked cases: a shared factor that cancels wholly or partly, a
    denominator of 1, Gaussian leading coefficients (R3 adjoins i), and
    the adjunct product that needs the full reduction."""
    x, y, z, r, i = (R3.var(s) for s in ("x", "y", "z", "r", "i"))
    s2, xy, beta, rho2 = factor_pool(R3)
    one = R3.one()
    cases = [
        # (x+y)/s + (x-y)/s: equal denominators
        (Expr.make(xy, s2), Expr.make(x - y, s2)),
        # x/(x+y)^2 + y/(x+y)^2 = 1/(x+y): equal denominators that cancel
        (Expr.make(x, xy * xy), Expr.make(y, xy * xy)),
        # 1/(s(x+y)) - 1/(s beta): shared s, t = beta - (x+y)
        (Expr.make(one, s2 * xy), Expr.make(-one, s2 * beta)),
        # (x+y-s)/((x+y)s) + 1/(x+y) = 1/s: t = x+y cancels g = x+y wholly
        (Expr.make(xy - s2, xy * s2), Expr.make(one, xy)),
        # ... and against g = (x+y)^2 partly, leaving 1/((x+y)s)
        (Expr.make(xy - s2, xy * xy * s2), Expr.make(one, xy * xy)),
        # x/(s(x+y)) + y/(s(x+y)) reached through different denominators
        (Expr.make(x * beta, s2 * xy * beta), Expr.make(y, s2 * xy)),
        # r/s + polynomial, and a Gaussian leading coefficient
        (Expr.make(r, s2), Expr.of_poly(x * i + y)),
        (Expr.make(x * i + 2, s2 * (3 + i)), Expr.make(r * (1 - i), rho2 * s2)),
        # (r/s) * r = 1: both numerators carry the adjunct
        (Expr.make(r, s2), Expr.of_poly(r)),
        # (x+y)/s * s/(x+y)^2 cancels across both ways
        (Expr.make(xy, s2), Expr.make(s2 * r, xy * xy)),
    ]
    for a, b in cases:
        _assert_same(a + b, _sum_by_make(a, b), a, b)
        _assert_same(a - b, _sum_by_make(a, -b), a, b)
        _assert_same(a * b, _product_by_make(a, b), a, b)
        _assert_same(b * a, _product_by_make(a, b), a, b)
        _assert_same(a / b, _quotient_by_make(a, b), a, b)
        _assert_same(b / a, _quotient_by_make(b, a), a, b)
        for var in ("x", "z"):
            _assert_same(a.differentiate(var), _derivative_by_make(a, var), a, var)
    assert Expr.make(r, s2) * Expr.of_poly(r) == 1
