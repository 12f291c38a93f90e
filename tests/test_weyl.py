"""Normal-ordered operator algebra: composition, commutators, conjugation,
variable changes, and angular projection."""

import random
from fractions import Fraction

from randops import random_expr, random_fraction, random_op, random_poly

from weylcalc.coeffring import CoeffRingError, Expr, GaussRat
from weylcalc.spaces import R3, R3_SPEC, RRP, RRP_SPEC, RU, RU_SPEC
from weylcalc.weyl import (
    DiffOp,
    GaugeData,
    VariableChange,
    WeylError,
    format_op,
    identity,
    mul_op,
    partial,
    zero_op,
)

REPS = 1000


def _dr(k=1):
    return partial(RU_SPEC, "r", k)


def _du(k=1):
    return partial(RU_SPEC, "u", k)


def _mul(p):
    return mul_op(RU_SPEC, p)


def test_compose_textbook_case():
    r, u = RU.var("r"), RU.var("u")
    left = _mul(u).compose(_dr(2))
    right = _mul(r).compose(_du())
    got = left.compose(right)
    want = _mul(r * u).compose(_dr(2)).compose(_du()) + _mul(u * 2).compose(_dr()).compose(_du())
    assert (got - want).is_zero()
    assert format_op(got) == "r*u*D[r]^2*D[u] + 2*u*D[r]*D[u]"


def test_compose_matches_nested_application():
    rng = random.Random(1101)
    for _ in range(300):
        a = random_op(rng)
        b = random_op(rng)
        f = Expr.of_poly(random_poly(RU, rng, symbols=("r", "u"), terms=2, degree=3))
        lhs = a.compose(b).apply(f)
        rhs = a.apply(b.apply(f))
        assert (lhs - rhs).is_zero(), "compose/apply mismatch:\nA=%s\nB=%s\nf=%s" % (
            format_op(a),
            format_op(b),
            f,
        )


def test_compose_associative():
    rng = random.Random(1202)
    for _ in range(REPS):
        a = random_op(rng)
        b = random_op(rng)
        c = random_op(rng)
        assert (a.compose(b).compose(c) - a.compose(b.compose(c))).is_zero()


def _rational_op(spec, rng, atoms):
    """Operator of order <= 1 whose coefficients are random rational
    multiples of rational-function atoms."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        idx = [0] * spec.nspace
        if rng.randint(0, 2):
            idx[rng.randrange(spec.nspace)] = 1
        terms[tuple(idx)] = rng.choice(atoms) * random_fraction(rng, 4, nonzero=True)
    return DiffOp(spec, terms)


def _rational_cases():
    """(spec, coefficient atoms, test functions, cases) for the 3D chart,
    with non-constant denominators and the r adjunct, and for the
    cylindrical chart with 1/rho.  The 3D functions are polynomials: with
    rational ones a single apply can take minutes."""
    x, y, z, r = (R3.var(s) for s in ("x", "y", "z", "r"))
    s2 = x * x + y * y + z * z
    rho, rr, phi, beta = (RRP.var(s) for s in ("rho", "r", "phi", "beta"))
    return [
        (
            R3_SPEC,
            [Expr.make(x, s2), Expr.make(y, r), Expr.of_poly(r), Expr.of_poly(z)],
            [Expr.of_poly(r * z + x), Expr.of_poly(x * y)],
            12,
        ),
        (
            RRP_SPEC,
            [Expr.make(RRP.one(), rho), Expr.make(rr, rho), Expr.of_poly(beta * rr)],
            [Expr.of_poly(rr * rho * rho + phi), Expr.make(phi, rho)],
            40,
        ),
    ]


def test_compose_rational_coefficients():
    """Compose against nested application, and associativity, when the
    coefficients carry non-constant denominators and adjunct roots."""
    rng = random.Random(1515)
    for spec, atoms, functions, cases in _rational_cases():
        for _ in range(cases):
            a, b, c = (_rational_op(spec, rng, atoms) for _ in range(3))
            f = rng.choice(functions)
            ab = a.compose(b)
            assert (ab.apply(f) - a.apply(b.apply(f))).is_zero(), (
                "compose/apply mismatch:\nA=%s\nB=%s\nf=%s" % (format_op(a), format_op(b), f)
            )
            assert (ab.compose(c) - a.compose(b.compose(c))).is_zero()


def test_compose_gaussian_rational_coefficients():
    """Compose against nested application with Gaussian coefficients over
    the coprime denominators x+y and x^2+y^2+z^2, applied to a rational
    test function with the r adjunct."""
    x, y, z, r = (R3.var(s) for s in ("x", "y", "z", "r"))
    s2 = x * x + y * y + z * z
    c1 = Expr.make(x * y * GaussRat(-1, -3), x + y)
    c2 = Expr.make(x * y * GaussRat(2, Fraction(4, 3)), s2)
    a = DiffOp(R3_SPEC, {(1, 0, 0): c1, (0, 0, 1): c2})
    b = DiffOp(R3_SPEC, {(0, 1, 0): c2, (0, 0, 1): c1})
    f = Expr.make(s2 * GaussRat(6, -1) + r * GaussRat(0, Fraction(3, 5)), s2)
    assert (a.compose(b).apply(f) - a.apply(b.apply(f))).is_zero()


def test_commutator_jacobi():
    rng = random.Random(1303)
    for _ in range(REPS):
        a = random_op(rng)
        b = random_op(rng)
        c = random_op(rng)
        total = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert total.is_zero(), "Jacobi residual %s" % format_op(total)


def test_commutator_antisymmetry_and_leibniz():
    rng = random.Random(1404)
    for _ in range(300):
        a = random_op(rng)
        b = random_op(rng)
        c = random_op(rng)
        assert (a.commutator(b) + b.commutator(a)).is_zero()
        lhs = a.commutator(b.compose(c))
        rhs = a.commutator(b).compose(c) + b.compose(a.commutator(c))
        assert (lhs - rhs).is_zero()


def _r3_leibniz_op(rng):
    """A multiplication by x_i/r or alpha/r, or a sum of up to two order-2
    pieces f.D_v.D_w with f a rational multiple of r, E*r, x_i/r or alpha/r,
    the coefficient shapes of K = -(r/2)Delta - E*r and of the B readings."""
    x, y, z, r, alpha, e = (R3.var(s) for s in ("x", "y", "z", "r", "alpha", "E"))
    quotients = [Expr.make(q, r) for q in (x, y, z, alpha)]
    if rng.randint(0, 1):
        return mul_op(R3_SPEC, rng.choice(quotients) * random_fraction(rng, 4, nonzero=True))
    atoms = quotients + [Expr.of_poly(r), Expr.of_poly(e * r)]
    op = zero_op(R3_SPEC)
    for _ in range(rng.randint(1, 2)):
        piece = mul_op(R3_SPEC, rng.choice(atoms) * random_fraction(rng, 4, nonzero=True))
        for var in rng.sample(("x", "y", "z"), 2):
            piece = piece.compose(partial(R3_SPEC, var))
        op = op + piece
    return op


def test_commutator_leibniz_adjunct_rational():
    """[A.B, C] = A.[B, C] + [A, C].B on R3 operators whose coefficients are
    rational in x, y, z and the r adjunct, with C = K among the cases."""
    r, e = R3.var("r"), R3.var("E")
    lap = partial(R3_SPEC, "x", 2) + partial(R3_SPEC, "y", 2) + partial(R3_SPEC, "z", 2)
    k = mul_op(R3_SPEC, r * Fraction(-1, 2)).compose(lap) - mul_op(R3_SPEC, e * r)
    rng = random.Random(1606)
    for case in range(8):
        a, b = _r3_leibniz_op(rng), _r3_leibniz_op(rng)
        c = k if case % 2 else _r3_leibniz_op(rng)
        lhs = a.compose(b).commutator(c)
        rhs = a.compose(b.commutator(c)) + a.commutator(c).compose(b)
        assert lhs == rhs, "A=%s\nB=%s\nC=%s" % (format_op(a), format_op(b), format_op(c))


def test_canonical_commutator():
    # [d_r, r] = 1 and mixed partials commute
    r = RU.var("r")
    assert (_dr().commutator(_mul(r)) - identity(RU_SPEC)).is_zero()
    assert _dr().commutator(_du()).is_zero()


def _gradient_gauge(rng):
    """Log-gradient of r^a u^b e^(c r + d u): curl-free by construction."""
    r, u = RU.var("r"), RU.var("u")
    a, b = random_fraction(rng, 4), random_fraction(rng, 4)
    c, d = random_fraction(rng, 4), random_fraction(rng, 4)
    w_r = Expr.make(RU.const(a), r) + Expr.of_poly(RU.const(c))
    w_u = Expr.make(RU.const(b), u) + Expr.of_poly(RU.const(d))
    return GaugeData(RU_SPEC, {"r": w_r, "u": w_u})


def test_conjugation_homomorphism():
    rng = random.Random(1505)
    for _ in range(REPS):
        gauge = _gradient_gauge(rng)
        a = random_op(rng)
        b = random_op(rng)
        lhs = a.compose(b).conjugate(gauge)
        rhs = a.conjugate(gauge).compose(b.conjugate(gauge))
        assert (lhs - rhs).is_zero(), "conjugation is not multiplicative"


def test_conjugation_linear_and_invertible():
    rng = random.Random(1606)
    for _ in range(200):
        gauge = _gradient_gauge(rng)
        inverse = GaugeData(RU_SPEC, {v: -w for v, w in gauge.loggrad.items()})
        a = random_op(rng)
        b = random_op(rng)
        assert ((a + b).conjugate(gauge) - (a.conjugate(gauge) + b.conjugate(gauge))).is_zero()
        assert (a.conjugate(gauge).conjugate(inverse) - a).is_zero()


def test_conjugation_fixes_multiplications():
    rng = random.Random(1707)
    for _ in range(100):
        gauge = _gradient_gauge(rng)
        f = random_poly(RU, rng, symbols=("r", "u"), terms=2)
        m = _mul(f)
        assert (m.conjugate(gauge) - m).is_zero()


def _affine_change(rng):
    """Invertible affine substitution r -> s*r + t, u -> w*u on the same chart."""
    r, u = RU.var("r"), RU.var("u")
    s = random_fraction(rng, 4, nonzero=True)
    t = random_fraction(rng, 4)
    w = random_fraction(rng, 4, nonzero=True)
    fwd = VariableChange(
        RU_SPEC,
        RU_SPEC,
        coord_map={"r": Expr.of_poly(r * s + RU.const(t)), "u": Expr.of_poly(u * w)},
        deriv_map={
            "r": partial(RU_SPEC, "r").scale(Fraction(1, 1) / s),
            "u": partial(RU_SPEC, "u").scale(Fraction(1, 1) / w),
        },
    )
    back = VariableChange(
        RU_SPEC,
        RU_SPEC,
        coord_map={
            "r": Expr.of_poly((r - RU.const(t)) * (Fraction(1, 1) / s)),
            "u": Expr.of_poly(u * (Fraction(1, 1) / w)),
        },
        deriv_map={
            "r": partial(RU_SPEC, "r").scale(s),
            "u": partial(RU_SPEC, "u").scale(w),
        },
    )
    return fwd, back


def test_variable_change_round_trip():
    rng = random.Random(1808)
    for _ in range(200):
        fwd, back = _affine_change(rng)
        a = random_op(rng)
        assert (a.map_space(fwd).map_space(back) - a).is_zero()


def test_variable_change_is_homomorphism():
    rng = random.Random(1909)
    for _ in range(200):
        fwd, _ = _affine_change(rng)
        a = random_op(rng)
        b = random_op(rng)
        lhs = a.compose(b).map_space(fwd)
        rhs = a.map_space(fwd).compose(b.map_space(fwd))
        assert (lhs - rhs).is_zero()


def test_angular_projection():
    mu = Expr.of_poly(RRP.var("mu"))
    p2 = partial(RRP_SPEC, "phi", 2).project_angular("phi", mu)
    assert p2.spec.space == ("r", "rho")
    # each azimuthal derivative contributes a factor i*mu
    want = identity(p2.spec).scale(Expr.of_poly(-(RRP.var("mu") ** 2)).map_ring(p2.spec.ring))
    got_minus = p2 - identity(p2.spec).scale(p2.coefficient((0, 0)))
    assert got_minus.is_zero()
    assert str(p2.coefficient((0, 0))) == "-mu^2"
    # phi-independent operators project term by term
    q = mul_op(RRP_SPEC, RRP.var("rho")).compose(partial(RRP_SPEC, "r"))
    pq = q.project_angular("phi", mu)
    assert format_op(pq) == "rho*D[r]"


def test_order_and_predicates():
    r, u = RU.var("r"), RU.var("u")
    op = _mul(u).compose(_dr(2)).compose(_du()) + _dr()
    assert op.order() == 3
    assert op.is_polynomial()
    assert not zero_op(RU_SPEC).order()
    ratio = identity(RU_SPEC).scale(Expr.make(RU.one(), r))
    assert not ratio.is_polynomial()
    assert zero_op(RU_SPEC).is_zero()
    assert not identity(RU_SPEC).is_zero()


def test_scale_and_coefficient():
    r = RU.var("r")
    op = _mul(r).compose(_dr()).scale(Fraction(3, 2))
    assert (op.coefficient((1, 0)) - Expr.of_poly(r * Fraction(3, 2))).is_zero()
    assert op.coefficient((0, 1)).is_zero()


def test_coefficients_from_another_ring_are_rejected():
    import pytest

    for v in (RRP.var("r"), Expr.of_poly(RRP.var("r"))):
        with pytest.raises(CoeffRingError):
            DiffOp(RU_SPEC, {(0, 0): v})
        with pytest.raises(CoeffRingError):
            mul_op(RU_SPEC, v)
        with pytest.raises(CoeffRingError):
            _dr().scale(v)


def test_compose_prepares_each_operand_once(monkeypatch):
    """One compose scales and packs each distinct coefficient and
    derivative-table entry exactly once; a second identical compose does it
    all again, so nothing is kept between calls."""
    from weylcalc import coeffring, weyl
    from weylcalc.coulomb2d import c_op

    scaled, sums = [], []
    scale, sum_products = coeffring._scaled, weyl._sum_products

    def counting_scale(terms, pack):
        scaled.append(id(terms))
        return scale(terms, pack)

    def recording_sums(ring, items, prepared=None):
        for _, c, e in items:
            sums.extend((id(c.num.terms), id(e.num.terms)))
        return sum_products(ring, items, prepared)

    monkeypatch.setattr(coeffring, "_scaled", counting_scale)
    monkeypatch.setattr(weyl, "_sum_products", recording_sums)
    c = c_op()
    products = []
    for _ in range(2):
        scaled.clear()
        sums.clear()
        products.append(c.compose(c))
        assert len(scaled) == len(set(scaled)), "an operand was scaled twice"
        assert set(scaled) == set(sums)
        assert len(scaled) > len(c.terms)  # the derivative-table entries too
    assert products[0] == products[1]
    monkeypatch.undo()
    # the product still acts as the factors applied in sequence
    for a, b in ((0, 0), (1, 0), (2, 1), (3, 2)):
        f = Expr.of_poly(RU.monomial(1, r=a, u=b))
        assert (products[0].apply(f) - c.apply(c.apply(f))).is_zero()


def test_derivative_tables_skip_vanished_entries(monkeypatch):
    """A high-order operator composed with a low-degree coefficient never
    differentiates a zero Expr: an entry one step above a vanished
    derivative is left out of the table, and the product still acts as the
    factors applied in turn."""
    from weylcalc import coeffring

    r, u = RU.var("r"), RU.var("u")
    high = _dr(4).compose(_du(3)) + mul_op(RU_SPEC, r).compose(_dr(2)).compose(_du())
    low = mul_op(RU_SPEC, r * u + u * u + 3).compose(_du())
    calls = []
    differentiate = coeffring.Expr.differentiate

    def recording(self, var):
        calls.append(self.is_zero())
        return differentiate(self, var)

    monkeypatch.setattr(coeffring.Expr, "differentiate", recording)
    product = high.compose(low)
    compose_calls = len(calls)
    applied = high.apply(Expr.of_poly(r * r * u))
    monkeypatch.undo()
    assert not any(calls)
    # an unpruned table differentiates once for each of the 19 nonzero
    # multi-indices below D[r]^4 D[u]^3; for r*u + u^2 + 3 the pruned one
    # stops after D[r], D[u], D[r]^2, D[r]D[u], D[u]^2, D[r]D[u]^2 and
    # D[u]^3, three of which vanish, and for r^2*u after 7 as well
    assert (compose_calls, len(calls) - compose_calls) == (7, 7)
    assert applied == Expr.of_poly(2 * r)
    for a, b in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 4)):
        f = Expr.of_poly(RU.monomial(1, r=a, u=b))
        assert (product.apply(f) - high.apply(low.apply(f))).is_zero()
