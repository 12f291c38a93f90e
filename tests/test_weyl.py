"""Normal-ordered operator algebra: composition, commutators, conjugation,
variable changes, and angular projection."""

import random
from fractions import Fraction

import pytest

from randops import RUI, RUI_SPEC, random_expr, random_fraction, random_op, random_poly

from weylcalc.coeffring import CoeffRingError, Expr
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
        f = Expr.of_poly(random_poly(RUI, rng, symbols=("r", "u"), terms=2, degree=3))
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


def _r3_polynomial_op():
    """An R3 operator with polynomial coefficients in x, y, z and the r
    adjunct, which involves the space variables: compose takes the Expr
    route."""
    x, y, z, r = (R3.var(s) for s in ("x", "y", "z", "r"))
    return DiffOp(
        R3_SPEC,
        {
            (2, 0, 0): x * y + z,
            (1, 0, 1): y * y,
            (0, 1, 0): x * x * z * 3 - y,
            (0, 0, 0): x * y * z * r + 1,
        },
    )


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


def test_compose_prepares_each_operand_once(monkeypatch):
    """On the Expr route the sums scale and pack their own operands: a
    second identical compose scales exactly as many operands as the first,
    so nothing is kept between calls, and both products are equal and act
    as the factor applied twice."""
    from weylcalc import coeffring

    scaled = []
    scale = coeffring._scaled

    def counting_scale(terms, pack):
        scaled.append(id(terms))
        return scale(terms, pack)

    monkeypatch.setattr(coeffring, "_scaled", counting_scale)
    c = _r3_polynomial_op()
    products, counts = [], []
    for _ in range(2):
        scaled.clear()
        products.append(c.compose(c))
        counts.append(len(scaled))
    assert counts[0] == counts[1] > len(c.terms)  # the derivative-table entries too
    assert products[0] == products[1]
    monkeypatch.undo()
    # the product still acts as the factors applied in sequence
    x, y = R3.var("x"), R3.var("y")
    for f in (R3.one(), x, x * x * y, y * y):
        f = Expr.of_poly(f)
        assert (products[0].apply(f) - c.apply(c.apply(f))).is_zero()


def test_compose_gaussian_rational_coefficients():
    """Compose against nested application with Gaussian coefficients (R3
    adjoins i) over the coprime denominators x+y and x^2+y^2+z^2, applied
    to a rational test function with the r adjunct."""
    x, y, z, r, i = (R3.var(s) for s in ("x", "y", "z", "r", "i"))
    s2 = x * x + y * y + z * z
    c1 = Expr.make(x * y * (-1 - i * 3), x + y)
    c2 = Expr.make(x * y * (2 + i * Fraction(4, 3)), s2)
    a = DiffOp(R3_SPEC, {(1, 0, 0): c1, (0, 0, 1): c2})
    b = DiffOp(R3_SPEC, {(0, 1, 0): c2, (0, 0, 1): c1})
    f = Expr.make(s2 * (6 - i) + r * i * Fraction(3, 5), s2)
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


def _gradient_gauge(rng, spec=RUI_SPEC):
    """Log-gradient of r^a u^b e^(c r + d u): curl-free by construction.
    On the chart of the Gaussian random_op by default."""
    ring = spec.ring
    r, u = ring.var("r"), ring.var("u")
    a, b = random_fraction(rng, 4), random_fraction(rng, 4)
    c, d = random_fraction(rng, 4), random_fraction(rng, 4)
    w_r = Expr.make(ring.const(a), r) + Expr.of_poly(ring.const(c))
    w_u = Expr.make(ring.const(b), u) + Expr.of_poly(ring.const(d))
    return GaugeData(spec, {"r": w_r, "u": w_u})


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
        inverse = GaugeData(RUI_SPEC, {v: -w for v, w in gauge.loggrad.items()})
        a = random_op(rng)
        b = random_op(rng)
        assert ((a + b).conjugate(gauge) - (a.conjugate(gauge) + b.conjugate(gauge))).is_zero()
        assert (a.conjugate(gauge).conjugate(inverse) - a).is_zero()


def test_conjugation_fixes_multiplications():
    rng = random.Random(1707)
    for _ in range(100):
        gauge = _gradient_gauge(rng)
        f = random_poly(RUI, rng, symbols=("r", "u"), terms=2)
        m = mul_op(RUI_SPEC, f)
        assert (m.conjugate(gauge) - m).is_zero()


def _affine_change(rng, spec=RUI_SPEC):
    """Invertible affine substitution r -> s*r + t, u -> w*u on the same
    chart, that of the Gaussian random_op by default."""
    ring = spec.ring
    r, u = ring.var("r"), ring.var("u")
    s = random_fraction(rng, 4, nonzero=True)
    t = random_fraction(rng, 4)
    w = random_fraction(rng, 4, nonzero=True)
    fwd = VariableChange(
        spec,
        spec,
        coord_map={"r": Expr.of_poly(r * s + ring.const(t)), "u": Expr.of_poly(u * w)},
        deriv_map={
            "r": partial(spec, "r").scale(Fraction(1, 1) / s),
            "u": partial(spec, "u").scale(Fraction(1, 1) / w),
        },
    )
    back = VariableChange(
        spec,
        spec,
        coord_map={
            "r": Expr.of_poly((r - ring.const(t)) * (Fraction(1, 1) / s)),
            "u": Expr.of_poly(u * (Fraction(1, 1) / w)),
        },
        deriv_map={
            "r": partial(spec, "r").scale(s),
            "u": partial(spec, "u").scale(w),
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


def test_angular_projection_of_even_powers_is_real():
    """d_phi^k -> (i*mu)^k: -mu^2 for k = 2 and mu^4 for k = 4."""
    mu = Expr.of_poly(RRP.var("mu"))
    for k, want in ((2, "-mu^2"), (4, "mu^4")):
        got = partial(RRP_SPEC, "phi", k).project_angular("phi", mu)
        assert list(got.terms) == [(0, 0)]
        assert str(got.coefficient((0, 0))) == want


def test_angular_projection_refuses_an_uncancelled_odd_power():
    mu, rho = Expr.of_poly(RRP.var("mu")), RRP.var("rho")
    d_phi, d_r = partial(RRP_SPEC, "phi"), partial(RRP_SPEC, "r")
    rho_d_r = mul_op(RRP_SPEC, rho).compose(d_r)
    for op in (d_phi, partial(RRP_SPEC, "phi", 3) + d_r, rho_d_r.compose(d_phi)):
        with pytest.raises(WeylError, match="imaginary residue"):
            op.project_angular("phi", mu)


def test_angular_projection_lets_odd_powers_cancel():
    """mu^2 D[phi] + D[phi]^3 projects to i*mu^3 + (i*mu)^3 = 0, and the
    odd terms at D[r] cancel the same way, leaving the even ones."""
    m, rho = RRP.var("mu"), RRP.var("rho")
    mu = Expr.of_poly(m)
    d_phi, d_r = partial(RRP_SPEC, "phi"), partial(RRP_SPEC, "r")
    odd = mul_op(RRP_SPEC, m * m).compose(d_phi) + partial(RRP_SPEC, "phi", 3)
    op = odd + odd.compose(d_r).scale(rho) + mul_op(RRP_SPEC, rho).compose(d_r)
    assert format_op(op.project_angular("phi", mu)) == "rho*D[r]"
    assert odd.project_angular("phi", mu).is_zero()


def test_angular_projection_refuses_coefficients_with_an_adjunct():
    from weylcalc.coeffring import PolyRing
    from weylcalc.weyl import VariableSpec

    ring = PolyRing(("i", "r", "phi", "mu"))
    ring.define_adjunct("i", ring.const(-1))
    spec = VariableSpec(ring, ("r", "phi"))
    op = mul_op(spec, ring.var("i") * ring.var("mu")).compose(partial(spec, "phi"))
    with pytest.raises(WeylError, match="real coefficients"):
        op.project_angular("phi", Expr.of_poly(ring.var("mu")))


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


def test_derivative_tables_skip_vanished_entries(monkeypatch):
    """A high-order operator composed with a low-degree coefficient (on the
    Expr route, as the coefficient uses R3's i) or applied to a low-degree
    function never
    differentiates a zero Expr: an entry one step above a vanished
    derivative is left out of the table, and the product still acts as the
    factors applied in turn."""
    from weylcalc import coeffring

    x, y, i = R3.var("x"), R3.var("y"), R3.var("i")
    high = partial(R3_SPEC, "x", 4).compose(partial(R3_SPEC, "y", 3)) + mul_op(
        R3_SPEC, x
    ).compose(partial(R3_SPEC, "x", 2)).compose(partial(R3_SPEC, "y"))
    low = mul_op(R3_SPEC, (x * y + y * y + 3) * i).compose(partial(R3_SPEC, "y"))
    r, u = RU.var("r"), RU.var("u")
    high_ru = _dr(4).compose(_du(3)) + mul_op(RU_SPEC, r).compose(_dr(2)).compose(_du())
    calls = []
    differentiate = coeffring.Expr.differentiate

    def recording(self, var):
        calls.append(self.is_zero())
        return differentiate(self, var)

    monkeypatch.setattr(coeffring.Expr, "differentiate", recording)
    product = high.compose(low)
    compose_calls = len(calls)
    applied = high_ru.apply(Expr.of_poly(r * r * u))
    monkeypatch.undo()
    assert not any(calls)
    # an unpruned table differentiates once for each of the 19 nonzero
    # multi-indices below D[x]^4 D[y]^3; for x*y + y^2 + 3 the pruned one
    # stops after D[x], D[y], D[x]^2, D[x]D[y], D[y]^2, D[x]D[y]^2 and
    # D[y]^3, three of which vanish (i is a constant), and for r^2*u after
    # 7 as well
    assert (compose_calls, len(calls) - compose_calls) == (7, 7)
    assert applied == Expr.of_poly(2 * r)
    for a, b in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 4)):
        f = Expr.of_poly(R3.monomial(1, x=a, y=b))
        assert (product.apply(f) - high.apply(low.apply(f))).is_zero()


# -- the term-level route for polynomial coefficients ---------------------------


def _acts_as_sequence(a, b, bound):
    """a.compose(b) applied to every r^i u^j with i, j <= bound equals a
    applied to b applied to it.  With bound at least the product's order in
    each variable this proves the product right: an operator of that order
    vanishing on those monomials is zero (see flagrep.equality_oracle)."""
    product = a.compose(b)
    for i in range(bound + 1):
        for j in range(bound + 1):
            f = Expr.of_poly(a.spec.ring.monomial(1, r=i, u=j))
            if not (product.apply(f) - a.apply(b.apply(f))).is_zero():
                return False
    return True


def _real_part(op):
    """The terms of a RUI_SPEC operator that do not use i, over RU_SPEC."""
    return DiffOp(
        RU_SPEC,
        {
            a: RU.poly({e[1:]: v for e, v in c.num.terms.items() if not e[0]})
            for a, c in op.terms.items()
        },
    )


def _polynomial_op(rng, symbols=("r", "u", "beta", "mu", "p")):
    """Up to three terms of order up to 3 in each variable, each with a
    coefficient of up to three Gaussian-rational terms, over RUI_SPEC."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        idx = (rng.randint(0, 3), rng.randint(0, 3))
        terms[idx] = random_poly(RUI, rng, symbols, terms=3, degree=2, span=4, nonzero=True)
    return DiffOp(RUI_SPEC, terms)


def test_polynomial_compose_matches_sequential_apply():
    """Seeded operators of order up to 3 in each variable, with Gaussian
    coefficients (over RUI_SPEC) or real rational ones (over RU_SPEC) in
    r, u, beta, mu and p: the product acts as the factors applied in turn,
    on enough monomials to prove it."""
    rng = random.Random(2121)
    for case in range(16):
        a, b = _polynomial_op(rng), _polynomial_op(rng)
        if case % 2:
            a, b = _real_part(a), _real_part(b)
        assert _acts_as_sequence(a, b, min(a.order() + b.order(), 6)), "A=%s\nB=%s" % (
            format_op(a),
            format_op(b),
        )


def test_polynomial_compose_packs_wide_exponents():
    """Exponent sums past 255 and past 65535 take 16- and 32-bit fields and
    still give the product, with a real and with a Gaussian coefficient
    (over RUI_SPEC); a sum past 64 bits raises rather than wraps."""
    for spec, c in ((RU_SPEC, Fraction(1, 2)), (RUI_SPEC, 1 + RUI.var("i") * 2)):
        ring = spec.ring
        r, u = ring.var("r"), ring.var("u")
        d_r, d_u = partial(spec, "r"), partial(spec, "u")
        for top in (200, 40000):
            a = mul_op(spec, r ** top * u).compose(partial(spec, "r", 2))
            a = a + mul_op(spec, u ** 3).compose(d_u)
            b = mul_op(spec, ring.monomial(1, r=top // 2 + 60, u=2) * c).compose(d_u) + d_r
            assert _acts_as_sequence(a, b, 3)
            assert a.compose(b).coefficient((2, 1)) == Expr.of_poly(
                ring.monomial(1, r=top + top // 2 + 60, u=3) * c
            )
    huge = _mul(RU.monomial(1, r=2 ** 63)).compose(_dr())
    with pytest.raises(CoeffRingError):
        huge.compose(huge)


def test_polynomial_compose_drops_cancelled_terms():
    """Leibniz terms that cancel leave no entry: D[r] + D[u] after u - r
    gives (u - r)(D[r] + D[u]) on the term-level route, and D[r] + i*D[u]
    after i*r - u gives (i*r - u)(D[r] + i*D[u]) on the Expr route."""
    r, u = RU.var("r"), RU.var("u")
    ri, ui, i = RUI.var("r"), RUI.var("u"), RUI.var("i")
    gaussian = partial(RUI_SPEC, "r") + partial(RUI_SPEC, "u").scale(i)
    for left, f in ((_dr() + _du(), u - r), (gaussian, ri * i - ui)):
        right = mul_op(left.spec, f)
        product = left.compose(right)
        assert (0, 0) not in product.terms
        assert product == right.compose(left)
        assert _acts_as_sequence(left, right, 1)


def test_polynomial_compose_identity_and_zero():
    rng = random.Random(2323)
    one, zero = identity(RUI_SPEC), zero_op(RUI_SPEC)
    for _ in range(20):
        a = _polynomial_op(rng)
        for product in (one.compose(a), a.compose(one)):
            assert product == a
            assert list(product.terms) == list(a.terms)
        assert zero.compose(a).is_zero() and a.compose(zero).is_zero()
    assert one.compose(one) == one


def _parameter_root_ops():
    """(left, right) over a ring with the root s of a parameter a adjoined,
    s^2 = a."""
    from weylcalc.coeffring import PolyRing
    from weylcalc.weyl import VariableSpec

    ring = PolyRing(("a", "x", "y", "s"))
    ring.define_adjunct("s", ring.var("a"))
    spec = VariableSpec(ring, ("x", "y"))
    x, y, s = (ring.var(v) for v in ("x", "y", "s"))
    left = mul_op(spec, s * x).compose(partial(spec, "x")) + mul_op(spec, s)
    right = mul_op(spec, s * x * y) + mul_op(spec, y).compose(partial(spec, "y"))
    return left, right


def test_polynomial_compose_under_a_parameter_root():
    """Operands that use an adjoined root take the Expr route, even when the
    root is a parameter's: compose reduces s^2 = a in its products."""
    left, right = _parameter_root_ops()
    ring = left.spec.ring
    x, y = ring.var("x"), ring.var("y")
    product = left.compose(right)
    assert format_op(product) == "x*y*s*D[x]*D[y] + a*x^2*y*D[x] + y*s*D[y] + 2*a*x*y"
    for f in (ring.one(), x, y, x * x * y):
        f = Expr.of_poly(f)
        assert (product.apply(f) - left.apply(right.apply(f))).is_zero()


class _Reached(Exception):
    pass


def _unreachable(name):
    def raising(*args, **kwargs):
        raise _Reached(name)

    return raising


def test_polynomial_compose_needs_no_expr_machinery(monkeypatch):
    """With the derivative tables, the grouped sums and Expr.differentiate
    all raising, a compose of real polynomial operators still gives the
    product, in R3 too when no coefficient uses r or i; an R3 compose that
    uses the r adjunct, a Gaussian compose on the (r, u) chart (over
    RUI_SPEC) and a compose under a parameter's root all take the Expr
    route and still reach each of them."""
    from weylcalc import coeffring, weyl
    from weylcalc.coulomb2d import c_op, h_a
    from weylcalc.g2algebra import generator

    x, y, r3 = R3.var("x"), R3.var("y"), R3.var("r")
    real_r3 = (
        mul_op(R3_SPEC, x).compose(partial(R3_SPEC, "x")),
        mul_op(R3_SPEC, y).compose(partial(R3_SPEC, "y")) + mul_op(R3_SPEC, x * x),
    )
    cases = [(c_op(), h_a()), (generator("T2", 0), generator("J4", 0)), real_r3]
    want = [a.compose(b) for a, b in cases]
    targets = [
        (weyl, "_derivative_table"),
        (weyl, "_sum_products"),
        (coeffring, "_sum_products"),
        (coeffring.Expr, "differentiate"),
    ]
    r, u, i = RUI.var("r"), RUI.var("u"), RUI.var("i")
    d_r, d_u = partial(RUI_SPEC, "r"), partial(RUI_SPEC, "u")
    general = [
        (real_r3[0], real_r3[1] + mul_op(R3_SPEC, r3)),
        (d_r + d_u.scale(i), mul_op(RUI_SPEC, r * u) + mul_op(RUI_SPEC, u * u).compose(d_r)),
        _parameter_root_ops(),
    ]
    # weyl calls its own reference to _sum_products, not coeffring's name
    for left, right in general:
        for owner, name in targets[:2] + targets[3:]:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, _unreachable(name))
                with pytest.raises(_Reached, match=name):
                    left.compose(right)
    for owner, name in targets:
        monkeypatch.setattr(owner, name, _unreachable(name))
    got = [a.compose(b) for a, b in cases]
    monkeypatch.undo()
    assert got == want
    for (a, b), product in zip(cases[:2], got):
        for i, j in ((0, 0), (1, 0), (2, 1), (3, 2)):
            f = Expr.of_poly(RU.monomial(1, r=i, u=j))
            assert (product.apply(f) - a.apply(b.apply(f))).is_zero()
    for f in (R3.one(), x, x * x * y, y ** 3):
        f = Expr.of_poly(f)
        assert (got[2].apply(f) - real_r3[0].apply(real_r3[1].apply(f))).is_zero()


def test_parser_input_takes_the_term_route_unless_it_uses_i(monkeypatch):
    """The parser's workspace adjoins i, yet real input composes on the
    term-level route: with the Expr route patched to raise, a real power
    still parses to its exact text, while an operand that uses i reaches
    the Expr route."""
    from weylcalc import weyl
    from weylcalc.exprparse import parse

    real = "(x*D[y]+D[x])^3"
    want = format_op(parse(real))
    for name in ("_derivative_table", "_sum_products"):
        monkeypatch.setattr(weyl, name, _unreachable(name))
    assert format_op(parse(real)) == want == (
        "D[x]^3 + 3*x*D[x]^2*D[y] + 3*x^2*D[x]*D[y]^2 + x^3*D[y]^3 + 3*D[x]*D[y] + 3*x*D[y]^2"
    )
    for text in ("(i*D[x]+x*D[y])^3", "D[x]*(i*x)", "(i*x)*D[x]*D[x]"):
        with pytest.raises(_Reached):
            parse(text)


def test_compose_leaves_module_state_alone():
    """Composing operators of orders no other test composes, on both routes,
    and applying one, leaves every module-level container of weyl as it
    was: nothing is cached between products."""
    import copy

    from weylcalc import weyl

    def containers():
        return {
            name: copy.copy(value)
            for name, value in vars(weyl).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    before = containers()
    r, u = RU.var("r"), RU.var("u")
    x, y, i = R3.var("x"), R3.var("y"), R3.var("i")
    term_level = _dr(37).compose(_du(5)).compose(_mul(r ** 3 * u))
    expr_route = partial(R3_SPEC, "x", 23).compose(partial(R3_SPEC, "z", 7)).compose(
        mul_op(R3_SPEC, x * x * y * i)
    )
    applied = partial(R3_SPEC, "y", 19).apply(Expr.of_poly(y ** 19))
    assert containers() == before
    # D[r]^37 D[u]^5 . r^3 u has the coefficient 37*36*35*u at D[r]^34 D[u]^5
    assert term_level.coefficient((34, 5)) == Expr.of_poly(u * (37 * 36 * 35))
    assert expr_route.coefficient((21, 0, 7)) == Expr.of_poly(y * i * (23 * 22))
    assert applied == Expr.of_poly(R3.const(121645100408832000))


def test_both_routes_give_the_same_terms_in_the_same_order(monkeypatch):
    """The term-level route and the Expr route (forced here by patching the
    route predicate) give the same coefficients, with the output indices
    and each coefficient's terms in the same order.  The Gaussian cases
    (over RUI_SPEC) take the Expr route either way; the real ones take
    both."""
    from weylcalc import weyl
    from weylcalc.coulomb2d import c_op, h_a, l_a
    from weylcalc.g2algebra import generator

    rng = random.Random(2424)
    cases = [(_polynomial_op(rng), _polynomial_op(rng)) for _ in range(12)]
    cases += [(_real_part(a), _real_part(b)) for a, b in cases[:6]]
    cases += [(c_op(), h_a()), (l_a(), c_op()), (generator("T2", 0), generator("T1", 0))]

    def layout(op):
        return [(a, list(c.num.terms.items()), c.den) for a, c in op.terms.items()]

    term_level = [layout(a.compose(b)) for a, b in cases]
    assert sum(weyl._term_route(a, b) for a, b in cases) == 9
    monkeypatch.setattr(weyl, "_term_route", lambda left, right: False)
    assert term_level == [layout(a.compose(b)) for a, b in cases]


def test_power_composes_the_base_on_the_left(monkeypatch):
    """op ** k composes op . op^(k-1), so each step expands the base's own
    Leibniz terms, never the growing power's: _leibniz runs len(op.terms)
    times per step.  Powers of one operator commute, so the result is the
    k-fold product from either side, for a base whose terms do not commute."""
    from weylcalc import weyl
    from weylcalc.exprparse import parse

    base = parse("x*D[y] + D[x]")
    assert parse("x*D[y]*D[x]") != parse("D[x]*x*D[y]")
    calls = []
    leibniz = weyl._leibniz

    def counting(a):
        calls.append(a)
        return leibniz(a)

    for k in (0, 1, 2, 5):
        left = right = identity(base.spec)
        for _ in range(k):
            left, right = base.compose(left), right.compose(base)
        monkeypatch.setattr(weyl, "_leibniz", counting)
        calls.clear()
        power = base ** k
        monkeypatch.undo()
        assert len(calls) == len(base.terms) * k
        assert power == left == right


def _descending(op):
    """Whether every coefficient of op lists its numerator's terms in
    descending exponent order."""
    return all(list(c.num.terms) == sorted(c.num.terms, reverse=True) for c in op.terms.values())


def test_every_route_lists_coefficient_terms_in_descending_order(monkeypatch):
    """Both routes give each coefficient's terms in descending exponent
    order: real operators on the term-level route and, forced, on the Expr
    route; Gaussian ones (over RUI_SPEC) and R3 ones with the r adjunct,
    which take the Expr route anyway."""
    from weylcalc import weyl
    from weylcalc.coulomb2d import c_op, h_a, l_a

    rng = random.Random(2626)
    gaussian = [(_polynomial_op(rng), _polynomial_op(rng)) for _ in range(6)]
    real = [(_real_part(a), _real_part(b)) for a, b in gaussian]
    real += [(c_op(), h_a()), (l_a(), c_op())]
    (spec, atoms, _, _), _ = _rational_cases()
    rational = [tuple(_rational_op(spec, rng, atoms) for _ in range(2)) for _ in range(6)]
    rational.append((_r3_polynomial_op(), _r3_polynomial_op()))
    assert all(weyl._term_route(a, b) for a, b in real)
    assert not any(weyl._term_route(a, b) for a, b in gaussian + rational)
    term_level = [a.compose(b) for a, b in real]
    assert all(_descending(op) for op in term_level)
    assert all(_descending(a.compose(b)) for a, b in gaussian + rational)
    monkeypatch.setattr(weyl, "_term_route", lambda left, right: False)
    forced = [a.compose(b) for a, b in real]
    assert all(_descending(op) for op in forced)
    assert forced == term_level


def test_grouped_sums_that_cancel_leave_no_zero_term_or_index(monkeypatch):
    """Leibniz terms from different right terms land on one (output index,
    left term) sum: D[r] . (r + r^2 u) D[r] and D[r] . (-1) both reach
    D[r].  When that sum cancels, it adds nothing; when every sum at an
    index cancels, the index is absent; when part of it cancels, no zero
    term is kept.  The sums of different left terms cancel too:
    (r D[r] - 1) . r has no order-zero term.  The Expr route agrees, and
    the products act as the factors applied in turn."""
    from weylcalc import weyl

    r, u = RU.var("r"), RU.var("u")
    right = _mul(r).compose(_dr()) - identity(RU_SPEC)
    partly = _mul(r + r * r * u).compose(_dr()) - identity(RU_SPEC)
    cases = [
        (_dr(), right, {(2, 0): r}),
        (_dr() + _mul(u), right, {(2, 0): r, (1, 0): r * u, (0, 0): -u}),
        (_dr(), partly, {(2, 0): r + r * r * u, (1, 0): r * u * 2}),
        (right, _mul(r), {(1, 0): r * r}),
    ]
    products = [a.compose(b) for a, b, _ in cases]
    monkeypatch.setattr(weyl, "_term_route", lambda left, right: False)
    forced = [a.compose(b) for a, b, _ in cases]
    monkeypatch.undo()
    for (a, b, want), product, expr_route in zip(cases, products, forced):
        assert product == DiffOp(RU_SPEC, want) == expr_route
        assert list(product.terms) == list(expr_route.terms)
        assert all(c.num.terms and all(c.num.terms.values()) for c in product.terms.values())
        assert _acts_as_sequence(a, b, 3)


def test_cubic_products_act_as_their_factors_on_flag_monomials():
    """c . c and (c . c) . h_a, the products the cubic algebra is checked
    with, applied to every flag monomial r^a u^b with a + 2b <= 8, equal
    their factors applied in turn through DiffOp.apply, which shares no
    Leibniz code with compose."""
    from weylcalc.coulomb2d import c_op, h_a

    c, h = c_op(), h_a()
    cc = c.compose(c)
    for a, b, product in ((c, c, cc), (cc, h, cc.compose(h))):
        for j in range(5):
            for i in range(9 - 2 * j):
                f = Expr.of_poly(RU.monomial(1, r=i, u=j))
                assert product.apply(f) == a.apply(b.apply(f)), (i, j)
