"""Exact linear decomposition over ordered generator monomials, with and
without idempotent parameter quotients."""

import random
from fractions import Fraction
from math import gcd, lcm

from weylcalc.coeffring import Expr, GaussRat
from weylcalc.linsolve import SparseSolver, decompose, idempotent_reduce, monomial_ops
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import format_op, identity, mul_op, partial


def _J1():
    return partial(RU_SPEC, "r")


def _R1():
    return mul_op(RU_SPEC, RU.var("r")).compose(partial(RU_SPEC, "u"))


def test_monomial_ops_enumeration():
    gens = [("a", _J1()), ("b", _R1())]
    table = monomial_ops(gens, 2)
    # keys are nondecreasing generator-index words up to the degree bound
    assert sorted(table) == [(), (0,), (0, 0), (0, 1), (1,), (1, 1)]
    # ordered products: (0, 1) is the first generator composed with the second,
    # and the empty word is the identity
    assert (table[(0, 1)] - _J1().compose(_R1())).is_zero()
    assert (table[()] - identity(RU_SPEC)).is_zero()


def test_decompose_recovers_known_combination():
    mu = RU.var("mu")
    target = (
        _J1().compose(_J1()).scale(Fraction(2))
        + _R1().scale(Expr.of_poly(mu + RU.one()))
        - identity(RU_SPEC).scale(Fraction(3))
    )
    gens = [("J1", _J1()), ("R1", _R1())]
    dec = decompose(target, gens, monomial_ops(gens, 2), params=("mu",))
    assert dec.success, dec.message
    assert dec.residual is not None and dec.residual.is_zero()
    assert dec.coefficient_strings() == {"1": "-3", "J1*J1": "2", "R1": "mu + 1"}


def test_decompose_reports_infeasible():
    target = mul_op(RU_SPEC, RU.var("u")).compose(_J1())
    gens = [("J1", _J1())]
    dec = decompose(target, gens, monomial_ops(gens, 3))
    assert not dec.success
    assert "degree bound" in dec.message


def test_decompose_exact_reconstruction_is_authoritative():
    # the returned coefficients rebuild the target exactly
    target = _J1().compose(_R1()) + _R1().scale(Fraction(5))
    gens = [("J1", _J1()), ("R1", _R1())]
    table = monomial_ops(gens, 2)
    dec = decompose(target, gens, table)
    assert dec.success
    assert dec.residual is not None and dec.residual.is_zero()
    name_to_idx = {"J1": 0, "R1": 1}
    rebuilt = None
    for key, coeff in dec.coefficients.items():
        word = tuple(name_to_idx[n] for n in key)
        piece = table[word].scale(Expr.of_poly(coeff))
        rebuilt = piece if rebuilt is None else rebuilt + piece
    assert (rebuilt - target).is_zero()


def test_idempotent_reduce_polynomial():
    p = RU.var("p")
    assert idempotent_reduce(p ** 3 + p ** 2, ("p",)) == p * 2
    assert idempotent_reduce(p ** 2 - p, ("p",)).is_zero()
    q = RU.var("beta") * p ** 4
    assert idempotent_reduce(q, ("p",)) == RU.var("beta") * p


def test_decompose_modulo_idempotent():
    # coefficient p^2 needs parameter degree 2 plainly, but only degree 1
    # once p^2 - p is quotiented away
    p = RU.var("p")
    target = _J1().scale(Expr.of_poly(p * p))
    gens = [("J1", _J1())]
    ops = monomial_ops(gens, 1)
    plain = decompose(target, gens, ops, params=("p",), param_bound=1)
    assert not plain.success
    quotient = decompose(target, gens, ops, params=("p",), param_bound=1, idempotents=("p",))
    assert quotient.success, quotient.message
    assert quotient.coefficient_strings() == {"J1": "p"}


def test_weighted_pruning_still_finds_solutions():
    weights = {"r": 1, "u": 2, "beta": -1}
    beta = RU.var("beta")
    target = _R1().scale(Expr.of_poly(beta)) + _J1().compose(_J1())
    gens = [("J1", _J1()), ("R1", _R1())]
    dec = decompose(
        target,
        gens,
        monomial_ops(gens, 2),
        params=("beta",),
        weights=weights,
    )
    assert dec.success, dec.message
    assert dec.coefficient_strings() == {"J1*J1": "1", "R1": "beta"}



def test_decompose_with_gaussian_coefficients():
    # a non-real generator and target put non-real entries, right-hand sides
    # and pivots through the solver: (1/3 - 2i)/(1 + 2i) = -11/15 - 8/15 i
    target = _J1().compose(_J1()).scale(GaussRat(0, 1)) + _R1().scale(
        GaussRat(Fraction(1, 3), -2)
    )
    gens = [("J1", _J1()), ("S", _R1().scale(GaussRat(1, 2)))]
    dec = decompose(target, gens, monomial_ops(gens, 2), params=("mu",))
    assert dec.success, dec.message
    assert dec.residual is not None and dec.residual.is_zero()
    assert dec.coefficient_strings() == {"J1*J1": "i", "S": "(-11/15-8/15*i)"}


def test_decompose_over_products_with_their_own_denominators():
    # the products have denominators 1, 3, 4, 9, 12 and 16, G2 is non-real,
    # and the target's lcm is 16632, so every column and the right-hand side
    # come with their own scale.  Modulo p^2 - p the coefficient of G2's R1
    # part turns real, (1+i) + (2-i) = 3, and its J1 part i*(p^2 - p)
    # vanishes, so the quotient rows merge numerators into ints and zeros.
    p = RU.var("p")
    g1 = _J1().scale(Fraction(1, 3))
    g2 = _R1().scale(
        Expr.of_poly(p * p * GaussRat(1, 1) + p * GaussRat(2, -1) + RU.const(Fraction(1, 4)))
    ) + _J1().scale(Expr.of_poly((p * p - p) * GaussRat(0, 1)))
    gens = [("G1", g1), ("G2", g2)]
    ops = monomial_ops(gens, 2)
    target = (
        g1.compose(g2).scale(Fraction(5, 7))
        + g1.scale(Expr.of_poly(p * p * Fraction(2, 9)))
        + g2.scale(Expr.of_poly(p * Fraction(3, 2)))
        + identity(RU_SPEC).scale(GaussRat(0, Fraction(-1, 11)))
    )
    symbolic = decompose(target, gens, ops, params=("p",), param_bound=2)
    assert symbolic.success, symbolic.message
    assert symbolic.coefficient_strings() == {
        "1": "-1/11*i", "G1": "2/9*p^2", "G1*G2": "5/7", "G2": "3/2*p",
    }
    quotient = decompose(target, gens, ops, params=("p",), param_bound=2, idempotents=("p",))
    assert quotient.success, quotient.message
    assert quotient.coefficient_strings() == {
        "1": "-1/11*i", "G1": "2/9*p", "G1*G2": "5/7", "G2": "3/2*p",
    }
    # full column rank: the coefficients are the only ones
    assert (symbolic.rank, symbolic.unknowns) == (18, 18)
    assert (quotient.rank, quotient.unknowns) == (12, 12)


# -- SparseSolver against a dense reference ------------------------------------
#
# The reference eliminates dense rows of (re, im) Fraction pairs with its own
# Gaussian-rational arithmetic, in the same row order and with the same pivot
# rule (largest nonzero column of the reduced row), keeping the basis fully
# reduced.  It shares no code with weylcalc.

_G0 = (Fraction(0), Fraction(0))


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _ginv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _dense_rref(rows, ncols):
    """(accepted per row, pivot cols in creation order, contradictions, solution)."""
    basis = {}  # pivot col -> (dense row with 1 at the pivot, rhs)
    accepted, order, contradictions = [], [], 0
    for coeffs, rhs in rows:
        vec = [coeffs.get(c, _G0) for c in range(ncols)]
        for pc, (prow, prhs) in basis.items():
            f = vec[pc]
            if f != _G0:
                vec = [_gsub(v, _gmul(f, p)) for v, p in zip(vec, prow)]
                rhs = _gsub(rhs, _gmul(f, prhs))
        support = [c for c in range(ncols) if vec[c] != _G0]
        if not support:
            accepted.append(rhs == _G0)
            contradictions += rhs != _G0
            continue
        pc = max(support)
        inv = _ginv(vec[pc])
        prow, prhs = [_gmul(v, inv) for v in vec], _gmul(rhs, inv)
        for oc, (orow, orhs) in basis.items():
            f = orow[pc]
            if f != _G0:
                basis[oc] = (
                    [_gsub(v, _gmul(f, p)) for v, p in zip(orow, prow)],
                    _gsub(orhs, _gmul(f, prhs)),
                )
        basis[pc] = (prow, prhs)
        accepted.append(True)
        order.append(pc)
    return accepted, order, contradictions, {pc: basis[pc][1] for pc in order}


def _random_system(rng, nrows, ncols, gaussian):
    """Sparse rows over small Gaussian rationals with mixed denominators, mixed
    with repeated rows and with combinations of two earlier rows whose
    right-hand side is kept (consistent) or perturbed (contradictory).  Some
    rows carry a common factor such as 12 or 35/5, which the solver divides
    out of its integer rows."""

    def number():
        re = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))
        im = Fraction(0)
        if gaussian and rng.random() < 0.4:
            im = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 5)))
        return (re, im)

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(rng.choice(rows))
        elif len(rows) >= 2 and kind < 0.45:
            (c1, r1), (c2, r2) = rng.sample(rows, 2)
            m1, m2 = number(), number()
            coeffs = {}
            for c in sorted(set(c1) | set(c2)):
                v = _gsub(_gmul(m1, c1.get(c, _G0)), _gmul(m2, c2.get(c, _G0)))
                if v != _G0:
                    coeffs[c] = v
            rhs = _gsub(_gmul(m1, r1), _gmul(m2, r2))
            if rng.random() < 0.5:
                rhs = _gsub(rhs, number())
            rows.append((coeffs, rhs))
        else:
            scale = (Fraction(rng.choice((1, 1, 6, 12, 35)), rng.choice((1, 5))), Fraction(0))
            coeffs = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
                v = _gmul(number(), scale)
                if v != _G0:
                    coeffs[c] = v
            rows.append((coeffs, _gmul(number(), scale)))
    return rows


def _gaussian_integer_row(coeffs, rhs):
    """A row and its right-hand side times the lcm of all their denominators,
    as the solver takes them: ints when real, GaussRat otherwise."""
    den = lcm(*(p.denominator for v in (*coeffs.values(), rhs) for p in v))

    def scaled(v):
        re, im = (int(p * den) for p in v)
        return GaussRat(re, im) if im else re

    return {c: scaled(v) for c, v in coeffs.items()}, scaled(rhs)


def _lifted_content(coeffs, rhs):
    """gcd of a row's parts once scaled to integers by their common denominator."""
    parts = [p for v in (*coeffs.values(), rhs) for p in v]
    den = lcm(*(p.denominator for p in parts))
    return gcd(*(p.numerator * (den // p.denominator) for p in parts))


def _assert_primitive(solver):
    # every pivot row is over Z[i] with an integer pivot entry d > 0 and no
    # common integer factor, and its real entries are plain ints
    for prow, prhs, d in solver.pivots.values():
        assert type(d) is int and d > 0
        parts = [d]
        for v in list(prow.values()) + [prhs]:
            if type(v) is int:
                parts.append(v)
            else:
                assert v.im and v.re.denominator == 1 and v.im.denominator == 1
                parts += [v.re.numerator, v.im.numerator]
        assert gcd(*parts) == 1


def test_sparse_solver_matches_dense_reference():
    rng = random.Random(20231)
    seen = {"contradictory": 0, "underdetermined": 0, "non-real": 0, "content": 0}
    for trial in range(300):
        ncols = rng.randint(1, 7)
        rows = _random_system(rng, rng.randint(1, 10), ncols, gaussian=trial % 3 != 0)
        solver = SparseSolver()
        added = [solver.add(*_gaussian_integer_row(coeffs, rhs)) for coeffs, rhs in rows]
        accepted, order, contradictions, solution = _dense_rref(rows, ncols)
        assert added == accepted
        assert list(solver.pivots) == order
        assert solver.contradictions == contradictions
        assert {c: (v.re, v.im) for c, v in solver.solution().items()} == solution
        _assert_primitive(solver)
        seen["contradictory"] += contradictions > 0
        seen["underdetermined"] += len(order) < ncols
        seen["non-real"] += any(v[1] for v in solution.values())
        seen["content"] += any(_lifted_content(c, r) > 1 for c, r in rows)
    # the seeded systems cover every case many times over
    assert min(seen.values()) >= 20, seen


def test_sparse_solver_keeps_primitive_integer_rows():
    solver = SparseSolver()
    # 6x + 12y = 18: pivot y, divided by the content 6
    assert solver.add({0: 6, 1: 12}, 18)
    assert solver.pivots[1] == ({0: 1}, 3, 2)
    # 4y + (2+2i)z = 10i: reduced against y to a multiple of
    # (1+i)z - x = -3+5i, multiplied by the conjugate of its pivot entry,
    # then divided by the content: 2z + (-1+i)x = 2+8i
    assert solver.add({1: 4, 2: GaussRat(2, 2)}, GaussRat(0, 10))
    assert solver.pivots[2] == ({0: GaussRat(-1, 1)}, GaussRat(2, 8), 2)
    _assert_primitive(solver)
    # 3x + 6y = 10 reduces to 0 = 1
    assert not solver.add({0: 3, 1: 6}, 10)
    assert solver.contradictions == 1
    assert list(solver.pivots) == [1, 2]
    # free x = 0: y = 3/2 and z = (-3+5i)/(1+i) = 1+4i
    assert solver.solution() == {1: GaussRat(Fraction(3, 2)), 2: GaussRat(1, 4)}
