"""Exact linear decomposition over ordered generator monomials, with and
without idempotent parameter quotients."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from randops import RUI, RUI_SPEC

from weylcalc.coeffring import CoeffRingError, Expr
from weylcalc.linsolve import (
    SparseSolver, decompose, idempotent_reduce, integral_form, monomial_ops,
)
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import DiffOp, format_op, identity, mul_op, partial


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


def test_inconsistent_decomposition_keeps_the_target_as_residual():
    # u*D[r] is outside the span of J1's powers: elimination contradicts
    # itself, and the residual is the target itself, never None
    target = mul_op(RU_SPEC, RU.var("u")).compose(_J1())
    gens = [("J1", _J1())]
    dec = decompose(target, gens, monomial_ops(gens, 2), params=("mu",), param_bound=1)
    assert dec.success is False
    assert dec.residual is target
    assert dec.coefficients == {}
    assert dec.shape() == "3 monomials, 6 unknowns, rank 6, 0 free columns"


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


def test_weights_that_do_not_grade_are_an_error():
    # a grading that does not apply is an error, never a silent ungraded solve
    weights = {"r": 1, "u": 2, "beta": -1}
    gens = [("J1", _J1()), ("R1", _R1())]
    ops = monomial_ops(gens, 2)
    mixed = _J1() + _J1().compose(_J1())  # weights -1 and -2
    with pytest.raises(ValueError, match="target inhomogeneously"):
        decompose(mixed, gens, ops, params=("beta",), weights=weights)
    bad_gens = [("J1", _J1()), ("S", mixed)]
    with pytest.raises(ValueError, match="S inhomogeneously"):
        decompose(_J1(), bad_gens, monomial_ops(bad_gens, 1), weights=weights)
    with pytest.raises(ValueError, match="exactly one parameter"):
        decompose(_J1(), gens, ops, weights=dict(weights, mu=1))
    with pytest.raises(ValueError, match="exactly one parameter"):
        decompose(_J1(), gens, ops, weights={"r": 1, "u": 2})



def test_decompose_refuses_non_real_coefficients():
    # the unknowns are rational: over the (r, u) chart with i adjoined, a
    # real target still decomposes, while a target or a product that uses i
    # is refused before any row is formed
    d_r = partial(RUI_SPEC, "r")
    r1 = mul_op(RUI_SPEC, RUI.var("r")).compose(partial(RUI_SPEC, "u"))
    gens = [("J1", d_r), ("R1", r1)]
    ops = monomial_ops(gens, 2)
    target = d_r.compose(d_r) + r1.scale(Fraction(1, 3))
    assert decompose(target, gens, ops, params=("mu",)).success
    with pytest.raises(CoeffRingError):
        decompose(target.scale(RUI.var("i")), gens, ops, params=("mu",))
    gaussian = [("J1", d_r), ("S", r1.scale(1 + RUI.var("i") * 2))]
    with pytest.raises(CoeffRingError):
        decompose(target, gaussian, monomial_ops(gaussian, 2), params=("mu",))
    assert integral_form({0: Fraction(1, 2), 1: Fraction(0), 2: Fraction(3)}) == (
        2, {0: 1, 2: 6}
    )


def _term_denominator(op):
    """The lcm of the denominators of op's coefficient terms."""
    return integral_form(
        {(a, e): v for a, c in op.terms.items() for e, v in c.as_poly().terms.items()}
    )[0]


def test_decompose_over_products_with_their_own_denominators():
    # the products have denominators 1, 3, 4, 9, 12 and 16, and the target's
    # lcm is 16632, so every column and the right-hand side come with their
    # own scale.  Modulo p^2 - p the coefficient of G2's R1 part merges two
    # numerators, p^2 + 2p -> 3p, and its J1 part 5*(p^2 - p) cancels to zero,
    # so the quotient rows sum numerators and drop the zeros.
    p = RU.var("p")
    g1 = _J1().scale(Fraction(1, 3))
    g2 = _R1().scale(Expr.of_poly(p * p + p * 2 + RU.const(Fraction(1, 4)))) + _J1().scale(
        Expr.of_poly((p * p - p) * 5)
    )
    gens = [("G1", g1), ("G2", g2)]
    ops = monomial_ops(gens, 2)
    assert [_term_denominator(ops[m]) for m in sorted(ops)] == [1, 3, 9, 12, 4, 16]
    target = (
        g1.compose(g2).scale(Fraction(5, 7))
        + g1.scale(Expr.of_poly(p * p * Fraction(2, 9)))
        + g2.scale(Expr.of_poly(p * Fraction(3, 2)))
        + identity(RU_SPEC).scale(Fraction(-1, 11))
    )
    assert _term_denominator(target) == 16632
    symbolic = decompose(target, gens, ops, params=("p",), param_bound=2)
    assert symbolic.success, symbolic.message
    assert symbolic.coefficient_strings() == {
        "1": "-1/11", "G1": "2/9*p^2", "G1*G2": "5/7", "G2": "3/2*p",
    }
    quotient = decompose(target, gens, ops, params=("p",), param_bound=2, idempotents=("p",))
    assert quotient.success, quotient.message
    assert quotient.coefficient_strings() == {
        "1": "-1/11", "G1": "2/9*p", "G1*G2": "5/7", "G2": "3/2*p",
    }
    # full column rank: the coefficients are the only ones
    assert (symbolic.rank, symbolic.unknowns) == (18, 18)
    assert (quotient.rank, quotient.unknowns) == (12, 12)


def test_quotient_solve_where_products_and_columns_carry_the_idempotent():
    # G carries p and a p-free term, so the column p.G reads G's terms with
    # p set (p.p = p, p.D[u] = p*D[u]) and the column 1.G with p capped at 1;
    # p^3 and p^2 are out of reach of param_bound 1 unless p^2 = p
    p = RU.var("p")
    g = _J1().scale(Expr.of_poly(p)) + partial(RU_SPEC, "u")
    gens = [("G", g), ("H", _J1())]
    ops = monomial_ops(gens, 1)
    target = g.scale(Expr.of_poly(p ** 3)) + _J1().scale(Expr.of_poly(RU.one() - p * p))
    assert not decompose(target, gens, ops, params=("p",), param_bound=1).success
    dec = decompose(target, gens, ops, params=("p",), param_bound=1, idempotents=("p",))
    assert dec.success, dec.message
    assert dec.coefficient_strings() == {"G": "p", "H": "-p + 1"}
    assert (dec.rank, dec.unknowns) == (6, 6)


def test_quotient_solve_with_two_idempotents():
    # p and mu both two-valued: the columns 1, p, mu and p*mu read each
    # product under all four patterns of (p, mu)
    p, mu = RU.var("p"), RU.var("mu")
    g = _J1().scale(Expr.of_poly(p)) + partial(RU_SPEC, "u").scale(Expr.of_poly(mu))
    gens = [("G", g), ("H", _J1())]
    ops = monomial_ops(gens, 2)
    target = (
        g.compose(_J1()).scale(Expr.of_poly(p * mu))
        + g.scale(Expr.of_poly(p * p + mu ** 3))
        + _J1().scale(Expr.of_poly(mu * mu - p))
    )
    want = {"G": "mu*p + mu", "G*H": "mu*p", "H": "-mu*p + mu"}
    for idempotents in (("p", "mu"), ("mu", "p")):
        dec = decompose(target, gens, ops, params=("p", "mu"), param_bound=2,
                        idempotents=idempotents)
        assert dec.success, dec.message
        assert dec.residual.is_zero()
        assert dec.coefficient_strings() == want
        assert (dec.rank, dec.unknowns) == (18, 24)


@pytest.mark.parametrize("n", [300, 70000])
def test_decompose_with_large_column_exponents(n):
    # the graded power puts beta^n on the column, not on any product
    weights = {"r": 1, "u": 2, "beta": -1}
    gens = [("J1", _J1())]
    target = _J1().scale(Expr.of_poly(RU.var("beta") ** n))
    dec = decompose(target, gens, monomial_ops(gens, 1), params=("beta",), weights=weights)
    assert dec.success, dec.message
    assert dec.coefficient_strings() == {"J1": "beta^%d" % n}


@pytest.mark.parametrize("m, n", [(300, 500), (40000, 70000)])
def test_decompose_with_large_product_and_column_exponents(m, n):
    # (u^m D[u])^2 = u^(2m) D[u]^2 + m u^(2m-1) D[u], past 255 and 65535,
    # and the column adds beta^n: the degree fields of the row keys need
    # more bits than the products' own, and a carry out of one would land
    # in the odd D[u] count
    weights = {"r": 1, "u": 2, "beta": -1}
    g = mul_op(RU_SPEC, RU.var("u") ** m).compose(partial(RU_SPEC, "u"))
    gens = [("G", g)]
    target = g.compose(g).scale(Expr.of_poly(RU.var("beta") ** n))
    dec = decompose(target, gens, monomial_ops(gens, 2), params=("beta",), weights=weights)
    assert dec.success, dec.message
    assert dec.coefficient_strings() == {"G*G": "beta^%d" % n}


def test_decompose_row_key_past_64_bits_raises():
    # a row-key field holds at most 2**64 - 1: the target's degree alone,
    # or its degree plus a column's, past that raises instead of packing
    gens = [("J1", _J1())]
    ops = monomial_ops(gens, 1)
    target = DiffOp(RU_SPEC, {(1, 0): RU.var("u", 2**64)})
    with pytest.raises(CoeffRingError):
        decompose(target, gens, ops)
    # a product that carries mu keeps mu on its columns, and mu*u^(2**64-1)
    # passes the field
    target = DiffOp(RU_SPEC, {(1, 0): RU.var("u", 2**64 - 1)})
    carrier = [("G", _J1().scale(Expr.of_poly(RU.var("mu"))))]
    with pytest.raises(CoeffRingError):
        decompose(target, carrier, monomial_ops(carrier, 1), params=("mu",), param_bound=1)
    # J1 carries no mu, so its columns are the products alone, mu^k goes to
    # the right-hand sides, and the same target packs and is out of reach
    dec = decompose(target, gens, ops, params=("mu",), param_bound=1)
    assert not dec.success and "degree bound" in dec.message


# -- SparseSolver against a dense reference ------------------------------------
#
# The reference eliminates dense rows of Fractions, dividing each pivot row by
# its pivot entry, in the same row order and with the same pivot rule
# (largest nonzero column of the reduced row), keeping the basis fully
# reduced.  It shares no code with weylcalc.


def _dense_rref(rows, ncols):
    """(accepted per row, pivot cols in creation order, contradictions, solution)."""
    basis = {}  # pivot col -> (dense row with 1 at the pivot, rhs)
    accepted, order, contradictions = [], [], 0
    for coeffs, rhs in rows:
        vec = [coeffs.get(c, Fraction(0)) for c in range(ncols)]
        for pc, (prow, prhs) in basis.items():
            f = vec[pc]
            if f:
                vec = [v - f * p for v, p in zip(vec, prow)]
                rhs -= f * prhs
        support = [c for c in range(ncols) if vec[c]]
        if not support:
            accepted.append(rhs == 0)
            contradictions += rhs != 0
            continue
        pc = max(support)
        inv = 1 / vec[pc]
        prow, prhs = [v * inv for v in vec], rhs * inv
        for oc, (orow, orhs) in basis.items():
            f = orow[pc]
            if f:
                basis[oc] = ([v - f * p for v, p in zip(orow, prow)], orhs - f * prhs)
        basis[pc] = (prow, prhs)
        accepted.append(True)
        order.append(pc)
    return accepted, order, contradictions, {pc: basis[pc][1] for pc in order}


def _random_system(rng, nrows, ncols, ncomp=1):
    """Sparse rows over small rationals with mixed denominators, mixed with
    repeated rows and with combinations of two earlier rows whose right-hand
    sides are kept (consistent) or perturbed (contradictory), each component
    on its own coin of weight 1/(2*ncomp), so that a combination row perturbs
    half a component on average, however many there are, and a solve where
    only one component contradicts is common.  Every row has a tuple of
    ncomp right-hand sides.  Some
    rows carry a common factor such as 12 or 35/5, which the solver divides
    out of its integer rows."""

    def number():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))

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
                v = m1 * c1.get(c, 0) - m2 * c2.get(c, 0)
                if v:
                    coeffs[c] = v
            rhs = []
            for a, b in zip(r1, r2):
                v = m1 * a - m2 * b
                rhs.append(v - number() if rng.random() < 0.5 / ncomp else v)
            rows.append((coeffs, tuple(rhs)))
        else:
            scale = Fraction(rng.choice((1, 1, 6, 12, 35)), rng.choice((1, 5)))
            coeffs = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
                v = number() * scale
                if v:
                    coeffs[c] = v
            rows.append((coeffs, tuple(number() * scale for _ in range(ncomp))))
    return rows


def _integer_row(coeffs, rhs):
    """A row and its right-hand sides times the lcm of all their
    denominators, as the solver takes them: ints."""
    den = lcm(*(v.denominator for v in (*coeffs.values(), *rhs)))
    return {c: int(v * den) for c, v in coeffs.items()}, tuple(int(v * den) for v in rhs)


def _lifted_content(coeffs, rhs):
    """gcd of a row's values once scaled to integers by their common denominator."""
    row, rhs = _integer_row(coeffs, rhs)
    return gcd(*row.values(), *rhs)


def _assert_primitive(solver):
    # every pivot row has int entries and right-hand sides, an integer pivot
    # entry d > 0 and no common factor across all of them
    for prow, prhs, d in solver.pivots.values():
        assert type(d) is int and d > 0
        values = [*prow.values(), *prhs.values()]
        assert all(type(v) is int for v in values)
        assert gcd(d, *values) == 1


def test_sparse_solver_matches_dense_reference():
    rng = random.Random(20231)
    seen = {"contradictory": 0, "underdetermined": 0, "content": 0}
    for trial in range(300):
        ncols = rng.randint(1, 7)
        rows = _random_system(rng, rng.randint(1, 10), ncols)
        solver = SparseSolver()
        added = [solver.add(*_integer_row(coeffs, rhs)) for coeffs, rhs in rows]
        accepted, order, contradictions, solution = _dense_rref(
            [(coeffs, rhs) for coeffs, (rhs,) in rows], ncols
        )
        assert added == accepted
        assert list(solver.pivots) == order
        assert solver.contradictions[0] == contradictions
        # solution() leaves out the pivots whose value is zero
        nonzero = {c: v for c, v in solution.items() if v}
        assert {c: v[0] for c, v in solver.solution().items()} == nonzero
        _assert_primitive(solver)
        seen["contradictory"] += contradictions > 0
        seen["underdetermined"] += len(order) < ncols
        seen["content"] += any(_lifted_content(c, r) > 1 for c, r in rows)
    # the seeded systems cover every case many times over
    assert min(seen.values()) >= 20, seen


def test_sparse_solver_keeps_primitive_integer_rows():
    solver = SparseSolver()
    # 6x + 12y = 18: pivot y, divided by the content 6
    assert solver.add({0: 6, 1: 12}, (18,))
    assert solver.pivots[1] == ({0: 1}, {0: 3}, 2)
    # 4y - 6z = 10: reduced against y, 2*(4y - 6z) - 4*(x + 2y) = 20 - 12,
    # to -12z - 4x = 8, whose pivot entry is negative: divided by -4, the
    # content with the pivot's sign, it is 3z + x = -2
    assert solver.add({1: 4, 2: -6}, (10,))
    assert solver.pivots[2] == ({0: 1}, {0: -2}, 3)
    _assert_primitive(solver)
    # 3x + 6y = 10 reduces to 0 = 2
    assert not solver.add({0: 3, 1: 6}, (10,))
    assert solver.contradictions == {0: 1}
    assert list(solver.pivots) == [1, 2]
    # free x = 0: y = 3/2 and z = -2/3
    assert solver.solution() == {1: {0: Fraction(3, 2)}, 2: {0: Fraction(-2, 3)}}


def test_solution_leaves_out_zero_values():
    solver = SparseSolver()
    assert solver.add({0: 1, 1: 2}, (0,))  # pivot 1, value 0 with x free
    assert solver.add({2: 3}, (6,))  # pivot 2, value 2
    assert solver.add({3: -5}, (0,))  # a negative pivot entry, value 0
    assert list(solver.pivots) == [1, 2, 3]
    assert solver.solution() == {2: {0: Fraction(2)}}


def test_several_right_hand_sides_match_one_reference_solve_each():
    # the pivots never read a right-hand side, so each component of a solve
    # with several is the dense reference's solve with that component alone:
    # the same pivots in the same order, its own contradictions and values
    rng = random.Random(20281)
    seen = {"one of several contradicts": 0, "all consistent": 0, "content": 0,
            "underdetermined": 0}
    for trial in range(200):
        ncols, ncomp = rng.randint(1, 7), rng.randint(2, 4)
        rows = _random_system(rng, rng.randint(1, 10), ncols, ncomp)
        solver = SparseSolver()
        added = [solver.add(*_integer_row(coeffs, rhs)) for coeffs, rhs in rows]
        values = solver.solution()
        contradicted, accepted_by = 0, []
        for k in range(ncomp):
            accepted, order, contradictions, solution = _dense_rref(
                [(coeffs, rhs[k]) for coeffs, rhs in rows], ncols
            )
            assert list(solver.pivots) == order
            assert solver.contradictions[k] == contradictions
            nonzero = {c: v for c, v in solution.items() if v}
            assert {c: v[k] for c, v in values.items() if k in v} == nonzero
            accepted_by.append(accepted)
            contradicted += contradictions > 0
            seen["underdetermined"] += len(order) < ncols
        # a row is accepted exactly when no component contradicts it
        assert added == [all(row) for row in zip(*accepted_by)]
        # only nonzero values are listed, and only pivots that have some
        assert all(v and all(v.values()) for v in values.values())
        assert sorted(solver.contradictions) == [
            k for k in range(ncomp) if solver.contradictions[k]
        ]
        _assert_primitive(solver)
        seen["one of several contradicts"] += contradicted == 1
        seen["all consistent"] += contradicted == 0
        seen["content"] += any(_lifted_content(c, r) > 1 for c, r in rows)
    assert min(seen.values()) >= 20, seen


def test_one_component_contradicts_and_the_others_solve():
    solver = SparseSolver()
    # x + y = (1, 2, 3) and 2x + 2y = (2, 5, 6): only the middle component
    # contradicts; the others keep y = 1 and y = 3 with x free
    assert solver.add({0: 1, 1: 1}, (1, 2, 3))
    assert not solver.add({0: 2, 1: 2}, (2, 5, 6))
    assert solver.contradictions == {1: 1}
    # -6x = (0, 4, 10): over -2, the content of the pivot entry and every
    # component with the pivot's sign, 3x = (0, -2, -5); back-reducing y's
    # row, 3*(x + y) - (3x), leaves 3y = (3, 8, 14)
    assert solver.add({0: -6}, (0, 4, 10))
    assert list(solver.pivots) == [1, 0]
    assert solver.pivots[1] == ({}, {0: 3, 1: 8, 2: 14}, 3)
    _assert_primitive(solver)
    assert solver.solution() == {
        1: {0: Fraction(1), 1: Fraction(8, 3), 2: Fraction(14, 3)},
        0: {1: Fraction(-2, 3), 2: Fraction(-5, 3)},
    }
    # a homogeneous system has no components and never contradicts
    solver = SparseSolver()
    assert solver.add({0: 1, 1: 1}, ())
    assert solver.add({0: 2, 1: 2}, ())
    assert not solver.contradictions
    assert solver.pivots == {1: ({0: 1}, {}, 1)}
    assert solver.solution() == {}


# -- decompose against the full (product x parameter monomial) system ----------
#
# The reference builds one column per (product, parameter monomial) pair, in
# sorted pair order, and one row per (derivative, exponents) of the products
# times the columns' monomials, read modulo p^2 = p when asked; it eliminates
# over Fraction in the row order (|a|, a, |e|, e) from the largest down, with
# the largest column of the reduced row as pivot and a fully reduced basis.
# It shares no assembly or elimination code with decompose.


def _fraction_rref(rows):
    """(pivot cols in creation order, contradictions, solution) of sparse
    Fraction rows [(coeffs, rhs)]."""
    basis, contradictions = {}, 0  # pivot col -> (row without the pivot, rhs)
    for coeffs, rhs in rows:
        vec = dict(coeffs)
        for pc in [c for c in vec if c in basis]:
            f = vec.pop(pc)
            prow, prhs = basis[pc]
            for c, v in prow.items():
                nv = vec.get(c, 0) - f * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
            rhs -= f * prhs
        if not vec:
            contradictions += rhs != 0
            continue
        pc = max(vec)
        inv = 1 / vec.pop(pc)
        prow, prhs = {c: v * inv for c, v in vec.items()}, rhs * inv
        for oc, (orow, orhs) in basis.items():
            f = orow.pop(pc, 0)
            if f:
                for c, v in prow.items():
                    nv = orow.get(c, 0) - f * v
                    if nv:
                        orow[c] = nv
                    else:
                        orow.pop(c, None)
                basis[oc] = (orow, orhs - f * prhs)
        basis[pc] = (prow, prhs)
    return list(basis), contradictions, {pc: rhs for pc, (_, rhs) in basis.items()}


def _full_system_solve(target, gens, ops, param_bound, idempotent_p):
    """(rank, consistent, {names: {exponents: Fraction}}, distinct rows once
    mu and p are dropped) of target over the (product, mu^i p^j) columns, each
    product's power of beta fixed by GRADING."""
    from weylcalc.coulomb2d import GRADING
    from weylcalc.linsolve import op_weight

    ibeta, imu, ip = (RU.index_of(s) for s in ("beta", "mu", "p"))
    w_target = op_weight(target, GRADING)
    gen_w = [op_weight(op, GRADING) for _, op in gens]
    caps = (param_bound, 1 if idempotent_p else param_bound)
    pmonos = [
        (i, j) for i in range(caps[0] + 1) for j in range(caps[1] + 1) if i + j <= param_bound
    ]

    def clamp(e):
        return e[:ip] + (min(e[ip], 1),) + e[ip + 1:] if idempotent_p else e

    columns, rows = [], {}
    for mono in sorted(ops):
        gpow = sum(gen_w[i] for i in mono) - w_target
        if gpow < 0 or ops[mono].is_zero():
            continue
        for i, j in sorted(pmonos):
            col = len(columns)
            cexp = [0] * RU.nsyms
            cexp[ibeta], cexp[imu], cexp[ip] = gpow, i, j
            columns.append((mono, tuple(cexp)))
            for a, c in ops[mono].terms.items():
                for e, v in c.as_poly().terms.items():
                    key = (a, clamp(tuple(x + y for x, y in zip(e, cexp))))
                    row = rows.setdefault(key, [{}, 0])
                    row[0][col] = row[0].get(col, 0) + v
    for a, c in target.terms.items():
        for e, v in c.as_poly().terms.items():
            rows.setdefault((a, clamp(e)), [{}, 0])[1] += v
    order = sorted(rows, key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]), reverse=True)
    pivots, contradictions, solution = _fraction_rref(
        [({c: v for c, v in rows[k][0].items() if v}, rows[k][1]) for k in order]
    )
    coefficients = {}
    for col, value in solution.items():
        if value:
            mono, cexp = columns[col]
            coefficients.setdefault(tuple(gens[i][0] for i in mono), {})[cexp] = value
    dropped = {(a, tuple(0 if i in (imu, ip) else x for i, x in enumerate(e))) for a, e in rows}
    return len(pivots), not contradictions, coefficients, len(dropped)


@pytest.mark.parametrize("name", ["h_a", "l_a"])
@pytest.mark.parametrize("idempotents", [(), ("p",)])
def test_g2_solves_match_the_full_system(name, idempotents, monkeypatch):
    # at mark 0 the products carry no mu or p, so decompose solves one
    # product matrix with a right-hand side per parameter monomial; its rank,
    # verdict and coefficients are those of the full system, and the solver
    # takes one row per distinct (derivative, exponents without mu and p)
    from weylcalc import coulomb2d
    from weylcalc.coulomb2d import GRADING
    from weylcalc.g2algebra import LOWERING_GL2, generator_set

    target = getattr(coulomb2d, name)()
    gens = generator_set(0, LOWERING_GL2)
    ops = monomial_ops(gens, 2)
    added = []
    add = SparseSolver.add
    monkeypatch.setattr(SparseSolver, "add", lambda self, *a: added.append(1) or add(self, *a))
    dec = decompose(target, gens, ops, params=("mu", "p"), param_bound=4, weights=GRADING,
                    idempotents=idempotents)
    rank, consistent, coefficients, rows = _full_system_solve(
        target, gens, ops, 4, bool(idempotents)
    )
    assert dec.rank == rank
    assert dec.success == consistent
    assert dec.success
    got = {}
    for names, poly in dec.coefficients.items():
        got[names] = dict(poly.terms)
    assert got == coefficients
    assert len(added) == rows


def test_parameter_monomial_past_the_bound_is_out_of_reach():
    # J1 and R1 carry no mu, so mu^k rides on the right-hand side; a term
    # with mu^2 past param_bound 1 reaches no block, and the solve fails as
    # a column-less row does, with the base target's rank
    weights = {"r": 1, "u": 2, "beta": -1}
    beta, mu = RU.var("beta"), RU.var("mu")
    gens = [("J1", _J1()), ("R1", _R1())]
    ops = monomial_ops(gens, 2)
    solve = dict(params=("mu",), param_bound=1, weights=weights)
    base = _J1().compose(_J1()) + _R1().scale(Expr.of_poly(beta * mu))
    ok = decompose(base, gens, ops, **solve)
    assert ok.success, ok.message
    assert ok.coefficient_strings() == {"J1*J1": "1", "R1": "beta*mu"}
    target = base + _R1().scale(Expr.of_poly(beta * mu * mu))
    dec = decompose(target, gens, ops, **solve)
    assert not dec.success
    assert dec.message == "no decomposition within degree bound 2 / parameter bound 1"
    assert dec.rank == ok.rank
    assert dec.residual is target
    assert dec.coefficients == {}
