"""Exact linear decomposition over ordered generator monomials, with and
without idempotent parameter quotients."""

from fractions import Fraction

from weylcalc.coeffring import Expr
from weylcalc.linsolve import decompose, idempotent_reduce, monomial_ops
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
