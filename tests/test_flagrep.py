"""Weighted polynomial flag: invariance, matrices, spectra, eigenbases,
and the finite-dimensional equality oracle."""

import random
from fractions import Fraction

import pytest
from randops import random_op

from weylcalc.coulomb2d import h_a
from weylcalc.flagrep import (
    DEFAULT_POINT,
    EigenvalueCollision,
    FlagError,
    MonomialBasis,
    char_poly,
    eigenpolynomials,
    equality_oracle,
    flag_dim,
    is_invariant,
    level_eigenvalue,
    matrix_of,
    verify_spectrum,
)
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import DiffOp, format_op, mul_op, partial

REPS = 1000


def test_flag_dimensions():
    assert [flag_dim(n) for n in range(9)] == [1, 2, 4, 6, 9, 12, 16, 20, 25]
    assert flag_dim(5) == 12
    assert flag_dim(8) == 25


def test_flag_basis_is_weight_graded():
    pairs = MonomialBasis(3).pairs
    assert pairs == ((0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1))
    for n in range(9):
        basis = MonomialBasis(n).pairs
        assert len(basis) == flag_dim(n)
        assert all(a + 2 * b <= n for a, b in basis)
        weights = [a + 2 * b for a, b in basis]
        assert weights == sorted(weights)


def test_invariance_positive_and_negative():
    ok, _ = is_invariant(h_a(), 4)
    assert ok
    # lowering the weight keeps the flag invariant
    lower = mul_op(RU_SPEC, RU.var("r")).compose(partial(RU_SPEC, "u"))
    ok, _ = is_invariant(lower, 5)
    assert ok
    # multiplying by r raises the weight and escapes
    raiser = mul_op(RU_SPEC, RU.var("r"))
    ok, witness = is_invariant(raiser, 3)
    assert not ok
    assert witness, "a failed invariance check must name an escaping monomial"


def test_matrix_on_first_level():
    m = matrix_of(h_a(), 1)
    assert m.dim == 2
    beta, mu, p = RU.var("beta"), RU.var("mu"), RU.var("p")
    one = RU.one()
    assert m.entries[0][0] == beta * (mu + p + one)
    assert m.entries[0][1] == -(mu + p + one)
    assert m.entries[1][0] == RU.zero()
    assert m.entries[1][1] == beta * (mu + p + one * 2)


def test_char_poly_factors_over_levels():
    lam = RU.var("lam")
    for n in (1, 2, 3):
        cp = char_poly(matrix_of(h_a(), n))
        want = RU.one()
        for k in range(n + 1):
            factor = lam - level_eigenvalue(k)
            for _ in range(k // 2 + 1):
                want = want * factor
        assert cp == want, "characteristic polynomial mismatch at n=%d" % n


def test_level_eigenvalue_formula():
    beta, mu, p = RU.var("beta"), RU.var("mu"), RU.var("p")
    for k in range(6):
        want = beta * (mu + p + RU.const(k + 1))
        assert level_eigenvalue(k) == want


def test_spectrum_reports():
    for n in range(5):
        rep = verify_spectrum(n)
        assert rep.ok
        assert rep.dim == flag_dim(n)


def test_eigenpolynomials_simple_point():
    point = {"beta": Fraction(1), "mu": Fraction(0), "p": Fraction(0)}
    ground = eigenpolynomials(1, 0, point)
    excited = eigenpolynomials(1, 1, point)
    assert [str(q) for q in ground] == ["1"]
    assert [str(q) for q in excited] == ["r - 1"]


def test_eigenpolynomials_are_eigenvectors():
    n = 4
    op = h_a().substitute({k: RU.const(v) for k, v in DEFAULT_POINT.items()})
    total = 0
    for k in range(n + 1):
        lam = level_eigenvalue(k).evaluate(DEFAULT_POINT)
        for q in eigenpolynomials(n, k, DEFAULT_POINT):
            image = op.apply(Expr_of(q))
            assert (image - Expr_of(q * lam)).is_zero()
            total += 1
    assert total == flag_dim(n)


def Expr_of(poly):
    from weylcalc.coeffring import Expr

    return Expr.of_poly(poly)


def test_eigenvalue_collision_guard():
    degenerate = {"beta": Fraction(0), "mu": Fraction(0), "p": Fraction(0)}
    with pytest.raises(EigenvalueCollision):
        eigenpolynomials(2, 1, degenerate)


def test_matrix_requires_invariance():
    with pytest.raises(FlagError):
        matrix_of(mul_op(RU_SPEC, RU.var("r")), 2)


def test_equality_oracle_agrees_with_term_maps():
    rng = random.Random(2002)
    agree = disagree = 0
    for _ in range(REPS):
        a = random_op(rng)
        b = a if rng.random() < 0.5 else a + random_op(rng)
        exact = (a - b).is_zero()
        probed = equality_oracle(a, b, 8)
        assert probed == exact, "oracle disagrees:\nA=%s\nB=%s" % (format_op(a), format_op(b))
        if exact:
            agree += 1
        else:
            disagree += 1
    assert agree > 100 and disagree > 100, "the sample must exercise both outcomes"


def test_equality_oracle_never_subtracts_operators(monkeypatch):
    # an equal pair must be settled by the probe, not by a - b normal-ordering to zero
    a = h_a().compose(mul_op(RU_SPEC, RU.var("u")))
    b = h_a().compose(mul_op(RU_SPEC, RU.var("u")))

    def refuse(self, other):
        raise AssertionError("the oracle subtracted the operators")

    monkeypatch.setattr(DiffOp, "__sub__", refuse)
    assert equality_oracle(a, b, 4)
    assert not equality_oracle(a, h_a(), 4)
