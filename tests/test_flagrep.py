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
    ground = eigenpolynomials(1, point)[0]
    excited = eigenpolynomials(1, point)[1]
    assert [str(q) for q in ground] == ["1"]
    assert [str(q) for q in excited] == ["r - 1"]


def test_eigenpolynomials_are_eigenvectors():
    n = 4
    op = h_a().substitute({k: RU.const(v) for k, v in DEFAULT_POINT.items()})
    total = 0
    for k in range(n + 1):
        lam = level_eigenvalue(k).evaluate(DEFAULT_POINT)
        for q in eigenpolynomials(n, DEFAULT_POINT)[k]:
            image = op.apply(Expr_of(q))
            assert (image - Expr_of(q * lam)).is_zero()
            total += 1
    assert total == flag_dim(n)


def Expr_of(poly):
    from weylcalc.coeffring import Expr

    return Expr.of_poly(poly)


def _dense_rref_eigenbasis(matrix, lam, point):
    """Level eigenpolynomials from a dense Fraction RREF written here, which
    shares no elimination code with weylcalc: leftmost pivots, one vector
    per free column in increasing order, leading coefficient 1."""
    rows = []
    for i, row in enumerate(matrix.entries):
        vals = []
        for j, e in enumerate(row):
            v = e.evaluate(point)
            if i == j:
                v = v - lam
            assert not v.im
            vals.append(Fraction(v.re))
        rows.append(vals)
    dim = len(rows)
    pivots = []
    for c in range(dim):
        r = len(pivots)
        pr = next((i for i in range(r, dim) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    out = []
    for free in (c for c in range(dim) if c not in pivots):
        poly = matrix.basis.monomial(free)
        for row, c in zip(rows, pivots):
            poly = poly - matrix.basis.monomial(c) * row[free]
        _, lc = poly.leading()
        out.append(poly * (1 / Fraction(lc.re)))
    return out


def test_eigenpolynomials_match_dense_rref():
    points = [
        DEFAULT_POINT,
        {"beta": Fraction(3), "mu": Fraction(1, 2), "p": Fraction(0)},
        {"beta": Fraction(-2, 5), "mu": Fraction(7, 3), "p": Fraction(1)},
    ]
    widest = 0
    for point in points:
        for n in range(9):
            matrix = matrix_of(h_a(), n)
            levels = eigenpolynomials(n, point)
            assert len(levels) == n + 1
            for k, got in enumerate(levels):
                want = _dense_rref_eigenbasis(matrix, level_eigenvalue(k).evaluate(point), point)
                assert [str(q) for q in got] == [str(q) for q in want], (point, n, k)
                widest = max(widest, len(got))
    # multi-dimensional eigenspaces are where the pivot rule shows
    assert widest == 5


def test_one_application_per_basis_monomial(monkeypatch):
    op = h_a()
    calls = []
    apply = DiffOp.apply

    def counting(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(DiffOp, "apply", counting)
    for n in (0, 3, 8):
        calls.clear()
        matrix_of(op, n)
        assert len(calls) == flag_dim(n)
        calls.clear()
        eigenpolynomials(n, DEFAULT_POINT)
        assert len(calls) == flag_dim(n)


def test_eigenvalue_collision_guard():
    degenerate = {"beta": Fraction(0), "mu": Fraction(0), "p": Fraction(0)}
    with pytest.raises(EigenvalueCollision):
        eigenpolynomials(2, degenerate)[1]


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
