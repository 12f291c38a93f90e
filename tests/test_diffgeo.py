"""Cometrics, Laplace-Beltrami operators, and exact scalar curvature."""

import random

import pytest

from weylcalc import diffgeo
from weylcalc.coeffring import CoeffRingError, Expr, PolyRing
from weylcalc.diffgeo import (
    DiffGeoError,
    brioschi_curvature,
    cometric_from_embedding,
    cylindrical_cometric,
    effective_potential,
    invert_and_det,
    laplace_beltrami,
    radial_parabolic_cometric,
    scalar_curvature,
    sphere_polar_metric,
    verify_geometry,
    verify_schrodinger_form,
)
from weylcalc.spaces import AMB, RRP, RRP_SPEC, RU, RU_SPEC
from weylcalc.weyl import VariableSpec, format_op


def test_cylindrical_cometric_entries():
    g = cylindrical_cometric()
    assert g.dim == 3
    r, rho = RRP.var("r"), RRP.var("rho")
    one = Expr.of_poly(RRP.one())
    assert (g.entry(0, 0) - one).is_zero()
    assert (g.entry(0, 1) - Expr.make(rho, r)).is_zero()
    assert (g.entry(1, 0) - g.entry(0, 1)).is_zero()
    assert (g.entry(1, 1) - one).is_zero()
    assert g.entry(0, 2).is_zero() and g.entry(2, 0).is_zero()
    assert (g.entry(2, 2) - Expr.make(RRP.one(), rho * rho)).is_zero()


def test_cylindrical_laplacian():
    lap = laplace_beltrami(cylindrical_cometric())
    assert format_op(lap) == (
        "D[r]^2 + (2*rho/r)*D[r]*D[rho] + D[rho]^2 + (1/rho^2)*D[phi]^2"
        " + (2/r)*D[r] + (1/rho)*D[rho]"
    )


def test_laplacian_principal_symbol_matches_cometric():
    g = cylindrical_cometric()
    lap = laplace_beltrami(g)
    # coefficient of D[i]D[j] is g^ij for i != j, g^ii on the diagonal
    assert (lap.coefficient((2, 0, 0)) - g.entry(0, 0)).is_zero()
    assert (lap.coefficient((1, 1, 0)) - g.entry(0, 1) * 2).is_zero()
    assert (lap.coefficient((0, 0, 2)) - g.entry(2, 2)).is_zero()


def test_displayed_matrix_entries():
    g = radial_parabolic_cometric()
    assert g.dim == 2
    r, u = RU.var("r"), RU.var("u")
    half_r = Expr.of_poly(r) * Expr.make(RU.one(), RU.const(2))
    assert (g.entry(0, 0) - half_r).is_zero()
    assert (g.entry(0, 1) - Expr.of_poly(u)).is_zero()
    assert (g.entry(1, 1) - Expr.of_poly(r * u * 2)).is_zero()


def test_determinant_and_inverse():
    g = radial_parabolic_cometric()
    inv, det = invert_and_det(g.entries)
    r, u = RU.var("r"), RU.var("u")
    sep = r * r - u
    assert (det - Expr.of_poly(u * sep)).is_zero()
    assert (inv[0][0] - Expr.make(r * 2, sep)).is_zero()
    assert (inv[0][1] - Expr.make(-RU.one(), sep)).is_zero()
    assert (inv[1][0] - inv[0][1]).is_zero()
    assert (inv[1][1] - Expr.make(r, u * sep * 2)).is_zero()
    # inverse really is the two-sided inverse
    for i in range(2):
        for j in range(2):
            acc = None
            for k in range(2):
                term = g.entry(i, k) * inv[k][j]
                acc = term if acc is None else acc + term
            want = Expr.of_poly(RU.one()) if i == j else Expr.of_poly(RU.zero())
            assert (acc - want).is_zero()


def test_inverse_only_for_two_by_two():
    # every metric that is inverted is 2x2 and every determinant 2x2 or 3x3;
    # other sizes are refused
    one = Expr.of_poly(RU.one())
    zero = Expr.of_poly(RU.zero())
    for n in (1, 3):
        identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
        with pytest.raises(DiffGeoError):
            invert_and_det(identity)
    line = PolyRing(("c",))
    chart = VariableSpec(line, ("c",))
    with pytest.raises(DiffGeoError):
        laplace_beltrami(diffgeo.CoMetric(spec=chart, entries=[[Expr.of_poly(line.one())]]))


def test_cometric_entries_must_match_the_chart():
    # a 3x3 matrix on the two-variable (r, u) chart, or a ragged one, is
    # refused when the cometric is built, not read in part later
    one = Expr.of_poly(RU.one())
    zero = Expr.of_poly(RU.zero())
    identity3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
    for entries in (identity3, [[one, zero], [zero]], [[one, zero]]):
        with pytest.raises(DiffGeoError, match="2 rows of 2 entries"):
            diffgeo.CoMetric(spec=RU_SPEC, entries=entries)
    assert diffgeo.CoMetric(spec=RU_SPEC, entries=[[one, zero], [zero, one]]).dim == 2


def test_scalar_curvature_two_readings():
    g = radial_parabolic_cometric()
    rows = [[g.entry(i, j) for j in range(2)] for i in range(2)]
    r, u = RU.var("r"), RU.var("u")
    sep = r * r - u
    # the displayed matrix taken as the metric
    printed = scalar_curvature(rows, RU_SPEC)
    want = Expr.make(r * (u * 4 - RU.one()), u * sep * sep * 2)
    assert (printed - want).is_zero()
    # the geometry whose cometric is the displayed matrix is flat
    inv, _ = invert_and_det(g.entries)
    assert scalar_curvature(inv, RU_SPEC).is_zero()


def test_unit_sphere_curvature_sign():
    metric, spec = sphere_polar_metric()
    assert str(scalar_curvature(metric, spec)) == "2"


def test_brioschi_agrees_with_christoffel_route():
    rng = random.Random(3003)
    from fractions import Fraction

    r, u = RU.var("r"), RU.var("u")

    def entry():
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        return Expr.of_poly(RU.const(c) + r * a + u * b)

    zero = Expr.of_poly(RU.zero())
    for _ in range(40):
        f, g = entry(), entry()
        rows = [[f, zero], [zero, g]]
        lhs = scalar_curvature(rows, RU_SPEC)
        rhs = brioschi_curvature(rows, RU_SPEC)
        assert (lhs - rhs).is_zero(), "curvature routes disagree for diag(%s, %s)" % (f, g)


def test_effective_potential():
    r, u, beta, mu = (RU.var(s) for s in ("r", "u", "beta", "mu"))
    want = Expr.of_poly(r * beta * beta) * Expr.make(RU.one(), RU.const(2)) + Expr.make(
        r * (mu * mu * 4 - RU.one()), u * 8
    )
    assert (effective_potential() - want).is_zero()


def test_geometry_checks_pass():
    for res in verify_geometry():
        assert res.passed, "%s: %s" % (res.check, res.witnesses)


def _curvature_check():
    return next(r for r in verify_geometry() if r.check == "geom.curvature")


def test_disagreeing_brioschi_fails_curvature(monkeypatch):
    flat = "matrix read as the metric; the inverse-cometric geometry has R = 0"
    monkeypatch.setattr(diffgeo, "brioschi_curvature", lambda metric, spec: Expr.of_poly(RU.zero()))
    ck = _curvature_check()
    # the printed value is reproduced: Brioschi alone fails the check
    assert (ck.status, ck.residual_terms) == ("fail", 0)
    assert ck.witnesses == ["Brioschi formula disagrees: 0", flat]
    # a wrong printed value counts its residual terms and lists them first
    shifted = diffgeo.reference_scalar_curvature() + Expr.of_poly(RU.var("r") * 3 + RU.var("u"))
    monkeypatch.setattr(diffgeo, "reference_scalar_curvature", lambda: shifted)
    ck = _curvature_check()
    assert (ck.status, ck.residual_terms) == ("fail", 2)
    assert ck.witnesses == ["-3*r", "-1*u", "Brioschi formula disagrees: 0", flat]


def test_schrodinger_form_check():
    [res] = verify_schrodinger_form()
    assert res.passed
    assert any("p^2" in w for w in res.witnesses), (
        "the symbolic-parity defect should be announced: %s" % res.witnesses
    )


def test_embedding_data_from_another_ring_is_rejected():
    r, rho = Expr.of_poly(AMB.var("r")), Expr.of_poly(AMB.var("rho"))
    zero = Expr.of_poly(AMB.zero())
    foreign = RRP.var("phi")
    for phi in (foreign, Expr.of_poly(foreign), (zero, zero, foreign)):
        with pytest.raises(CoeffRingError):
            cometric_from_embedding([("r", r), ("rho", rho), ("phi", phi)], RRP_SPEC)
