"""Two-variable algebraic operators: the derivation pipeline, integrals of
motion, the order-5 commutator, and the cubic closure of the integral algebra."""

from fractions import Fraction

import pytest

from weylcalc import coulomb2d, linsolve
from weylcalc.coeffring import Expr
from weylcalc.coulomb2d import (
    b_a,
    c_op,
    cubic_solves,
    derive_h_pipeline,
    h_a,
    l_a,
    parity_solve,
    pipeline_operator,
    relate_h_ha,
    verify_c,
    verify_cubic,
    verify_integrals,
)
from weylcalc.flagrep import invariance_witnesses
from weylcalc.linsolve import idempotent_reduce_op, monomial_ops
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import format_op, partial


def test_pipeline_reproduces_algebraic_operator():
    for res in derive_h_pipeline():
        assert res.passed, "%s failed: %s" % (res.check, res.witnesses)
    for parity in (0, 1):
        # the projected operator lives on the two-variable separated chart
        assert pipeline_operator(parity).spec.space == ("r", "rho")


def test_pipeline_rejects_other_parities():
    with pytest.raises(ValueError):
        pipeline_operator(2)


def test_h_relates_to_separated_form():
    [res] = relate_h_ha()
    assert res.passed, res.witnesses


def test_operators_are_polynomial_and_flag_invariant():
    for name, op in (("h_a", h_a()), ("l_a", l_a()), ("b_a", b_a()), ("c", c_op())):
        assert op.is_polynomial(), "%s must have polynomial coefficients" % name
        witnesses = invariance_witnesses(op, 5)
        for n in (0, 1, 2, 3, 5):
            witness = witnesses[n]
            assert witness is None, "%s does not preserve level %d: %s" % (name, n, witness)


def test_operator_orders():
    assert h_a().order() == 2
    assert l_a().order() == 2
    assert b_a().order() == 4
    assert c_op().order() == 5


def test_integral_commutators():
    results = {res.check: res for res in verify_integrals()}
    assert set(results) == {"2d.comm.hl", "2d.comm.hb", "2d.comm.hc"}
    for res in results.values():
        assert res.passed, "%s: %s" % (res.check, res.witnesses)
    # the angular integral commutes identically in all parameters
    assert not any("modulo" in w for w in results["2d.comm.hl"].witnesses)
    # the other two hold on the two parity slices and the report says so
    for name in ("2d.comm.hb", "2d.comm.hc"):
        assert any("p^2 - p" in w for w in results[name].witnesses), (
            "%s must announce the parity quotient" % name
        )


def test_parity_slices_commute_exactly():
    h = h_a()
    for target in (b_a(), c_op()):
        residual = h.commutator(target)
        assert not residual.is_zero()
        assert idempotent_reduce_op(residual, ("p",)).is_zero()
        for parity in (0, 1):
            fixed = residual.substitute({"p": RU.const(parity)})
            assert fixed.is_zero(), "residual survives at parity %d" % parity


def test_c_order_and_leading_terms():
    by_name = {res.check: res for res in verify_c()}
    assert by_name["2d.c.order"].passed
    assert by_name["2d.c.leading"].passed
    assert (c_op() - b_a().commutator(l_a())).is_zero()


def test_cubic_closure_solves_and_printed_tables_differ():
    by_name = {res.check: res for res in verify_cubic()}
    for name in ("2d.cubic.l.solve", "2d.cubic.b.solve"):
        res = by_name[name]
        assert res.passed, "%s: %s" % (name, res.witnesses)
        assert any("full column rank" in w for w in res.witnesses), (
            "uniqueness of the quotient solution should be reported"
        )
    for name in ("2d.cubic.l.printed", "2d.cubic.b.printed"):
        res = by_name[name]
        assert not res.passed, "%s unexpectedly matched" % name
        assert res.residual_terms > 0
        assert res.witnesses, "per-term discrepancies must be listed"


def test_cubic_decompositions_rebuild_targets():
    # the decompositions of the same cached solve that verify_cubic reports
    decs = {tag: dec for tag, (_, dec, _) in cubic_solves().items()}
    assert set(decs) == {"l", "b"}
    for tag, dec in decs.items():
        assert dec.success
        assert dec.residual is not None and dec.residual.is_zero()


def test_parity_solve_falls_back_to_the_quotient_only_when_needed(monkeypatch):
    gens = [("J1", partial(RU_SPEC, "r"))]
    ops = monomial_ops(gens, 1)

    def refuse(*args):
        raise AssertionError("the solve rebuilt the generator products")

    monkeypatch.setattr(linsolve, "monomial_ops", refuse)
    monkeypatch.setattr(coulomb2d, "monomial_ops", refuse)
    p = RU.var("p")
    dec, note = parity_solve(gens[0][1].scale(Expr.of_poly(p ** 2)), gens, ops, "p^2 J1")
    assert dec.success, dec.message
    assert note == "coefficients polynomial in (beta, mu, p)"
    assert dec.coefficient_strings() == {"J1": "p^2"}
    # p^5 is past the parameter bound 4, so only the quotient by p^2 - p solves it
    dec, note = parity_solve(gens[0][1].scale(Expr.of_poly(p ** 5)), gens, ops, "p^5 J1")
    assert dec.success, dec.message
    assert note == "no solution with symbolic p; solved modulo p^2 - p (parities p=0,1)"
    assert dec.coefficient_strings() == {"J1": "p"}


def test_disagreeing_flag_oracle_fails_hl_with_no_residual(monkeypatch):
    monkeypatch.setattr(coulomb2d, "equality_oracle", lambda a, b, bound: False)
    hl = next(r for r in verify_integrals() if r.check == "2d.comm.hl")
    # the exact residual vanished: the oracle alone fails the check
    assert (hl.status, hl.residual_terms, hl.witnesses) == ("fail", 0, ["flag oracle disagrees"])
