"""The eleven-generator operator algebra: flag action, closure of the
first-order subset, grading obstructions, and enveloping-algebra rewrites."""

from fractions import Fraction
from itertools import combinations

from weylcalc import g2algebra
from weylcalc.coeffring import Expr
from weylcalc.coulomb2d import b_a, c_op, h_a, l_a
from weylcalc.flagrep import invariance_witnesses
from weylcalc.g2algebra import (
    ALL_GENERATORS,
    LOWERING_GL2,
    RAISING,
    decompose_family,
    generator,
    generator_set,
    lie_form_h,
    lie_form_l,
    sl2_set,
    structure_table,
    u_excess,
    verify_closure,
    verify_decompositions,
    verify_flag,
    verify_lie_forms,
)
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import format_op, identity, mul_op, partial


def test_generator_roster():
    assert LOWERING_GL2 == ("J0t", "J1", "J2", "J3", "J4", "R0", "R1", "R2")
    assert RAISING == ("T0", "T1", "T2")
    assert ALL_GENERATORS == LOWERING_GL2 + RAISING


def test_generator_shapes():
    n = RU.var("n")
    r, u = RU.var("r"), RU.var("u")
    euler = (
        mul_op(RU_SPEC, r).compose(partial(RU_SPEC, "r"))
        + mul_op(RU_SPEC, u * 2).compose(partial(RU_SPEC, "u"))
        - identity(RU_SPEC).scale(Expr.of_poly(n))
    )
    assert (generator("J0t") - euler).is_zero()
    assert (generator("J1") - partial(RU_SPEC, "r")).is_zero()
    assert (generator("J4") - mul_op(RU_SPEC, r).compose(euler)).is_zero()
    assert (generator("R2") - mul_op(RU_SPEC, r * r).compose(partial(RU_SPEC, "u"))).is_zero()
    assert (generator("T0") - mul_op(RU_SPEC, u).compose(partial(RU_SPEC, "r", 2))).is_zero()
    # fixing the mark substitutes the parameter
    assert (generator("J0t", Fraction(3)) - euler.substitute({"n": RU.const(3)})).is_zero()


def test_flag_invariance_of_all_generators():
    [res] = verify_flag()
    assert res.passed, res.witnesses
    # spot check: every generator at mark n preserves the level-n space
    for name in ALL_GENERATORS:
        witness = invariance_witnesses(generator(name, Fraction(3)), 3)[3]
        assert witness is None, "%s at mark 3 must preserve level 3" % name
    # and a mismatched mark escapes
    witness = invariance_witnesses(generator("J4", Fraction(0)), 2)[2]
    assert witness is not None and witness


def test_first_order_subset_closes_linearly():
    res = {c.check: c for c in verify_closure()}
    assert res["g2.closure.gl2"].passed
    assert res["g2.closure.sl2"].passed
    assert res["g2.nonclosure.T"].passed
    table = structure_table()
    assert len(table) == len(LOWERING_GL2) * (len(LOWERING_GL2) - 1) // 2
    for (a, b), dec in table.items():
        assert dec.success, "[%s,%s] fails to close: %s" % (a, b, dec.message)


def test_structure_constants_spot_checks():
    gens = dict(generator_set())
    n = RU.var("n")
    # [J0t, J1] = -J1 ; [J0t, R0] = -2 R0 ; [J1, R1] = R0... no: [d_r, r d_u] = d_u
    assert (gens["J0t"].commutator(gens["J1"]) + gens["J1"]).is_zero()
    assert (gens["J0t"].commutator(gens["R0"]) + gens["R0"].scale(Fraction(2))).is_zero()
    assert (gens["J1"].commutator(gens["R1"]) - gens["R0"]).is_zero()
    # [J1, J4] = J0t + J2 + (n/3) 1
    want = gens["J0t"] + gens["J2"] + identity(RU_SPEC).scale(
        Expr.of_poly(n) * Expr.make(RU.one(), RU.const(3))
    )
    assert (gens["J1"].commutator(gens["J4"]) - want).is_zero()


def test_jacobi_on_every_first_order_triple():
    gens = dict(generator_set(names=LOWERING_GL2))
    names = list(LOWERING_GL2)
    count = 0
    for a, b, c in combinations(names, 3):
        A, B, C = gens[a], gens[b], gens[c]
        total = (
            A.commutator(B.commutator(C))
            + B.commutator(C.commutator(A))
            + C.commutator(A.commutator(B))
        )
        assert total.is_zero(), "Jacobi fails on (%s, %s, %s)" % (a, b, c)
        count += 1
    assert count == 56


def test_single_variable_action_is_sl2():
    trip = dict(sl2_set())
    jp, j0, jm = trip["J+"], trip["J0"], trip["J-"]
    assert (jp.commutator(jm) + j0).is_zero()
    assert (jp.commutator(j0) + jp.scale(Fraction(2))).is_zero()
    assert (j0.commutator(jm) + jm.scale(Fraction(2))).is_zero()


def test_lie_forms_match_integrals_exactly():
    for res in verify_lie_forms():
        assert res.passed, "%s: %s" % (res.check, res.witnesses)
    assert (lie_form_h() - h_a()).is_zero()
    assert (lie_form_l() - l_a()).is_zero()


def test_raising_excess_bookkeeping():
    # the weight excess counts coefficient u powers minus u-derivatives
    assert u_excess(generator("R0"))[0] == -1
    assert u_excess(generator("J1"))[0] == 0
    assert u_excess(generator("J4"))[0] == 0
    assert u_excess(generator("T0"))[0] == 1
    assert u_excess(generator("T2"))[0] == 1
    # every first-order generator stays at excess <= 0
    for name in LOWERING_GL2:
        assert u_excess(generator(name))[0] <= 0, name
    # composition never raises the total excess
    gens = dict(generator_set())
    for a in ALL_GENERATORS:
        for b in ALL_GENERATORS:
            ea = u_excess(gens[a])[0]
            eb = u_excess(gens[b])[0]
            prod = gens[a].compose(gens[b])
            if prod.is_zero():
                continue
            assert u_excess(prod)[0] <= ea + eb, "(%s, %s)" % (a, b)


def test_targets_carry_positive_excess():
    excess, witness = u_excess(b_a())
    assert excess == 1
    assert "u^1" in witness and "D[r]^4" in witness
    assert u_excess(c_op())[0] == 1
    assert u_excess(h_a())[0] <= 0
    assert u_excess(l_a())[0] <= 0


def test_excess_witness_ignores_term_insertion_order():
    # the same operator with its derivatives and each coefficient's terms
    # inserted in reverse order gives the same excess and the same witness
    from weylcalc.coeffring import MultiPoly
    from weylcalc.weyl import DiffOp

    def reversed_terms(op):
        out = DiffOp(op.spec)
        for a, c in reversed(list(op.terms.items())):
            terms = dict(reversed(list(c.num.terms.items())))
            out.terms[a] = Expr(MultiPoly(RU, terms), c.den, _trusted=True)
        return out

    for op in (b_a(), c_op(), generator("T2"), b_a().compose(c_op())):
        flipped = reversed_terms(op)
        assert flipped == op
        assert list(flipped.terms) != list(op.terms)
        assert u_excess(flipped) == u_excess(op)


def test_decompositions_and_their_limits():
    res = {c.check: c for c in verify_decompositions()}
    for name in ("g2.decompose.h", "g2.decompose.l", "g2.decompose.b", "g2.decompose.c"):
        assert res[name].passed, "%s: %s" % (name, res[name].witnesses)
    for name in ("g2.decompose.b.gl2", "g2.decompose.c.gl2"):
        assert not res[name].passed
        assert any("provably infeasible at every degree" in w for w in res[name].witnesses), (
            "the impossibility argument must be part of the report: %s"
            % res[name].witnesses
        )


def test_infeasibility_argument_needs_its_premise(monkeypatch):
    # the every-degree line rests on each first-order generator having
    # u-excess <= 0; a generator reporting a positive excess drops it and
    # leaves the degree-4 verdict as it was
    true_excess = g2algebra.u_excess
    j1 = generator("J1", 0)

    def excess(op):
        return (1, "J1 term") if op == j1 else true_excess(op)

    monkeypatch.setattr(g2algebra, "u_excess", excess)
    # the uncached function, so the cached verdicts stay as they were
    res = {c.check: c for c in verify_decompositions.__wrapped__()}
    for name in ("g2.decompose.b.gl2", "g2.decompose.c.gl2"):
        assert not res[name].passed
        assert len(res[name].witnesses) == 1
        assert res[name].witnesses[0].startswith("infeasible at degree 4: ")


def test_quadratic_family_rebuilds_h():
    dec = decompose_family("h")
    assert dec.success
    table = dec.coefficient_strings()
    assert table["J1*J2"] == "-1/2"
    assert table["J1*J3"] == "-1"
    assert table["J3*R1"] == "-1"
