"""The verdict policy: pass/fail results, residual checks, and merged
component results, on both their passing and their failing paths."""

from weylcalc.coeffring import Expr
from weylcalc.reports import WITNESS_CAP, merge_checks, residual_check, verdict
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import mul_op, partial


def test_verdict_counts_residual_terms_on_failure_only():
    ok = verdict("x", True, ["why it holds"], 5)
    assert (ok.status, ok.residual_terms, ok.witnesses) == ("pass", 0, ["why it holds"])
    bad = verdict("x", False, ["why it fails"], 5)
    assert (bad.status, bad.residual_terms, bad.witnesses) == ("fail", 5, ["why it fails"])
    assert verdict("x", False).residual_terms == 1
    assert verdict("x", True).witnesses == []


def test_verdict_keeps_every_witness():
    # a parity failure lists a header line plus WITNESS_CAP residual terms
    lines = ["line %d" % i for i in range(WITNESS_CAP + 1)]
    res = verdict("x", False, lines, 3)
    assert res.witnesses == lines
    assert len(res.witnesses) == 9


def test_residual_check_caps_printed_terms():
    r, u = RU.var("r"), RU.var("u")
    big = Expr.of_poly(sum((r ** k for k in range(1, 13)), u))
    res = residual_check("x", big, ["extra"])
    assert (res.status, res.residual_terms) == ("fail", 13)
    assert res.witnesses == ["extra"] + ["1*r^%d" % k for k in range(12, 5, -1)]
    assert len(res.witnesses) == WITNESS_CAP
    op = residual_check("y", mul_op(RU_SPEC, big).compose(partial(RU_SPEC, "r")))
    assert (op.status, op.residual_terms) == ("fail", 1)
    assert op.witnesses == ["(%s)*D[r]" % big]
    zero = residual_check("z", big - big, ["extra"])
    assert (zero.status, zero.residual_terms, zero.witnesses) == ("pass", 0, ["extra"])


def test_merge_checks_failure_lists_failing_parts_and_ignores_summary():
    parts = [
        verdict("a[0]", True, ["a passing part's witness is not shown"]),
        verdict("a[1]", False, ["first", "second", "third"], 3),
        verdict("a[2]", False, [], 2),
    ]
    merged = merge_checks("a", parts, ["summary shown only on a pass"])
    assert merged.check == "a"
    assert merged.status == "fail"
    assert merged.residual_terms == 5
    assert merged.witnesses == ["a[1]: first", "a[1]: second", "a[2]: fail"]


def test_merge_checks_pass_carries_the_summary():
    parts = [verdict("a[0]", True, ["not shown"]), verdict("a[1]", True)]
    merged = merge_checks("a", parts, ["all parts hold", "on P_0..P_8"])
    assert (merged.status, merged.residual_terms) == ("pass", 0)
    assert merged.witnesses == ["all parts hold", "on P_0..P_8"]
    assert merge_checks("a", parts).witnesses == []
