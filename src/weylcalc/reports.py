"""Uniform check reporting.

Every verification produces a CheckResult; the CLI serializes them as JSON.
The verdict policy lives here and nowhere else: verdict turns a yes/no
answer into a result (status "pass" or "fail", residual count 0 on a pass),
residual_check is the verdict that a residual operator or expression is
exactly zero, and merge_checks folds component results into one.  A residual
is reported through its nonzero term count plus a capped list of printed
witness terms, so a failure is diagnosable from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeffring import format_monomial

WITNESS_CAP = 8


@dataclass
class CheckResult:
    check: str
    status: str  # "pass" | "fail" | "error"
    residual_terms: int = 0
    witnesses: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "residual_terms": self.residual_terms,
            "witnesses": list(self.witnesses),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def witness_terms(op, cap: int = WITNESS_CAP) -> list:
    """Printed leading terms of a nonzero operator or expression."""
    from .weyl import DiffOp

    if isinstance(op, DiffOp):
        names = ["D[%s]" % v for v in op.spec.space]
        terms = [("(%s)" % c, a) for a, c in op.sorted_terms()[:cap]]
    else:  # Expr or MultiPoly
        num = getattr(op, "num", op)
        names = num.ring.symbols
        terms = [(str(c), e) for e, c in num.sorted_terms()[:cap]]
    out = []
    for c, e in terms:
        mono = format_monomial(names, e)
        out.append(c + "*" + mono if mono else c)
    return out


def verdict(check: str, ok: bool, witnesses=(), residual_terms: int = 1) -> CheckResult:
    """The result of a yes/no check: residual_terms counts on a failure only.

    Witnesses are kept as given, uncapped, on a pass too; a witness that
    explains only a failure is the caller's to leave out on a pass.
    """
    return CheckResult(
        check=check,
        status="pass" if ok else "fail",
        residual_terms=0 if ok else residual_terms,
        witnesses=list(witnesses),
    )


def residual_check(name: str, residual, witnesses_extra=()) -> CheckResult:
    """Pass iff the residual operator/expression is exactly zero."""
    terms = getattr(residual, "num", residual).terms
    wit = list(witnesses_extra)
    if terms:
        wit.extend(witness_terms(residual))
    return verdict(name, not terms, wit[:WITNESS_CAP], len(terms))


def merge_checks(name: str, parts: list, summary=()) -> CheckResult:
    """Combine component results into one: pass iff every part passes.

    A failure lists the first witnesses of each part that did not pass, as
    "label: witness" lines; a pass carries the summary lines instead.
    """
    status = "pass"
    residual = 0
    wit = []
    for part in parts:
        residual += part.residual_terms
        if part.status == "error":
            status = "error"
        elif part.status == "fail" and status != "error":
            status = "fail"
        if part.status != "pass":
            label = part.check
            for w in part.witnesses[:2]:
                wit.append("%s: %s" % (label, w))
            if not part.witnesses:
                wit.append("%s: %s" % (label, part.status))
    return CheckResult(
        check=name,
        status=status,
        residual_terms=residual,
        witnesses=list(summary) if status == "pass" else wit[:WITNESS_CAP],
    )
