"""Uniform check reporting.

Every verification produces a CheckResult; the CLI serializes them as JSON.
A residual is reported through its nonzero term count plus a capped list of
printed witness terms, so a failure is diagnosable from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    out = []
    if isinstance(op, DiffOp):
        for a, c in op.sorted_terms():
            d = "*".join(
                "D[%s]^%d" % (op.spec.space[i], k) if k > 1 else "D[%s]" % op.spec.space[i]
                for i, k in enumerate(a)
                if k
            )
            out.append("(%s)%s" % (c, "*" + d if d else ""))
            if len(out) >= cap:
                break
        return out
    # Expr or MultiPoly
    num = getattr(op, "num", op)
    for e, cval in num.sorted_terms():
        mono = "*".join(
            "%s^%d" % (num.ring.symbols[i], k) if k > 1 else num.ring.symbols[i]
            for i, k in enumerate(e)
            if k
        )
        out.append("%s%s" % (cval, "*" + mono if mono else ""))
        if len(out) >= cap:
            break
    return out


def residual_check(name: str, residual, witnesses_extra=()) -> CheckResult:
    """Pass iff the residual operator/expression is exactly zero."""
    from .weyl import DiffOp

    if isinstance(residual, DiffOp):
        nterms = len(residual.terms)
        zero = residual.is_zero()
    else:
        num = getattr(residual, "num", residual)
        nterms = len(num.terms)
        zero = not num.terms
    wit = list(witnesses_extra)
    if not zero:
        wit.extend(witness_terms(residual))
    return CheckResult(
        check=name,
        status="pass" if zero else "fail",
        residual_terms=0 if zero else nterms,
        witnesses=wit[:WITNESS_CAP],
    )


def merge_checks(name: str, parts: list) -> CheckResult:
    """Combine component results into one: pass iff every part passes."""
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
        witnesses=wit[:WITNESS_CAP],
    )
