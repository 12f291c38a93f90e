"""The eleven-generator algebra acting on the weighted polynomial flag.

The flag levels P_n = span{r^a u^b : a + 2b <= n} are the common invariant
subspaces of eleven differential operators in (r, u): eight of first order
spanning gl(2) semidirect a three-dimensional abelian ideal, and three
raising operators of second order.  This module builds them at a literal or
symbolic mark n, checks flag invariance and linear closure, verifies that
the radial-parabolic family h_a and l_a equals its advertised generator
combinations, and decomposes all four family members (h_a, l_a, b_a, c) in
the enveloping algebra by exact linear solve.

A counting argument settles which subset suffices: every normal-ordered
term of any product of the eight first-order generators carries at least as
many u-derivatives as powers of u (the only u-bearing symbols are u*d_u and
r*u*d_u, and contractions remove a u and a d_u together).  b_a and c contain
terms with more u's than u-derivatives, e.g. (1/8)u*d_r^4, so they are not
enveloping-algebra polynomials in the first-order subset at any degree; the
raising generators are required, and degree 4 in all eleven then suffices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .coeffring import Expr, MultiPoly
from .coulomb2d import b_a, c_op, h_a, l_a, parity_solve
from .flagrep import is_invariant
from .linsolve import Decomposition, decompose, monomial_ops
from .reports import CheckResult, merge_checks, residual_check
from .spaces import RU, RU_SPEC
from .weyl import DiffOp, identity, mul_op, partial

_r = RU.var("r")
_u = RU.var("u")
_beta = RU.var("beta")
_mu = RU.var("mu")
_p = RU.var("p")
_n = RU.var("n")
_one = RU.one()
_U_POS = RU.index_of("u")

LOWERING_GL2 = ("J0t", "J1", "J2", "J3", "J4", "R0", "R1", "R2")
RAISING = ("T0", "T1", "T2")
ALL_GENERATORS = LOWERING_GL2 + RAISING


def _mark_poly(mark) -> MultiPoly:
    """Mark as a ring element; None means the symbolic mark n."""
    if mark is None:
        return _n
    if isinstance(mark, MultiPoly):
        return mark
    return _one * Fraction(mark)


def _mul(poly) -> DiffOp:
    return mul_op(RU_SPEC, Expr.of_poly(poly))


def _const(poly) -> DiffOp:
    return identity(RU_SPEC).scale(Expr.of_poly(poly))


def generator(name: str, mark=None) -> DiffOp:
    """One named generator at the given mark (default: symbolic n)."""
    m = _mark_poly(mark)
    dr = partial(RU_SPEC, "r")
    du = partial(RU_SPEC, "u")
    euler = _mul(_r).compose(dr) + _mul(_u * 2).compose(du) - _const(m)
    third = m * Fraction(1, 3)
    table = {
        "J0t": lambda: euler,
        "J1": lambda: dr,
        "J2": lambda: _mul(_r).compose(dr) - _const(third),
        "J3": lambda: _mul(_u * 2).compose(du) - _const(third),
        "J4": lambda: _mul(_r).compose(euler),
        "R0": lambda: du,
        "R1": lambda: _mul(_r).compose(du),
        "R2": lambda: _mul(_r * _r).compose(du),
        "T0": lambda: _mul(_u).compose(dr).compose(dr),
        "T1": lambda: _mul(_u).compose(dr).compose(euler),
        "T2": lambda: _mul(_u).compose(euler).compose(euler + _const(_one)),
    }
    if name not in table:
        raise KeyError("unknown generator %r" % name)
    return table[name]()


def generator_set(mark=None, names=ALL_GENERATORS):
    """Named generators at a common mark, in canonical precedence order."""
    return [(name, generator(name, mark)) for name in names]


def sl2_set(mark=None):
    """The action on functions of r alone: J+ = r^2 d_r - n r, J0 = 2r d_r - n,
    J- = d_r."""
    m = _mark_poly(mark)
    dr = partial(RU_SPEC, "r")
    return [
        ("J+", _mul(_r * _r).compose(dr) - _mul(m * _r)),
        ("J0", _mul(_r * 2).compose(dr) - _const(m)),
        ("J-", dr),
    ]


def u_excess(op: DiffOp):
    """Largest (power of u) - (order in d_u) over normal-ordered terms,
    with one witness term.

    Products of the first-order generators never exceed zero, so a positive
    value proves the operator lies outside their enveloping algebra.
    """
    best = None
    witness = None
    for a, c in op.terms.items():
        for e, v in c.as_poly().terms.items():
            excess = e[_U_POS] - a[1]
            if best is None or excess > best:
                best = excess
                witness = "(%s)*u^%d*D[r]^%d*D[u]^%d" % (v, e[_U_POS], a[0], a[1])
    return best, witness


# -- flag invariance ----------------------------------------------------------------


def verify_flag(levels=(0, 1, 2, 3, 5)) -> CheckResult:
    """Every generator at mark n preserves P_n for each literal level, and a
    mismatched mark is caught (J4 at mark 0 must fail on P_2)."""
    parts = []
    for n in levels:
        for name, op in generator_set(mark=n):
            ok, wit = is_invariant(op, n)
            parts.append(
                CheckResult(
                    check="g2.flag[%s,n=%d]" % (name, n),
                    status="pass" if ok else "fail",
                    residual_terms=0 if ok else 1,
                    witnesses=[] if ok else [wit],
                )
            )
    ok, wit = is_invariant(generator("J4", 0), 2)
    parts.append(
        CheckResult(
            check="g2.flag[control J4 mark 0 on P_2]",
            status="fail" if ok else "pass",
            residual_terms=1 if ok else 0,
            witnesses=["mismatched mark was not detected"] if ok else [],
        )
    )
    out = merge_checks("g2.flag", parts)
    if out.passed:
        out.witnesses = [
            "%d generator/level pairs invariant" % (len(parts) - 1),
            "mismatched-mark control rejected as expected",
        ]
    return out


# -- linear closure -----------------------------------------------------------------


def structure_table(names=LOWERING_GL2, mark=None):
    """Pairwise commutators decomposed over the named set plus identity.

    Returns {(name_a, name_b): Decomposition} with coefficients polynomial
    in the symbolic mark n.
    """
    return _commutator_table(generator_set(mark, names))


def _commutator_table(gens) -> dict:
    ops = monomial_ops(gens, 1)
    return {
        (a, b): decompose(
            x.commutator(y),
            gens,
            ops,
            params=("n",),
            param_bound=2,
            target_name="[%s,%s]" % (a, b),
        )
        for (a, x), (b, y) in combinations(gens, 2)
    }


def _closure_check(name: str, table) -> CheckResult:
    parts = []
    sample = []
    for (a, b), dec in sorted(table.items()):
        parts.append(
            CheckResult(
                check="%s[%s,%s]" % (name, a, b),
                status="pass" if dec.success else "fail",
                residual_terms=0 if dec.success else 1,
                witnesses=[dec.message] if not dec.success else [],
            )
        )
        if dec.success and dec.coefficients and len(sample) < 3:
            terms = ", ".join(
                "(%s)*%s" % (v, k) for k, v in sorted(dec.coefficient_strings().items())
            )
            sample.append("[%s,%s] = %s" % (a, b, terms))
    out = merge_checks(name, parts)
    if out.passed:
        out.witnesses = ["%d commutators close linearly" % len(parts)] + sample
    return out


def verify_closure() -> list:
    """Linear closure of the first-order subset and of the sl(2) action,
    and the documented non-closure once raising generators join."""
    out = [
        _closure_check("g2.closure.gl2", structure_table()),
        _closure_check("g2.closure.sl2", _commutator_table(sl2_set())),
    ]

    gens = generator_set()
    probe = generator("T0").commutator(generator("R1"))
    dec = decompose(
        probe,
        gens,
        monomial_ops(gens, 1),
        params=("n",),
        param_bound=2,
        target_name="[T0,R1]",
    )
    out.append(
        CheckResult(
            check="g2.nonclosure.T",
            status="pass" if not dec.success else "fail",
            residual_terms=0 if not dec.success else 1,
            witnesses=[
                "[T0,R1] stays outside the eleven-generator linear span",
                "quadratic terms are required, so the algebra is infinite-dimensional",
            ]
            if not dec.success
            else ["[T0,R1] unexpectedly decomposed linearly"],
        )
    )
    return out


# -- advertised generator combinations ----------------------------------------------


def lie_form_h() -> DiffOp:
    """h_a as a degree-2 combination of the first-order generators at mark 0."""
    j1 = generator("J1", 0)
    j2 = generator("J2", 0)
    j3 = generator("J3", 0)
    r1 = generator("R1", 0)
    return (
        j2.compose(j1).scale(Fraction(-1, 2))
        - j3.compose(r1)
        - j3.compose(j1)
        + generator("J0t", 0).scale(Expr.of_poly(_beta))
        - j1.scale(Expr.of_poly(_one + _p + _mu))
        - r1.scale(Expr.of_poly((_one + _mu) * 2))
        + _const(_beta * (_one + _p + _mu))
    )


def lie_form_l() -> DiffOp:
    """l_a as a degree-2 combination of the first-order generators at mark 0."""
    j3 = generator("J3", 0)
    r2 = generator("R2", 0)
    return (
        j3.compose(r2)
        - j3.compose(j3).scale(Fraction(1, 2))
        - j3.scale(Expr.of_poly(_one + _p * 2 + _mu * 2) * Fraction(1, 2))
        + r2.scale(Expr.of_poly((_one + _mu) * 2))
    )


def verify_lie_forms() -> list:
    return [
        residual_check("g2.lieform.h", lie_form_h() - h_a()),
        residual_check("g2.lieform.l", lie_form_l() - l_a()),
    ]


# -- enveloping-algebra decompositions ----------------------------------------------

FAMILY = {"h": (h_a, 2), "l": (l_a, 2), "b": (b_a, 4), "c": (c_op, 4)}


def _family_solves(gens, ops: dict, degree: int, tags) -> list:
    """[(tag, target, Decomposition, note)] over the products in ops of gens
    up to degree.  ops may hold more generators after gens, so one table of
    ALL_GENERATORS, which LOWERING_GL2 opens, serves every solve."""
    ops = {m: op for m, op in ops.items() if len(m) <= degree and (not m or m[-1] < len(gens))}
    out = []
    for tag in tags:
        target = FAMILY[tag][0]()
        out.append((tag, target) + parity_solve(target, gens, ops, tag))
    return out


def decompose_family(tag: str, names=None, degree=None) -> Decomposition:
    """Decompose one of h, l, b, c over generator monomials at mark 0.

    h and l need only the first-order subset; b and c need all eleven.
    """
    if degree is None:
        degree = FAMILY[tag][1]
    if names is None:
        names = LOWERING_GL2 if tag in ("h", "l") else ALL_GENERATORS
    gens = generator_set(0, names)
    dec, note = parity_solve(FAMILY[tag][0](), gens, monomial_ops(gens, degree), tag)
    dec.message = dec.message or note
    return dec


@lru_cache(maxsize=None)
def verify_decompositions() -> list:
    """Membership of all four family members in the enveloping algebra, plus
    the first-order-subset attempts for b and c, which fail provably."""
    out = []
    gens = generator_set(0, ALL_GENERATORS)
    ops = monomial_ops(gens, 4)
    gl2 = gens[: len(LOWERING_GL2)]
    solved = _family_solves(gl2, ops, 2, ("h", "l")) + _family_solves(gens, ops, 4, ("b", "c"))
    for tag, target, dec, note in solved:
        wit = [note] if tag in ("h", "l") else [note, "raising generators included"]
        wit.append(
            "degree %d, %d monomials, %d unknowns, rank %d, %d free columns"
            % (dec.degree_bound, dec.monomials_considered, dec.unknowns, dec.rank,
               dec.free_columns)
        )
        if not dec.success:
            wit.append(dec.message)
        out.append(
            CheckResult(
                check="g2.decompose.%s" % tag,
                status="pass" if dec.success else "fail",
                residual_terms=0 if dec.success else len((dec.residual or target).terms),
                witnesses=wit,
            )
        )
    for tag, target, dec, note in _family_solves(gl2, ops, 4, ("b", "c")):
        excess, term = u_excess(target)
        wit = []
        if not dec.success:
            wit.append(
                "infeasible at degree %d: %s" % (dec.degree_bound, dec.message or note)
            )
            if excess is not None and excess > 0:
                wit.append(
                    "provably infeasible at every degree: target contains %s "
                    "with u-excess %d, but first-order generator products have "
                    "u-excess <= 0" % (term, excess)
                )
        out.append(
            CheckResult(
                check="g2.decompose.%s.gl2" % tag,
                status="pass" if dec.success else "fail",
                residual_terms=0 if dec.success else len((dec.residual or target).terms),
                witnesses=wit,
            )
        )
    return out
