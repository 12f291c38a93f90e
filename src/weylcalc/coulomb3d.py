"""Cartesian Coulomb operators and their hidden symmetry algebra.

Builds the angular momentum vector L, the Laplace-Runge-Lenz vector A for
the Schrodinger operator H = -Delta/2 - alpha/r, and the analogous vector B
for the radial spectral operator K = -(r/2)Delta - E*r obtained by trading
the coupling alpha for the spectral role of K.  Verifies the commutator
table, the orthogonality and norm relations, which operator ordering of B
actually commutes with K, and the so(4) closure reached by rescaling B at
fixed energy.

All identities hold with alpha and E as free symbols; the square root
r = sqrt(x^2 + y^2 + z^2) and the imaginary unit i of p = -i*grad are
adjoined to the rational coefficient ring, so every residual test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffring import Expr
from .reports import CheckResult, merge_checks, residual_check, verdict
from .spaces import R3, R3_SPEC
from .weyl import DiffOp, identity, mul_op, partial

AXES = ("x", "y", "z")

_x = R3.var("x")
_y = R3.var("y")
_z = R3.var("z")
_alpha = R3.var("alpha")
_E = R3.var("E")
_beta = R3.var("beta")
_r = R3.var("r")
_one = R3.one()
_I = R3.var("i")

# eps[(i, j)] = (k, sign) with eps_{ijk} = sign, for the six nonzero entries.
_EPS = {
    (0, 1): (2, 1),
    (1, 2): (0, 1),
    (2, 0): (1, 1),
    (1, 0): (2, -1),
    (2, 1): (0, -1),
    (0, 2): (1, -1),
}


def _vec_sum(terms):
    out = DiffOp(R3_SPEC)
    for t in terms:
        out = out + t
    return out


def _dot(a, b) -> DiffOp:
    return _vec_sum(a[i].compose(b[i]) for i in range(3))


def _cross(a, b):
    def comp(i, j, k):
        return a[j].compose(b[k]) - a[k].compose(b[j])

    return (comp(0, 1, 2), comp(1, 2, 0), comp(2, 0, 1))


@lru_cache(maxsize=None)
def momentum():
    """p_i = -i d/dx_i."""
    return tuple(partial(R3_SPEC, v).scale(-_I) for v in AXES)


@lru_cache(maxsize=None)
def position():
    return tuple(mul_op(R3_SPEC, Expr.of_poly(q)) for q in (_x, _y, _z))


@lru_cache(maxsize=None)
def angular_momentum():
    """L = x cross p."""
    return _cross(position(), momentum())


@lru_cache(maxsize=None)
def laplacian() -> DiffOp:
    return _vec_sum(partial(R3_SPEC, v, 2) for v in AXES)


@lru_cache(maxsize=None)
def hamiltonian() -> DiffOp:
    """H = -Delta/2 - alpha/r."""
    kinetic = laplacian().scale(Fraction(-1, 2))
    return kinetic - mul_op(R3_SPEC, Expr.make(_alpha, _r))


@lru_cache(maxsize=None)
def sturm_operator() -> DiffOp:
    """K = -(r/2)Delta - E*r, the radial form of the eigenvalue problem."""
    front = mul_op(R3_SPEC, Expr.of_poly(_r) * Fraction(-1, 2))
    return front.compose(laplacian()) - mul_op(R3_SPEC, Expr.of_poly(_E * _r))


@lru_cache(maxsize=None)
def kinetic_lenz():
    """D = (p cross L - L cross p)/2, the coupling-free part of both vectors."""
    p, ell = momentum(), angular_momentum()
    pl, lp = _cross(p, ell), _cross(ell, p)
    return tuple((pl[i] - lp[i]).scale(Fraction(1, 2)) for i in range(3))


@lru_cache(maxsize=None)
def runge_lenz():
    """A_i = D_i - (alpha/r) x_i, commuting with H."""
    d = kinetic_lenz()
    return tuple(
        d[i] - mul_op(R3_SPEC, Expr.make(_alpha * q, _r)) for i, q in enumerate((_x, _y, _z))
    )


@lru_cache(maxsize=None)
def spectral_lenz():
    """B_i = D_i - (x_i/r) K, commuting with K.

    Expanding the composition shows B_i = D_i + (x_i/2)Delta + E*x_i, so the
    coefficients are polynomial even though the defining form divides by r.
    The multiplication must stand to the left of K; the other readings in
    the readings table (_FAMILIES and _ORDERINGS) fail the ordering survey.
    """
    d = kinetic_lenz()
    k = sturm_operator()
    return tuple(
        d[i] - mul_op(R3_SPEC, Expr.make(q, _r)).compose(k)
        for i, q in enumerate((_x, _y, _z))
    )


# The six readings of B_i = D_i - corr_i that the ordering survey compares.
# A family gives w_i, multiplication by weight*x_i/r, and the operator op; an
# ordering gives the shares of w_i.op and op.w_i in corr_i: "right" is w_i.op,
# "left" is op.w_i and "sym" their mean.
_FAMILIES = (("coupling", _alpha, hamiltonian), ("spectral", _one, sturm_operator))
_ORDERINGS = (("right", (1, 0)), ("left", (0, 1)), ("sym", (Fraction(1, 2), Fraction(1, 2))))


def _readings(parts) -> dict:
    """{reading name: three components}, read off the readings table.

    parts(w, op) returns, for the multipliers w = (w_x, w_y, w_z) of one
    family, one (right, left) pair of operators per component; each reading
    blends the pair by its ordering's shares.
    """
    out = {}
    for family, weight, make_op in _FAMILIES:
        w = tuple(mul_op(R3_SPEC, Expr.make(weight * q, _r)) for q in (_x, _y, _z))
        pairs = parts(w, make_op())
        for order, shares in _ORDERINGS:
            out["%s-%s" % (family, order)] = tuple(
                _vec_sum(p if s == 1 else p.scale(s) for s, p in zip(shares, pair) if s)
                for pair in pairs
            )
    return out


@lru_cache(maxsize=None)
def b_candidates():
    """Candidate readings of the B vector, keyed by how the non-kinetic term
    is ordered (see _FAMILIES and _ORDERINGS).

    The coupling-* family keeps the Schrodinger operator in the correction
    term, -(alpha/r) x_i H in the three possible orderings; the spectral-*
    family substitutes K for the coupling constant alpha in the Runge-Lenz
    correction -(alpha/r) x_i, again in the three orderings.
    """
    d = kinetic_lenz()
    corr = _readings(lambda w, op: [(wi.compose(op), op.compose(wi)) for wi in w])
    return {name: tuple(d[i] - c[i] for i in range(3)) for name, c in corr.items()}


def _commuted_parts(w, op):
    """([w_i.op, K], [op.w_i, K]) for each component, by the Leibniz rule.

    With C = [w_i, K] and M = [op, K], [w_i.op, K] = w_i.M + C.op and
    [op.w_i, K] = op.C + M.w_i; M is zero when op is K itself.
    """
    k = sturm_operator()
    m = None if op is k else op.commutator(k)
    out = []
    for wi in w:
        c = wi.commutator(k)
        right, left = c.compose(op), op.compose(c)
        if m is not None:
            right, left = wi.compose(m) + right, left + m.compose(wi)
        out.append((right, left))
    return out


def ordering_residuals() -> dict:
    """{reading name: ([B_x, K], [B_y, K], [B_z, K])} for every reading of B.

    [B_i, K] = [D_i, K] - [corr_i, K]: [D_i, K] is taken once per component
    and [corr_i, K] from _commuted_parts, so no reading of B is built.
    """
    k = sturm_operator()
    dk = [d.commutator(k) for d in kinetic_lenz()]
    comm = _readings(_commuted_parts)
    return {name: tuple(dk[i] - c[i] for i in range(3)) for name, c in comm.items()}


def _eps_combination(vec, i, j) -> DiffOp:
    """i * eps_{ijk} vec_k summed over k (at most one term survives)."""
    hit = _EPS.get((i, j))
    if hit is None:
        return DiffOp(R3_SPEC)
    k, sign = hit
    return vec[k].scale(_I * sign)


def _vector_rule(name: str, vec, target) -> CheckResult:
    """[vec_i, L_j] = i eps_{ijk} target_k over all nine index pairs."""
    ell = angular_momentum()
    parts = []
    for i in range(3):
        for j in range(3):
            res = vec[i].commutator(ell[j]) - _eps_combination(target, i, j)
            parts.append(residual_check("%s[%d,%d]" % (name, i, j), res))
    return merge_checks(name, parts)


def _pairwise_rule(name: str, vec, scale_op) -> CheckResult:
    """[vec_i, vec_j] = -2i eps_{ijk} L_k scale_op over unordered pairs."""
    ell = angular_momentum()
    parts = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        k, sign = _EPS[(i, j)]
        expected = ell[k].compose(scale_op).scale(_I * (-2 * sign))
        res = vec[i].commutator(vec[j]) - expected
        parts.append(residual_check("%s[%d,%d]" % (name, i, j), res))
    return merge_checks(name, parts)


def verify_sturm_link() -> CheckResult:
    """r(H - E) = K - alpha: the eigenvalue problem and its radial form."""
    h, k = hamiltonian(), sturm_operator()
    lhs = mul_op(R3_SPEC, Expr.of_poly(_r)).compose(h - mul_op(R3_SPEC, _E))
    rhs = k - mul_op(R3_SPEC, _alpha)
    return residual_check("3d.sturm", lhs - rhs)


def verify_angular() -> list:
    """The rotation algebra and its action on H, A, and K."""
    ell = angular_momentum()
    h, k, a = hamiltonian(), sturm_operator(), runge_lenz()
    out = [_vector_rule("3d.comm.LL", ell, ell)]
    out.append(
        merge_checks(
            "3d.comm.LH",
            [residual_check("3d.comm.LH[%d]" % i, ell[i].commutator(h)) for i in range(3)],
        )
    )
    out.append(
        merge_checks(
            "3d.comm.AH",
            [residual_check("3d.comm.AH[%d]" % i, a[i].commutator(h)) for i in range(3)],
        )
    )
    out.append(_vector_rule("3d.comm.AL", a, a))
    out.append(_pairwise_rule("3d.comm.AA", a, h))
    out.append(
        merge_checks(
            "3d.comm.LK",
            [residual_check("3d.comm.LK[%d]" % i, ell[i].commutator(k)) for i in range(3)],
        )
    )
    return out


def _norm_relation(name: str, vec, base, scale_op) -> CheckResult:
    """vec.vec = base + 2*scale_op*(L.L + 1)."""
    ell = angular_momentum()
    casimir = _dot(ell, ell) + identity(R3_SPEC)
    rhs = base + scale_op.compose(casimir).scale(2)
    return residual_check(name, _dot(vec, vec) - rhs)


def verify_norms() -> list:
    a, b = runge_lenz(), spectral_lenz()
    h, k = hamiltonian(), sturm_operator()
    ell = angular_momentum()
    alpha_sq = mul_op(R3_SPEC, _alpha * _alpha)
    energy = mul_op(R3_SPEC, _E)
    out = [
        _norm_relation("3d.norm.A2", a, alpha_sq, h),
        _norm_relation("3d.norm.B2", b, k.compose(k), energy),
        residual_check("3d.orth.LA", _dot(ell, a)),
        residual_check("3d.orth.AL", _dot(a, ell)),
        residual_check("3d.orth.LB", _dot(ell, b)),
        residual_check("3d.orth.BL", _dot(b, ell)),
    ]
    return out


def verify_b_orderings() -> CheckResult:
    """Which reading of the B vector commutes with K.

    Passes when at least one candidate does; the witnesses record the
    verdict for every candidate so the surviving ordering is explicit.
    """
    wit = []
    survivors = []
    for name, residuals in sorted(ordering_residuals().items()):
        bad = sum(len(res.terms) for res in residuals)
        if bad == 0:
            survivors.append(name)
            wit.append("%s: commutes with K" % name)
        else:
            wit.append("%s: [B,K] residual has %d terms" % (name, bad))
    return verdict("3d.b.orderings", bool(survivors), wit)


def verify_spectral_vector() -> list:
    """The full relation set for B against K, mirroring A against H."""
    b, k = spectral_lenz(), sturm_operator()
    out = [
        merge_checks(
            "3d.comm.BK",
            [residual_check("3d.comm.BK[%d]" % i, b[i].commutator(k)) for i in range(3)],
        )
    ]
    out.append(_vector_rule("3d.comm.BL", b, b))
    out.append(_pairwise_rule("3d.comm.BB", b, mul_op(R3_SPEC, _E)))
    return out


def verify_so4() -> CheckResult:
    """so(4) closure at fixed energy E = -beta^2/2 with B rescaled by 1/beta.

    The six generators L_i and Bt_i = B_i/beta must reproduce the so(4)
    structure constants: [L_i, L_j] = i eps L_k, [L_i, Bt_j] = i eps Bt_k,
    [Bt_i, Bt_j] = i eps L_k.  All fifteen pairs are checked directly.
    """
    energy = {"E": _beta * _beta * Fraction(-1, 2)}
    inv_beta = Expr.make(_one, _beta)
    ell = angular_momentum()
    bt = tuple(op.substitute(energy).scale(inv_beta) for op in spectral_lenz())
    gens = [("L", i, ell[i]) for i in range(3)] + [("Bt", i, bt[i]) for i in range(3)]
    parts = []
    for a in range(6):
        for b in range(a + 1, 6):
            fam_a, i, op_a = gens[a]
            fam_b, j, op_b = gens[b]
            target = bt if (fam_a == "L") != (fam_b == "L") else ell
            expected = _eps_combination(target, i, j)
            label = "3d.so4[%s%d,%s%d]" % (fam_a, i, fam_b, j)
            parts.append(residual_check(label, op_a.commutator(op_b) - expected))
    return merge_checks("3d.so4", parts)


@lru_cache(maxsize=None)
def verify_coulomb() -> list:
    """Every check of the Cartesian family, in report order."""
    out = [verify_sturm_link()]
    out.extend(verify_angular())
    out.extend(verify_norms())
    out.append(verify_b_orderings())
    out.extend(verify_spectral_vector())
    out.append(verify_so4())
    return out


NAMED_OPERATORS = {
    "H": (hamiltonian, "Schrodinger operator -Delta/2 - alpha/r"),
    "K": (sturm_operator, "radial spectral operator -(r/2)Delta - E*r"),
    "L_z": (lambda: angular_momentum()[2], "angular momentum, z component"),
    "A_x": (lambda: runge_lenz()[0], "Runge-Lenz vector, x component"),
    "B_x": (lambda: spectral_lenz()[0], "spectral Runge-Lenz vector, x component"),
}
