"""Exact Riemannian utilities on rational charts.

Cometrics are read off an embedding into Cartesian 3-space by pairing
coordinate gradients; entries are recognized into the chart's own symbols by
rewriting x^2 -> rho^2 - y^2 and z^2 -> r^2 - rho^2 (the defining relations
of the adjoined radii), so square roots never survive into chart data.  The
Laplace-Beltrami operator is assembled in divergence form with the square
root of the metric determinant eliminated through its log-derivative, and
scalar curvature comes from the Christoffel pipeline with the Brioschi
formula available as an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeffring import Expr, MultiPoly, PolyRing
from .reports import WITNESS_CAP, residual_check, verdict, witness_terms
from .spaces import AMB, RRP, RU, RU_SPEC
from .weyl import DiffOp, VariableSpec, mul_op


class DiffGeoError(Exception):
    pass


class ChartError(DiffGeoError):
    pass


@dataclass
class CoMetric:
    """Symmetric inverse metric g^{mu nu} over a chart spec."""

    spec: VariableSpec
    entries: list  # list of rows of Expr

    def __post_init__(self):
        n = self.spec.nspace
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise DiffGeoError(
                "a cometric on %d variables takes %d rows of %d entries" % (n, n, n)
            )

    @property
    def dim(self) -> int:
        return self.spec.nspace

    def entry(self, i: int, j: int) -> Expr:
        return self.entries[i][j]


# -- recognition of ambient quantities in a chart ------------------------------

_RECOG = PolyRing(AMB.symbols)  # same symbols, no adjunct reduction
_IX = _RECOG.index_of("x")
_IY = _RECOG.index_of("y")
_IZ = _RECOG.index_of("z")
_X2 = _RECOG.var("rho") ** 2 - _RECOG.var("y") ** 2
_Z2 = _RECOG.var("r") ** 2 - _RECOG.var("rho") ** 2


def _recognize_poly(p: MultiPoly, target: PolyRing) -> MultiPoly:
    """Rewrite an ambient polynomial into chart symbols, or fail loudly."""
    total = _RECOG.zero()
    for e, c in p.terms.items():
        kx, sx = divmod(e[_IX], 2)
        kz, sz = divmod(e[_IZ], 2)
        rest = list(e)
        rest[_IX] = sx
        rest[_IZ] = sz
        term = MultiPoly(_RECOG, {tuple(rest): c})
        if kx:
            term = term * _X2 ** kx
        if kz:
            term = term * _Z2 ** kz
        total = total + term
    for e in total.terms:
        if e[_IX] or e[_IY] or e[_IZ]:
            raise ChartError(
                "quantity is not a function of the chart: leftover monomial "
                "with exponents x^%d y^%d z^%d" % (e[_IX], e[_IY], e[_IZ])
            )
    return total.map_ring(target).as_poly()


def _recognize(expr: Expr, target: PolyRing) -> Expr:
    num = _recognize_poly(MultiPoly(_RECOG, dict(expr.num.terms)), target)
    den = _recognize_poly(MultiPoly(_RECOG, dict(expr.den.terms)), target)
    return Expr.make(num, den)


def cometric_from_embedding(coords, target_spec: VariableSpec) -> CoMetric:
    """Pair coordinate gradients in the ambient chart.

    coords is a list of (name, data) matching target_spec.space, where data
    is either an ambient expression (its gradient is taken exactly, through
    the adjoined radii) or an explicit gradient triple for coordinates like
    an angle that are not ambient-algebraic.
    """
    names = [name for name, _ in coords]
    if tuple(names) != target_spec.space:
        raise ChartError(
            "coordinate names %s do not match the chart %s"
            % (names, list(target_spec.space))
        )
    grads = []
    for name, data in coords:
        if isinstance(data, tuple):
            grads.append(tuple(Expr.of(AMB, g) for g in data))
        else:
            f = Expr.of(AMB, data)
            grads.append(tuple(f.differentiate(v) for v in ("x", "y", "z")))
    dim = len(coords)
    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            dot = Expr.of_poly(AMB.zero())
            for a, b in zip(grads[i], grads[j]):
                dot = dot + a * b
            entry = _recognize(dot, target_spec.ring)
            entries[i][j] = entry
            entries[j][i] = entry
    return CoMetric(spec=target_spec, entries=entries)


# -- determinants and inverses -------------------------------------------------


def _det(entries) -> Expr:
    n = len(entries)
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    if n == 3:
        e = entries
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )
    raise DiffGeoError("determinant implemented for dimensions 2 and 3")


def invert_and_det(entries):
    """Inverse and determinant of a 2x2 matrix of Exprs (rows)."""
    if len(entries) != 2:
        raise DiffGeoError("inverse implemented for dimension 2")
    det = _det(entries)
    if det.is_zero():
        raise DiffGeoError("singular matrix")
    e = entries
    inv = [
        [e[1][1] / det, -e[0][1] / det],
        [-e[1][0] / det, e[0][0] / det],
    ]
    return inv, det


# -- Laplace-Beltrami ------------------------------------------------------------


def laplace_beltrami(g: CoMetric) -> DiffOp:
    """Divergence-form Laplacian for the cometric, exactly.

    sqrt(det) never appears: with D = det g^{mu nu}, the first-order part is
    sum_mu [d_mu g^{mu nu} - (d_mu D) g^{mu nu} / (2D)] d_nu.
    """
    spec = g.spec
    n = spec.nspace
    det = _det(g.entries)
    if det.is_zero():
        raise DiffGeoError("degenerate cometric")
    op = DiffOp(spec)
    terms = {}
    for i in range(n):
        for j in range(n):
            if g.entries[i][j].is_zero():
                continue
            idx = [0] * n
            idx[i] += 1
            idx[j] += 1
            key = tuple(idx)
            cur = terms.get(key)
            terms[key] = g.entries[i][j] if cur is None else cur + g.entries[i][j]
    for nu in range(n):
        coeff = Expr.of_poly(spec.ring.zero())
        var_nu = spec.space[nu]
        for mu in range(n):
            var_mu = spec.space[mu]
            gmn = g.entries[mu][nu]
            if not gmn.is_zero():
                coeff = coeff - det.differentiate(var_mu) * gmn / (det * 2)
            coeff = coeff + gmn.differentiate(var_mu)
        if not coeff.is_zero():
            idx = [0] * n
            idx[nu] = 1
            key = tuple(idx)
            cur = terms.get(key)
            terms[key] = coeff if cur is None else cur + coeff
    for key, c in terms.items():
        if not c.is_zero():
            op.terms[key] = c
    return op


# -- curvature ----------------------------------------------------------------------


def scalar_curvature(metric, spec: VariableSpec) -> Expr:
    """Christoffel -> Riemann contraction -> Ricci -> scalar, all exact.

    Sign convention: the round unit 2-sphere has scalar curvature +2.
    """
    n = spec.nspace
    ginv, _ = invert_and_det(metric)
    syms = spec.space
    dg = [
        [[metric[i][j].differentiate(syms[k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    zero = Expr.of_poly(spec.ring.zero())
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                total = zero
                for l in range(n):
                    if ginv[k][l].is_zero():
                        continue
                    total = total + ginv[k][l] * (
                        dg[l][j][i] + dg[l][i][j] - dg[i][j][l]
                    )
                total = total * Fraction(1, 2)
                gamma[(k, i, j)] = total
                gamma[(k, j, i)] = total

    def G(k, i, j):
        return gamma[(k, i, j)]

    ricci = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = zero
            for k in range(n):
                total = total + G(k, i, j).differentiate(syms[k])
                total = total - G(k, i, k).differentiate(syms[j])
                for l in range(n):
                    total = total + G(k, k, l) * G(l, i, j)
                    total = total - G(k, j, l) * G(l, i, k)
            ricci[i][j] = total
    scalar = zero
    for i in range(n):
        for j in range(n):
            if not ginv[i][j].is_zero():
                scalar = scalar + ginv[i][j] * ricci[i][j]
    return scalar


def brioschi_curvature(metric, spec: VariableSpec) -> Expr:
    """Gauss curvature of a 2d metric by the Brioschi formula, times 2.

    Returns the scalar curvature R = 2K.  Entirely rational in the metric
    entries and their derivatives; shares no code with the Christoffel route.
    """
    if spec.nspace != 2:
        raise DiffGeoError("Brioschi formula is two-dimensional")
    xu, xv = spec.space
    E, F, G = metric[0][0], metric[0][1], metric[1][1]
    half = Fraction(1, 2)
    Eu, Ev = E.differentiate(xu), E.differentiate(xv)
    Gu, Gv = G.differentiate(xu), G.differentiate(xv)
    Fu, Fv = F.differentiate(xu), F.differentiate(xv)
    Evv = Ev.differentiate(xv)
    Guu = Gu.differentiate(xu)
    Fuv = Fu.differentiate(xv)
    a = [
        [Evv * (-half) + Fuv - Guu * half, Eu * half, Fu - Ev * half],
        [Fv - Gu * half, E, F],
        [Gv * half, F, G],
    ]
    b = [
        [Expr.of_poly(spec.ring.zero()), Ev * half, Gu * half],
        [Ev * half, E, F],
        [Gu * half, F, G],
    ]
    det_g = E * G - F * F
    K = (_det(a) - _det(b)) / (det_g * det_g)
    return K * 2


# -- named charts -----------------------------------------------------------------

@lru_cache(maxsize=None)
def cylindrical_cometric() -> CoMetric:
    """Chart (r, rho, phi): spherical radius, cylindrical radius, azimuth."""
    from .spaces import RRP_SPEC

    x, y = AMB.var("x"), AMB.var("y")
    rho2 = x * x + y * y
    grad_phi = (
        Expr.make(-y, rho2),
        Expr.make(x, rho2),
        Expr.of_poly(AMB.zero()),
    )
    return cometric_from_embedding(
        [
            ("r", Expr.of_poly(AMB.var("r"))),
            ("rho", Expr.of_poly(AMB.var("rho"))),
            ("phi", grad_phi),
        ],
        RRP_SPEC,
    )


def radial_parabolic_cometric() -> CoMetric:
    """The (r, u) chart cometric [[r/2, u], [u, 2ru]]."""
    r, u = RU.var("r"), RU.var("u")
    half_r = Expr.of_poly(r) * Fraction(1, 2)
    ue = Expr.of_poly(u)
    return CoMetric(
        spec=RU_SPEC,
        entries=[[half_r, ue], [ue, Expr.of_poly(r * u * 2)]],
    )


def reference_scalar_curvature() -> Expr:
    """r(4u - 1) / (2u (r^2 - u)^2) on the (r, u) chart."""
    r, u = RU.var("r"), RU.var("u")
    num = r * (u * 4 - RU.one())
    den = u * 2 * (r * r - u) ** 2
    return Expr.make(num, den)


def effective_potential() -> Expr:
    """(4 mu^2 - 1) r / (8u) + (beta^2 / 2) r."""
    r, u = RU.var("r"), RU.var("u")
    mu, beta = RU.var("mu"), RU.var("beta")
    first = Expr.make(r * (mu * mu * 4 - RU.one()), u * 8)
    second = Expr.of_poly(beta * beta * r) * Fraction(1, 2)
    return first + second


def verify_schrodinger_form() -> list:
    """Conjugate the radial operator by its ground gauge and compare with
    -Laplace-Beltrami + effective potential.

    The identity holds exactly at both parity values; symbolically in the
    parity symbol p the defect is proportional to p^2 - p, which is recorded
    as a witness rather than hidden.
    """
    from .coulomb2d import gamma_a_gauge, h_a

    conjugated = h_a().conjugate(gamma_a_gauge())
    lb = laplace_beltrami(radial_parabolic_cometric())
    want = (-lb) + mul_op(RU_SPEC, effective_potential())
    residual = conjugated - want
    wit = []
    parts = []
    for par in (0, 1):
        res_par = residual.substitute({"p": Fraction(par)})
        parts.append(res_par.is_zero())
        if not res_par.is_zero():
            wit.extend("p=%d: %s" % (par, w) for w in witness_terms(res_par, 3))
    if residual.is_zero():
        wit.append("identity holds at symbolic parity")
    else:
        wit.append(
            "symbolic-parity defect (vanishes at p=0 and p=1): %s"
            % "; ".join(witness_terms(residual, 2))
        )
    return [verdict("geom.schrodinger", all(parts), wit, len(residual.terms))]


def sphere_polar_metric():
    """Round unit sphere in the chart c = cosine of the polar angle:
    metric diag(1/(1-c^2), 1-c^2), azimuth q.  Scalar curvature 2.
    """
    ring = PolyRing(("c", "q"))
    spec = VariableSpec(ring, ("c", "q"))
    one = ring.one()
    c = ring.var("c")
    zero = Expr.of_poly(ring.zero())
    g11 = Expr.make(one, one - c * c)
    g22 = Expr.of_poly(one - c * c)
    return [[g11, zero], [zero, g22]], spec


def verify_geometry():
    """The chart-geometry checks: cylindrical cometric entries, the (r, u)
    cometric determinant, the scalar curvature value, and the round-sphere
    curvature oracle that pins the sign convention.
    """
    out = []

    g = cylindrical_cometric()
    r, rho = RRP.var("r"), RRP.var("rho")
    one = RRP.one()
    zero = Expr.of_poly(RRP.zero())
    want = [
        [Expr.of_poly(one), Expr.make(rho, r), zero],
        [Expr.make(rho, r), Expr.of_poly(one), zero],
        [zero, zero, Expr.make(one, rho * rho)],
    ]
    bad = []
    for i in range(3):
        for j in range(3):
            if g.entries[i][j] != want[i][j]:
                bad.append("entry (%d,%d) = %s" % (i, j, g.entries[i][j]))
    out.append(verdict("geom.cometric", not bad, bad[:WITNESS_CAP], len(bad)))

    displayed = radial_parabolic_cometric()
    _, det = invert_and_det(displayed.entries)
    ru, uu = RU.var("r"), RU.var("u")
    out.append(
        residual_check("geom.det", det - Expr.of_poly(uu * (ru * ru - uu)))
    )

    # The printed curvature is reproduced by reading the displayed matrix as
    # the metric itself; the metric inverse to the cometric is flat (R = 0).
    as_metric = [[displayed.entries[i][j] for j in range(2)] for i in range(2)]
    scalar = scalar_curvature(as_metric, RU_SPEC)
    residual = scalar - reference_scalar_curvature()
    bri = brioschi_curvature(as_metric, RU_SPEC)
    agrees = (bri - scalar).is_zero()
    inv_metric, _ = invert_and_det(displayed.entries)
    flat = scalar_curvature(inv_metric, RU_SPEC)
    wit = witness_terms(residual) + [
        "Brioschi formula agrees" if agrees else "Brioschi formula disagrees: %s" % bri,
        "matrix read as the metric; the inverse-cometric geometry has R = %s" % flat,
    ]
    out.append(
        verdict("geom.curvature", residual.is_zero() and agrees, wit, len(residual.num.terms))
    )

    metric, spec = sphere_polar_metric()
    rs = scalar_curvature(metric, spec)
    two = Expr.of_poly(spec.ring.one() * 2)
    out.append(
        residual_check(
            "geom.curvature.sphere",
            rs - two,
            ["unit 2-sphere fixes the sign convention: R = +2"],
        )
    )
    return out
