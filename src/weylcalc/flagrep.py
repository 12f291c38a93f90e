"""Finite-dimensional representations on the flag of polynomial subspaces

    P_n = span{ r^a u^b : a + 2b <= n },   dim P_n = sum_{k<=n} (floor(k/2)+1).

Operators that preserve P_n get exact matrices in the graded monomial basis
(sorted by (a+2b, b)), from one application of the operator per basis
monomial, and characteristic polynomials via a fraction-free elimination with
a fast path for triangular matrices.  Eigenspaces at a rational parameter
point come from linsolve.SparseSolver with leftmost pivots, i.e. from the
unique reduced row echelon form of M - lam*I, each row scaled into Z[i] by
its own lcm; flagrep does no elimination of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffring import Expr, GaussRat, GR_ONE, GR_ZERO, MultiPoly
from .linsolve import SparseSolver, integral_form
from .spaces import RU, RU_SPEC
from .weyl import DiffOp


class FlagError(Exception):
    pass


class NotInvariant(FlagError):
    pass


class EigenvalueCollision(FlagError):
    pass


class MonomialBasis:
    """Graded monomial basis of P_n."""

    __slots__ = ("n", "pairs", "index")

    def __init__(self, n: int):
        if n < 0:
            raise FlagError("flag index must be nonnegative")
        self.n = n
        pairs = [
            (a, b)
            for b in range(n // 2 + 1)
            for a in range(n - 2 * b + 1)
        ]
        pairs.sort(key=lambda ab: (ab[0] + 2 * ab[1], ab[1]))
        self.pairs = tuple(pairs)
        self.index = {ab: i for i, ab in enumerate(self.pairs)}

    def __len__(self):
        return len(self.pairs)

    def monomial(self, i: int) -> MultiPoly:
        a, b = self.pairs[i]
        return RU.monomial(1, r=a, u=b)


def flag_dim(n: int) -> int:
    return sum(k // 2 + 1 for k in range(n + 1))


_R_POS = RU.index_of("r")
_U_POS = RU.index_of("u")


def _split_image(image: Expr):
    """Image polynomial -> {(a, b): nonzero parameter-coefficient poly}."""
    poly = image.as_poly()
    out = {}
    for e, c in poly.terms.items():
        ab = (e[_R_POS], e[_U_POS])
        rest = list(e)
        rest[_R_POS] = 0
        rest[_U_POS] = 0
        d = out.setdefault(ab, {})
        key = tuple(rest)
        d[key] = d.get(key, GR_ZERO) + c
    split = {}
    for ab, d in out.items():
        terms = {e: c for e, c in d.items() if not c.is_zero()}
        if terms:
            split[ab] = MultiPoly(RU, terms)
    return split


def _images(op: DiffOp, n: int):
    """The basis of P_n and the split image of each of its monomials, one
    application of op per monomial; NotInvariant names the first image that
    leaves P_n."""
    if op.spec != RU_SPEC:
        raise FlagError("flag representation requires the (r, u) chart")
    basis = MonomialBasis(n)
    images = []
    for i in range(len(basis)):
        mono = basis.monomial(i)
        image = op.apply(Expr.of_poly(mono))
        if not image.is_poly():
            raise NotInvariant("image of %s is not polynomial: %s" % (mono, image))
        split = _split_image(image)
        for (a, b), coeff in split.items():
            if a + 2 * b > n:
                raise NotInvariant(
                    "image of %s leaves P_%d at r^%d*u^%d (coefficient %s)"
                    % (mono, n, a, b, coeff)
                )
        images.append(split)
    return basis, images


def is_invariant(op: DiffOp, n: int):
    """(True, None) if op maps P_n into P_n, else (False, witness)."""
    try:
        _images(op, n)
    except NotInvariant as exc:
        return False, str(exc)
    return True, None


@dataclass
class OperatorMatrix:
    """Matrix M with apply(op, e_j) = sum_i M[i][j] e_i."""

    basis: MonomialBasis
    entries: list  # list of rows, MultiPoly over RU (parameters only)

    @property
    def dim(self) -> int:
        return len(self.basis)


def matrix_of(op: DiffOp, n: int) -> OperatorMatrix:
    basis, images = _images(op, n)
    dim = len(basis)
    entries = [[RU.zero() for _ in range(dim)] for _ in range(dim)]
    for j, split in enumerate(images):
        for ab, coeff in split.items():
            entries[basis.index[ab]][j] = coeff
    return OperatorMatrix(basis=basis, entries=entries)


def _is_upper_triangular(entries) -> bool:
    return all(
        entries[i][j].is_zero() for i in range(len(entries)) for j in range(i)
    )


def _is_lower_triangular(entries) -> bool:
    return all(
        entries[i][j].is_zero()
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
    )


def char_poly(matrix: OperatorMatrix) -> MultiPoly:
    """det(lam*I - M), exact, in the spectral indeterminate lam."""
    lam = RU.var("lam")
    dim = matrix.dim
    m = [
        [
            (lam if i == j else RU.zero()) - matrix.entries[i][j]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    if _is_upper_triangular(m) or _is_lower_triangular(m):
        det = RU.one()
        for i in range(dim):
            det = det * m[i][i]
        return det
    return _bareiss_det(m)


def _bareiss_det(m) -> MultiPoly:
    n = len(m)
    if n == 0:
        return RU.one()
    sign = 1
    prev = RU.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return RU.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = RU.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def level_eigenvalue(k: int) -> MultiPoly:
    """beta * (k + 1 + p + mu), the level-k eigenvalue."""
    beta = RU.var("beta")
    return beta * (RU.const(k + 1) + RU.var("p") + RU.var("mu"))


@dataclass
class SpectralReport:
    n: int
    dim: int
    triangular: bool
    diagonal_ok: bool
    charpoly_ok: bool
    eigenvalues: list = field(default_factory=list)  # MultiPoly per level
    multiplicities: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.triangular and self.diagonal_ok and self.charpoly_ok


def spectrum_report(op: DiffOp, n: int) -> SpectralReport:
    """Verify the graded-basis triangular structure and the full spectrum."""
    matrix = matrix_of(op, n)
    basis = matrix.basis
    dim = matrix.dim
    witnesses = []

    triangular = _is_upper_triangular(matrix.entries)
    if not triangular:
        for i in range(dim):
            for j in range(i):
                if not matrix.entries[i][j].is_zero():
                    witnesses.append(
                        "below-diagonal entry (%d,%d) = %s"
                        % (i, j, matrix.entries[i][j])
                    )
                    break

    diagonal_ok = True
    for i, (a, b) in enumerate(basis.pairs):
        want = level_eigenvalue(a + 2 * b)
        if matrix.entries[i][i] != want:
            diagonal_ok = False
            witnesses.append(
                "diagonal %d: got %s, want %s" % (i, matrix.entries[i][i], want)
            )

    cp = char_poly(matrix)
    lam = RU.var("lam")
    expected = RU.one()
    mult = [k // 2 + 1 for k in range(n + 1)]
    for k in range(n + 1):
        expected = expected * (lam - level_eigenvalue(k)) ** mult[k]
    charpoly_ok = cp == expected
    if not charpoly_ok:
        witnesses.append("characteristic polynomial mismatch")

    return SpectralReport(
        n=n,
        dim=dim,
        triangular=triangular,
        diagonal_ok=diagonal_ok,
        charpoly_ok=charpoly_ok,
        eigenvalues=[level_eigenvalue(k) for k in range(n + 1)],
        multiplicities=mult,
        witnesses=witnesses,
    )


def verify_spectrum(n: int) -> SpectralReport:
    from .coulomb2d import h_a

    return spectrum_report(h_a(), n)


DEFAULT_POINT = {
    "beta": Fraction(2),
    "mu": Fraction(1, 3),
    "p": Fraction(1, 7),
}


def _eigenspace(basis: MonomialBasis, dense: list, lam) -> list:
    """Nullspace of dense - lam*I as polynomials with leading coefficient 1.

    Column c goes into the solver under the key -c, so its largest-key pivot
    is the leftmost column and its fully reduced basis is the unique RREF:
    each free column f, in increasing order, gives x_f = 1 and
    x_p = -row_p[f]/d_p on the pivot columns p.
    """
    solver = SparseSolver()
    for i, row in enumerate(dense):
        shifted = {-j: v for j, v in enumerate(row)}
        shifted[-i] = row[i] - lam
        # the system is homogeneous, so scaling a row keeps the kernel
        solver.add(integral_form(shifted)[1], 0)
    out = []
    for f in range(len(dense)):
        if -f in solver.pivots:
            continue
        poly = basis.monomial(f)
        for key, (prow, _, d) in solver.pivots.items():
            if -f in prow:
                poly = poly - basis.monomial(-key) * (GaussRat.of(prow[-f]) / d)
        _, lc = poly.leading()
        if lc != 1:
            poly = poly * (GR_ONE / lc)
        out.append(poly)
    return out


def eigenpolynomials(n: int, point: dict | None = None) -> list:
    """Exact bases of the level-k eigenspaces of the radial operator on P_n,
    k = 0..n, at a rational parameter point, each polynomial normalized to
    leading coefficient 1.
    """
    from .coulomb2d import h_a

    point = dict(DEFAULT_POINT if point is None else point)
    eigs = [level_eigenvalue(k).evaluate(point) for k in range(n + 1)]
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            if eigs[a] == eigs[b]:
                raise EigenvalueCollision(
                    "levels %d and %d collide at this point; pick a parameter "
                    "point with beta != 0 and distinct level shifts" % (a, b)
                )
    matrix = matrix_of(h_a(), n)
    dense = [[e.evaluate(point) for e in row] for row in matrix.entries]
    return [_eigenspace(matrix.basis, dense, lam) for lam in eigs]


def equality_oracle(a: DiffOp, b: DiffOp, bound: int) -> bool:
    """Probe a == b by comparing a.apply(m) with b.apply(m) on all
    monomials m with exponents <= bound.

    For operators of order at most bound in each variable this is a proof,
    not a heuristic: a normal-ordered operator vanishing on that grid has
    every coefficient annihilated by an invertible Vandermonde system.  The
    operators are never subtracted, so equal pairs go through the probe too.
    """
    if a.spec != b.spec:
        raise FlagError("operators over different variable specs")
    spec = a.spec
    ring = spec.ring
    nv = spec.nspace
    exps = [()]
    for _ in range(nv):
        exps = [e + (j,) for e in exps for j in range(bound + 1)]
    for e in exps:
        powers = {}
        for var, k in zip(spec.space, e):
            if k:
                powers[var] = k
        f = Expr.of_poly(ring.monomial(1, **powers))
        if a.apply(f) != b.apply(f):
            return False
    return True
