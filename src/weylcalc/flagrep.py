"""Finite-dimensional representations on the flag of polynomial subspaces

    P_n = span{ r^a u^b : a + 2b <= n },   dim P_n = sum_{k<=n} (floor(k/2)+1).

In the graded monomial basis (sorted by (a+2b, b)) the basis of P_n is a
prefix of the basis of every higher level, so one application of an operator
per basis monomial of a top level settles the whole flag below it:
invariance_witnesses reads every level's verdict from that one pass, and the
matrix on P_top gives the matrix on each P_n as its leading block.  Matrices
are exact; characteristic polynomials come from a fraction-free elimination
with a fast path for triangular matrices, and spectrum_witnesses lists every
way a matrix misses the expected triangular structure and spectrum (an empty
list is the verdict that it has both).  On a triangular matrix with no lam on
its diagonal, spectrum_witnesses reads the spectrum off the diagonal: both
characteristic polynomials are products of monic linear factors in lam, which
factor uniquely, so comparing the factor multisets is exact and no product is
expanded; every other matrix goes through char_poly.  Eigenspaces at a rational
parameter point come from linsolve.SparseSolver with leftmost pivots, i.e.
from the unique reduced row echelon form of M - lam*I, each row scaled to
integers by its own lcm; flagrep does no elimination of its own.

equality_oracle decides a == b for polynomial-coefficient operators by
their images of every monomial x^f with exponents f <= bound, which is a
proof once bound reaches each operator's order in every space variable
(checked; a lower bound raises FlagError).  It computes those images
itself: each operator is scaled once to integer numerators over its
common denominator d, and d * op(x^f) = sum_a d*c_a perm(f, a)
x^(f - a) is built on packed integer term maps, one monomial at a time,
so it shares no code with DiffOp.apply or either compose route.  The
flag matrices above stay on DiffOp.apply, which also reports images that
are not polynomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import perm, prod

from .coeffring import Expr, MultiPoly, _exp_bound, _numerators, _packer
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
    """Image polynomial -> {(a, b): nonzero parameter-coefficient poly}.

    Distinct terms stay distinct with r and u zeroed, so each coefficient
    is copied, never summed.
    """
    split = {}
    for e, c in image.as_poly().terms.items():
        rest = tuple(0 if i in (_R_POS, _U_POS) else v for i, v in enumerate(e))
        split.setdefault((e[_R_POS], e[_U_POS]), {})[rest] = c
    return {ab: MultiPoly(RU, terms) for ab, terms in split.items()}


_LEAVES = "image of %s leaves P_%d at r^%d*u^%d (coefficient %s)"


def _escape(mono: MultiPoly, image: Expr, split, n: int):
    """Why image = op(mono) leaves P_n, or None if it stays inside."""
    if split is None:
        return "image of %s is not polynomial: %s" % (mono, image)
    for (a, b), coeff in split.items():
        if a + 2 * b > n:
            return _LEAVES % (mono, n, a, b, coeff)
    return None


def _images(op: DiffOp, top: int):
    """The basis of P_top, the split image of each of its monomials (None
    where the image is not polynomial), and the invariance_witnesses of every
    level n <= top, from one application of op per monomial."""
    if op.spec != RU_SPEC:
        raise FlagError("flag representation requires the (r, u) chart")
    basis = MonomialBasis(top)
    monos = [basis.monomial(i) for i in range(len(basis))]
    images = [op.apply(Expr.of_poly(mono)) for mono in monos]
    splits = [_split_image(image) if image.is_poly() else None for image in images]
    witnesses = []
    for n in range(top + 1):
        escapes = (
            _escape(monos[i], images[i], splits[i], n) for i in range(flag_dim(n))
        )
        witnesses.append(next((w for w in escapes if w is not None), None))
    return basis, splits, witnesses


def invariance_witnesses(op: DiffOp, top: int) -> list:
    """For each n = 0..top: None if op maps P_n into P_n, else the first
    basis monomial of P_n whose image leaves it and the first escaping term."""
    return _images(op, top)[2]


@dataclass
class OperatorMatrix:
    """Matrix M with apply(op, e_j) = sum_i M[i][j] e_i."""

    basis: MonomialBasis
    entries: list  # list of rows, MultiPoly over RU (parameters only)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def leading_block(self, n: int) -> "OperatorMatrix":
        """The matrix on P_n, a prefix of this basis; NotInvariant if a
        column of the block has a nonzero entry below it."""
        if not 0 <= n <= self.basis.n:
            raise FlagError("P_%d is not a level of P_%d" % (n, self.basis.n))
        d = flag_dim(n)
        for i in range(d, self.dim):
            for j in range(d):
                if not self.entries[i][j].is_zero():
                    a, b = self.basis.pairs[i]
                    raise NotInvariant(
                        _LEAVES % (self.basis.monomial(j), n, a, b, self.entries[i][j])
                    )
        return OperatorMatrix(
            basis=MonomialBasis(n), entries=[row[:d] for row in self.entries[:d]]
        )


def matrix_of(op: DiffOp, n: int) -> OperatorMatrix:
    basis, splits, witnesses = _images(op, n)
    if witnesses[n] is not None:
        raise NotInvariant(witnesses[n])
    dim = len(basis)
    # one zero for every empty entry: no caller changes an entry in place
    # (char_poly's Bareiss elimination works on its own differences)
    zero = RU.zero()
    entries = [[zero] * dim for _ in range(dim)]
    for j, split in enumerate(splits):
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


def spectrum_witnesses(matrix: OperatorMatrix) -> list:
    """Why the radial operator's matrix on P_n misses its graded-basis
    triangular structure or its full spectrum: the first nonzero entry below
    the diagonal in each row, each diagonal entry off its level eigenvalue,
    and a characteristic-polynomial mismatch.  Empty when the matrix has both.

    On a triangular matrix (upper or lower) with no lam in its diagonal the
    characteristic polynomial is prod_i (lam - M_ii), a product of monic
    linear factors in lam over the UFD Q[lam, beta, mu, p, ...], as is the
    expected prod_k (lam - level_eigenvalue(k))^(k//2+1).  Two such products
    are equal exactly when their factor multisets are, so the check compares
    the diagonal with the level eigenvalues as multisets and expands neither
    product.  Any other matrix goes through char_poly.
    """
    entries = matrix.entries
    witnesses = []
    for i in range(matrix.dim):
        j = next((j for j in range(i) if not entries[i][j].is_zero()), None)
        if j is not None:
            witnesses.append("below-diagonal entry (%d,%d) = %s" % (i, j, entries[i][j]))
    # no below-diagonal witness means upper triangular
    triangular = not witnesses or _is_lower_triangular(entries)
    eigs = [level_eigenvalue(k) for k in range(matrix.basis.n + 1)]
    diagonal = [entries[i][i] for i in range(matrix.dim)]
    for i, (a, b) in enumerate(matrix.basis.pairs):
        want = eigs[a + 2 * b]
        if diagonal[i] != want:
            witnesses.append("diagonal %d: got %s, want %s" % (i, diagonal[i], want))
    if triangular and not any(d.uses("lam") for d in diagonal):
        same = Counter(diagonal) == Counter(
            {eig: k // 2 + 1 for k, eig in enumerate(eigs)}
        )
    else:
        lam = RU.var("lam")
        expected = RU.one()
        for k, eig in enumerate(eigs):
            expected = expected * (lam - eig) ** (k // 2 + 1)
        same = char_poly(matrix) == expected
    if not same:
        witnesses.append("characteristic polynomial mismatch")
    return witnesses


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
    x_p = -row_p[f]/d_p on the pivot columns p, a ratio of the integers that
    integral_form makes of each row.
    """
    solver = SparseSolver()
    for i, row in enumerate(dense):
        shifted = {-j: v for j, v in enumerate(row)}
        shifted[-i] = row[i] - lam
        # the system is homogeneous, so scaling a row keeps the kernel
        solver.add(integral_form(shifted)[1], ())
    out = []
    for f in range(len(dense)):
        if -f in solver.pivots:
            continue
        poly = basis.monomial(f)
        for key, (prow, _, d) in solver.pivots.items():
            if -f in prow:
                poly = poly - basis.monomial(-key) * Fraction(prow[-f], d)
        _, lc = poly.leading()
        if lc != 1:
            poly = poly * (1 / lc)
        out.append(poly)
    return out


def eigenpolynomials(matrix: OperatorMatrix, point: dict) -> list:
    """Exact bases of the level-k eigenspaces, k = 0..n, of the radial
    operator's matrix on P_n at a rational parameter point, each polynomial
    normalized to leading coefficient 1.
    """
    n = matrix.basis.n
    eigs = [level_eigenvalue(k).evaluate(point) for k in range(n + 1)]
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            if eigs[a] == eigs[b]:
                raise EigenvalueCollision(
                    "levels %d and %d collide at this point; pick a parameter "
                    "point with beta != 0 and distinct level shifts" % (a, b)
                )
    dense = [[e.evaluate(point) for e in row] for row in matrix.entries]
    return [_eigenspace(matrix.basis, dense, lam) for lam in eigs]


def _integer_images(op: DiffOp, grid, pack):
    """(d, images): d is the common denominator of op's coefficients, and
    images yields, for each exponent f of grid in turn,

        d * op(x^f) = sum_a d*c_a * perm(f, a) * x^(f - a)

    as {packed monomial: integer} with no zero entry.  op is scaled once to
    integer numerators over d, so an image costs integer multiply-adds on
    packed keys: x^(f - a) is one packed shift, and perm(f, a) vanishes
    unless a <= f.  A coefficient that is not a polynomial raises FlagError.
    Coefficients are reduced, so an adjunct exponent is 0 or 1 and stays
    so: x^f shifts space variables only, which are never adjuncts.
    """
    spec = op.spec
    ring = spec.ring
    for c in op.terms.values():
        if not c.is_poly():
            raise FlagError("coefficient %s is not a polynomial" % c)
    flat = [(a, e, v) for a, c in op.terms.items() for e, v in c.num.terms.items()]
    d, nums = _numerators([v for _, _, v in flat])
    rows = {}
    for (a, e, _), n in zip(flat, nums):
        rows.setdefault(a, []).append((int.from_bytes(pack(*e), "big"), n))
    units = [
        int.from_bytes(pack(*(int(i == s) for i in range(ring.nsyms))), "big")
        for s in map(ring.index_of, spec.space)
    ]

    def images():
        for f in grid:
            out = {}
            get = out.get
            for a, terms in rows.items():
                m = prod(map(perm, f, a))
                if not m:
                    continue
                shift = sum((fj - aj) * u for fj, aj, u in zip(f, a, units))
                for key, n in terms:
                    k = key + shift
                    out[k] = get(k, 0) + m * n
            yield {k: v for k, v in out.items() if v}

    return d, images()


def equality_oracle(a: DiffOp, b: DiffOp, bound: int) -> bool:
    """Probe a == b by comparing their images of every monomial x^f with
    exponents f <= bound.

    This is a proof, not a heuristic, and its premise is checked: bound
    below either operator's order in some space variable raises FlagError.
    A normal-ordered operator of order at most bound in each variable that
    vanishes on the grid has every coefficient zero: taking f in
    increasing order, once every c_a with a < f is zero, op(x^f) is
    f! * c_f.  The images d * op(x^f) come from _integer_images, one
    monomial at a time for both operators, stopping at the first mismatch;
    the images of a and b agree when d_b * num_a == d_a * num_b term by
    term.  No Fraction, MultiPoly or Expr is built per image, and neither
    DiffOp.apply nor composition is used.  The operators are never
    subtracted, so equal pairs go through the probe too.  Coefficients must
    be polynomials: any other coefficient raises FlagError.
    """
    if a.spec != b.spec:
        raise FlagError("operators over different variable specs")
    spec = a.spec
    for op in (a, b):
        for j, var in enumerate(spec.space):
            order = max((idx[j] for idx in op.terms), default=0)
            if bound < order:
                raise FlagError(
                    "bound %d is below the operator's order %d in %s: the "
                    "monomial grid cannot settle equality" % (bound, order, var)
                )
    nsyms = spec.ring.nsyms
    top = max(
        (_exp_bound(c.num.terms, nsyms) for op in (a, b) for c in op.terms.values()),
        default=0,
    )
    pack = _packer(nsyms, top + bound).pack
    grid = list(product(range(bound + 1), repeat=spec.nspace))
    da, images_a = _integer_images(a, grid, pack)
    db, images_b = _integer_images(b, grid, pack)
    for image_a, image_b in zip(images_a, images_b):
        if image_a.keys() != image_b.keys():
            return False
        for k, n in image_a.items():
            if db * n != da * image_b[k]:
                return False
    return True
