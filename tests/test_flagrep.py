"""Weighted polynomial flag: invariance, matrices, spectra, eigenbases,
and the finite-dimensional equality oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest
from randops import random_op

from weylcalc import flagrep, registry
from weylcalc.coeffring import Expr, _packer
from weylcalc.coulomb2d import b_a, c_op, h_a, l_a
from weylcalc.flagrep import (
    DEFAULT_POINT,
    EigenvalueCollision,
    FlagError,
    MonomialBasis,
    NotInvariant,
    OperatorMatrix,
    char_poly,
    eigenpolynomials,
    equality_oracle,
    flag_dim,
    invariance_witnesses,
    level_eigenvalue,
    matrix_of,
    spectrum_witnesses,
)
from weylcalc.spaces import RU, RU_SPEC
from weylcalc.weyl import DiffOp, format_op, mul_op, partial, zero_op

REPS = 1000


def test_flag_dimensions():
    assert [flag_dim(n) for n in range(9)] == [1, 2, 4, 6, 9, 12, 16, 20, 25]
    assert flag_dim(5) == 12
    assert flag_dim(8) == 25


def test_flag_basis_is_weight_graded():
    pairs = MonomialBasis(3).pairs
    assert pairs == ((0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1))
    for n in range(9):
        basis = MonomialBasis(n).pairs
        assert len(basis) == flag_dim(n)
        assert all(a + 2 * b <= n for a, b in basis)
        weights = [a + 2 * b for a, b in basis]
        assert weights == sorted(weights)


def test_invariance_positive_and_negative():
    assert invariance_witnesses(h_a(), 4)[4] is None
    # lowering the weight keeps the flag invariant
    lower = mul_op(RU_SPEC, RU.var("r")).compose(partial(RU_SPEC, "u"))
    assert invariance_witnesses(lower, 5)[5] is None
    # multiplying by r raises the weight and escapes
    raiser = mul_op(RU_SPEC, RU.var("r"))
    witness = invariance_witnesses(raiser, 3)[3]
    assert witness is not None
    assert witness, "a failed invariance check must name an escaping monomial"


def test_matrix_on_first_level():
    m = matrix_of(h_a(), 1)
    assert m.dim == 2
    beta, mu, p = RU.var("beta"), RU.var("mu"), RU.var("p")
    one = RU.one()
    assert m.entries[0][0] == beta * (mu + p + one)
    assert m.entries[0][1] == -(mu + p + one)
    assert m.entries[1][0] == RU.zero()
    assert m.entries[1][1] == beta * (mu + p + one * 2)


def test_char_poly_factors_over_levels():
    lam = RU.var("lam")
    for n in (1, 2, 3):
        cp = char_poly(matrix_of(h_a(), n))
        want = RU.one()
        for k in range(n + 1):
            factor = lam - level_eigenvalue(k)
            for _ in range(k // 2 + 1):
                want = want * factor
        assert cp == want, "characteristic polynomial mismatch at n=%d" % n


def _cofactor_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return RU.one()
    det = RU.zero()
    for j, a in enumerate(m[0]):
        if not a.is_zero():
            term = a * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
            det = det + term if j % 2 == 0 else det - term
    return det


def _char_poly_by_cofactors(entries):
    lam = RU.var("lam")
    return _cofactor_det([
        [(lam if i == j else RU.zero()) - e for j, e in enumerate(row)]
        for i, row in enumerate(entries)
    ])


def test_char_poly_swaps_rows_on_a_zero_leading_entry():
    # M[0][0] = lam makes the leading entry of lam*I - M zero, so the
    # fraction-free elimination must swap in row 1 and flip the sign
    lam, beta, mu, p = (RU.var(s) for s in ("lam", "beta", "mu", "p"))
    zero, one = RU.zero(), RU.one()
    entries = [
        [lam, beta, zero, mu],
        [p, one * 2, beta * mu, one],
        [mu + one, zero, p, beta],
        [one * Fraction(1, 2), p * beta, mu, one * 3],
    ]
    cp = char_poly(OperatorMatrix(basis=MonomialBasis(2), entries=entries))
    assert cp == _char_poly_by_cofactors(entries)
    assert not cp.is_zero()


def test_char_poly_of_a_lower_triangular_matrix(monkeypatch):
    # the triangular shortcut multiplies the diagonal; no elimination runs
    def no_elimination(m):
        raise AssertionError("lower-triangular matrix reached the elimination")

    monkeypatch.setattr(flagrep, "_bareiss_det", no_elimination)
    beta, mu, p = (RU.var(s) for s in ("beta", "mu", "p"))
    zero, one = RU.zero(), RU.one()
    entries = [
        [beta, zero, zero, zero],
        [p, mu * 2, zero, zero],
        [mu + one, beta * p, p - one, zero],
        [one * Fraction(1, 3), mu, beta * beta, beta + mu],
    ]
    cp = char_poly(OperatorMatrix(basis=MonomialBasis(2), entries=entries))
    assert cp == _char_poly_by_cofactors(entries)
    lam = RU.var("lam")
    assert cp == (lam - beta) * (lam - mu * 2) * (lam - p + one) * (lam - beta - mu)


def test_level_eigenvalue_formula():
    beta, mu, p = RU.var("beta"), RU.var("mu"), RU.var("p")
    for k in range(6):
        want = beta * (mu + p + RU.const(k + 1))
        assert level_eigenvalue(k) == want


def _no_char_poly(matrix):
    raise AssertionError("a triangular block reached char_poly")


def test_spectrum_reports(monkeypatch):
    # every block of h_a is upper triangular with a lam-free diagonal, so its
    # spectrum is read off the diagonal and char_poly never runs
    monkeypatch.setattr(flagrep, "char_poly", _no_char_poly)
    top = matrix_of(h_a(), 8)
    for n in range(9):
        matrix = top.leading_block(n)
        assert spectrum_witnesses(matrix) == []
        assert matrix.dim == flag_dim(n)


def _h_a_entries(n):
    matrix = matrix_of(h_a(), n)
    return matrix.basis, [row[:] for row in matrix.entries]


def test_spectrum_witnesses_wrong_diagonal_entry():
    # P_2 basis 1, r, r^2, u: put level 1's eigenvalue on u's diagonal slot
    basis, entries = _h_a_entries(2)
    entries[3][3] = entries[1][1]
    assert spectrum_witnesses(OperatorMatrix(basis, entries)) == [
        "diagonal 3: got beta*mu + beta*p + 2*beta, want beta*mu + beta*p + 3*beta",
        "characteristic polynomial mismatch",
    ]


def test_spectrum_witnesses_below_diagonal_entry():
    # u's image does not feed r^2's, so an entry at (3,2) keeps the
    # characteristic polynomial: only the triangular structure is broken
    basis, entries = _h_a_entries(2)
    entries[3][2] = RU.var("beta")
    assert spectrum_witnesses(OperatorMatrix(basis, entries)) == [
        "below-diagonal entry (3,2) = beta"
    ]
    # one witness per row, at its first nonzero column
    entries[2][1] = RU.var("mu")
    entries[3][1] = RU.const(2)
    assert spectrum_witnesses(OperatorMatrix(basis, entries)) == [
        "below-diagonal entry (2,1) = mu",
        "below-diagonal entry (3,1) = 2",
        "characteristic polynomial mismatch",
    ]


def _reference_spectrum_witnesses(basis, entries):
    """spectrum_witnesses by the definition: the characteristic polynomial by
    cofactor expansion against the expanded product of level factors."""
    out = []
    for i, row in enumerate(entries):
        j = next((j for j in range(i) if not row[j].is_zero()), None)
        if j is not None:
            out.append("below-diagonal entry (%d,%d) = %s" % (i, j, row[j]))
    for i, (a, b) in enumerate(basis.pairs):
        want = level_eigenvalue(a + 2 * b)
        if entries[i][i] != want:
            out.append("diagonal %d: got %s, want %s" % (i, entries[i][i], want))
    lam = RU.var("lam")
    expected = RU.one()
    for k in range(basis.n + 1):
        for _ in range(k // 2 + 1):
            expected = expected * (lam - level_eigenvalue(k))
    if _char_poly_by_cofactors(entries) != expected:
        out.append("characteristic polynomial mismatch")
    return out


def test_spectrum_witnesses_swapped_levels_keep_the_spectrum(monkeypatch):
    # P_2 basis 1, r, r^2, u: swapping the diagonal slots of r (level 1) and
    # u (level 2) puts both off their levels but keeps the eigenvalue
    # multiset, so the characteristic polynomial still matches; the
    # transpose is lower triangular and takes the same factored comparison
    monkeypatch.setattr(flagrep, "char_poly", _no_char_poly)
    basis, entries = _h_a_entries(2)
    entries[1][1], entries[3][3] = entries[3][3], entries[1][1]
    got = spectrum_witnesses(OperatorMatrix(basis, entries))
    assert [w.split(":")[0] for w in got] == ["diagonal 1", "diagonal 3"]
    assert got == _reference_spectrum_witnesses(basis, entries)
    transpose = [list(col) for col in zip(*entries)]
    got = spectrum_witnesses(OperatorMatrix(basis, transpose))
    assert "characteristic polynomial mismatch" not in got
    assert got == _reference_spectrum_witnesses(basis, transpose)


def test_spectrum_witnesses_lam_on_the_diagonal_uses_char_poly(monkeypatch):
    # lam - M_00 is no longer a monic linear factor in lam, so the factored
    # comparison does not apply and the block goes through char_poly
    calls = []
    true_char_poly = flagrep.char_poly

    def spy(matrix):
        calls.append(matrix)
        return true_char_poly(matrix)

    monkeypatch.setattr(flagrep, "char_poly", spy)
    basis, entries = _h_a_entries(2)
    entries[0][0] = entries[0][0] + RU.var("lam")
    got = spectrum_witnesses(OperatorMatrix(basis, entries))
    assert len(calls) == 1
    assert got == _reference_spectrum_witnesses(basis, entries)
    assert got[-1] == "characteristic polynomial mismatch"


def test_eigenpolynomials_simple_point():
    point = {"beta": Fraction(1), "mu": Fraction(0), "p": Fraction(0)}
    ground = eigenpolynomials(matrix_of(h_a(), 1), point)[0]
    excited = eigenpolynomials(matrix_of(h_a(), 1), point)[1]
    assert [str(q) for q in ground] == ["1"]
    assert [str(q) for q in excited] == ["r - 1"]


def test_eigenpolynomials_are_eigenvectors():
    n = 4
    op = h_a().substitute({k: RU.const(v) for k, v in DEFAULT_POINT.items()})
    total = 0
    for k in range(n + 1):
        lam = level_eigenvalue(k).evaluate(DEFAULT_POINT)
        for q in eigenpolynomials(matrix_of(h_a(), n), DEFAULT_POINT)[k]:
            image = op.apply(Expr_of(q))
            assert (image - Expr_of(q * lam)).is_zero()
            total += 1
    assert total == flag_dim(n)


def Expr_of(poly):
    return Expr.of_poly(poly)


def _dense_rref_eigenbasis(matrix, lam, point):
    """Level eigenpolynomials from a dense Fraction RREF written here, which
    shares no elimination code with weylcalc: leftmost pivots, one vector
    per free column in increasing order, leading coefficient 1."""
    rows = []
    for i, row in enumerate(matrix.entries):
        vals = []
        for j, e in enumerate(row):
            v = e.evaluate(point)
            if i == j:
                v = v - lam
            vals.append(v)
        rows.append(vals)
    dim = len(rows)
    pivots = []
    for c in range(dim):
        r = len(pivots)
        pr = next((i for i in range(r, dim) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    out = []
    for free in (c for c in range(dim) if c not in pivots):
        poly = matrix.basis.monomial(free)
        for row, c in zip(rows, pivots):
            poly = poly - matrix.basis.monomial(c) * row[free]
        _, lc = poly.leading()
        out.append(poly * (1 / lc))
    return out


def test_eigenpolynomials_match_dense_rref():
    points = [
        DEFAULT_POINT,
        {"beta": Fraction(3), "mu": Fraction(1, 2), "p": Fraction(0)},
        {"beta": Fraction(-2, 5), "mu": Fraction(7, 3), "p": Fraction(1)},
    ]
    widest = 0
    for point in points:
        for n in range(9):
            matrix = matrix_of(h_a(), n)
            levels = eigenpolynomials(matrix, point)
            assert len(levels) == n + 1
            for k, got in enumerate(levels):
                want = _dense_rref_eigenbasis(matrix, level_eigenvalue(k).evaluate(point), point)
                assert [str(q) for q in got] == [str(q) for q in want], (point, n, k)
                widest = max(widest, len(got))
    # multi-dimensional eigenspaces are where the pivot rule shows
    assert widest == 5


def test_one_application_per_basis_monomial(monkeypatch):
    op = h_a()
    calls = []
    apply = DiffOp.apply

    def counting(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(DiffOp, "apply", counting)
    for n in (0, 3, 8):
        calls.clear()
        matrix_of(op, n)
        assert len(calls) == flag_dim(n)
        calls.clear()
        eigenpolynomials(matrix_of(op, n), DEFAULT_POINT)
        assert len(calls) == flag_dim(n)


def test_eigenvalue_collision_guard():
    degenerate = {"beta": Fraction(0), "mu": Fraction(0), "p": Fraction(0)}
    with pytest.raises(EigenvalueCollision):
        eigenpolynomials(matrix_of(h_a(), 2), degenerate)[1]


def test_matrix_requires_invariance():
    with pytest.raises(FlagError):
        matrix_of(mul_op(RU_SPEC, RU.var("r")), 2)


def _even_levels_only() -> DiffOp:
    """r * prod_{t in 0,2,4,6,8} (r d_r - t): kills r^a u^b for even a <= 8
    and raises the weight of every other monomial by one, so it preserves
    P_n exactly for even n <= 8."""
    r = RU.var("r")
    euler = mul_op(RU_SPEC, r).compose(partial(RU_SPEC, "r"))
    op = mul_op(RU_SPEC, r)
    for t in (0, 2, 4, 6, 8):
        op = op.compose(euler - mul_op(RU_SPEC, RU.const(t)))
    return op


def _first_escape(op, n):
    """Per-level reference for the invariance pass: apply op to the basis of
    P_n in order and name the first image that is not polynomial, or its
    first term of weight above n with that monomial's full coefficient."""
    ir, iu = RU.index_of("r"), RU.index_of("u")
    for a, b in MonomialBasis(n).pairs:
        mono = RU.monomial(1, r=a, u=b)
        image = op.apply(Expr.of_poly(mono))
        if not image.is_poly():
            return "image of %s is not polynomial: %s" % (mono, image)
        terms = image.as_poly().terms
        escaping = [e for e in terms if e[ir] + 2 * e[iu] > n]
        if escaping:
            at = (escaping[0][ir], escaping[0][iu])
            coeff = RU.zero()
            for e, c in terms.items():
                if (e[ir], e[iu]) == at:
                    rest = {s: k for s, k in zip(RU.symbols, e) if s not in ("r", "u")}
                    coeff = coeff + RU.monomial(c, **rest)
            return "image of %s leaves P_%d at r^%d*u^%d (coefficient %s)" % (
                (mono, n) + at + (coeff,))
    return None


def test_invariance_pass_matches_a_per_level_reference():
    r, beta = RU.var("r"), RU.var("beta")
    ops = {
        "even": _even_levels_only(),
        "raiser": mul_op(RU_SPEC, r * beta + RU.var("u") * RU.var("mu")),
        "pole": mul_op(RU_SPEC, Expr.make(RU.one(), r)).compose(partial(RU_SPEC, "r")),
        "h_a": h_a(),
    }
    got = {name: invariance_witnesses(op, 8) for name, op in ops.items()}
    for name, op in ops.items():
        assert got[name] == [_first_escape(op, n) for n in range(9)], name
    assert [n for n, w in enumerate(got["even"]) if w is not None] == [1, 3, 5, 7]
    assert got["h_a"] == [None] * 9
    # 1/r * d_r kills 1, so P_0 is preserved, and sends r out of the polynomials
    assert got["pole"][0] is None
    assert all("is not polynomial" in w for w in got["pole"][1:])


def test_leading_blocks_are_the_level_matrices():
    for build in (h_a, l_a, b_a, c_op):
        top = matrix_of(build(), 8)
        for n in range(9):
            block = top.leading_block(n)
            ref = matrix_of(build(), n)
            assert block.basis.n == n
            assert block.basis.pairs == ref.basis.pairs
            assert block.entries == ref.entries, (build.__name__, n)


def test_leading_block_rejects_a_level_the_operator_leaves():
    op = _even_levels_only()
    top = matrix_of(op, 8)
    for n in (1, 3, 5, 7):
        with pytest.raises(NotInvariant):
            top.leading_block(n)
    for n in (0, 2, 4, 6, 8):
        assert top.leading_block(n).entries == matrix_of(op, n).entries
    with pytest.raises(FlagError):
        top.leading_block(9)


def test_one_pass_per_operator(monkeypatch):
    calls = []
    apply = DiffOp.apply

    def counting(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(DiffOp, "apply", counting)
    invariance_witnesses(h_a(), 8)
    assert len(calls) == flag_dim(8) == 25
    # four operators in the flag group, the h_a matrix once in each of the others
    for name, want in (("2d.flag.invariance", 100), ("2d.spectrum", 25), ("2d.eigenbasis", 25)):
        calls.clear()
        [res] = registry.run_checks([name])
        assert res.passed, res.witnesses
        assert len(calls) == want, name


def test_equality_oracle_agrees_with_term_maps():
    rng = random.Random(2002)
    agree = disagree = 0
    for _ in range(REPS):
        a = random_op(rng)
        b = a if rng.random() < 0.5 else a + random_op(rng)
        exact = (a - b).is_zero()
        probed = equality_oracle(a, b, 8)
        assert probed == exact, "oracle disagrees:\nA=%s\nB=%s" % (format_op(a), format_op(b))
        if exact:
            agree += 1
        else:
            disagree += 1
    assert agree > 100 and disagree > 100, "the sample must exercise both outcomes"


def test_equality_oracle_never_subtracts_operators(monkeypatch):
    # an equal pair must be settled by the probe, not by a - b normal-ordering to zero
    a = h_a().compose(mul_op(RU_SPEC, RU.var("u")))
    b = h_a().compose(mul_op(RU_SPEC, RU.var("u")))

    def refuse(self, other):
        raise AssertionError("the oracle subtracted the operators")

    monkeypatch.setattr(DiffOp, "__sub__", refuse)
    assert equality_oracle(a, b, 4)
    assert not equality_oracle(a, h_a(), 4)


def test_equality_oracle_neither_applies_nor_composes(monkeypatch):
    # the oracle builds its own images, so it shares no code path with
    # either compose route or with DiffOp.apply
    hl, lh = h_a().compose(l_a()), l_a().compose(h_a())

    def refuse(self, other):
        raise AssertionError("the oracle called into weyl")

    monkeypatch.setattr(DiffOp, "apply", refuse)
    monkeypatch.setattr(DiffOp, "compose", refuse)
    assert equality_oracle(hl, lh, 12)
    assert not equality_oracle(hl, h_a(), 12)


def test_integer_images_are_apply_scaled_by_the_denominator():
    """On the grid up to bound 6 each of the oracle's images is
    d * op.apply(x^f), d the operator's common denominator; apply is the
    reference.  The random operators have Gaussian coefficients, over
    the (r, u) chart with i adjoined."""
    rng = random.Random(3003)
    randoms = [random_op(rng) for _ in range(50)]
    assert sum(
        any(c.num.has_adjuncts() for c in op.terms.values()) for op in randoms
    ) > 10, "the sample must exercise Gaussian coefficients"
    ops = [h_a(), l_a(), b_a(), c_op(), h_a().compose(l_a())] + randoms
    grid = list(product(range(7), repeat=2))
    for op in ops:
        ring = op.spec.ring
        top = max(max(map(max, c.num.terms)) for c in op.terms.values())
        packer = _packer(ring.nsyms, top + 6)
        d, images = flagrep._integer_images(op, grid, packer.pack)
        seen = 0
        for (i, j), image in zip(grid, images):
            want = op.apply(Expr.of_poly(ring.monomial(1, r=i, u=j))).as_poly() * d
            got = {
                packer.unpack(k.to_bytes(packer.size, "big")): Fraction(n)
                for k, n in image.items()
            }
            assert got == want.terms, (format_op(op), i, j)
            seen += 1
        assert seen == len(grid)


def test_equality_oracle_probes_the_edge_of_the_grid():
    # d_r^12 and d_u^12 kill every monomial below r^12 and u^12 respectively,
    # so only the grid's last row or column tells these pairs apart
    a = h_a()
    for var in ("r", "u"):
        b = a + partial(RU_SPEC, var, 12)
        assert not equality_oracle(a, b, 12)
        assert not equality_oracle(b, a, 12)


def test_equality_oracle_weighs_each_denominator():
    # h_a/3 has h_a's integer numerators, over 6 instead of 2
    a = h_a()
    b = a.scale(Fraction(1, 3))
    assert not equality_oracle(a, b, 4)
    assert not equality_oracle(b, a, 4)
    assert equality_oracle(b, a.scale(Fraction(2, 6)), 4)

def test_equality_oracle_refuses_a_grid_below_the_order():
    # an empty grid proves nothing
    for a, b in ((h_a(), l_a()), (zero_op(RU_SPEC), zero_op(RU_SPEC))):
        with pytest.raises(FlagError, match="bound -1 is below"):
            equality_oracle(a, b, -1)
    # d_r^5 vanishes on every monomial up to r^2, yet it is not zero
    d5 = partial(RU_SPEC, "r", 5)
    with pytest.raises(FlagError, match="order 5 in r"):
        equality_oracle(d5, zero_op(RU_SPEC), 2)
    with pytest.raises(FlagError, match="order 5 in r"):
        equality_oracle(zero_op(RU_SPEC), d5, 4)
    assert not equality_oracle(d5, zero_op(RU_SPEC), 5)


def test_equality_oracle_refuses_a_non_polynomial_coefficient():
    pole = mul_op(RU_SPEC, Expr.make(RU.one(), RU.var("r"))).compose(partial(RU_SPEC, "r"))
    for a, b in ((pole, pole), (h_a(), pole), (pole, h_a())):
        with pytest.raises(FlagError, match="not a polynomial"):
            equality_oracle(a, b, 4)


def test_matrix_readers_leave_the_entries_as_they_were():
    """matrix_of fills every empty entry with one shared zero, so no reader
    may change an entry in place: the characteristic polynomial (Bareiss on
    c's matrix, which is not triangular), the spectrum witnesses, leading
    blocks and the eigenbases all leave every entry as it was."""
    c_matrix, h_matrix = matrix_of(c_op(), 4), matrix_of(h_a(), 4)
    assert not flagrep._is_upper_triangular(c_matrix.entries)
    assert not flagrep._is_lower_triangular(c_matrix.entries)
    matrices = (c_matrix, h_matrix)
    before = [[[(e, dict(e.terms)) for e in row] for row in m.entries] for m in matrices]
    char_poly(c_matrix)
    spectrum_witnesses(h_matrix)
    eigenpolynomials(h_matrix, DEFAULT_POINT)
    for m in matrices:
        m.leading_block(2)
    for m, rows in zip(matrices, before):
        for row, was in zip(m.entries, rows):
            for e, (old, terms) in zip(row, was):
                assert e is old and e.terms == terms
    zeros = {id(e) for row in c_matrix.entries for e in row if e.is_zero()}
    assert len(zeros) == 1
