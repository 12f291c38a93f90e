"""Sparse exact linear solving and decomposition into generator monomials.

The solver keeps a reduced row echelon basis of pivot rows keyed by column,
so adding an equation costs one pass over its support.  Its rows are over
the Gaussian integers Z[i], and it eliminates fraction-free: each pivot row
carries its own integer pivot entry instead of being divided by it.  There
is no pivoting heuristic to tune and no tolerance anywhere.

On top of it, decompose() writes a target operator as

    sum_M  pi_M(params) * op(M)

over ordered monomials M in a list of named generator operators, with the
parameter polynomials pi_M found by exact elimination and the result checked
by reconstructing the operator and subtracting.  The products op(M) come
from monomial_ops(), which the caller runs once per generator set and
degree and hands to every decompose() over that set.  Each column carries
its product's Z[i] numerators over the product's own denominator (see
integral_form), the right-hand side the target's, and each solved value is
scaled back once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from .coeffring import Expr, GaussRat, MultiPoly, NotPolynomial, _numerators
from .weyl import DiffOp, identity


class SparseSolver:
    """Incremental fraction-free Gaussian elimination over sparse rows.

    Columns are arbitrary comparable hashables.  Rows are added one at a
    time, and every entry and right-hand side is an element of Z[i]: a
    plain int when real, a GaussRat with integral parts otherwise.  Entries
    are nonzero; the caller scales its rows (see integral_form) and the
    solver takes them as given.  Each pivot row keeps its own integer pivot
    entry d > 0, so it stands for d*x_pivot + sum row[c]*x_c = rhs.
    Eliminating an entry f against it forms d*row - f*prow, so nothing is
    ever divided by a pivot; a pivot row is divided by the integer content
    of its entries after it is formed and after each back-reduction, which
    keeps its entries small.

    The pivot rule is the largest column of the reduced row, and the pivot
    basis is kept fully reduced, so consistency is known as soon as a
    contradictory row arrives.  Every row stays a nonzero multiple of the
    row that elimination over the Gaussian rationals would form, so the
    pivots, the contradictions and the solution are the same.
    """

    def __init__(self):
        self.pivots = {}        # col -> (row dict without col, rhs, pivot entry d)
        self.occ = {}           # col -> set of pivot cols whose rows touch it
        self.contradictions = 0

    def add(self, coeffs: dict, rhs) -> bool:
        """Add equation sum coeffs[c]*x_c = rhs over Z[i]; False on
        contradiction.  coeffs is copied, never changed."""
        pivots = self.pivots
        occ = self.occ
        row = dict(coeffs)
        for col in list(row):
            piv = pivots.get(col)
            if piv is None:
                continue
            prow, prhs, d = piv
            f = row.pop(col)
            if d != 1:
                for c2 in row:
                    row[c2] *= d
                rhs *= d
            for c2, v2 in prow.items():
                nv = row.get(c2, 0) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
            rhs -= f * prhs
        if not row:
            if rhs:
                self.contradictions += 1
                return False
            return True
        pivot_col = max(row)
        d = row.pop(pivot_col)
        if type(d) is not int:
            if d.im:
                # a non-real pivot: multiply through by its conjugate
                conj = d.conj()
                row = {c: v * conj for c, v in row.items()}
                rhs *= conj
                d *= conj
            d = d.re.numerator
        prow, prhs, d = _primitive(row, rhs, d)
        # keep existing pivot rows reduced against the new pivot
        for owner in list(occ.get(pivot_col, ())):
            orow, orhs, od = pivots[owner]
            f = orow.pop(pivot_col, None)
            if f is None:
                continue
            if d != 1:
                for c2 in orow:
                    orow[c2] *= d
                orhs *= d
                od *= d
            for c2, v2 in prow.items():
                nv = orow.get(c2, 0) - f * v2
                if nv:
                    if c2 not in orow:
                        occ.setdefault(c2, set()).add(owner)
                    orow[c2] = nv
                else:
                    if c2 in orow:
                        del orow[c2]
                        occ[c2].discard(owner)
            pivots[owner] = _primitive(orow, orhs - f * prhs, od)
        occ.pop(pivot_col, None)
        pivots[pivot_col] = (prow, prhs, d)
        for c2 in prow:
            occ.setdefault(c2, set()).add(pivot_col)
        return True

    def solution(self) -> dict:
        """Particular solution with all free columns set to zero."""
        return {col: GaussRat.of(rhs) / d for col, (_, rhs, d) in self.pivots.items()}


def integral_form(values: dict) -> tuple:
    """(den, {k: den*v}) for the lcm den of the denominators of the
    Gaussian rationals values, dropping zeros: each den*v is in Z[i], an int
    when real."""
    den, nums = _numerators(values.values())
    return den, {
        k: GaussRat(re, im) if im else re for k, (re, im) in zip(values, nums) if re or im
    }


def _parts(v) -> tuple:
    """The integer parts of a Gaussian integer."""
    return (v,) if type(v) is int else (v.re.numerator, v.im.numerator)


def _divided(v, c: int):
    """v/c for a Gaussian integer v divisible by the integer c."""
    if type(v) is int:
        return v // c
    re, im = v.re.numerator // c, v.im.numerator // c
    return GaussRat(re, im) if im else re


def _primitive(row: dict, rhs, d: int):
    """A pivot row over the integer content of its entries, with d > 0."""
    try:
        c = gcd(d, rhs, *row.values())
    except TypeError:
        # non-real entries: the content is the gcd of all their parts, and
        # dividing by it also turns entries that became real back into ints
        c = gcd(d, *_parts(rhs), *(p for v in row.values() for p in _parts(v)))
    else:
        if c == 1 and d > 0:
            return row, rhs, d
    if d < 0:
        c = -c
    return {k: _divided(v, c) for k, v in row.items()}, _divided(rhs, c), d // c


# -- weight grading ------------------------------------------------------------


def term_weight(spec, weights: dict, a, exps) -> int:
    w = 0
    for i, k in enumerate(exps):
        if k:
            w += k * weights.get(spec.ring.symbols[i], 0)
    for i, k in enumerate(a):
        if k:
            w -= k * weights.get(spec.space[i], 0)
    return w


def op_weight(op: DiffOp, weights: dict):
    """Common weight of all terms, or None if inhomogeneous or zero."""
    w = None
    for a, c in op.terms.items():
        p = c.as_poly()
        for e in p.terms:
            tw = term_weight(op.spec, weights, a, e)
            if w is None:
                w = tw
            elif tw != w:
                return None
    return w


# -- decomposition into generator monomials --------------------------------------


@dataclass
class Decomposition:
    """Result of an exact decomposition attempt."""

    target: str
    generator_names: list
    degree_bound: int
    param_bound: int
    success: bool
    coefficients: dict = field(default_factory=dict)  # monomial names -> MultiPoly
    message: str = ""
    monomials_considered: int = 0
    unknowns: int = 0
    rank: int = 0
    residual: DiffOp | None = None

    @property
    def free_columns(self) -> int:
        return self.unknowns - self.rank

    def coefficient_strings(self) -> dict:
        out = {}
        for mono, poly in sorted(self.coefficients.items()):
            key = "*".join(mono) if mono else "1"
            out[key] = str(poly)
        return out


def monomial_ops(generators, degree_bound: int):
    """Ordered monomials (index tuples) -> composed operator, prefix-cached.

    A monomial (g_1, ..., g_k) with nondecreasing indices denotes the
    product g_1 . g_2 ... g_k applied left to right.
    """
    ops = {(): identity(generators[0][1].spec)}
    names = list(range(len(generators)))
    for d in range(1, degree_bound + 1):
        for mono in combinations_with_replacement(names, d):
            prefix = mono[:-1]
            ops[mono] = ops[prefix].compose(generators[mono[-1]][1])
    return ops


def _flatten(op: DiffOp) -> tuple:
    """integral_form of op's coefficients keyed by (derivative, exponents)."""
    return integral_form(
        {(a, e): v for a, c in op.terms.items() for e, v in c.as_poly().terms.items()}
    )


def _canonical(v):
    """A nonzero element of Z[i] as the solver takes it: an int when real."""
    return v if type(v) is int or v.im else v.re.numerator


def idempotent_reduce(poly: MultiPoly, symbols) -> MultiPoly:
    """Reduce modulo s^2 = s for each named symbol (s a two-valued flag)."""
    ring = poly.ring
    slots = [ring.index_of(s) for s in symbols]
    terms = {}
    for e, v in poly.terms.items():
        ee = list(e)
        for pos in slots:
            if ee[pos] > 1:
                ee[pos] = 1
        key = tuple(ee)
        s = terms.get(key)
        s = v if s is None else s + v
        if s.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = s
    return MultiPoly(ring, terms)


def idempotent_reduce_op(op: DiffOp, symbols) -> DiffOp:
    """Apply idempotent_reduce to every (polynomial) coefficient of op."""
    out = DiffOp(op.spec)
    for a, c in op.terms.items():
        red = idempotent_reduce(c.as_poly(), symbols)
        if not red.is_zero():
            out.terms[a] = Expr.of_poly(red)
    return out


def decompose(
    target: DiffOp,
    generators,
    ops: dict,
    params=(),
    param_bound: int = 4,
    weights: dict | None = None,
    target_name: str = "target",
    idempotents=(),
) -> Decomposition:
    """Write target as a parameter-polynomial combination of the generator
    monomials in ops = monomial_ops(generators, degree_bound); the degree
    bound is the longest monomial in ops.

    params lists the symbols the unknown coefficients may involve, with
    total degree at most param_bound.  weights must grade the target and
    every generator homogeneously, with exactly one graded non-space symbol
    (conventionally beta), or decompose raises ValueError; the grading fixes
    each monomial's power of that parameter and prunes impossible monomials.
    idempotents names symbols s to be treated modulo s^2 = s (two-valued
    parameters), so the solve happens in the quotient ring.
    """
    spec = target.spec
    ring = spec.ring
    if not target.is_polynomial():
        raise NotPolynomial("decomposition target must have polynomial coefficients")
    names = [n for n, _ in generators]
    degree_bound = max(map(len, ops))
    result = Decomposition(
        target=target_name,
        generator_names=names,
        degree_bound=degree_bound,
        param_bound=param_bound,
        success=False,
    )

    graded_params = []
    w_target = None
    if weights:
        space = set(spec.space)
        graded_params = sorted(
            s for s, w in weights.items() if w and s not in space and s in ring.index
        )
        if len(graded_params) != 1:
            # a single graded parameter keeps the power bookkeeping unambiguous
            raise ValueError(
                "weights must grade exactly one parameter, not %s" % (graded_params,)
            )
        w_target = op_weight(target, weights)
        gen_weights = [op_weight(op, weights) for _, op in generators]
        inhomogeneous = [target_name] if w_target is None else []
        inhomogeneous += [n for n, w in zip(names, gen_weights) if w is None]
        if inhomogeneous:
            raise ValueError(
                "weights grade %s inhomogeneously (or as zero)" % ", ".join(inhomogeneous)
            )

    free_params = [s for s in params if s not in graded_params]
    param_pos = [ring.index_of(s) for s in free_params]
    graded_pos = [ring.index_of(s) for s in graded_params]
    idem_pos = [ring.index_of(s) for s in idempotents]

    def param_monomials():
        out = [()]
        for s in free_params:
            cap = 1 if s in idempotents else param_bound
            out = [m + (k,) for m in out for k in range(cap + 1)]
        return [m for m in out if sum(m) <= param_bound]

    def graded_power(mono) -> int:
        # the grading fixes the graded parameter's power in mono's coefficient
        if w_target is None:
            return 0
        return sum(gen_weights[i] for i in mono) - w_target

    pmonos = param_monomials()
    mono_list = sorted(ops, key=lambda m: (len(m), m))

    rows = {}  # flattened key -> {(mono, param exps): numerator in Z[i]}
    dens = {}  # mono -> the denominator of its column numerators
    nz = ring.nsyms

    for mono in mono_list:
        op = ops[mono]
        gpow = graded_power(mono)
        if op.is_zero() or gpow < 0:
            continue
        dens[mono], flat = _flatten(op)
        for pexp in pmonos:
            col = (mono, pexp)
            for (a, e), v in flat.items():
                ee = list(e)
                for pos, k in zip(param_pos, pexp):
                    ee[pos] += k
                if gpow:
                    ee[graded_pos[0]] += gpow
                for pos in idem_pos:
                    if ee[pos] > 1:
                        ee[pos] = 1
                key = (a, tuple(ee))
                row = rows.setdefault(key, {})
                old = row.get(col)
                row[col] = v if old is None else old + v
        result.monomials_considered += 1

    result.unknowns = result.monomials_considered * len(pmonos)
    den_target, rhs_map = _flatten(
        idempotent_reduce_op(target, idempotents) if idempotents else target
    )
    if idempotents:
        # the quotient merges terms, so a sum may vanish or turn real
        for key, row in rows.items():
            rows[key] = {c: _canonical(v) for c, v in row.items() if v}
    for key in rhs_map:
        rows.setdefault(key, {})

    # the solver's unknowns are y = den_target*x/den_mono
    solver = SparseSolver()
    ok = True
    for key in sorted(rows, key=lambda k: (sum(k[0]), k[0], sum(k[1]), k[1]), reverse=True):
        if not solver.add(rows[key], rhs_map.get(key, 0)):
            ok = False
    result.rank = len(solver.pivots)
    if not ok:
        result.message = (
            "no decomposition within degree bound %d / parameter bound %d"
            % (degree_bound, param_bound)
        )
        return result

    sol = solver.solution()
    coeff_polys = {}
    for (mono, pexp), value in sol.items():
        if not value:
            continue
        value *= Fraction(dens[mono], den_target)
        exps = [0] * nz
        for pos, k in zip(param_pos, pexp):
            exps[pos] = k
        gpow = graded_power(mono)
        if gpow:
            exps[graded_pos[0]] = gpow
        term = MultiPoly(ring, {tuple(exps): value})
        key = tuple(names[i] for i in mono)
        coeff_polys[key] = coeff_polys.get(key, ring.zero()) + term

    # exact reconstruction is the authoritative acceptance of the solve
    recon = DiffOp(spec)
    for mono in mono_list:
        key = tuple(names[i] for i in mono)
        poly = coeff_polys.get(key)
        if poly is not None and not poly.is_zero():
            recon = recon + ops[mono].scale(poly)
    residual = target - recon
    if idempotents and not residual.is_zero():
        residual = idempotent_reduce_op(residual, idempotents)
    result.residual = residual
    if residual.is_zero():
        result.success = True
        result.coefficients = {
            k: v for k, v in coeff_polys.items() if not v.is_zero()
        }
    else:
        result.message = "solver output failed exact reconstruction"
    return result
