"""Sparse exact linear solving and decomposition into generator monomials.

The solver keeps a reduced row echelon basis of pivot rows keyed by column,
so adding an equation costs one pass over its support.  Its rows and
right-hand sides are ints, and it eliminates fraction-free, in the manner of
Bareiss (Math. Comp. 1968): each pivot row carries its own integer pivot
entry instead of being divided by it, and is divided by its integer content
instead of by the previous pivot.  Each
row has a vector of right-hand sides, so one elimination of a coefficient
matrix solves several systems that share it.  There is no pivoting
heuristic to tune and no tolerance anywhere.

On top of it, decompose() writes a target operator as

    sum_M  pi_M(params) * op(M)

over ordered monomials M in a list of named generator operators, with the
parameter polynomials pi_M found by exact elimination and the result checked
by reconstructing the operator and subtracting.  The products op(M) come
from monomial_ops(), which the caller runs once per generator set and
degree and hands to every decompose() over that set.  Each column carries
its product's integer numerators over the product's own denominator (see
integral_form), the right-hand side the target's, and each solved value is
scaled back once.  The unknowns are rationals, so a coefficient that uses an
adjunct (such as i) is refused with CoeffRingError before any row is built.

The system is a Macaulay matrix (as in Faugere's F4, JPAA 1999) on packed
integer keys, after the packed monomials of Monagan & Pearce (CASC 2007).
A row key, derivative multi-index a and exponents e, is one int of
big-endian fields [|a|, a..., |e|, e...] from coeffring's exponent packer,
so int order is the order of (|a|, a, |e|, e) and the rows are eliminated
from the largest key down.  A column, monomial M times parameter monomial
m, shifts M's keys by the packed exponents of m: placing a product term in
its row is one integer addition, and the fields (8, 16, 32 or 64 bits) fit
the largest product degree plus the largest column degree, so no field
carries into the next.  A field that would pass 64 bits raises
CoeffRingError.  Modulo s^2 = s
each product is read once per pattern of the columns' powers of s (absent
or present), and the column shift leaves s out.  Columns are ints
numbered in sorted (M, m) order, so the pivot rule sees the order of the
pairs.

When no product carries a parameter, the column (M, m) only meets rows
whose parameter exponents are m, so the system is one copy per parameter
monomial of a single matrix.  Then the columns are the products alone, each
with the power the grading fixes, and each parameter monomial m is one
component of the right-hand side: a target term with parameter exponents m
goes to component m of the row of its other exponents, and a target term
whose m is past the bounds makes the solve inconsistent.  Within a block the
rows keep their order and the columns the order of M, so each block has the
pivots and values it has in the full system, and the rank is the number of
blocks times the matrix's rank.  When some product carries a parameter
there is one component and the columns are the (M, m) pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from operator import add, mul, sub

from .coeffring import CoeffRingError, Expr, MultiPoly, NotPolynomial, _numerators, _packer
from .weyl import DiffOp, identity


class SparseSolver:
    """Incremental fraction-free Gaussian elimination over sparse rows.

    Columns are arbitrary comparable hashables.  Rows are added one at a
    time, each with a tuple of right-hand sides, one per component: the
    solver eliminates one coefficient matrix for several systems at once
    (none for a homogeneous one).  Every entry and right-hand side is an
    int, and entries are nonzero; the caller scales its rows (see
    integral_form) and the solver takes them as given.  A row keeps its
    right-hand sides as a sparse map, component -> nonzero value, and each
    pivot row keeps its own integer pivot entry d > 0, so it stands for
    d*x_pivot + sum row[c]*x_c = rhs[k] in every component k.  Eliminating an
    entry f against it forms d*row - f*prow, and the same on the right-hand
    sides, so nothing is ever divided by a pivot; a pivot row is divided by
    the integer content of its entries and right-hand sides after it is
    formed and after each back-reduction, which keeps its entries small.

    The pivot rule is the largest column of the reduced row, and the pivot
    basis is kept fully reduced, so consistency is known as soon as a
    contradictory row arrives; contradictions counts, per component, the
    rows that reduce to 0 = nonzero there.  The pivots never read a
    right-hand side, so each component's pivots, contradictions and solution
    are those of a solve with that right-hand side alone.  Every row stays a
    nonzero multiple of the row that elimination over the rationals would
    form, so the pivots, the contradictions and the solution are the same as
    there.
    """

    def __init__(self):
        self.pivots = {}        # col -> (row without col, {component: rhs}, pivot entry d)
        self.occ = {}           # col -> set of pivot cols whose rows touch it
        self.contradictions = Counter()  # component -> rows contradicting it

    def add(self, coeffs: dict, rhs: tuple) -> bool:
        """Add the integer equations sum coeffs[c]*x_c = rhs[k], one per
        component k; False when some component contradicts.  coeffs is
        copied, never changed."""
        pivots = self.pivots
        occ = self.occ
        row = dict(coeffs)
        rhs = {k: r for k, r in enumerate(rhs) if r}
        for col in list(row):
            piv = pivots.get(col)
            if piv is None:
                continue
            prow, prhs, d = piv
            f = row.pop(col)
            if d != 1:
                for c2 in row:
                    row[c2] *= d
                for k in rhs:
                    rhs[k] *= d
            for c2, v2 in prow.items():
                nv = row.get(c2, 0) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
            if prhs:
                _subtract(rhs, f, prhs)
        if not row:
            for k in rhs:
                self.contradictions[k] += 1
            return not rhs
        pivot_col = max(row)
        prow, prhs, d = _primitive(row, rhs, row.pop(pivot_col))
        # keep existing pivot rows reduced against the new pivot
        for owner in list(occ.get(pivot_col, ())):
            orow, orhs, od = pivots[owner]
            f = orow.pop(pivot_col, None)
            if f is None:
                continue
            if d != 1:
                for c2 in orow:
                    orow[c2] *= d
                for k in orhs:
                    orhs[k] *= d
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
            if prhs:
                _subtract(orhs, f, prhs)
            pivots[owner] = _primitive(orow, orhs, od)
        occ.pop(pivot_col, None)
        pivots[pivot_col] = (prow, prhs, d)
        for c2 in prow:
            occ.setdefault(c2, set()).add(pivot_col)
        return True

    def solution(self) -> dict:
        """Particular solution of every component with all free columns set
        to zero: for each pivot column, in pivot creation order, its nonzero
        values as {component: Fraction}; a pivot whose values all vanish is
        left out."""
        return {
            col: {k: Fraction(r, d) for k, r in rhs.items()}
            for col, (_, rhs, d) in self.pivots.items()
            if rhs
        }


def _subtract(vec: dict, f, other: dict) -> None:
    """vec -= f*other on sparse maps, dropping the entries that vanish."""
    for k, v in other.items():
        nv = vec.get(k, 0) - f * v
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def integral_form(values: dict) -> tuple:
    """(den, {k: den*v}) for the lcm den of the denominators of the
    rationals values, dropping zeros: each den*v is an int."""
    den, nums = _numerators(values.values())
    return den, {k: n for k, n in zip(values, nums) if n}


def _primitive(row: dict, rhs: dict, d: int):
    """A pivot row over the integer content of its entries and right-hand
    sides, with d > 0."""
    c = gcd(d, *rhs.values(), *row.values())
    if c == 1 and d > 0:
        return row, rhs, d
    if d < 0:
        c = -c
    return {k: v // c for k, v in row.items()}, {k: v // c for k, v in rhs.items()}, d // c


# -- weight grading ------------------------------------------------------------


def op_weight(op: DiffOp, weights: dict):
    """Common weight of all terms, or None if inhomogeneous or zero."""
    sym_w = [weights.get(s, 0) for s in op.spec.ring.symbols]
    space_w = [weights.get(s, 0) for s in op.spec.space]
    w = None
    for a, c in op.terms.items():
        wa = sum(map(mul, a, space_w))
        for e in c.as_poly().terms:
            tw = sum(map(mul, e, sym_w)) - wa
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
    success: bool
    residual: DiffOp  # target - reconstruction; the target itself if inconsistent
    coefficients: dict = field(default_factory=dict)  # monomial names -> MultiPoly
    message: str = ""
    monomials_considered: int = 0
    unknowns: int = 0
    rank: int = 0

    def shape(self) -> str:
        """The size of the solved system, as the witnesses print it."""
        return "%d monomials, %d unknowns, rank %d, %d free columns" % (
            self.monomials_considered, self.unknowns, self.rank, self.unknowns - self.rank
        )

    def coefficient_strings(self) -> dict:
        return {"*".join(m) or "1": str(p) for m, p in sorted(self.coefficients.items())}


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


def combination(coefficients: dict, ops: dict) -> DiffOp:
    """Sum of coefficients[M] * ops[M] over monomials M of a monomial_ops table."""
    total = DiffOp(ops[()].spec)
    for mono, coeff in coefficients.items():
        total = total + ops[mono].scale(coeff)
    return total


def _flatten(op: DiffOp) -> tuple:
    """integral_form of op's coefficients keyed by (derivative, exponents)."""
    return integral_form(
        {(a, e): v for a, c in op.terms.items() for e, v in c.as_poly().terms.items()}
    )


def _degrees(op: DiffOp) -> tuple:
    """(largest derivative order, largest coefficient degree) over op's
    terms; a polynomial coefficient's numerator has its exponents."""
    return max(map(sum, op.terms), default=0), max(
        (sum(e) for c in op.terms.values() for e in c.num.terms), default=0
    )


def _row_key(pack, a, e) -> int:
    """The row key of derivative a and exponents e: one int of the
    big-endian fields [|a|, a..., |e|, e...] of pack, a coeffring._packer
    Struct's.  Int order is the order of (sum(a), a, sum(e), e), and adding
    two keys adds them field by field as long as no sum passes the field."""
    return int.from_bytes(pack(sum(a), *a, sum(e), *e), "big")


def _packed_terms(flat: dict, slots, pattern, pack) -> list:
    """[(row key, numerator)] of a _flatten result, its exponents read by
    _clamp(e, slots, pattern): pattern marks the idempotent symbols the
    column carries.  Terms whose keys meet are summed, and a sum that
    vanishes is dropped."""
    out = {}
    for (a, e), v in flat.items():
        key = _row_key(pack, a, _clamp(e, slots, pattern))
        out[key] = out.get(key, 0) + v
    return [(key, v) for key, v in out.items() if v]


def _clamp(e: tuple, slots, pattern) -> tuple:
    """Exponents e read modulo s^2 = s at each of slots: 1 where pattern has
    a 1 (a factor s multiplies e), else capped at 1."""
    for pos, bit in zip(slots, pattern):
        if bit or e[pos] > 1:
            e = e[:pos] + (1,) + e[pos + 1:]
    return e


def idempotent_reduce(poly: MultiPoly, symbols) -> MultiPoly:
    """Reduce modulo s^2 = s for each named symbol (s a two-valued flag)."""
    ring = poly.ring
    slots = [ring.index_of(s) for s in symbols]
    absent = (0,) * len(slots)
    terms = {}
    for e, v in poly.terms.items():
        key = _clamp(e, slots, absent)
        terms[key] = terms[key] + v if key in terms else v
    return MultiPoly(ring, {e: v for e, v in terms.items() if v})


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
    parameters), so the solve happens in the quotient ring.  When no product
    carries a parameter, the product matrix is eliminated once, with one
    right-hand side per parameter monomial (see the module docstring).  A
    coefficient of the target or a product that uses an adjunct raises
    CoeffRingError: the unknowns are rational.
    """
    ring = target.spec.ring
    if not target.is_polynomial():
        raise NotPolynomial("decomposition target must have polynomial coefficients")
    if ring.adjuncts and any(
        c.num.has_adjuncts() for op in (target, *ops.values()) for c in op.terms.values()
    ):
        raise CoeffRingError("decompose takes coefficients that use no adjunct")
    names = [n for n, _ in generators]
    degree_bound = max(map(len, ops))
    result = Decomposition(target_name, names, degree_bound, success=False, residual=target)

    # a product's power of the graded symbol: its factors' weights less the target's
    gen_weights, w_target, gpos = [0] * len(names), 0, None
    if weights:
        candidates = sorted(
            s for s, w in weights.items() if w and s in ring.index and s not in target.spec.space
        )
        if len(candidates) != 1:
            # a single graded parameter keeps the power bookkeeping unambiguous
            raise ValueError(
                "weights must grade exactly one parameter, not %s" % (candidates,)
            )
        gpos = ring.index_of(candidates[0])
        w_target = op_weight(target, weights)
        gen_weights = [op_weight(op, weights) for _, op in generators]
        inhomogeneous = [target_name] if w_target is None else []
        inhomogeneous += [n for n, w in zip(names, gen_weights) if w is None]
        if inhomogeneous:
            raise ValueError(
                "weights grade %s inhomogeneously (or as zero)" % ", ".join(inhomogeneous)
            )

    # parameter monomials of total degree <= param_bound, with their ring exponents
    pmonos = [((), (0,) * ring.nsyms)]
    for s in params:
        pos = ring.index_of(s)
        if pos != gpos:
            cap = 1 if s in idempotents else param_bound
            pmonos = [(m + (k,), e[:pos] + (k,) + e[pos + 1:])
                      for m, e in pmonos for k in range(cap + 1)]
    pmonos = [(m, e) for m, e in pmonos if sum(m) <= param_bound]
    idem_pos = [ring.index_of(s) for s in idempotents]

    kept = []  # (mono, its graded power), in sorted order
    for mono in sorted(ops):
        gpow = sum(gen_weights[i] for i in mono) - w_target
        if not ops[mono].is_zero() and gpow >= 0:
            kept.append((mono, gpow))
    result.monomials_considered = len(kept)
    result.unknowns = len(kept) * len(pmonos)
    target_q = idempotent_reduce_op(target, idempotents) if idempotents else target

    # when no product carries a parameter, the column (M, m) only meets the
    # rows whose parameter exponents are m: the system is one matrix, over
    # the products alone, with one right-hand side per parameter monomial m
    ppos = [i for i in map(ring.index_of, params) if i != gpos]
    split = bool(ppos) and not any(
        e[i] for mono, _ in kept for c in ops[mono].terms.values() for e in c.num.terms
        for i in ppos
    )
    col_pmonos, rhs_pmonos = (pmonos[:1], pmonos) if split else (pmonos, pmonos[:1])

    # column exponents per graded power, and the packing width: a row key
    # adds a product's exponents and a column's, so the widest field is at
    # most the largest product degree plus the largest column degree
    by_power = {
        gpow: {pexp: e[:gpos] + (gpow,) + e[gpos + 1:] if gpow else e for pexp, e in col_pmonos}
        for gpow in {gpow for _, gpow in kept}
    }
    top_a, top_e = _degrees(target_q)
    for mono, _ in kept:
        top_a, top_e = map(max, (top_a, top_e), _degrees(ops[mono]))
    top_col = max((sum(e) for cexps in by_power.values() for e in cexps.values()), default=0)
    pack = _packer(target.spec.nspace + ring.nsyms + 2, max(top_a, top_e + top_col)).pack
    zero_a = (0,) * target.spec.nspace

    # column ids number the (mono, pexp) pairs in sorted order, so the
    # solver's largest-column pivot rule sees the order it would on the pairs
    pexp_rank = {pexp: i for i, pexp in enumerate(sorted(pexp for pexp, _ in col_pmonos))}
    decode = [  # column id -> (mono, coefficient exponents)
        (mono, cexp) for mono, gpow in kept for _, cexp in sorted(by_power[gpow].items())
    ]
    shifts = {}  # graded power -> {pattern: [(column id offset, packed column shift)]}
    for gpow, cexps in by_power.items():
        groups = shifts[gpow] = {}
        for pexp, cexp in cexps.items():
            # modulo s^2 = s, a column's power of s only says whether s is
            # there: the pattern picks the product terms' reading, and the
            # shift leaves s out
            pattern = tuple(min(cexp[i], 1) for i in idem_pos)
            shift = list(cexp)
            for i in idem_pos:
                shift[i] = 0
            groups.setdefault(pattern, []).append((pexp_rank[pexp], _row_key(pack, zero_a, shift)))

    rows = defaultdict(dict)  # packed row key -> {column id: integer numerator}
    dens = {}  # mono -> the denominator of its column numerators
    for rank, (mono, gpow) in enumerate(kept):
        dens[mono], flat = _flatten(ops[mono])
        base = rank * len(col_pmonos)
        for pattern, cols in shifts[gpow].items():
            packed = _packed_terms(flat, idem_pos, pattern, pack)
            for offset, shift in cols:
                col = base + offset
                for key, v in packed:
                    rows[key + shift][col] = v

    # a target term with parameter exponents m goes to block m of the row of
    # its other exponents; with no block m it is out of reach of every column
    den_target, rhs_flat = _flatten(target_q)
    blocks = {e: k for k, (_, e) in enumerate(rhs_pmonos)}
    blocked = set(ppos) if split else set()
    rhs_map = {}  # packed row key -> right-hand side per block
    unreachable = False
    for (a, e), v in rhs_flat.items():
        m = tuple(x if i in blocked else 0 for i, x in enumerate(e))
        k = blocks.get(m)
        if k is None:
            unreachable = True
        else:
            rhs_map.setdefault(_row_key(pack, a, tuple(map(sub, e, m))), [0] * len(blocks))[k] = v

    # the solver's unknowns are y = den_target*x/den_mono
    solver = SparseSolver()
    zeros = (0,) * len(blocks)
    for key in sorted(rows.keys() | rhs_map.keys(), reverse=True):
        solver.add(rows[key], tuple(rhs_map.get(key, zeros)))
    result.rank = len(solver.pivots) * len(blocks)
    if unreachable or solver.contradictions:
        result.message = (
            "no decomposition within degree bound %d / parameter bound %d"
            % (degree_bound, param_bound)
        )
        return result

    terms = {}  # mono -> {coefficient exponents: x}
    for col, values in solver.solution().items():
        mono, cexp = decode[col]
        scale = Fraction(dens[mono], den_target)
        for k, value in values.items():
            key = tuple(map(add, cexp, rhs_pmonos[k][1]))
            terms.setdefault(mono, {})[key] = value * scale
    coefficients = {mono: MultiPoly(ring, t) for mono, t in terms.items()}

    # exact reconstruction is the authoritative acceptance of the solve
    residual = target - combination(coefficients, ops)
    if idempotents and not residual.is_zero():
        residual = idempotent_reduce_op(residual, idempotents)
    result.residual = residual
    if residual.is_zero():
        result.success = True
        result.coefficients = {
            tuple(names[i] for i in mono): poly for mono, poly in coefficients.items()
        }
    else:
        result.message = "solver output failed exact reconstruction"
    return result
