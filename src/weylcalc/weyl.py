"""Normal-ordered differential operators over an exact coefficient ring.

An operator is a finite sum  sum_a c_a(q) D^a  with every coefficient to the
left of the derivatives.  Composition applies the Leibniz rule

    D^a (c f) = sum_{k <= a} binom(a, k) (D^k c) D^(a-k) f

and immediately renormal-orders, so equality of operators is equality of the
coefficient maps.

Composition takes one of two routes, with the same result, term order
included: the output indices in the order the Leibniz terms first reach
them, and each coefficient's terms in descending exponent order.  When both
operands have polynomial coefficients that use no adjunct (the operators of
2D, g2 and the cubic algebra on the (r, u) chart, and real parser input),
the rule is applied monomial by monomial:

    c x^e D^a . d x^f D^b
        = sum_{k <= a, k <= f} binom(a, k) f!/(f-k)! c d x^(e+f-k) D^(a-k+b)

on packed integer term maps, with no Expr arithmetic per term, grouped by
left term: the Leibniz terms of one left coefficient c_a that reach one
output index are summed first, so c_a is multiplied once per index
(_compose_terms).  Every other operand (rational-function coefficients, or
coefficients that use an adjoined root, such as R3's r or i) takes the Expr
route: derivative tables from Expr.differentiate, summed per output index
by coeffring._sum_products.  Both routes expand each left term's D^a once, by
_leibniz, and keep nothing after the product returns: this module holds no
cache.

DiffOp.apply stays on the Expr route on purpose, and off _leibniz.  The
benchmark's product check, which compares a product with its factors
applied in turn, then shares none of the term-level composition's Leibniz
factors, derivatives or accumulation; the two meet only in coeffring's
exponent packer and its scaling to integer numerators.
(flagrep.equality_oracle computes its own images and uses nothing here but
the DiffOp class.)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm, perm, prod
from operator import add, mul, sub

from .coeffring import (
    Expr,
    MultiPoly,
    PolyRing,
    _exp_bound,
    _packer,
    _scaled,
    _sum_products,
    format_monomial,
    format_sum,
)


class WeylError(Exception):
    pass


class GaugeError(WeylError):
    pass


class VariableSpec:
    """A coefficient ring together with the symbols derivatives act on.

    Space variables must be plain ring symbols (never adjoined roots), in a
    fixed order that also orders derivative multi-indices.
    """

    __slots__ = ("ring", "space", "nspace", "zero_index", "_slot")

    def __init__(self, ring: PolyRing, space):
        self.ring = ring
        self.space = tuple(space)
        for s in self.space:
            if ring.is_adjunct(s):
                raise WeylError("space variable %s is an adjoined root" % s)
        self.nspace = len(self.space)
        self.zero_index = (0,) * self.nspace
        self._slot = {s: k for k, s in enumerate(self.space)}

    def slot(self, var) -> int:
        try:
            return self._slot[var]
        except KeyError:
            raise WeylError("not a space variable: %r" % (var,)) from None

    def __eq__(self, other):
        if not isinstance(other, VariableSpec):
            return NotImplemented
        return self.ring is other.ring and self.space == other.space

    def __hash__(self):
        return hash((id(self.ring), self.space))

    def without(self, var) -> "VariableSpec":
        return VariableSpec(self.ring, tuple(s for s in self.space if s != var))


def _sub_indices(a):
    """All multi-indices k with 0 <= k <= a, by increasing total order."""
    return sorted(product(*(range(t + 1) for t in a)), key=sum)


def _leibniz(a):
    """The Leibniz terms of D^a: [(k, binom(a, k), a - k)] for every k <= a,
    by increasing total order of k."""
    return [(k, prod(map(comb, a, k)), tuple(map(sub, a, k))) for k in _sub_indices(a)]


def _derivative_table(f: Expr, need, spec: VariableSpec) -> dict:
    """{k: D^k f} for every k in need with D^k f != 0.  need is closed under
    lowering an entry and sorted by total order, so each new entry is the
    derivative of an earlier one, taken in its first nonzero slot.  An entry
    one step above a vanished one vanishes too, so it is left out without
    differentiating."""
    if f.is_zero():
        return {}
    table = {spec.zero_index: f}
    for k in need:
        if k in table:
            continue
        lowers = [(k[:j] + (v - 1,) + k[j + 1:], j) for j, v in enumerate(k) if v]
        if all(lower in table for lower, _ in lowers):
            lower, j = lowers[0]
            dk = table[lower].differentiate(spec.space[j])
            if not dk.is_zero():
                table[k] = dk
    return table


def _term_route(left: "DiffOp", right: "DiffOp") -> bool:
    """Whether left . right takes _compose_terms: both operands have
    polynomial coefficients that use no adjunct.  Such coefficients stay
    adjunct-free under differentiation and products, so no adjunct
    reduction is needed, whatever the ring adjoins."""
    return all(
        c.is_poly() and not c.num.has_adjuncts()
        for op in (left, right)
        for c in op.terms.values()
    )


def _packed_operator(op: "DiffOp", pack):
    """(d, [(index, [(packed monomial, integer numerator, exponents)])]) for
    an operator with polynomial coefficients: every term's value is its
    numerator over d, the operator's one common denominator."""
    scaled = [(a, c.num.terms, _scaled(c.num.terms, pack)) for a, c in op.terms.items()]
    den = lcm(*(d for _, _, (d, _) in scaled))
    return den, [
        (a, [(key, n * (den // d), e) for (key, n), e in zip(packed, terms)])
        for a, terms, (d, packed) in scaled
    ]


def _compose_terms(left: "DiffOp", right: "DiffOp") -> "DiffOp":
    """left . right for the operands of _term_route, by the monomial Leibniz
    rule of the module docstring (multi-index binomials and falling
    factorials, one factor per space variable), grouped by left term.

    Each operand is scaled once to integer numerators over its own common
    denominator (_packed_operator), on monomials packed with one field width
    for the call, so D^k x^f is one packed subtraction, taken only where
    k <= f.  By distributivity the coefficient at an output index is
    sum_a c_a S_a, with S_a = sum binom(a, k) D^k d_b over the Leibniz
    terms (b, k) that a - k + b sends there.  Each S_a is summed linearly
    first, and a sum is opened only when a second term lands on it, so
    every (output index, left term) pair costs one convolution with c_a.
    The shorter of c_a and S_a runs in the outer loop.  Each output index
    is converted to an Expr as soon as its own accumulator is done, its
    terms in descending exponent order (the packed keys' order), and terms
    with the same numerator or monomial share one Fraction or exponent
    tuple.  No Expr is differentiated, multiplied or added.  The
    accumulation is this function's own rather than coeffring._dot_terms,
    so DiffOp.apply, which the cross-checks use, shares none of it.
    """
    spec = left.spec
    ring = spec.ring
    nsyms = ring.nsyms
    packer = _packer(
        nsyms,
        max(_exp_bound(c.num.terms, nsyms) for c in left.terms.values())
        + max(_exp_bound(d.num.terms, nsyms) for d in right.terms.values()),
    )
    pack, unpack, size = packer.pack, packer.unpack, packer.size
    slots = [ring.index_of(v) for v in spec.space]
    units = [
        int.from_bytes(pack(*(int(i == s) for i in range(nsyms))), "big") for s in slots
    ]
    dl, lefts = _packed_operator(left, pack)
    dr, rights = _packed_operator(right, pack)
    factors = [([(key, n) for key, n, _ in pa], _leibniz(a)) for a, pa in lefts]
    # {output index: {left term: (binom, D^k d_b) or {packed monomial: numerator}}}
    sums = {}
    for b, rows in rights:
        rows = [(key, n, [e[s] for s in slots]) for key, n, e in rows]
        table = {}
        for i, (_, leibniz) in enumerate(factors):
            for k, binom, rest in leibniz:
                dk = table.get(k)
                if dk is None:
                    shift = sum(map(mul, k, units))
                    dk = table[k] = [
                        (key - shift, n * m) for key, n, f in rows if (m := prod(map(perm, f, k)))
                    ]
                if not dk:
                    continue
                idx = tuple(map(add, rest, b))
                group = sums.get(idx)
                if group is None:
                    sums[idx] = {i: (binom, dk)}
                    continue
                sa = group.get(i)
                if sa is None:
                    group[i] = (binom, dk)
                    continue
                if type(sa) is tuple:
                    m, first = sa
                    sa = group[i] = {key: m * n for key, n in first}
                get = sa.get
                for key, n in dk:
                    sa[key] = get(key, 0) + binom * n
    den = dl * dr
    one = next(iter(left.terms.values())).den
    # {numerator: Fraction} and {packed monomial: exponent tuple}, each
    # shared by every coefficient of the product
    values, monomials = {}, {}
    op = DiffOp(spec)
    for idx in list(sums):
        out = {}
        get = out.get
        for i, sa in sums.pop(idx).items():
            if type(sa) is tuple:
                m, pb = sa
            else:
                m, pb = 1, [(key, n) for key, n in sa.items() if n]
            pa = factors[i][0]
            if len(pb) < len(pa):
                pa, pb = pb, pa
            for ka, na in pa:
                na *= m
                for kb, nb in pb:
                    k = ka + kb
                    out[k] = get(k, 0) + na * nb
        terms = {}
        for key in sorted(out, reverse=True):
            n = out[key]
            if n:
                g = values.get(n)
                if g is None:
                    g = values[n] = Fraction(n, den)
                e = monomials.get(key)
                if e is None:
                    e = monomials[key] = unpack(key.to_bytes(size, "big"))
                terms[e] = g
        if terms:
            op.terms[idx] = Expr(MultiPoly(ring, terms), one, _trusted=True)
    return op


class DiffOp:
    """Sparse normal-ordered operator: {derivative multi-index: Expr}."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: VariableSpec, terms: dict | None = None):
        self.spec = spec
        self.terms = {}
        if terms:
            for idx, c in terms.items():
                c = Expr.of(spec.ring, c)
                if not c.is_zero():
                    self.terms[tuple(idx)] = c

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def coefficient(self, idx) -> Expr:
        idx = tuple(idx)
        got = self.terms.get(idx)
        if got is None:
            return Expr.of_poly(self.spec.ring.zero())
        return got

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        )

    def is_polynomial(self) -> bool:
        return all(c.is_poly() for c in self.terms.values())

    def _needed(self):
        """Every multi-index k <= some index of self, by increasing order."""
        need = set()
        for a in self.terms:
            need.update(_sub_indices(a))
        return sorted(need, key=sum)

    # -- linear structure ------------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise WeylError("operators over different variable specs")

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            v = out.get(idx)
            s = c if v is None else v + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        op = DiffOp(self.spec)
        op.terms = out
        return op

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        op = DiffOp(self.spec)
        op.terms = {idx: -c for idx, c in self.terms.items()}
        return op

    def scale(self, v) -> "DiffOp":
        """Left multiplication by a scalar or coefficient function."""
        c = Expr.of(self.spec.ring, v)
        op = DiffOp(self.spec)
        if c.is_zero():
            return op
        op.terms = {
            idx: w for idx, w in
            ((idx, c * w) for idx, w in self.terms.items())
            if not w.is_zero()
        }
        return op

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return self.compose(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.spec is other.spec and (self - other).is_zero()

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    # -- composition -------------------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other, renormal-ordered.

        Two routes give the same operator, term order included (see the
        module docstring).  When _term_route holds (polynomial coefficients
        that use no adjunct), _compose_terms applies the
        Leibniz rule monomial by monomial on packed term maps, one
        convolution per output index and left term.  Otherwise every output
        coefficient gathers its Leibniz terms binom(a, k) c_a D^k d_b, with
        D^k d_b from _derivative_table, sums them fraction-free in one
        _sum_products call, as apply does, and lists the sum's terms in
        descending exponent order.  Neither route keeps anything after the
        product returns.
        """
        self._check(other)
        spec = self.spec
        if not self.terms or not other.terms:
            return DiffOp(spec)
        if _term_route(self, other):
            return _compose_terms(self, other)
        need = self._needed()
        factors = [(c, _leibniz(a)) for a, c in self.terms.items()]
        items = {}
        for b, d in other.terms.items():
            table = _derivative_table(d, need, spec)
            for c, leibniz in factors:
                for k, binom, rest in leibniz:
                    dk = table.get(k)
                    if dk is not None:
                        idx = tuple(map(add, rest, b))
                        items.setdefault(idx, []).append((binom, c, dk))
        op = DiffOp(spec)
        for idx, group in items.items():
            s = _sum_products(spec.ring, group)
            if not s.is_zero():
                terms = dict(sorted(s.num.terms.items(), reverse=True))
                op.terms[idx] = Expr(MultiPoly(spec.ring, terms), s.den, _trusted=True)
        return op

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def __pow__(self, n: int) -> "DiffOp":
        if n < 0:
            raise WeylError("negative operator power")
        out = identity(self.spec)
        for _ in range(n):  # the base on the left expands only its own Leibniz terms
            out = self.compose(out)
        return out

    # -- action on functions -------------------------------------------------------

    def apply(self, f) -> Expr:
        table = _derivative_table(Expr.of(self.spec.ring, f), self._needed(), self.spec)
        return _sum_products(
            self.spec.ring,
            [(1, c, table[a]) for a, c in self.terms.items() if a in table],
        )

    # -- structural transforms --------------------------------------------------------

    def substitute(self, bindings: dict) -> "DiffOp":
        """Substitute into every coefficient (parameters, not space variables)."""
        for s in bindings:
            if s in self.spec._slot:
                raise WeylError("cannot substitute space variable %s" % s)
        op = DiffOp(self.spec)
        for idx, c in self.terms.items():
            nc = c.map_ring(self.spec.ring, bindings)
            if not nc.is_zero():
                op.terms[idx] = nc
        return op

    def conjugate(self, gauge: "GaugeData") -> "DiffOp":
        """Gauge transform G^(-1) A G via the shift d_v -> d_v + w_v."""
        if gauge.spec != self.spec:
            raise WeylError("gauge over a different variable spec")
        spec = self.spec
        steps = []
        for v in spec.space:
            w = gauge.shift(v)
            d = partial(spec, v)
            steps.append(d if w is None else d + mul_op(spec, w))
        index_product = _index_products(identity(spec), steps)
        total = zero_op(spec)
        for a, c in self.terms.items():
            total = total + index_product(a).scale(c)
        return total

    def project_angular(self, var, charge) -> "DiffOp":
        """Restrict to the angular momentum sector: d_var^k -> (i*charge)^k.

        An even power k gives (-1)^(k/2) charge^k, and an odd one i times a
        real value, so the terms of odd k must cancel: anything else is an
        imaginary residue, reported as an error, as is a result that still
        depends on var.  That split holds for real coefficients only, so a
        coefficient that uses an adjunct (such as i) is refused.
        """
        spec = self.spec
        charge = Expr.of(spec.ring, charge)
        slot = spec.slot(var)
        new_spec = spec.without(var)
        out = DiffOp(new_spec)
        even, odd = {}, {}
        for a, c in self.terms.items():
            if c.num.has_adjuncts():
                raise WeylError("projection needs real coefficients, not %s" % c)
            k = a[slot]
            idx = tuple(v for i, v in enumerate(a) if i != slot)
            w = c if k == 0 else c * charge ** k
            acc = odd if k % 2 else even
            if k % 4 > 1:  # i^k = -1 for k = 2, -i for k = 3 (mod 4)
                w = -w
            v = acc.get(idx)
            s = w if v is None else v + w
            if s.is_zero():
                acc.pop(idx, None)
            else:
                acc[idx] = s
        if odd:
            residue = next(iter(odd.values()))
            raise WeylError("projection leaves imaginary residue: i*(%s)" % residue)
        for idx, c in even.items():
            if c.num.uses(var) or c.den.uses(var):
                raise WeylError(
                    "projection leaves %s dependence in coefficient %s" % (var, c)
                )
            out.terms[idx] = c
        return out

    def map_space(self, change: "VariableChange") -> "DiffOp":
        """Forward change of variables into change.dst."""
        if change.src != self.spec:
            raise WeylError("change of variables has a different source spec")
        dst = change.dst
        index_product = _index_products(
            identity(dst), [change.deriv_map[v] for v in self.spec.space]
        )
        total = zero_op(dst)
        for a, c in self.terms.items():
            cc = c.map_ring(dst.ring, change.coord_map)
            total = total + index_product(a).scale(cc)
        return total

    # -- printing ---------------------------------------------------------------------

    def __str__(self):
        return format_op(self)

    def __repr__(self):
        return "DiffOp(%s)" % self


class GaugeData:
    """A gauge factor G recorded by its log-gradient, never materialized.

    loggrad maps space variables to w_v = d(log G)/dv.  An optional angular
    piece (var, charge) stands for a factor exp(i*charge*var).  Mixed partials
    of log G must agree, otherwise the data is rejected.
    """

    __slots__ = ("spec", "loggrad", "angular_var", "angular_charge")

    def __init__(self, spec: VariableSpec, loggrad: dict, angular=None):
        self.spec = spec
        self.loggrad = {}
        for v, w in loggrad.items():
            spec.slot(v)
            self.loggrad[v] = Expr.of(spec.ring, w)
        if angular is not None:
            var, charge = angular
            spec.slot(var)
            if var in self.loggrad:
                raise GaugeError("angular variable duplicated in loggrad")
            self.angular_var = var
            self.angular_charge = Expr.of(spec.ring, charge)
        else:
            self.angular_var = None
            self.angular_charge = None
        self._validate()

    def _validate(self):
        items = sorted(self.loggrad.items(), key=lambda t: self.spec.slot(t[0]))
        for i, (v, wv) in enumerate(items):
            for u, wu in items[i + 1:]:
                left = wv.differentiate(u)
                right = wu.differentiate(v)
                if not (left - right).is_zero():
                    raise GaugeError(
                        "log-gradient is not closed: d_%s w_%s != d_%s w_%s"
                        % (u, v, v, u)
                    )
            if self.angular_var is not None and (
                wv.num.uses(self.angular_var) or wv.den.uses(self.angular_var)
            ):
                raise GaugeError("log-gradient depends on angular variable")

    def shift(self, var):
        """Shift for d_var under conjugation.  The angular factor enters
        through the projection step only, so d_angular_var stays put here.
        """
        return self.loggrad.get(var)


class VariableChange:
    """Forward coordinate change: old coefficients and derivatives rewritten
    in the destination chart.

    coord_map sends source symbols to expressions over the destination ring;
    deriv_map sends each source space variable to a first-order operator over
    the destination spec.  Consistency demands deriv_map[v] acts on the
    images of the source coordinates as d/dv would, and that the rewritten
    derivatives commute.
    """

    __slots__ = ("src", "dst", "coord_map", "deriv_map")

    def __init__(self, src: VariableSpec, dst: VariableSpec, coord_map, deriv_map):
        self.src = src
        self.dst = dst
        self.coord_map = dict(coord_map)
        self.deriv_map = {}
        for v in src.space:
            if v not in deriv_map:
                raise WeylError("no derivative image for %s" % v)
            op = deriv_map[v]
            if op.spec != dst:
                raise WeylError("derivative image over wrong spec")
            self.deriv_map[v] = op
        self._validate()

    def _image(self, sym) -> Expr:
        if sym in self.coord_map:
            return Expr.of(self.dst.ring, self.coord_map[sym])
        return Expr.of_poly(self.dst.ring.var(sym))

    def _validate(self):
        for v in self.src.space:
            dv = self.deriv_map[v]
            if dv.order() != 1:
                raise WeylError("derivative image of %s must be first order" % v)
            for w in self.src.space:
                got = dv.apply(self._image(w))
                want = 1 if v == w else 0
                if not (got - want).is_zero():
                    raise WeylError(
                        "chain rule fails: image of d_%s applied to %s gives %s"
                        % (v, w, got)
                    )
        ops = [self.deriv_map[v] for v in self.src.space]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not ops[i].commutator(ops[j]).is_zero():
                    raise WeylError("rewritten derivatives do not commute")


def _index_products(one: DiffOp, steps):
    """a -> steps[0]^a_0 . steps[1]^a_1 ..., memoized, as
    product(a) = product(a - e_j) . steps[j] with j the last nonzero slot."""
    cache = {(0,) * len(steps): one}

    def product(a):
        got = cache.get(a)
        if got is None:
            j = max(i for i, k in enumerate(a) if k)
            prev = list(a)
            prev[j] -= 1
            got = cache[a] = product(tuple(prev)).compose(steps[j])
        return got

    return product


# -- constructors ---------------------------------------------------------------------


def zero_op(spec: VariableSpec) -> DiffOp:
    return DiffOp(spec)


def identity(spec: VariableSpec) -> DiffOp:
    return DiffOp(spec, {spec.zero_index: 1})


def partial(spec: VariableSpec, var, k: int = 1) -> DiffOp:
    idx = [0] * spec.nspace
    idx[spec.slot(var)] = k
    return DiffOp(spec, {tuple(idx): 1})


def mul_op(spec: VariableSpec, f) -> DiffOp:
    return DiffOp(spec, {spec.zero_index: f})


def format_op(op: DiffOp) -> str:
    if op.is_zero():
        return "0"
    dnames = ["D[%s]" % v for v in op.spec.space]
    parts = []
    for a, c in op.sorted_terms():
        mono = format_monomial(dnames, a)
        ctxt = str(c)
        if not mono:
            txt = ctxt if _is_atomic_coeff(c) else "(%s)" % ctxt
        elif c == 1:
            txt = mono
        elif c == -1:
            txt = "-" + mono
        elif _is_atomic_coeff(c):
            txt = ctxt + "*" + mono
        else:
            txt = "(%s)*%s" % (ctxt, mono)
        parts.append(txt)
    return format_sum(parts)


def _is_atomic_coeff(c: Expr) -> bool:
    if not c.is_poly():
        return False
    p = c.as_poly()
    if len(p.terms) != 1:
        return False
    (exps, v), = p.terms.items()
    return v >= 0 or not any(exps)
