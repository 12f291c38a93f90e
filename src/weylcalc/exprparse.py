"""Text form of operators: tokenizer, parser, and the workspace they live in.

Grammar (whitespace insignificant):

    expr   := ('-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := uint | symbol | 'D[' var ']' | '(' expr ')'

Multiplication is composition, left to right; juxtaposition is not
multiplication, so multi-letter symbols stay unambiguous.  Division demands
an order-zero divisor, which also covers rational literals ('1/2' is 1
divided by 2).  The symbol i is the imaginary unit: a symbol of the
workspace ring, adjoined with i^2 = -1, so coefficients stay rational and i
leads each monomial it is in (3*i*x^2).  D[v] differentiates with respect
to one of the six chart variables.  The printers in weyl and coeffring emit
exactly this grammar, so printing and parsing round-trip.
Parentheses nest at most MAX_NESTING deep: deeper input is a ParseError,
never an exhausted interpreter stack.  An exponent is at most MAX_EXPONENT,
since a power costs one composition per unit of the exponent.  A power is
also sized before it is expanded: the degree of an operator is the largest
total degree of a term, counting coefficient symbols other than the unit
i (numerator or denominator, whichever is larger) and derivatives, and
degree(base) * k may not exceed MAX_DEGREE.  Composition adds degrees at
most, so that bounds the result and stops nested powers such as
((r+u)^k)^k from growing as k^2.  The degree alone does not bound the term count, which grows with
the number of symbols.  A power is refused only when two bounds on its
term count both exceed MAX_TERMS: C(D + s, s), for the power's degree D,
the monomials of degree up to D in the s distinct coefficient symbols and
derivative variables of the base, and C(k*ord + d, d) * C(k*cdeg + c, c), the derivative indices
of order up to k*ord in the d derivative variables times the coefficient
monomials of degree up to k*cdeg in the c coefficient symbols, for a base
of derivative order ord and coefficient degree cdeg raised to the k.  An
integer literal longer than the interpreter's int-string limit (4300
digits by default) is a ParseError too.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffring import Expr, PolyRing, ZeroDenominator
from .weyl import DiffOp, VariableSpec, mul_op, partial

WS = PolyRing(("i", "x", "y", "z", "alpha", "E", "r", "u", "rho", "beta", "mu", "p", "n"))
WS.define_adjunct("i", WS.const(-1))
_WS_SPEC = VariableSpec(WS, ("x", "y", "z", "r", "u", "rho"))
_I_SLOT = WS.index_of("i")
MAX_NESTING = 100
MAX_EXPONENT = 100
MAX_DEGREE = 100
MAX_TERMS = 10000


def workspace_spec() -> VariableSpec:
    """The chart every parsed operator acts on."""
    return _WS_SPEC


class ParseError(ValueError):
    """Syntax or symbol error, with the 1-based source column."""

    def __init__(self, message: str, column: int):
        super().__init__("column %d: %s" % (column, message))
        self.column = column


_PUNCT = set("+-*/^()[]")


def tokenize(text: str):
    """(kind, value, column) triples; kinds: int, name, punct, end."""
    out = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        col = pos + 1
        if ch.isdecimal():
            end = pos
            while end < size and text[end].isdecimal():
                end += 1
            try:
                value = int(text[pos:end])
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    "integer literal of %d digits is too long" % (end - pos), col
                ) from None
            out.append(("int", value, col))
            pos = end
            continue
        if ch.isalpha():
            end = pos
            while end < size and text[end].isalpha():
                end += 1
            out.append(("name", text[pos:end], col))
            pos = end
            continue
        if ch in _PUNCT:
            out.append(("punct", ch, col))
            pos += 1
            continue
        raise ParseError("unexpected character %r" % ch, col)
    out.append(("end", None, size + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.used_derivative = False

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str):
        kind, value, col = self.take()
        if kind != "punct" or value != ch:
            raise ParseError("expected %r" % ch, col)

    def parse(self) -> DiffOp:
        op = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r after expression" % (value,), col)
        return op

    def expr(self) -> DiffOp:
        kind, value, _ = self.peek()
        negate = kind == "punct" and value == "-"
        if negate:
            self.take()
        op = self.term()
        if negate:
            op = op.scale(-1)
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value in "+-":
                self.take()
                rhs = self.term()
                op = op + rhs if value == "+" else op - rhs
            else:
                return op

    def term(self) -> DiffOp:
        op = self.factor()
        while True:
            kind, value, col = self.peek()
            if kind == "punct" and value in "*/":
                self.take()
                rhs = self.factor()
                if value == "*":
                    op = op.compose(rhs)
                else:
                    op = op.scale(self._invert(rhs, col))
            else:
                return op

    def _invert(self, divisor: DiffOp, col: int) -> Expr:
        if divisor.order() > 0:
            raise ParseError("divisor must be a scalar, not an operator", col)
        coeff = divisor.coefficient(divisor.spec.zero_index)
        try:
            return Expr.of_poly(WS.one()) / coeff
        except ZeroDenominator:
            raise ParseError("division by zero", col) from None

    def factor(self) -> DiffOp:
        op = self.atom()
        kind, value, _ = self.peek()
        if kind == "punct" and value == "^":
            self.take()
            kind, value, col = self.take()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", col)
            if value > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds %d" % (value, MAX_EXPONENT), col)
            degree = _degree(op) * value
            if degree > MAX_DEGREE:
                raise ParseError(
                    "power of degree %d exceeds %d" % (degree, MAX_DEGREE), col
                )
            terms = _term_bound(op, value, degree)
            if terms > MAX_TERMS:
                raise ParseError(
                    "power of up to %d terms exceeds %d" % (terms, MAX_TERMS), col
                )
            return op ** value
        return op

    def atom(self) -> DiffOp:
        kind, value, col = self.take()
        if kind == "int":
            return mul_op(_WS_SPEC, Fraction(value))
        if kind == "punct" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, col)
            self.depth += 1
            op = self.expr()
            self.expect_punct(")")
            self.depth -= 1
            return op
        if kind == "name" and value == "D":
            self.expect_punct("[")
            kind, var, vcol = self.take()
            if kind != "name":
                raise ParseError("expected a variable name", vcol)
            self.expect_punct("]")
            if var not in WS.index:
                raise ParseError("unknown symbol %r" % var, vcol)
            if var not in _WS_SPEC._slot:
                raise ParseError("D[%s]: not a chart variable" % var, vcol)
            self.used_derivative = True
            return partial(_WS_SPEC, var)
        if kind == "name":
            if value in WS.index:
                return mul_op(_WS_SPEC, Expr.of_poly(WS.var(value)))
            raise ParseError("unknown symbol %r" % value, col)
        raise ParseError("expected a number, symbol, D[...], or parenthesis", col)


def _degree(op: DiffOp) -> int:
    """Largest total degree of a term of op: derivative order plus the
    larger total degree of its coefficient's numerator and denominator.
    The unit i counts for nothing: i^2 = -1, so no power of it grows."""
    return max(
        (
            sum(a) + max(sum(e) - e[_I_SLOT] for p in (c.num, c.den) for e in p.terms)
            for a, c in op.terms.items()
        ),
        default=0,
    )


def _term_bound(op: DiffOp, k: int, degree: int) -> int:
    """An upper bound on the term count of op^k, of the given degree: the
    smaller of C(degree + s, s), for s the distinct coefficient symbols
    other than i (numerator or denominator) and derivative variables op
    uses, and
    C(k*ord + d, d) * C(k*cdeg + c, c), for ord its derivative order over d
    derivative variables and cdeg its coefficient degree over c symbols."""
    derivatives = {j for a in op.terms for j, v in enumerate(a) if v}
    symbols = {
        i
        for c in op.terms.values()
        for p in (c.num, c.den)
        for e in p.terms
        for i, v in enumerate(e)
        if v and i != _I_SLOT
    }
    cdeg = max(
        (sum(e) - e[_I_SLOT] for c in op.terms.values() for p in (c.num, c.den) for e in p.terms),
        default=0,
    )
    d, c = len(derivatives), len(symbols)
    return min(
        comb(degree + d + c, degree),
        comb(k * op.order() + d, d) * comb(k * cdeg + c, c),
    )


def parse(text: str) -> DiffOp:
    """Parse an operator expression over the workspace chart."""
    return _Parser(text).parse()


def parse_scalar(text: str) -> Expr:
    """Parse a derivative-free expression to an exact coefficient."""
    parser = _Parser(text)
    op = parser.parse()
    if parser.used_derivative:
        raise ParseError("scalar expression must not contain D[...]", 1)
    return op.coefficient(op.spec.zero_index)
