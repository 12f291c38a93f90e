"""Expression grammar: tokens, parsing, scalar restriction, and canonical
print/parse round trips."""

import sys
from fractions import Fraction

import pytest

from weylcalc.exprparse import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ParseError,
    parse,
    parse_scalar,
    tokenize,
    workspace_spec,
)
from weylcalc.registry import operator, operator_names
from weylcalc.weyl import format_op, identity, mul_op, partial


WS_SPEC = workspace_spec()


def test_tokenize_positions():
    toks = tokenize("1/2*r^2")
    assert toks == [
        ("int", 1, 1),
        ("punct", "/", 2),
        ("int", 2, 3),
        ("punct", "*", 4),
        ("name", "r", 5),
        ("punct", "^", 6),
        ("int", 2, 7),
        ("end", None, 8),
    ]


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as err:
        tokenize("r + $")
    assert "column 5" in str(err.value)
    # a digit that is not a decimal digit is a stray character too
    with pytest.raises(ParseError) as err:
        tokenize("r^\u00b2")
    assert "column 3" in str(err.value)


def test_parse_basics():
    ring = WS_SPEC.ring
    r = ring.var("r")
    assert (parse("r") - mul_op(WS_SPEC, r)).is_zero()
    assert (parse("D[r]") - partial(WS_SPEC, "r")).is_zero()
    assert (parse("3") - identity(WS_SPEC).scale(Fraction(3))).is_zero()
    assert (parse("-r + r").is_zero())
    assert (parse("i*i") + identity(WS_SPEC)).is_zero()


def test_parse_precedence_and_powers():
    # ^ binds tighter than *, which binds tighter than +/-
    lhs = parse("2*r^2 - u")
    ring = WS_SPEC.ring
    want = mul_op(WS_SPEC, ring.var("r") ** 2 * 2 - ring.var("u"))
    assert (lhs - want).is_zero()
    assert (parse("D[r]^3") - partial(WS_SPEC, "r", 3)).is_zero()
    # operator products multiply left to right
    canonical = parse("D[r]*r - r*D[r]")
    assert format_op(canonical) == "1"


def test_parse_division_requires_order_zero_divisor():
    assert format_op(parse("1/2*r")) == "1/2*r"
    assert format_op(parse("r/2")) == "1/2*r"
    # dividing by a multiplication operator yields a rational coefficient
    ring = WS_SPEC.ring
    from weylcalc.coeffring import Expr

    want = identity(WS_SPEC).scale(Expr.make(ring.var("r"), ring.var("u")))
    assert (parse("r/u") - want).is_zero()
    with pytest.raises(ParseError):
        parse("1/D[r]")
    with pytest.raises(ParseError):
        parse("r/(2 - 2)")


def test_parse_error_positions_and_messages():
    with pytest.raises(ParseError) as err:
        parse("D[q]")
    assert "unknown symbol 'q'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("2r")
    assert "column 2" in str(err.value)
    with pytest.raises(ParseError):
        parse("r +")
    with pytest.raises(ParseError):
        parse("(r")
    with pytest.raises(ParseError):
        parse("r^-1")
    with pytest.raises(ParseError):
        parse("")


def test_scalar_parser_rejects_derivatives():
    e = parse_scalar("(1 + r)^2")
    ring = WS_SPEC.ring
    one = ring.one()
    assert (e.as_poly() - (one + ring.var("r")) ** 2).is_zero()
    with pytest.raises(ParseError):
        parse_scalar("D[r]")
    with pytest.raises(ParseError):
        parse_scalar("r*D[u]*u")


def test_nesting_limit_is_a_parse_error():
    # far past the interpreter's recursion limit: a ParseError at the first
    # parenthesis beyond the limit, not a RecursionError
    deep = "(" * 1200 + "r" + ")" * 1200
    for parser in (parse, parse_scalar):
        with pytest.raises(ParseError) as err:
            parser(deep)
        assert err.value.column == MAX_NESTING + 1
        assert "nested deeper than %d" % MAX_NESTING in str(err.value)
    # the limit itself still parses, in both parsers
    at_limit = "(" * MAX_NESTING + "r" + ")" * MAX_NESTING
    assert format_op(parse(at_limit)) == "r"
    assert str(parse_scalar(at_limit)) == "r"
    # the depth is nesting, not the count of parenthesis pairs
    flat = "+".join(["(r)"] * (MAX_NESTING + 5))
    assert str(parse_scalar(flat)) == "%d*r" % (MAX_NESTING + 5)


def test_exponent_limit_is_a_parse_error():
    # a power composes once per unit of its exponent, so a huge exponent
    # would run for minutes; it is a ParseError at the exponent's column
    for text, column in (("2^99999999", 3), ("r + D[r]^%d" % (MAX_EXPONENT + 1), 10)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column
        assert "exceeds %d" % MAX_EXPONENT in str(err.value)
    # the limit itself still parses
    assert format_op(parse("D[r]^%d" % MAX_EXPONENT)) == "D[r]^%d" % MAX_EXPONENT
    assert str(parse_scalar("2^%d" % MAX_EXPONENT)) == str(2 ** MAX_EXPONENT)


def test_nested_power_degree_limit_is_a_parse_error():
    # degree(base) * k is checked before a power expands, at two nesting
    # depths; the limit itself still parses
    for text, column, degree in (
        ("((r+u)^10)^11", 12, 110),
        ("(((r+u)^2)^5)^11", 15, 110),
        ("(((x+y)^100)^100)^100", 14, 10000),
        ("(r*D[u])^51", 10, 102),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column
        assert "power of degree %d exceeds %d" % (degree, MAX_DEGREE) in str(err.value)
    assert MAX_DEGREE == 100
    two = parse("((r+u)^10)^10")
    three = parse("(((r+u)^2)^5)^10")
    assert two == three == parse("(r+u)^100")
    assert format_op(two).startswith("(r^100 + 100*r^99*u + 4950*r^98*u^2 + ")
    # a constant base has degree 0, and a denominator counts like a numerator
    assert str(parse_scalar("(2*i)^100")) == str(2 ** 100)
    # the adjoined unit i counts for nothing (i^2 = -1): i*D[x] has degree 1
    assert format_op(parse("(i*D[x])^100")) == "D[x]^100"
    assert format_op(parse("(i*x*D[x])^2")) == "(-x^2)*D[x]^2 + (-x)*D[x]"
    with pytest.raises(ParseError, match="power of degree 102 exceeds"):
        parse("(1/(r*u))^51")


SYMBOLS = "x+y+z+alpha+E+r+u+rho+beta+mu+p+n"
DERIVATIVES = "D[x]+D[y]+D[z]+D[r]+D[u]+D[rho]"


def test_power_term_count_limit_is_a_parse_error(monkeypatch):
    # a power is refused before it expands when both of its term bounds
    # pass MAX_TERMS: C(D + s, s), for degree D and s distinct coefficient
    # symbols and derivative variables, and C(k*ord + d, d) *
    # C(k*cdeg + c, c), derivative indices times coefficient monomials.
    # Sums of many symbols, of many derivatives, and under a denominator,
    # each far inside the degree limit, pass both
    from weylcalc.weyl import DiffOp

    assert MAX_TERMS == 10000
    with monkeypatch.context() as patch:
        patch.setattr(DiffOp, "__pow__", lambda self, k: pytest.fail("power expanded"))
        for text, column, terms in (
            ("(%s)^8" % SYMBOLS, 37, 125970),
            ("(%s)^16" % DERIVATIVES, 35, 74613),
            ("r + (%s)^6" % SYMBOLS, 41, 18564),
            ("(1/(%s))^6" % SYMBOLS, 41, 18564),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.column == column
            assert "power of up to %d terms exceeds %d" % (terms, MAX_TERMS) in str(err.value)
    # under the limit a power still expands: C(17, 12) = 6188 bounds the
    # 4368 terms of the fifth power of twelve symbols
    fifth = parse_scalar("(%s)^5" % SYMBOLS)
    assert len(fifth.num.terms) == 4368


def test_power_of_first_order_terms_passes_the_split_bound():
    # six first-order terms in six symbols and six derivatives, cubed:
    # C(6 + 12, 12) = 18564 passes MAX_TERMS, but C(3 + 6, 6)^2 = 7056
    # derivative indices times coefficient monomials does not, so the power
    # expands, and to the product of its factors
    text = "x*D[y]+y*D[z]+z*D[x]+r*D[u]+u*D[rho]+rho*D[r]"
    cube = parse("(%s)^3" % text)
    base = parse(text)
    assert cube == base.compose(base).compose(base)
    assert len(cube.terms) == 83
    assert format_op(cube).startswith("z^3*D[x]^3 + 3*x*z^2*D[x]^2*D[y] + ")


def test_imaginary_unit_versus_symbols():
    # i is the imaginary unit, not a symbol
    sq = parse("i^2")
    assert (sq + identity(WS_SPEC)).is_zero()
    scalar = parse_scalar("i*n")
    assert str(scalar) == "i*n"


def test_round_trip_is_canonical_for_all_named_operators():
    # printing then parsing is a fixed point of printing, for every catalog
    # operator, across all three source charts
    for name in operator_names():
        op, _ = operator(name)
        printed = format_op(op)
        reparsed = parse(printed)
        assert format_op(reparsed) == printed, (
            "%s reprints differently: %r vs %r" % (name, format_op(reparsed), printed)
        )


def test_parse_whitespace_insensitive():
    a = parse("  r *D[r] + 1/2 * u ")
    b = parse("r*D[r]+1/2*u")
    assert (a - b).is_zero()


def test_integer_literal_past_the_int_string_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    digits = "1" * (limit + 1)
    for text, column in ((digits, 1), ("x^" + digits, 3), ("r + " + digits + "*u", 5)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.column == column
        assert "%d digits is too long" % (limit + 1) in str(info.value)
