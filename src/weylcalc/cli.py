"""Command-line front end: check runner, operator display, matrix and
decomposition export, and the expression parser.

Exit codes: 0 all requested checks pass, 1 any failure or error (a closed
output pipe included), 2 usage problems (unknown names, syntax errors, no
matching checks, a --param that no selected check reads, beta=0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import registry
from .exprparse import ParseError, parse
from .flagrep import DEFAULT_POINT
from .weyl import WeylError, format_op


def _parse_point(pairs) -> dict:
    """The evaluation point: DEFAULT_POINT overlaid with the --param pairs.
    beta = 0 is refused: the level eigenvalues beta*(k + 1 + p + mu) differ
    from each other exactly when beta != 0."""
    point = dict(DEFAULT_POINT)
    given = set()
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ValueError("expected name=value, got %r" % pair)
        if name in given:
            raise ValueError("%s given more than once" % name)
        given.add(name)
        try:
            point[name] = Fraction(value)
        except ZeroDivisionError:
            raise ValueError("%s: zero denominator" % pair) from None
    unknown = sorted(set(point) - set(DEFAULT_POINT))
    if unknown:
        raise ValueError(
            "no check reads %s; accepted names: %s"
            % (", ".join(unknown), ", ".join(sorted(DEFAULT_POINT)))
        )
    if point["beta"] == 0:
        raise ValueError(
            "beta=0: every level eigenvalue beta*(k + 1 + p + mu) is 0, so the levels collide"
        )
    return point


def _emit_text(results, out):
    for res in results:
        out.write(
            "%-5s %s  residual_terms=%d  %d ms\n"
            % (res.status.upper(), res.check, res.residual_terms, res.elapsed_ms)
        )
        for wit in res.witnesses:
            out.write("      %s\n" % wit)


def cmd_verify(args) -> int:
    try:
        point = _parse_point(args.param)
    except ValueError as exc:
        print("bad --param: %s" % exc, file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("bad --jobs: must be at least 1, got %d" % args.jobs, file=sys.stderr)
        return 2
    names = registry.expand(args.pattern)
    if not names:
        print("no checks matched %s" % args.pattern, file=sys.stderr)
        return 2
    if args.param and registry.POINT_CHECK not in names:
        print(
            "bad --param: no selected check reads it; only %s does" % registry.POINT_CHECK,
            file=sys.stderr,
        )
        return 2
    results = registry.run_checks(sorted(names), point, args.jobs)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        _emit_text(results, sys.stdout)
    return 0 if all(r.passed for r in results) else 1


def _named_operator(name):
    """(operator, description) for a registered name, or None after printing
    the unknown-name message with the known names."""
    try:
        return registry.operator(name)
    except registry.UnknownOperator:
        print(
            "unknown operator %r; known: %s" % (name, ", ".join(registry.operator_names())),
            file=sys.stderr,
        )
        return None


def cmd_show(args) -> int:
    found = _named_operator(args.opname)
    if found is None:
        return 2
    op, describe = found
    print("# %s" % describe)
    print(format_op(op))
    return 0


def cmd_matrix(args) -> int:
    from .flagrep import FlagError, matrix_of

    found = _named_operator(args.opname)
    if found is None:
        return 2
    op, _ = found
    if not 0 <= args.n <= MAX_LEVEL:
        print("bad N: must be from 0 to %d, got %d" % (MAX_LEVEL, args.n), file=sys.stderr)
        return 2
    try:
        matrix = matrix_of(op, args.n)
    except (FlagError, WeylError) as exc:
        print("cannot restrict %s to P_%d: %s" % (args.opname, args.n, exc), file=sys.stderr)
        return 2
    labels = [str(matrix.basis.monomial(i)) for i in range(matrix.dim)]
    payload = {
        "operator": args.opname,
        "n": args.n,
        "dim": matrix.dim,
        "basis": labels,
        "entries": [[str(e) for e in row] for row in matrix.entries],
    }
    print(json.dumps(payload, indent=2))
    return 0


_DECOMPOSABLE = {"h_a": "h", "l_a": "l", "b_a": "b", "c": "c"}

# degree d takes the C(d+11, 11) products of the eleven generators: c at
# degree 6 (12376 products) ran in 24 s with a 416 MB peak on a 2-core VM,
# and degree 7 would take 31824 products
MAX_DEGREE = 6

# P_N has about N^2/4 basis monomials, so its matrix has about N^4/16
# entries, every empty one the same zero: c at N = 48 ran in 0.9 s, printed
# 4.7 MB and peaked at 67 MB on a 2-core VM, against 0.4 MB and 26 MB at
# N = 24
MAX_LEVEL = 48


def cmd_decompose(args) -> int:
    from .g2algebra import LOWERING_GL2, decompose_family

    tag = _DECOMPOSABLE.get(args.opname)
    if tag is None:
        print(
            "decompose supports %s" % ", ".join(sorted(_DECOMPOSABLE)),
            file=sys.stderr,
        )
        return 2
    if args.degree is not None and not 0 <= args.degree <= MAX_DEGREE:
        print(
            "bad --degree: must be from 0 to %d, got %d" % (MAX_DEGREE, args.degree),
            file=sys.stderr,
        )
        return 2
    names = LOWERING_GL2 if args.subset == "lowering" else None
    dec = decompose_family(tag, names=names, degree=args.degree)
    payload = {
        "target": dec.target,
        "generators": list(dec.generator_names),
        "degree_bound": dec.degree_bound,
        "success": dec.success,
        "monomials": dec.monomials_considered,
        "unknowns": dec.unknowns,
        "rank": dec.rank,
        "coefficients": dec.coefficient_strings() if dec.success else {},
        "message": dec.message or "",
    }
    print(json.dumps(payload, indent=2))
    return 0 if dec.success else 1


def cmd_parse(args) -> int:
    try:
        op = parse(args.expr)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    print(format_op(op))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcalc",
        description="exact operator-calculus checks for the Coulomb family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run checks matching a glob")
    p.add_argument("pattern", nargs="+", help="check name glob, e.g. '2d.*'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1, help="parallel group workers (at least 1)")
    p.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="rational override of the evaluation point (names: %s), e.g. "
        "beta=3/2; only 2d.eigenbasis reads these values"
        % ", ".join(sorted(DEFAULT_POINT)),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("show", help="print one named operator")
    p.add_argument("opname")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("matrix", help="matrix of an operator on P_N as JSON")
    p.add_argument("opname")
    p.add_argument("n", type=int, metavar="N", help="flag level (0 to %d)" % MAX_LEVEL)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("decompose", help="enveloping-algebra decomposition as JSON")
    p.add_argument("opname")
    p.add_argument(
        "--degree", type=int, default=None, help="monomial degree bound (0 to %d)" % MAX_DEGREE
    )
    p.add_argument("--subset", choices=("lowering",), default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("parse", help="parse an expression and print it canonically")
    p.add_argument("expr")
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # flush here, so a closed pipe raises inside this try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`); send the rest to devnull so the
        # flush at interpreter exit cannot fail again, and exit like EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
