"""Name registry of every verification check and every named operator.

Checks are produced in groups because several share one heavy computation;
a group's wall time is attached to each of its checks as elapsed_ms.  Some
checks evaluate at a generic rational point; the params mapping overrides
those point values and is ignored by fully symbolic checks.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .reports import CheckResult, merge_checks, verdict


class UnknownCheck(KeyError):
    pass


class UnknownOperator(KeyError):
    pass


# -- group runners ------------------------------------------------------------------


def _run_3d(params):
    from .coulomb3d import verify_coulomb

    return verify_coulomb()


def _run_2d_pipeline(params):
    from .coulomb2d import derive_h_pipeline

    return [derive_h_pipeline(0)[0], derive_h_pipeline(1)[0]]


def _run_2d_algebraic(params):
    from .coulomb2d import relate_h_ha

    return [relate_h_ha()]


def _run_2d_c(params):
    from .coulomb2d import compute_c_and_verify_leading

    return compute_c_and_verify_leading()[1]


def _run_2d_comm(params):
    from .coulomb2d import verify_integrals

    return verify_integrals()


def _run_2d_cubic(params):
    from .coulomb2d import verify_cubic

    return verify_cubic()[0]


def _run_2d_flag(params):
    from .coulomb2d import b_a, c_op, h_a, l_a
    from .flagrep import invariance_witnesses

    parts = [
        verdict("2d.flag.invariance[%s,P_%d]" % (name, n), wit is None, [wit] if wit else [])
        for name, build in (("h_a", h_a), ("l_a", l_a), ("b_a", b_a), ("c", c_op))
        for n, wit in enumerate(invariance_witnesses(build(), 8))
    ]
    return [
        merge_checks(
            "2d.flag.invariance", parts, ["h_a, l_a, b_a, c preserve P_n for n = 0..8"]
        )
    ]


def _run_2d_spectrum(params):
    from .coulomb2d import h_a
    from .flagrep import matrix_of, spectrum_witnesses

    top = matrix_of(h_a(), 8)
    parts = []
    dims = []
    for n in range(9):
        block = top.leading_block(n)
        dims.append(block.dim)
        wit = spectrum_witnesses(block)
        parts.append(verdict("2d.spectrum[n=%d]" % n, not wit, wit))
    summary = [
        "char poly = prod_k (lam - beta*(k+1+p+mu))^(k//2+1) for n = 0..8",
        "dims %s" % (dims,),
    ]
    return [merge_checks("2d.spectrum", parts, summary)]


def _point_override(params):
    from .flagrep import DEFAULT_POINT

    point = dict(DEFAULT_POINT)
    for key in point:
        if key in params:
            point[key] = Fraction(params[key])
    return point


def _run_2d_eigenbasis(params):
    from .coulomb2d import h_a
    from .flagrep import eigenpolynomials, flag_dim, matrix_of

    point = _point_override(params)
    top = matrix_of(h_a(), 8)
    parts = []
    for n in range(9):
        total = sum(map(len, eigenpolynomials(top.leading_block(n), point)))
        want = flag_dim(n)
        parts.append(
            verdict(
                "2d.eigenbasis[n=%d]" % n,
                total == want,
                [] if total == want else ["kernel dimensions total %d, want %d" % (total, want)],
                abs(total - want),
            )
        )
    summary = [
        "eigenpolynomial count equals dim P_n for n = 0..8",
        "at point %s" % {k: str(v) for k, v in sorted(point.items())},
    ]
    return [merge_checks("2d.eigenbasis", parts, summary)]


def _run_geom(params):
    from .diffgeo import verify_geometry

    return verify_geometry()


def _run_geom_schrodinger(params):
    from .diffgeo import verify_schrodinger_form

    return [verify_schrodinger_form()]


def _run_g2_flag(params):
    from .g2algebra import verify_flag

    return [verify_flag()]


def _run_g2_closure(params):
    from .g2algebra import verify_closure

    return verify_closure()


def _run_g2_lieform(params):
    from .g2algebra import verify_lie_forms

    return verify_lie_forms()


def _run_g2_decompose(params):
    from .g2algebra import verify_decompositions

    return verify_decompositions()


GROUPS = (
    (
        (
            "3d.sturm",
            "3d.comm.LL",
            "3d.comm.LH",
            "3d.comm.AH",
            "3d.comm.AL",
            "3d.comm.AA",
            "3d.comm.LK",
            "3d.norm.A2",
            "3d.norm.B2",
            "3d.orth.LA",
            "3d.orth.AL",
            "3d.orth.LB",
            "3d.orth.BL",
            "3d.b.orderings",
            "3d.comm.BK",
            "3d.comm.BL",
            "3d.comm.BB",
            "3d.so4",
        ),
        _run_3d,
    ),
    (("2d.pipeline.p0", "2d.pipeline.p1"), _run_2d_pipeline),
    (("2d.algebraic",), _run_2d_algebraic),
    (("2d.c.order", "2d.c.leading"), _run_2d_c),
    (("2d.comm.hl", "2d.comm.hb", "2d.comm.hc"), _run_2d_comm),
    (
        (
            "2d.cubic.l.printed",
            "2d.cubic.l.solve",
            "2d.cubic.b.printed",
            "2d.cubic.b.solve",
        ),
        _run_2d_cubic,
    ),
    (("2d.flag.invariance",), _run_2d_flag),
    (("2d.spectrum",), _run_2d_spectrum),
    (("2d.eigenbasis",), _run_2d_eigenbasis),
    (
        ("geom.cometric", "geom.det", "geom.curvature", "geom.curvature.sphere"),
        _run_geom,
    ),
    (("geom.schrodinger",), _run_geom_schrodinger),
    (("g2.flag",), _run_g2_flag),
    (("g2.closure.gl2", "g2.closure.sl2", "g2.nonclosure.T"), _run_g2_closure),
    (("g2.lieform.h", "g2.lieform.l"), _run_g2_lieform),
    (
        (
            "g2.decompose.h",
            "g2.decompose.l",
            "g2.decompose.b",
            "g2.decompose.c",
            "g2.decompose.b.gl2",
            "g2.decompose.c.gl2",
        ),
        _run_g2_decompose,
    ),
)

ALL_CHECKS = tuple(name for names, _ in GROUPS for name in names)


def expand(patterns) -> list:
    """Check names matching any glob pattern, in registry order."""
    if isinstance(patterns, str):
        patterns = [patterns]
    out = []
    for name in ALL_CHECKS:
        if any(fnmatch.fnmatchcase(name, pat) for pat in patterns):
            out.append(name)
    return out


def run_group(names, runner, params) -> list:
    start = time.perf_counter()
    try:
        results = runner(params or {})
    except Exception as exc:  # a crash must surface as a report, not a traceback
        elapsed = (time.perf_counter() - start) * 1000.0
        return [
            CheckResult(
                check=name,
                status="error",
                residual_terms=0,
                witnesses=["%s: %s" % (type(exc).__name__, exc)],
                elapsed_ms=elapsed,
            )
            for name in names
        ]
    elapsed = (time.perf_counter() - start) * 1000.0
    got = tuple(r.check for r in results)
    if got != tuple(names):
        raise RuntimeError(
            "registry mismatch: declared %s, produced %s" % (names, got)
        )
    # runners may hand out cached lists, so time stamps go on copies
    return [
        dataclasses.replace(r, witnesses=list(r.witnesses), elapsed_ms=elapsed)
        for r in results
    ]


def run_checks(requested, params=None, jobs: int = 1) -> list:
    """Run the named checks, in the order requested; each shared computation
    runs once.  With jobs > 1 the groups run in that many worker processes."""
    want = set(requested)
    unknown = want - set(ALL_CHECKS)
    if unknown:
        raise UnknownCheck(", ".join(sorted(unknown)))
    groups = [(names, runner) for names, runner in GROUPS if want & set(names)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_group, names, runner, params) for names, runner in groups]
            batches = [future.result() for future in futures]
    else:
        batches = [run_group(names, runner, params) for names, runner in groups]
    results = {res.check: res for batch in batches for res in batch}
    return [results[name] for name in requested]


# -- named operators ----------------------------------------------------------------


def _operator_table() -> dict:
    from . import coulomb2d, coulomb3d, g2algebra
    from .spaces import RU_SPEC
    from .weyl import identity

    table = {"identity": (lambda: identity(RU_SPEC), "identity on the (r, u) chart")}
    table.update(coulomb2d.NAMED_OPERATORS)
    table.update(coulomb3d.NAMED_OPERATORS)
    for name in g2algebra.ALL_GENERATORS:
        table[name] = (
            (lambda g=name: g2algebra.generator(g)),
            "flag generator %s at symbolic mark n" % name,
        )
    return table


def operator_names() -> list:
    return sorted(_operator_table())


def operator(name: str):
    """(DiffOp, description) for a registered operator name."""
    table = _operator_table()
    if name not in table:
        raise UnknownOperator(name)
    build, describe = table[name]
    return build(), describe
