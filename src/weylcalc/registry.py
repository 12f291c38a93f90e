"""Name registry of every verification check and every named operator.

Checks are produced in groups because several share one heavy computation.
GROUPS is the only description of a group: its declared check names and its
group function, named "module.function" and looked up when the group runs,
so naming or listing checks imports none of the modules that compute them.  A group function returns
its CheckResults in declared order and takes no argument, except the one for
2d.eigenbasis, which takes the rational evaluation point.  A group's wall
time is attached to each of its checks as elapsed_ms.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import time
from importlib import import_module

from .flagrep import DEFAULT_POINT
from .reports import CheckResult


class UnknownCheck(KeyError):
    pass


class UnknownOperator(KeyError):
    pass


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
        "coulomb3d.verify_coulomb",
    ),
    (("2d.pipeline.p0", "2d.pipeline.p1"), "coulomb2d.derive_h_pipeline"),
    (("2d.algebraic",), "coulomb2d.relate_h_ha"),
    (("2d.c.order", "2d.c.leading"), "coulomb2d.verify_c"),
    (("2d.comm.hl", "2d.comm.hb", "2d.comm.hc"), "coulomb2d.verify_integrals"),
    (
        (
            "2d.cubic.l.printed",
            "2d.cubic.l.solve",
            "2d.cubic.b.printed",
            "2d.cubic.b.solve",
        ),
        "coulomb2d.verify_cubic",
    ),
    (("2d.flag.invariance",), "coulomb2d.verify_flag_invariance"),
    (("2d.spectrum",), "coulomb2d.verify_spectrum"),
    (("2d.eigenbasis",), "coulomb2d.verify_eigenbasis"),
    (
        ("geom.cometric", "geom.det", "geom.curvature", "geom.curvature.sphere"),
        "diffgeo.verify_geometry",
    ),
    (("geom.schrodinger",), "diffgeo.verify_schrodinger_form"),
    (("g2.flag",), "g2algebra.verify_flag"),
    (("g2.closure.gl2", "g2.closure.sl2", "g2.nonclosure.T"), "g2algebra.verify_closure"),
    (("g2.lieform.h", "g2.lieform.l"), "g2algebra.verify_lie_forms"),
    (
        (
            "g2.decompose.h",
            "g2.decompose.l",
            "g2.decompose.b",
            "g2.decompose.c",
            "g2.decompose.b.gl2",
            "g2.decompose.c.gl2",
        ),
        "g2algebra.verify_decompositions",
    ),
)

# the only check evaluated at a rational point; every other group is symbolic
POINT_CHECK = "2d.eigenbasis"

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


def group_function(function: str):
    """The callable that a GROUPS entry names as "module.function"."""
    module, _, attr = function.rpartition(".")
    return getattr(import_module("." + module, __package__), attr)


def run_group(names, function: str, args=()) -> list:
    start = time.perf_counter()
    try:
        results = group_function(function)(*args)
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
    # group functions may hand out cached lists, so time stamps go on copies
    return [
        dataclasses.replace(r, witnesses=list(r.witnesses), elapsed_ms=elapsed)
        for r in results
    ]


def run_checks(requested, point=DEFAULT_POINT, jobs: int = 1) -> list:
    """Run the named checks, in the order requested; each shared computation
    runs once.  point is the full evaluation point of 2d.eigenbasis.  With
    jobs > 1 the groups run in worker processes, at most one per group."""
    want = set(requested)
    unknown = want - set(ALL_CHECKS)
    if unknown:
        raise UnknownCheck(", ".join(sorted(unknown)))
    calls = [
        (names, function, (point,) if POINT_CHECK in names else ())
        for names, function in GROUPS
        if want & set(names)
    ]
    workers = min(jobs, len(calls))  # a fork pool starts every worker at once
    if workers > 1:
        # imported here: it pulls in multiprocessing, which --jobs 1 never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_group, *call) for call in calls]
            batches = [future.result() for future in futures]
    else:
        batches = [run_group(*call) for call in calls]
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
