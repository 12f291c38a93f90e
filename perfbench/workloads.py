"""The four workloads and the independent reference each one is checked against.

The verify workloads have no random input: they run fixed registry checks,
and the seed is only recorded.  cubic-products builds fixed products; its
seed selects the flag monomials of the cross-check.
"""

from __future__ import annotations

import random

# Hand-written expected verdicts, grouped as the registry runs them.  Every
# check passes except the documented FAILs below (2d.cubic.l.printed and
# 2d.cubic.b.printed, the other two, are in no workload).
EXPECTED_FAILS = frozenset({"g2.decompose.b.gl2", "g2.decompose.c.gl2"})

GROUPS = {
    "so4-3d": {
        "3d": (
            "3d.sturm", "3d.comm.LL", "3d.comm.LH", "3d.comm.AH", "3d.comm.AL",
            "3d.comm.AA", "3d.comm.LK", "3d.norm.A2", "3d.norm.B2", "3d.orth.LA",
            "3d.orth.AL", "3d.orth.LB", "3d.orth.BL", "3d.b.orderings",
            "3d.comm.BK", "3d.comm.BL", "3d.comm.BB", "3d.so4",
        ),
    },
    "g2-decompose": {
        "g2.decompose": (
            "g2.decompose.h", "g2.decompose.l", "g2.decompose.b", "g2.decompose.c",
            "g2.decompose.b.gl2", "g2.decompose.c.gl2",
        ),
    },
    "flag-small": {
        "2d.pipeline": ("2d.pipeline.p0", "2d.pipeline.p1"),
        "2d.algebraic": ("2d.algebraic",),
        "2d.c": ("2d.c.order", "2d.c.leading"),
        "2d.comm": ("2d.comm.hl", "2d.comm.hb", "2d.comm.hc"),
        "2d.flag": ("2d.flag.invariance",),
        "2d.spectrum": ("2d.spectrum",),
        "2d.eigenbasis": ("2d.eigenbasis",),
        "geom": ("geom.cometric", "geom.det", "geom.curvature", "geom.curvature.sphere"),
        "geom.schrodinger": ("geom.schrodinger",),
        "g2.flag": ("g2.flag",),
        "g2.closure": ("g2.closure.gl2", "g2.closure.sl2", "g2.nonclosure.T"),
        "g2.lieform": ("g2.lieform.h", "g2.lieform.l"),
    },
}

# arguments of `weylcalc verify` for each verify workload
PATTERNS = {
    "so4-3d": ["3d.*"],
    "g2-decompose": ["g2.decompose.*"],
    "flag-small": [name for names in GROUPS["flag-small"].values() for name in names],
}

NAMES = ("so4-3d", "g2-decompose", "cubic-products", "flag-small")

# registry groups reported on their own; every other group adds to "other"
REPORTED_GROUPS = ("3d", "g2.decompose", "2d.spectrum", "2d.eigenbasis")

CUBIC_DEGREE = 3
CUBIC_PRODUCTS = 19          # ordered monomials of degree 1..3 in 3 generators
CHECK_FLAG = 8               # cross-check monomials r^a u^b with a + 2b <= 8
CHECK_PER_PRODUCT = 2


def expected_verdicts(workload: str) -> dict:
    return {
        name: "fail" if name in EXPECTED_FAILS else "pass"
        for names in GROUPS[workload].values()
        for name in names
    }


def attempted(workload: str) -> int:
    """Verdicts one sample gives."""
    if workload == "cubic-products":
        return CUBIC_PRODUCTS * CHECK_PER_PRODUCT
    return len(expected_verdicts(workload))


def wrong_verdicts(workload: str, report: list) -> int:
    """Expected verdicts that the report does not reproduce.

    A missing check, an extra check, an error and a mismatched status each
    count as wrong.
    """
    want = expected_verdicts(workload)
    got = {row["check"]: row["status"] for row in report}
    wrong = sum(1 for name, status in want.items() if got.get(name) != status)
    return wrong + len(set(got) - set(want))


def group_seconds(workload: str, report: list) -> dict:
    """registry.group.<g>.s from the reported elapsed_ms of each group."""
    elapsed = {row["check"]: row["elapsed_ms"] / 1000.0 for row in report}
    out = {g: 0.0 for g in REPORTED_GROUPS + ("other",)}
    for group, names in GROUPS.get(workload, {}).items():
        key = group if group in REPORTED_GROUPS else "other"
        out[key] += elapsed.get(names[0], 0.0)
    return out


def check_monomials(seed: int) -> list:
    """For each product, in build order, the seed's flag monomials (a, b)."""
    flag = [(a, b) for b in range(CHECK_FLAG // 2 + 1) for a in range(CHECK_FLAG - 2 * b + 1)]
    rng = random.Random(seed)
    return [rng.sample(flag, CHECK_PER_PRODUCT) for _ in range(CUBIC_PRODUCTS)]


def cubic_generators():
    """Three of the four cubic-closure generators (l_a, b_a, c, h_a).

    2d.cubic builds the 34 products of all four, about 60 s on two cores;
    that is too long to repeat in every run, so b_a is left out.  The 19
    products kept are 29 s of that build and include its largest, c.c.c.
    """
    from weylcalc import coulomb2d

    return [
        ("l", coulomb2d.l_a()),
        ("c", coulomb2d.c_op()),
        ("h", coulomb2d.h_a()),
    ]


def cross_check_products(gens, ops, seed: int) -> int:
    """Wrong products, one verdict per (product, monomial).

    Applying a product to f must equal applying its factors in sequence,
    innermost first, through DiffOp.apply; this never uses compose's
    Leibniz renormal ordering.
    """
    from weylcalc.coeffring import Expr
    from weylcalc.spaces import RU

    monos = sorted((m for m in ops if m), key=lambda m: (len(m), m))
    if len(monos) != CUBIC_PRODUCTS:
        return CUBIC_PRODUCTS * CHECK_PER_PRODUCT
    wrong = 0
    for mono, picks in zip(monos, check_monomials(seed)):
        for a, b in picks:
            f = Expr.of_poly(RU.monomial(1, r=a, u=b))
            want = f
            for i in reversed(mono):
                want = gens[i][1].apply(want)
            if not (ops[mono].apply(f) - want).is_zero():
                wrong += 1
    return wrong
