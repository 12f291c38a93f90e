"""Self-test of the benchmark, and the one command that prints every metric.

    python3 perfbench/selftest.py

Runs every workload in trace mode (each traced sample paired with an
untraced one; two pairs for g2-decompose and so4-3d, one for the others),
prints every metric of BENCHMARK.json by name with its unit and value on
each workload, and fails (exit 1) unless:

- every verdict matches the reference in workloads.py;
- each named boundary records work on the workload meant to exercise it;
- each predicted bypass records exactly zero calls;
- every g2-decompose sample records 8 decompose calls and every so4-3d
  sample a nonzero poly_gcd count, so no sample was served from an
  in-process lru_cache.

It takes about six minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

EXERCISED = {
    "so4-3d": (
        "coeffring.poly_gcd.calls", "coeffring.expr_make.calls", "weyl.compose.calls",
        "coulomb3d.verify_b_orderings.s", "coulomb3d.self_s", "registry.group.3d.s",
    ),
    "g2-decompose": (
        "linsolve.decompose.calls", "linsolve.monomial_ops.calls", "linsolve.solver_add.calls",
        "linsolve.self_s", "weyl.compose.calls", "registry.group.g2.decompose.s",
    ),
    "cubic-products": (
        "coeffring.poly_mul.calls", "linsolve.monomial_ops.calls", "weyl.compose.calls",
    ),
    "flag-small": (
        "weyl.apply.calls", "coeffring.poly_mul.calls", "flagrep.matrix_of.s",
        "flagrep.char_poly.s", "flagrep.eigenpolynomials.s", "flagrep.self_s",
        "registry.group.2d.spectrum.s", "registry.group.2d.eigenbasis.s",
        "registry.group.other.s",
    ),
}

BYPASSED = {
    "so4-3d": ("linsolve.solver_add.calls", "linsolve.decompose.calls"),
    "cubic-products": (
        "linsolve.solver_add.calls", "linsolve.decompose.calls", "coeffring.poly_gcd.calls",
    ),
}

EXACT = {
    "g2-decompose": {"linsolve.decompose.calls": 8},
    "cubic-products": {"linsolve.monomial_ops.calls": 1},
}

PAIRS = {"so4-3d": 2, "g2-decompose": 2}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    run.OUT.mkdir(exist_ok=True)
    table, problems = {}, []
    for workload in workloads.NAMES:
        samples = run.measure(workload, 0, 0, True, min_samples=PAIRS.get(workload, 1))
        measured = run.metrics_of(samples)
        table[workload] = measured
        attempted, wrong = run.verdicts(workload, samples)
        if wrong:
            problems.append("%s: %d of %d verdicts wrong" % (workload, wrong, attempted))
        problems += ["%s: %s" % (workload, e) for e in run.isolation_errors(workload, samples)]
        problems += [
            "%s: %s not measured" % (workload, name) for name, _ in names if name not in measured
        ]
        for name in EXERCISED.get(workload, ()):
            if not measured.get(name):
                problems.append("%s: %s is 0, predicted nonzero" % (workload, name))
        for name in BYPASSED.get(workload, ()):
            if measured.get(name) != 0:
                problems.append("%s: %s = %s, predicted 0" % (workload, name, measured.get(name)))
        for name, want in EXACT.get(workload, {}).items():
            if measured.get(name) != want:
                problems.append("%s: %s = %s, want %s" % (workload, name, measured.get(name), want))
    print("%-34s %-6s" % ("metric", "unit") + "".join("%16s" % w for w in workloads.NAMES))
    for name, unit in names:
        row = "".join("%16.6g" % table[w].get(name, float("nan")) for w in workloads.NAMES)
        print("%-34s %-6s%s" % (name, unit, row))
    for p in problems:
        print("FAIL", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
