"""One cold sample: a fresh interpreter runs one workload and reports JSON.

    python3 perfbench/child.py WORKLOAD SEED TRACE RUN_ID SPANS_PATH
    python3 perfbench/child.py --setup-only

The parent puts the package's ``src`` on PYTHONPATH and notes the monotonic
clock just before spawning; this process reports the clock when set-up ends
(package imported, tracer installed) and when the last verdict or product
exists, with its own CPU time and peak RSS at that moment.  Checking the
output comes after, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import tracer as tracing
import workloads


def main(argv) -> int:
    modules = tracing.import_layers()
    if argv == ["--setup-only"]:
        print(json.dumps({"t_ready": time.monotonic(), "package": modules["cli"].__file__}))
        return 0
    workload, seed, trace, run_id, spans_path = argv
    seed, trace = int(seed), trace == "1"
    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id)
        tracer.install(modules)
    t_ready = time.monotonic()

    out = io.StringIO()
    if workload == "cubic-products":
        gens = workloads.cubic_generators()
        ops = modules["linsolve"].monomial_ops(gens, workloads.CUBIC_DEGREE)
    else:
        cli = modules["cli"]
        with contextlib.redirect_stdout(out):
            cli.main(["verify", *workloads.PATTERNS[workload], "--format", "json", "--jobs", "1"])

    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "package": modules["cli"].__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
    if workload == "cubic-products":
        result["wrong"] = workloads.cross_check_products(gens, ops, seed)
    else:
        report = json.loads(out.getvalue())
        result["wrong"] = workloads.wrong_verdicts(workload, report)
        result["groups"] = workloads.group_seconds(workload, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
