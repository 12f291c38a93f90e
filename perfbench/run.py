"""Cold-process benchmark of the weylcalc exact verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every sample is a fresh interpreter
(perfbench/child.py), spawned one at a time from this process, so no
lru_cache'd result of one sample can serve another.  Samples repeat until
another sample of average length would end after S seconds; there is
always at least one whole sample, so a run of a slow workload takes longer.

--trace 0 measures the end-to-end metrics: wall_s, cpu_s and peak_rss_mb
are medians over the samples; setup_s is the median over the samples and
several set-up-only children.  --trace 1 runs untraced and traced samples in
pairs and reports the per-layer metrics of BENCHMARK.json, including the
tracing overhead.  Every sample's output is checked against the reference in
perfbench/workloads.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit.  The full record, with the machine facts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0   # a run must end within 180 s
SETUP_PROBES = 8


def spawn(args, timeout: float):
    """Run one child; its JSON record with set-up and wall time, or None."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as installs do
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "child.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("sample %s timed out" % (args,), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("sample %s exited with %d" % (args, proc.returncode), file=sys.stderr)
        return None
    rec = json.loads(out.decode().splitlines()[-1])
    if not Path(rec["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("child imported weylcalc from %s, not %s" % (rec["package"], SRC))
    rec["setup_s"] = rec["t_ready"] - t_spawn
    if "t_done" in rec:
        rec["wall_s"] = rec["t_done"] - t_spawn
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool, min_samples: int = 1) -> dict:
    """Samples of one run: untraced ones, plus a traced one after each when trace."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(["--setup-only"], 60.0)  # writes the bytecode cache; not measured
    probes = []
    if not trace:
        probes = [spawn(["--setup-only"], 60.0) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        i = len(plain)
        spans = OUT / ("%s-seed%d-sample%d.spans.jsonl" % (workload, seed, i))
        run_id = "%s/seed%d/sample%d" % (workload, seed, i)
        modes = ("0", "1") if trace else ("0",)
        for mode, bucket in zip(modes, (plain, traced)):
            args = [workload, str(seed), mode, run_id, str(spans)]
            bucket.append(spawn(args, deadline - time.monotonic()))
        if None in plain or None in traced:
            break
        # another sample only if one of average length still fits in `seconds`
        spent = time.monotonic() - t0
        if len(plain) >= min_samples and spent * (i + 2) / (i + 1) > seconds:
            break
    return {"probes": probes, "plain": plain, "traced": traced}


def _median(records, key):
    return statistics.median(r[key] for r in records)


def metrics_of(run: dict) -> dict:
    """Every metric this run measured, by name."""
    plain = [r for r in run["plain"] if r]
    traced = [r for r in run["traced"] if r]
    out = {}
    if plain:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            out[key] = _median(plain, key)
        out["setup_s"] = _median([r for r in run["probes"] if r] + plain, "setup_s")
        for group in workloads.REPORTED_GROUPS + ("other",):
            out["registry.group.%s.s" % group] = statistics.median(
                r.get("groups", {}).get(group, 0.0) for r in plain
            )
    if plain and traced:
        for key in traced[0]["layers"]:
            out[key] = _median([r["layers"] for r in traced], key)
        out["trace.untraced_wall_s"] = out["wall_s"]
        out["trace.traced_wall_s"] = _median(traced, "wall_s")
        out["trace.overhead"] = out["trace.traced_wall_s"] / out["wall_s"]
    return out


def isolation_errors(workload: str, run: dict) -> list:
    """Traced samples whose counts show work served from a warm cache."""
    errors = []
    for i, rec in enumerate(r for r in run["traced"] if r):
        layers = rec["layers"]
        if workload == "g2-decompose" and layers["linsolve.decompose.calls"] != 8:
            errors.append("sample %d: linsolve.decompose.calls = %d, want 8"
                          % (i, layers["linsolve.decompose.calls"]))
        if workload == "so4-3d" and layers["coeffring.poly_gcd.calls"] == 0:
            errors.append("sample %d: coeffring.poly_gcd.calls = 0" % i)
    return errors


def verdicts(workload: str, run: dict):
    """(attempted, wrong) over every sample; a failed sample is all wrong."""
    samples = run["plain"] + run["traced"]
    per = workloads.attempted(workload)
    wrong = sum(per if r is None else r["wrong"] for r in samples)
    return per * len(samples), wrong


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seed_use": "selects the cross-check monomials"
        if workload == "cubic-products"
        else "recorded only: verify workloads have no random input",
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "weylcalc" / "__init__.py").is_file():
        print("no package source at %s; run from a weylcalc checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    measured = metrics_of(run)
    attempted, wrong = verdicts(args.workload, run)
    errors = isolation_errors(args.workload, run)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print("no complete sample; unmeasured: %s" % ", ".join(missing), file=sys.stderr)
        return 1

    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in measured:
            print("%-40s %14.6f %s" % (m["name"], measured[m["name"]], m["unit"]))
    print("%-40s %d of %d" % ("wrong_verdicts", wrong, attempted))
    for err in errors:
        print("cache isolation: %s" % err)
    print(json.dumps(prov))
    result = {
        "correct": wrong == 0 and not errors,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = dict(result, provenance=prov, all_metrics=measured, isolation_errors=errors, samples=run)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
