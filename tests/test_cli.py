"""Command-line interface: verification runs, exit codes, output formats,
operator inspection, and determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import weylcalc
from weylcalc import g2algebra, registry, reports
from weylcalc.cli import MAX_DEGREE, MAX_LEVEL, main
from weylcalc.reports import CheckResult

GOLDEN = Path(__file__).with_name("golden_verify.json")
GOLDEN_DECOMPOSE = Path(__file__).with_name("golden_decompose.json")

def _json_lines(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_verify_passing_pattern_exits_zero(capsys):
    code = main(["verify", "2d.pipeline.*", "geom.det"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)


def test_verify_failing_pattern_exits_one(capsys):
    code = main(["verify", "g2.decompose.b.gl2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert "provably infeasible" in out


def test_verify_unknown_pattern_exits_two(capsys):
    code = main(["verify", "nosuch.*"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no checks match" in err


def test_verify_bad_param_exits_two(capsys):
    code = main(["verify", "geom.det", "--param", "beta=abc"])
    assert code == 2


def test_verify_param_zero_denominator_exits_two(capsys):
    code = main(["verify", "2d.eigenbasis", "--param", "beta=1/0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "bad --param: beta=1/0: zero denominator\n"


def test_verify_repeated_param_exits_two(capsys):
    code = main(["verify", "2d.eigenbasis", "--param", "beta=3", "--param", "beta=5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bad --param: beta given more than once\n"


def test_verify_json_and_text_agree(capsys):
    code = main(["verify", "geom.*", "--format", "json"])
    payload = _json_lines(capsys)
    assert code == 0
    json_status = {entry["check"]: entry["status"] for entry in payload}

    code = main(["verify", "geom.*"])
    out = capsys.readouterr().out
    text_status = {}
    for line in out.splitlines():
        if line.startswith(("PASS", "FAIL", "ERROR")):
            word, name = line.split()[:2]
            text_status[name] = word.lower()
    assert code == 0
    assert text_status == json_status
    assert set(json_status) == {
        "geom.cometric",
        "geom.det",
        "geom.curvature",
        "geom.curvature.sphere",
        "geom.schrodinger",
    }


def test_verify_output_is_deterministic(capsys):
    def snapshot():
        code = main(["verify", "2d.pipeline.*", "2d.algebraic", "--format", "json"])
        assert code == 0
        payload = _json_lines(capsys)
        for entry in payload:
            entry.pop("elapsed_ms")
        return payload

    assert snapshot() == snapshot()


def test_verify_parallel_matches_sequential(capsys):
    code = main(["verify", "2d.pipeline.*", "geom.*", "--format", "json"])
    seq = {e["check"]: e["status"] for e in _json_lines(capsys)}
    assert code == 0
    code = main(["verify", "2d.pipeline.*", "geom.*", "--format", "json", "--jobs", "2"])
    par = {e["check"]: e["status"] for e in _json_lines(capsys)}
    assert code == 0
    assert seq == par


def test_jobs_start_at_most_one_worker_per_group(capsys, monkeypatch):
    # a fork pool starts all its workers at the first submit, so the pool
    # size, not the number of submits, is what --jobs must bound; the fake
    # pool runs the calls inline and records the size it was asked for
    sizes = []

    class InlineFuture:
        def __init__(self, value):
            self._value = value

        def result(self):
            return self._value

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return InlineFuture(fn(*args))

    # registry imports the pool class when it needs one, from this module
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    # 2d.pipeline.* is one group and geom.* two; a lone group runs here
    assert main(["verify", "2d.pipeline.*", "geom.*", "--jobs", "5000"]) == 0
    assert main(["verify", "geom.*", "--jobs", "5000"]) == 0
    assert main(["verify", "2d.pipeline.*", "--jobs", "5000"]) == 0
    assert sizes == [3, 2]
    capsys.readouterr()


SEQUENTIAL_THEN_PARALLEL = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from weylcalc.cli import main

def run(*argv):
    out = StringIO()
    with redirect_stdout(out):
        code = main(["verify", *argv, "--format", "json"])
    payload = json.loads(out.getvalue())
    for entry in payload:
        entry.pop("elapsed_ms")
    return code, payload

run("2d.algebraic", "--jobs", "1")
print("concurrent.futures" in sys.modules)
seq = run("2d.algebraic", "geom.det", "--jobs", "1")
par = run("2d.algebraic", "geom.det", "--jobs", "2")
print("concurrent.futures" in sys.modules, seq == par, seq[0])
"""


def test_sequential_run_never_imports_the_process_pool():
    # a fresh interpreter: the test process may have imported the pool already
    src = str(Path(weylcalc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SEQUENTIAL_THEN_PARALLEL],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # not imported by --jobs 1; imported by --jobs 2, whose output matches
    assert proc.stdout.split() == ["False", "True", "True", "0"]


def test_verify_point_reaches_worker_processes(capsys):
    def run(jobs):
        argv = ["verify", "2d.eigenbasis", "geom.*", "--param", "beta=3", "--format", "json"]
        code = main(argv + ["--jobs", jobs])
        payload = _json_lines(capsys)
        for entry in payload:
            entry.pop("elapsed_ms")
        return code, payload

    code, seq = run("1")
    assert code == 0
    eigen = next(e for e in seq if e["check"] == "2d.eigenbasis")
    assert "at point {'beta': '3', 'mu': '1/3', 'p': '1/7'}" in eigen["witnesses"]
    # statuses, residual counts and witnesses alike
    assert run("2") == (code, seq)


def test_verify_param_override_reaches_checks(capsys):
    code = main(["verify", "2d.eigenbasis", "--param", "beta=3", "--param", "mu=1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta': '3'" in out or "beta" in out


def test_verify_unknown_param_exits_two(capsys):
    code = main(["verify", "geom.det", "--param", "nosuch=3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nosuch" in err
    assert "beta, mu, p" in err


def test_verify_param_without_a_reader_exits_two(capsys):
    # a value no selected check reads would otherwise be ignored silently
    code = main(["verify", "2d.algebraic", "--param", "beta=3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "2d.eigenbasis" in captured.err


def test_verify_param_help_names_its_reader(capsys):
    assert main(["verify", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "only 2d.eigenbasis reads these values" in help_text


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        assert main(["verify", "geom.det", "--jobs", jobs]) == 2
        assert "at least 1" in capsys.readouterr().err


def test_verify_matches_golden_output(capsys):
    """Statuses, residual counts and witness text of all 50 checks, byte
    for byte against the recorded output: a refactor leaves them as they
    are.  The four expected FAILs keep the exit code at 1.  After
    test_acceptance the slow groups come from their cached results."""
    code = main(["verify", "*", "--format", "json"])
    payload = _json_lines(capsys)
    assert code == 1
    for entry in payload:
        entry.pop("elapsed_ms")
    assert json.dumps(payload, indent=2) + "\n" == GOLDEN.read_text()


def test_groups_name_distinct_checks_and_resolvable_functions():
    # resolved, never called: only 2d.eigenbasis's function takes the point
    for names, function in registry.GROUPS:
        params = inspect.signature(registry.group_function(function)).parameters
        assert len(params) == (registry.POINT_CHECK in names), function
    assert len(set(registry.ALL_CHECKS)) == len(registry.ALL_CHECKS) == 50


def test_run_group_leaves_cached_results_alone(monkeypatch):
    cached = [CheckResult(check="a", status="pass", witnesses=["w"])]
    # as an lru_cache'd verify_* would, every call
    monkeypatch.setattr(reports, "cached_group", lambda: cached, raising=False)

    first = registry.run_group(("a",), "reports.cached_group")
    stamp = first[0].elapsed_ms
    second = registry.run_group(("a",), "reports.cached_group")
    assert first[0].elapsed_ms == stamp
    assert cached[0].elapsed_ms == 0.0
    assert first[0] is not cached[0] and second[0] is not first[0]
    second[0].witnesses.append("x")
    assert cached[0].witnesses == ["w"]


def test_verify_param_beta_zero_exits_two(capsys):
    # beta*(k + 1 + p + mu) collides across levels exactly when beta = 0, so
    # that point is a usage error before any check runs
    for value in ("0", "0/3"):
        code = main(["verify", "2d.eigenbasis", "--param", "beta=" + value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "bad --param: beta=0: every level eigenvalue beta*(k + 1 + p + mu) is 0,"
            " so the levels collide\n"
        )


def test_show_operator(capsys):
    code = main(["show", "B_x"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == (
        "1/2*x*D[x]^2 + y*D[x]*D[y] + z*D[x]*D[z] + (-1/2*x)*D[y]^2"
        " + (-1/2*x)*D[z]^2 + D[x] + x*E"
    )


def test_show_unknown_operator_exits_two(capsys):
    code = main(["show", "nope"])
    assert code == 2
    assert "unknown operator" in capsys.readouterr().err


def test_matrix_output(capsys):
    code = main(["matrix", "h_a", "1"])
    payload = _json_lines(capsys)
    assert code == 0
    assert payload["operator"] == "h_a"
    assert payload["n"] == 1
    assert payload["dim"] == 2
    assert payload["basis"] == ["1", "r"]
    assert payload["entries"] == [
        ["beta*mu + beta*p + beta", "-mu - p - 1"],
        ["0", "beta*mu + beta*p + 2*beta"],
    ]


def test_matrix_unknown_operator_lists_known_names(capsys):
    code = main(["matrix", "nope", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown operator 'nope'" in err
    assert "known: " + ", ".join(registry.operator_names()) in err


def test_matrix_rejects_levels_past_the_limit(capsys, monkeypatch):
    # the bound is checked before any basis is built
    from weylcalc import flagrep

    def unreachable(*args, **kwargs):
        raise AssertionError("matrix_of ran")

    monkeypatch.setattr(flagrep, "matrix_of", unreachable)
    for n in (MAX_LEVEL + 1, -1):
        code = main(["matrix", "h_a", str(n)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "from 0 to %d, got %d" % (MAX_LEVEL, n) in captured.err


def test_matrix_rejects_wrong_chart(capsys):
    code = main(["matrix", "B_x", "2"])
    assert code == 2


def test_decompose_command(capsys):
    code = main(["decompose", "l_a"])
    payload = _json_lines(capsys)
    assert code == 0
    assert payload["success"] is True
    assert payload["coefficients"]["J3*R2"] == "1"
    assert payload["coefficients"]["R2"] == "2*mu + 2"


def test_decompose_lowering_subset_fails_for_b(capsys):
    code = main(["decompose", "b_a", "--subset", "lowering"])
    payload = _json_lines(capsys)
    assert code == 1
    assert payload["success"] is False


def test_decompose_matches_golden_output(capsys):
    """The printed particular solutions, byte for byte: the column keys and
    the pivot rule fix which solution decompose returns."""
    for command, want in json.loads(GOLDEN_DECOMPOSE.read_text()).items():
        code = main(command.split())
        assert (code, capsys.readouterr().out) == (want["exit"], want["stdout"]), command


def test_decompose_rejects_negative_degree(capsys):
    code = main(["decompose", "h_a", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--degree" in captured.err


def test_decompose_rejects_degree_past_the_limit(capsys, monkeypatch):
    # the bound is checked before any product is built
    def unreachable(*args, **kwargs):
        raise AssertionError("decompose_family ran")

    monkeypatch.setattr(g2algebra, "decompose_family", unreachable)
    code = main(["decompose", "c", "--degree", str(MAX_DEGREE + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--degree" in captured.err
    assert "from 0 to %d" % MAX_DEGREE in captured.err


def test_parse_command(capsys):
    code = main(["parse", "D[r]*r - r*D[r]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "1"
    code = main(["parse", "D[q]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown symbol" in err
    # nesting past the interpreter's recursion limit is a usage error
    code = main(["parse", "(" * 1200 + "x" + ")" * 1200])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert "parentheses nested deeper than" in captured.err
    # so is an integer literal past the interpreter's int-string limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        code = main(["parse", "x^" + "1" * (limit + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("parse error: column 3: integer literal")
    # and a nested power past the degree limit, before it expands
    code = main(["parse", "(((x+y)^100)^100)^100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: column 14: power of degree 10000 exceeds")
    # and a power with more possible terms than MAX_TERMS, far inside that degree
    code = main(["parse", "(D[x]+D[y]+D[z]+D[r]+D[u]+D[rho])^16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: column 35: power of up to 74613 terms exceeds")


def test_closed_stdout_exits_one_without_traceback():
    # the read end is closed before the child writes, as `| head` does early
    src = str(Path(weylcalc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylcalc", "show", "h_a"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


def test_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify"]) == 2
    capsys.readouterr()
    assert main(["bogus"]) == 2
