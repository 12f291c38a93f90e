"""Command-line interface: verification runs, exit codes, output formats,
operator inspection, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import weylcalc
from weylcalc import registry
from weylcalc.cli import main
from weylcalc.reports import CheckResult

GOLDEN = Path(__file__).with_name("golden_verify.json")

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


def test_run_group_leaves_cached_results_alone():
    cached = [CheckResult(check="a", status="pass", witnesses=["w"])]

    def runner(params):
        return cached  # as an lru_cache'd verify_* would, every call

    first = registry.run_group(("a",), runner, None)
    stamp = first[0].elapsed_ms
    second = registry.run_group(("a",), runner, None)
    assert first[0].elapsed_ms == stamp
    assert cached[0].elapsed_ms == 0.0
    assert first[0] is not cached[0] and second[0] is not first[0]
    second[0].witnesses.append("x")
    assert cached[0].witnesses == ["w"]


def test_verify_param_collision_reports_error(capsys):
    code = main(["verify", "2d.eigenbasis", "--param", "beta=0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("ERROR")
    assert "collide" in out


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


def test_decompose_rejects_negative_degree(capsys):
    code = main(["decompose", "h_a", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--degree" in captured.err


def test_parse_command(capsys):
    code = main(["parse", "D[r]*r - r*D[r]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "1"
    code = main(["parse", "D[q]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown symbol" in err


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
