import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from permex import kernels
from permex.cli import dispatch
from permex.permanents import DIM_LIMIT_DEFAULT

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expect_json(capsys):
    code, out, _ = run(capsys, "expect", "--n", "2", "--r", "2", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["value_num"] == "3"
    assert payload["value_den"] == "1"
    assert payload["terms"] == 3


def test_product_and_oracle_agree(capsys):
    # (8!)^2 tuples, but the oracle evaluates only p(8) = 22 matrices
    for n, m in (("3", "2"), ("8", "4")):
        argv = ("--n", n, "--r", "2", "--m", m, "--m2", m)
        code, out1, _ = run(capsys, "product", *argv)
        assert code == 0
        code, out2, _ = run(capsys, "oracle", *argv)
        assert code == 0
        a, b = json.loads(out1), json.loads(out2)
        assert (a["value_num"], a["value_den"]) == (b["value_num"], b["value_den"])


def test_product_budget_boundary(capsys):
    # (4, 3, 2, 3) has 1,173 profiles: a budget of exactly that many passes
    argv = ("product", "--n", "4", "--r", "3", "--m", "2", "--m2", "3", "--threads", "1")
    code, out, _ = run(capsys, *argv, "--budget", "1173")
    assert code == 0
    assert json.loads(out)["terms"] == 1173
    code, out, err = run(capsys, *argv, "--budget", "1172")
    assert code == 2
    assert out == ""
    assert "budget 1172" in err


def test_rate_value(capsys):
    code, out, _ = run(capsys, "rate", "--r", "2", "--p", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["rate"] - 0.9547712524422192) < 1e-12


def test_rate_with_q_reports_factorization(capsys):
    code, out, _ = run(capsys, "rate", "--r", "3", "--p", "0.4", "--q", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["factorization_gap"]) < 1e-9


def test_analytic_csv_schema(capsys):
    code, out, _ = run(capsys, "analytic", "--r", "2", "--p", "0.5", "--q", "0.5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,q,r,a,b,d,e,L,rate,residual_max"
    assert len(lines) == 2


def test_solve_reports_iterations(capsys):
    code, out, _ = run(capsys, "solve", "--r", "2", "--p", "0.3", "--q", "0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["iterations"] > 0
    assert payload["residual_max"] < 1e-10


def test_mc_deterministic_and_roundtrip(capsys):
    args = ("mc", "--n", "4", "--r", "2", "--m", "2", "--m2", "2",
            "--samples", "100", "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    prod = payload["product"]
    mean = Fraction(int(prod["mean_num"]), int(prod["mean_den"]))
    assert float(mean) == pytest.approx(prod["mean"])
    # floats round-trip through the serialized report
    assert json.loads(json.dumps(payload)) == payload


def test_scan_repeatable_n(capsys):
    code, out, _ = run(capsys, "scan", "--r", "2", "--p", "0.5", "--q", "0.5",
                       "--n", "2", "--n", "3", "--samples", "50")
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload["rows"]] == [2, 3]


def test_argmax_profile_fields(capsys):
    code, out, _ = run(capsys, "argmax", "--n", "4", "--r", "2", "--m", "2", "--m2", "2")
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["profile"]["base"]) == 2
    totals = payload["profile"]["totals"]
    second = (totals["fresh"] + totals["dup"] + totals["row_hits"]
              + totals["col_hits"] + totals["cross"])
    assert second == 2


def test_verify_stationarity(capsys):
    code, out, err = run(capsys, "verify", "--suite", "stationarity", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["points"] == 81
    assert "ok" in err


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stationarity", "--r", "3",
                       "--format", "csv")
    assert code == 0
    header = out.split("\n", 1)[0]
    assert header == "p,q,r,residual_max"


def test_verify_solver_json_serializable(capsys):
    # solver outputs must be plain Python scalars all the way into the report
    code, out, _ = run(capsys, "verify", "--suite", "solver")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["rows"]) == 20


def test_verify_solver_honours_r(capsys):
    # the drawn r is replaced, not skipped, so the (p, q) points stay put
    code, out, _ = run(capsys, "verify", "--suite", "solver")
    assert code == 0
    default = json.loads(out)["rows"]
    code, out, _ = run(capsys, "verify", "--suite", "solver", "--r", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["r"] for row in rows] == [3] * 20
    assert [(row["p"], row["q"]) for row in rows] == [(row["p"], row["q"]) for row in default]
    code, _, err = run(capsys, "verify", "--suite", "solver", "--r", "1")
    assert code == 1
    assert "error:" in err


def test_verify_solver_warns_nothing(capsys):
    # at r = 3 some full Newton steps overflow a trial exp before the
    # feasibility test rejects them; that must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "verify", "--suite", "solver", "--r", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def _child(*args, stdout=subprocess.PIPE):
    """Run ``python *args`` with this checkout's permex importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child("-m", "permex.cli", "rate", "--p", "0.5", "--r", "3",
                      stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def _loads_numpy(*commands):
    """Whether dispatching ``commands`` in a fresh interpreter imports numpy."""
    proc = _child(
        "-c",
        "import contextlib, io, sys\n"
        "import permex, permex.cli\n"
        f"for argv in {[list(c) for c in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert permex.cli.dispatch(argv + ['--threads', '1']) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return {b"True\n": True, b"False\n": False}[proc.stdout]


def test_startup_without_numpy():
    assert not _loads_numpy(
        ("rate", "--r", "2", "--p", "0.5", "--q", "0.3"),
        ("analytic", "--r", "3", "--p", "0.4", "--q", "0.6"),
        ("expect", "--n", "4", "--r", "2", "--m", "2"),
        ("product", "--n", "3", "--r", "2", "--m", "1", "--m2", "2"),
        ("argmax", "--n", "3", "--r", "2", "--m", "1", "--m2", "2"),
        ("verify", "--help"),
    )
    # the same check sees numpy once a command builds arrays
    assert _loads_numpy(("mc", "--n", "3", "--r", "2", "--m", "1", "--samples", "4"))


def test_unknown_flag_exits_1(capsys):
    # expect has no work budget, so --budget is unknown to it
    for flag in ("--bogus", "--budget"):
        code, _, err = run(capsys, "expect", "--n", "2", "--r", "2", "--m", "2",
                           flag, "1")
        assert code == 1
        assert "usage" in err


def test_domain_error_exits_1(capsys):
    # an explicit --r 0 is a value, not "use the default grid"
    for argv in (("expect", "--n", "2", "--r", "2", "--m", "5"),
                 ("argmax", "--n", "2", "--r", "0", "--m", "0"),
                 ("argmax", "--n", "2", "--r", "-1", "--m", "0"),
                 ("verify", "--suite", "stationarity", "--r", "0"),
                 ("verify", "--suite", "solver", "--seed", "-1"),
                 ("verify", "--suite", "solver", "--seed", "18446744073709551616")):
        code, _, err = run(capsys, *argv, "--threads", "1")
        assert code == 1
        assert "error:" in err


def test_capacity_error_exits_2(capsys):
    # an explicit --budget 0 is a value, not "use the default budget"
    for argv in (("oracle", "--n", "10", "--r", "3", "--m", "2", "--m2", "0"),
                 ("product", "--n", "3", "--r", "2", "--m", "1", "--m2", "1",
                  "--budget", "0", "--threads", "1")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err


def test_mc_report_independent_of_backend(capsys, monkeypatch):
    args = ("mc", "--n", "6", "--r", "2", "--m", "3", "--m2", "4",
            "--samples", "300", "--seed", "5", "--threads", "1")
    code, default, _ = run(capsys, *args)
    assert code == 0
    # no bound certifies int64, so every block runs on Python ints
    monkeypatch.setattr(kernels, "I64_SAFE_BOUND", 0)
    code, pure, _ = run(capsys, *args)
    assert code == 0
    assert pure == default


@pytest.mark.parametrize("argv", [
    ("mc", "--r", "2", "--m", "2"),
    ("scan", "--r", "2", "--p", "0.5", "--q", "0.5"),
])
def test_sampling_dimension_limit_exits_2(capsys, argv):
    n = str(DIM_LIMIT_DEFAULT + 1)
    code, out, err = run(capsys, *argv, "--n", n, "--samples", "2", "--threads", "1")
    assert code == 2
    assert out == ""
    assert "limited to n <=" in err


def test_byte_identical_reports(capsys):
    args = ("analytic", "--r", "4", "--p", "0.3", "--q", "0.8")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_csv_moment_has_float_column(capsys):
    code, out, _ = run(capsys, "expect", "--n", "3", "--r", "2", "--m", "1",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert "value_float" in header.split(",")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["value_float"]) == 6.0
    assert cells["value_num"] == "6"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
