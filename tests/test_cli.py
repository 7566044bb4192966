import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from permex import cli, kernels
from permex.cli import dispatch
from permex.errors import SolverError
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


def _too_slow(signum, frame):
    raise TimeoutError("no answer within 5 s")


@pytest.mark.parametrize("n, budget", [(12, 10), (25, 10_000)])
def test_m0_product_refuses_at_once(capsys, n, budget):
    # with m = 0 no line hosts a hit: the walk skips every fresh count short
    # of m2 and meets the budget among the fresh splits of m2 itself; a
    # runaway here never returns, so an alarm ends it
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        code, out, err = run(capsys, "product", "--n", str(n), "--r", str(n), "--m", "0",
                             "--m2", str(n), "--budget", str(budget), "--threads", "1")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"budget {budget}" in err


@pytest.mark.parametrize("command", ["product", "argmax"])
@pytest.mark.parametrize("r", [600, 1000])
def test_deep_r_exits_2_at_once(capsys, command, r):
    # the walk takes no stack per color, so deep r meets only the budget
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--n", "1", "--r", str(r), "--m", "1", "--m2", "1",
                         "--budget", "0")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget 0" in err
    assert "Traceback" not in err


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


# Recorded stdout of one invocation per subcommand, in JSON and CSV: pins the
# envelope, key order, CSV columns, float text and argmax's first-on-ties choice.
REPORTS_GOLDEN = json.loads((Path(__file__).parent / "cli_reports_golden.json").read_text())


def _golden_id(command):
    return "-".join(word for word in command.split() if not word.startswith("--"))


@pytest.mark.parametrize("command", sorted(REPORTS_GOLDEN), ids=_golden_id)
def test_reports_golden(capsys, command):
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, *command.split(), "--format", fmt)
        assert code == 0
        assert out == REPORTS_GOLDEN[command][fmt]


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


def test_verify_solver_passes_at_every_seed():
    # a restart from an infeasible start once failed seeds 3, 15 and 20
    for seed in range(40):
        rows, worst, passed, tol = cli._suite_solver(seed=seed)
        assert passed and len(rows) == 20, (seed, worst)


def test_verify_solver_warns_nothing(capsys):
    # at r = 3 some full Newton steps overflow a trial exp, and the batch
    # evaluates residuals at such infeasible trials before the feasibility
    # test rejects them; that must stay silent
    for argv in (("verify", "--suite", "solver", "--r", "3"),
                 ("verify", "--suite", "factorization")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["pass"] is True


def _child(*args, stdout=subprocess.PIPE, timeout=60, preexec_fn=None):
    """Run ``python *args`` with this checkout's permex importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=timeout, preexec_fn=preexec_fn)


CHILD_MEMORY = 1 << 30  # bytes of address space ``run_capped`` allows


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_capped(*argv):
    """``python -m permex.cli *argv`` in a child held to 1 GiB and 10 s.

    An input that runs away on a regressed tree then fails its test in
    seconds, by a MemoryError or the timeout, rather than taking the
    memory of the whole host.
    """
    proc = _child("-m", "permex.cli", *argv, timeout=10, preexec_fn=_cap_memory)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


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


def test_closed_buffered_stdout_exits_1_without_traceback(monkeypatch):
    # with stdout buffered, the report is still pending when main flushes
    # it after the atexit handlers, and that flush must find devnull
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    test_closed_stdout_exits_1_without_traceback()


def _main_with_hook(hook, *argv):
    """Run ``permex *argv`` as perfbench's child does: ``permex.cli`` as
    ``__main__``, after registering the atexit hook ``lambda: <hook>``."""
    return _child("-c", "import atexit, os, runpy, sys\n"
                        f"atexit.register(lambda: {hook})\n"
                        "runpy.run_module('permex.cli', run_name='__main__', alter_sys=True)\n",
                  *argv)


def test_main_runs_atexit_hooks_then_flushes(monkeypatch, capsys):
    # main skips the interpreter's teardown, not the handlers registered
    # before it, and what a handler writes still reaches both streams; the
    # streams are buffered, and the hook ends each write without a newline,
    # so line buffering flushes neither
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    argv = ("verify", "--suite", "stationarity", "--r", "2")
    _, report, _ = run(capsys, *argv)
    proc = _main_with_hook("(sys.stdout.write('hook-out'), sys.stderr.write('hook-err'))",
                           *argv)
    assert proc.returncode == 0
    assert proc.stdout.decode() == report + "hook-out"
    assert proc.stderr.decode() == "verify stationarity: ok over 81 points\nhook-err"


def test_main_flushes_a_blocking_stdout_whole(monkeypatch, capsys):
    # a 4 KiB pipe holds under a ninth of the 37 kB report, so the writes block
    # until the reader drains them, and the process may end only after
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set here")
    argv = ("verify", "--suite", "factorization")
    _, report, _ = run(capsys, *argv)
    assert len(report) > 9 * 4096
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    chunks = []
    with os.fdopen(read_end, "rb") as reader:
        drain = threading.Thread(target=lambda: chunks.append(reader.read()))
        drain.start()
        try:
            proc = _child("-m", "permex.cli", *argv, stdout=write_end)
        finally:
            os.close(write_end)
        drain.join()
    assert proc.returncode == 0, proc.stderr.decode()
    assert chunks[0].decode() == report


@pytest.mark.parametrize("argv, code, message", [
    (("scan", "--r", "2", "--p", "0.5", "--q", "0.5"), 1,
     "error: scan needs at least one --n\n"),
    (("oracle", "--n", "18", "--r", "2", "--m", "9", "--m2", "9"), 2,
     "error: the oracle's DP cells for (n=18, r=2) exceed budget 100000000\n"),
    # the restarts' closed forms underflow a coordinate to 0.0: no numpy
    # warning joins the one error line
    (("solve", "--r", "2", "--p", "1e-300", "--q", "0.5"), 2,
     "error: stationarity solve failed at (p=1e-300, q=0.5, r=2); "
     "best relative residual 4.440e-01\n"),
    (("solve", "--r", "5", "--p", "1e-200", "--q", "1e-200"), 2,
     "error: stationarity solve failed at (p=1e-200, q=1e-200, r=5); "
     "best relative residual 1.000e+00\n"),
    # sample indices past 2^64 are refused before the first draw, at r = 2
    # and at r >= 3, whose run reads the same one sample stream
    (("mc", "--n", "13", "--r", "2", "--m", "2", "--samples", str(2**64 + 1)), 1,
     f"error: sample indices must stay below 2^64, got {2**64 + 1}\n"),
    (("mc", "--n", "12", "--r", "3", "--m", "2", "--samples", str(2**64 + 1)), 1,
     f"error: sample indices must stay below 2^64, got {2**64 + 1}\n"),
], ids=["domain", "capacity", "solver-r2", "solver-r5", "samples-r2", "samples-r3"])
def test_main_error_exit_codes(argv, code, message):
    proc = _child("-m", "permex.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert proc.stderr.decode() == message


def test_main_starts_numpy_with_one_blas_thread(monkeypatch, capsys):
    # importing permex and dispatching leave the environment alone
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    proc = _child("-c", "import os, permex.cli\n"
                        "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert proc.stdout == b"None\n", proc.stderr.decode()
    run(capsys, "rate", "--r", "2", "--p", "0.5")
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    # main sets the default, and keeps a value the caller set; main ends its
    # process, so an atexit hook in the child reads the variable
    for preset, want in ((None, "1"), ("3", "3")):
        if preset is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        proc = _main_with_hook("print(os.environ['OPENBLAS_NUM_THREADS'])",
                               "rate", "--r", "2", "--p", "0.5")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().endswith(f"}}\n{want}\n")


def _loaded(modules, *commands):
    """Which of ``modules`` a fresh interpreter holds after it imports
    ``permex.cli`` and dispatches ``commands``."""
    proc = _child(
        "-c",
        "import contextlib, io, sys\n"
        "import permex, permex.cli\n"
        f"for argv in {list(commands)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert permex.cli.dispatch(argv) == 0, argv\n"
        f"print(*[m for m in {list(modules)!r} if m in sys.modules])\n"
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stdout.decode().split())


def test_startup_without_numpy():
    assert not _loaded(
        ["numpy"],
        ("rate", "--r", "2", "--p", "0.5", "--q", "0.3"),
        ("analytic", "--r", "3", "--p", "0.4", "--q", "0.6"),
        ("expect", "--n", "4", "--r", "2", "--m", "2"),
        ("product", "--n", "3", "--r", "2", "--m", "1", "--m2", "2"),
        ("argmax", "--n", "3", "--r", "2", "--m", "1", "--m2", "2"),
        ("verify", "--help"),
        # small oracle tables run the reference DP on Python lists
        ("verify", "--suite", "oracle-product"),
        ("oracle", "--n", "4", "--r", "3", "--m", "2", "--m2", "2"),
        # 36 tuples <= 100 samples: enumeration mode reads the oracle table
        ("mc", "--n", "3", "--r", "2", "--m", "1", "--samples", "100"),
        # r = 2 sampling at any length: classes read off the Philox words
        # in pure Python, one profile per cycle type
        ("mc", "--n", "3", "--r", "2", "--m", "1", "--samples", "4"),
        ("mc", "--n", "16", "--r", "2", "--m", "8", "--samples", "50", "--threads", "2"),
        # 270,000 shuffle draws, past the 2^18 that once switched to numpy
        ("mc", "--n", "16", "--r", "2", "--m", "8", "--m2", "8", "--samples", "9000"),
        # r = 1 sampling draws nothing: perm_m = C(n, m) on every sample
        ("mc", "--n", "9", "--r", "1", "--m", "4", "--m2", "3", "--samples", "500"),
        ("scan", "--r", "2", "--p", "0.5", "--q", "0.5", "--n", "6", "--n", "8",
         "--samples", "300"),
    )
    # the same check sees numpy once a command builds arrays
    assert _loaded(["numpy"], ("mc", "--n", "3", "--r", "3", "--m", "1", "--samples", "4"))


def test_sampling_runs_in_one_process():
    # --threads is accepted and ignored: no process pool is loaded, let
    # alone started, whatever it asks for
    assert not _loaded(
        ["concurrent.futures", "multiprocessing"],
        ("mc", "--n", "6", "--r", "3", "--m", "3", "--samples", "2100", "--threads", "8"),
        ("scan", "--r", "2", "--p", "0.5", "--q", "0.5", "--n", "6", "--n", "8",
         "--samples", "1500", "--threads", "8"),
    )


def test_startup_without_record_codegen():
    # result records are namedtuples: no dataclass code generation at import,
    # and no inspect, which dataclasses imports
    assert not _loaded(["dataclasses", "inspect"])
    # the same check sees a module that is loaded
    assert _loaded(["dataclasses", "argparse"]) == {"argparse"}


def test_startup_loads_only_the_layers_a_command_runs():
    # the exact, oracle and sampling layers, and the modules only they or a
    # CSV report use
    exact_layers = ["fractions", "decimal", "csv", "permex.moments", "permex.montecarlo",
                    "permex.permanents", "permex.kernels"]
    subcommands = ("expect", "product", "oracle", "rate", "solve", "analytic", "mc",
                   "scan", "argmax", "verify")
    # usage text writes no report, so it loads no json either
    assert not _loaded([*exact_layers, "json"], ("--help",),
                       *[(sub, "--help") for sub in subcommands])
    assert not _loaded(
        exact_layers,
        ("rate", "--r", "2", "--p", "0.5", "--q", "0.3"),
        ("analytic", "--r", "3", "--p", "0.4", "--q", "0.6"),
        ("solve", "--r", "3", "--p", "0.3", "--q", "0.7"),
        ("verify", "--suite", "stationarity"),
        ("verify", "--suite", "factorization"),
    )
    # a JSON report loads no csv, and the same check sees csv in a CSV one
    assert _loaded(["csv", "json"], ("rate", "--r", "2", "--p", "0.5")) == {"json"}
    assert _loaded(["csv"], ("rate", "--r", "2", "--p", "0.5", "--format", "csv")) == {"csv"}


def test_package_namespace_is_lazy():
    import permex

    *names, version = permex.__all__
    assert version == "__version__"
    for name in names:
        # the object its defining module holds, whatever module that is
        value = getattr(permex, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(permex.__all__) <= set(dir(permex))
    namespace = {}
    exec("from permex import *", namespace)
    assert set(permex.__all__) <= set(namespace)
    for module in (permex, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    # a bare import loads no submodule, and a submodule still imports by name
    proc = _child("-c", "import sys, permex\n"
                        "print(*[m for m in sys.modules if m.startswith('permex.')])\n"
                        "from permex import kernels\n"
                        "print(kernels.__name__)")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"\npermex.kernels\n"


def test_unknown_flag_exits_1(capsys):
    # expect has no work budget, so --budget is unknown to it
    for flag in ("--bogus", "--budget"):
        code, _, err = run(capsys, "expect", "--n", "2", "--r", "2", "--m", "2",
                           flag, "1")
        assert code == 1
        assert "usage" in err


def test_threads_only_where_taken(capsys):
    # five subcommands never start a worker process and reject the option
    for argv in (("oracle", "--n", "2", "--r", "2", "--m", "1", "--m2", "1"),
                 ("rate", "--r", "2", "--p", "0.5"),
                 ("solve", "--r", "2", "--p", "0.5", "--q", "0.5"),
                 ("analytic", "--r", "2", "--p", "0.5", "--q", "0.5"),
                 ("argmax", "--n", "2", "--r", "2", "--m", "1", "--m2", "1")):
        code, out, err = run(capsys, *argv, "--threads", "1")
        assert code == 1, argv
        assert out == ""
        assert "usage" in err and "unrecognized arguments: --threads" in err
    for argv in (("mc", "--n", "4", "--r", "2", "--m", "2", "--m2", "2", "--samples", "100"),
                 ("scan", "--r", "2", "--p", "0.5", "--q", "0.5", "--n", "4",
                  "--samples", "100"),
                 ("product", "--n", "3", "--r", "2", "--m", "1", "--m2", "1"),
                 ("verify", "--suite", "oracle-single", "--r", "1"),
                 ("expect", "--n", "2", "--r", "2", "--m", "2")):
        code, _, _ = run(capsys, *argv, "--threads", "1")
        assert code == 0, argv


def test_verify_tolerance_is_fixed(capsys):
    # each suite's tolerance is its criterion: verify takes no override
    code, out, err = run(capsys, "verify", "--suite", "factorization", "--tol", "1")
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_domain_error_exits_1(capsys):
    # an explicit --r 0 is a value, not "use the default grid"
    for argv in (("expect", "--n", "2", "--r", "2", "--m", "5"),
                 ("argmax", "--n", "2", "--r", "0", "--m", "0"),
                 ("argmax", "--n", "2", "--r", "-1", "--m", "0"),
                 ("verify", "--suite", "stationarity", "--r", "0"),
                 ("verify", "--suite", "solver", "--seed", "-1"),
                 ("verify", "--suite", "solver", "--seed", "18446744073709551616"),
                 ("solve", "--r", "2", "--p", "0.5", "--q", "0.5", "--tol", "nan")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error:" in err and "unrecognized arguments" not in err


@pytest.mark.parametrize("argv, message", [
    (("scan", "--r", "2", "--p", "0.5", "--q", "0.5"), "error: scan needs at least one --n\n"),
    (("rate", "--r", "0", "--p", "0.5"), "error: r must be >= 1, got 0\n"),
])
def test_domain_error_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message)


def test_verify_recurrence_at_r3(capsys):
    # at r >= 3 the suite checks the path/cycle table for n <= 5 (55 points
    # m <= m2); at r = 12 the n = 4 table passes its state budget, exit 2
    # before any profile sum
    code, out, err = run(capsys, "verify", "--suite", "recurrence", "--r", "3")
    report = json.loads(out)
    assert (code, report["points"], report["pass"]) == (0, 55, True)
    assert {(row["n"], row["r"]) for row in report["rows"]} == {(n, 3) for n in range(1, 6)}
    assert err == "verify recurrence: ok over 55 points\n"
    code, out, err = run(capsys, "verify", "--suite", "recurrence", "--r", "12")
    assert (code, out) == (2, "")
    assert err.startswith("error: product table keeps up to 733572 coefficients")


def test_product_at_huge_n_is_immediate(capsys):
    # no (n - load)! is built: perm_1 is the sum of A's entries, 2n at r = 2
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, "product", "--n", "1000000", "--r", "2", "--m", "1",
                           "--m2", "1", "--threads", "1")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    assert (code, report["value_num"], report["value_den"]) == (0, str(4 * 10**12), "1")


def test_solver_failure_exits_2(capsys):
    code, out, err = run(capsys, "solve", "--r", "3", "--p", "0.3", "--q", "0.7",
                         "--tol", "1e-300")
    assert (code, out) == (2, "")
    assert err.startswith("error: stationarity solve failed at (p=0.3, q=0.7, r=3)")
    assert "best relative residual" in err


@pytest.mark.parametrize("suite", ["factorization", "solver"])
def test_newton_failure_in_a_suite_exits_2(capsys, monkeypatch, suite):
    real = cli.solve_stationary_batch

    def one_fails(points):
        sols = real(points)
        p, q, r = points[3]
        sols[3] = SolverError(f"stationarity solve failed at (p={p}, q={q}, r={r})")
        return sols

    monkeypatch.setattr(cli, "solve_stationary_batch", one_fails)
    code, out, err = run(capsys, "verify", "--suite", suite)
    assert (code, out) == (2, "")
    assert err.startswith("error: stationarity solve failed at (p=") and err.count("\n") == 1


def test_failed_verify_exits_1(capsys, monkeypatch):
    real = cli.expectation_perm

    def wrong(n, r, m):
        moment = real(n, r, m)
        return moment._replace(value=moment.value + 1)

    monkeypatch.setattr(cli, "expectation_perm", wrong)
    code, out, err = run(capsys, "verify", "--suite", "oracle-single", "--r", "1")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert err.startswith("verify oracle-single: FAILED")


def test_capacity_error_exits_2(capsys):
    # an explicit --budget 0 is a value, not "use the default budget"; the
    # oracle's default budget of 10^8 counts DP cells, so r = 2 at n = 18
    # (p(18) = 385 matrices of 2^18 states) is refused before any work
    for argv in (("oracle", "--n", "10", "--r", "3", "--m", "2", "--m2", "0"),
                 ("oracle", "--n", "18", "--r", "2", "--m", "9", "--m2", "9"),
                 ("product", "--n", "3", "--r", "2", "--m", "1", "--m2", "1",
                  "--budget", "0", "--threads", "1"),
                 # the profile sums of the recurrence suite take the budget too
                 ("verify", "--suite", "recurrence", "--budget", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err
    # an n past sys.maxsize, which math.factorial cannot take, is refused
    huge = ("--n", str(2**64), "--r", "2", "--m", "2")
    for argv in (("expect", *huge), ("product", *huge, "--m2", "2"), ("argmax", *huge)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: n must be <= {sys.maxsize}, got {2**64}\n")
    # a negative budget is a usage error on every command that takes one
    point = ("--n", "3", "--r", "2", "--m", "1", "--m2", "1")
    for argv in (("product", *point), ("oracle", *point), ("argmax", *point),
                 ("verify", "--suite", "oracle-product")):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert code == 1, argv
        assert out == ""
        assert "usage" in err and "budget must be >= 0" in err
        assert "unrecognized arguments" not in err


HUGE = str(2**64)
HUGER = str(2**1024)

# the rate layer's commands, whose floats cannot take an r past sys.maxsize
RATE_LAYER = {
    "rate": ("rate", "--p", "0.5"),
    "rate-q": ("rate", "--p", "0.5", "--q", "0.5"),
    "analytic": ("analytic", "--p", "0.5", "--q", "0.5"),
    "solve": ("solve", "--p", "0.5", "--q", "0.5"),
    "scan": ("scan", "--p", "0.5", "--q", "0.5", "--n", "3"),
    **{f"verify-{suite}": ("verify", "--suite", suite)
       for suite in ("factorization", "stationarity", "solver")},
}

# one sample of r * n = 3 * 10^8 or 2 * 10^8 entries, refused before drawing;
# they run in a memory-capped child, as a regressed tree runs them away
SAMPLER_RUNAWAYS = [
    ("mc", "--n", "3", "--r", "100000000", "--m", "1", "--samples", "2"),
    ("scan", "--r", "100000000", "--p", "0.5", "--q", "0.5", "--n", "2", "--samples", "2"),
]

# the profile walk at a huge r: relabelling the colors proves the profile
# count past the budget, refused before any r-tuple is built; at m + m2 = 1
# the walk still builds r-tuples, and a MemoryError exits 2 as well
WALK_RUNAWAYS = {
    **{(cmd, "--n", n, "--r", r, "--m", "1", "--m2", "1"):
       "profile count exceeded budget 1000000000"
       for cmd in ("product", "argmax")
       for n, r in (("2", "1000000000"), ("2", str(sys.maxsize)), ("1", "100000"),
                    ("3", "100000"))},
    ("argmax", "--n", "2", "--r", "1000000000", "--m", "1", "--m2", "0"): "out of memory",
}


@pytest.mark.parametrize("argv", [
    # an r past sys.maxsize, which range, math.comb and a float cannot take
    ("product", "--n", "3", "--r", HUGE, "--m", "1", "--m2", "1"),
    ("argmax", "--n", "3", "--r", HUGE, "--m", "1", "--m2", "1"),
    ("verify", "--suite", "oracle-single", "--r", HUGE),
    ("expect", "--n", "3", "--r", HUGE, "--m", "1"),
    ("oracle", "--n", "3", "--r", HUGE, "--m", "1", "--m2", "1"),
    ("mc", "--n", "3", "--r", HUGE, "--m", "1"),
    ("scan", "--r", HUGE, "--p", "0.5", "--q", "0.5", "--n", "3"),
    *[pytest.param((*argv, "--r", r), id=f"{name}-r{label}")
      for name, argv in RATE_LAYER.items()
      for r, label in ((HUGE, "2^64"), (HUGER, "2^1024"))
      if (name, r) != ("scan", HUGE)],
    # the oracle's cell count stops growing past the budget: no 6,000-digit
    # (n!)^(r-2) is built, let alone printed
    ("oracle", "--n", "2", "--r", "20000", "--m", "1", "--m2", "1"),
    ("oracle", "--n", "3", "--r", "9000", "--m", "1", "--m2", "1"),
    *SAMPLER_RUNAWAYS,
    *[pytest.param(argv, id=f"{argv[0]}-n{argv[2]}-r{argv[4]}-m{argv[6]}-m2{argv[8]}")
      for argv in WALK_RUNAWAYS],
], ids=lambda argv: f"{argv[0]}-r{argv[argv.index('--r') + 1]}")
def test_huge_r_exits_2_at_once(capsys, argv):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    start = time.perf_counter()
    try:
        capped = argv in SAMPLER_RUNAWAYS or argv in WALK_RUNAWAYS
        code, out, err = run_capped(*argv) if capped else run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    if HUGE in argv or HUGER in argv:
        want = f"r must be <= {sys.maxsize}"
    elif argv in SAMPLER_RUNAWAYS:
        want = "permutation entries, past the sampler's cap of 1048576"
    elif argv in WALK_RUNAWAYS:
        want = WALK_RUNAWAYS[argv]
    else:
        want = "exceed budget 100000000"
    assert err.startswith("error: ") and want in err and err.count("\n") == 1


MAXR = sys.maxsize


@pytest.mark.parametrize("argv, key, want", [
    # at n = 1 every permutation is the identity, so the one matrix is [[r]]
    (("oracle", "--n", "1", "--r", str(MAXR), "--m", "1", "--m2", "1"), ("value_num",), MAXR**2),
    # one tuple <= 2 samples: enumeration mode reads the same oracle table
    (("mc", "--n", "1", "--r", str(MAXR), "--m", "1", "--m2", "1", "--samples", "2"),
     ("product", "mean_num"), MAXR**2),
    # E(perm_2) at n = 3 is 2r^2 + r: two powers of h reach degree 2 at any r
    (("expect", "--n", "3", "--r", str(MAXR), "--m", "2"), ("value_num",), 2 * MAXR**2 + MAXR),
], ids=["oracle", "mc", "expect"])
def test_largest_r_answers_at_once(capsys, argv, key, want):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    for name in key:
        report = report[name]
    assert (code, report) == (0, str(want))


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


@pytest.mark.parametrize("argv", [
    ("expect", "--n", "1100", "--r", "1", "--m", "550"),
    ("product", "--n", "1100", "--r", "1", "--m", "550", "--m2", "1"),
], ids=["expect", "product"])
def test_moment_past_the_float_range_reports(capsys, argv):
    # perm_550 of a 1100 x 1100 permutation matrix is C(1100, 550), about
    # 10^329: JSON never builds a float, and CSV's value_float reads inf
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    value = Fraction(int(report["value_num"]), int(report["value_den"]))
    assert value > 10**329 and "value_float" not in report
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["value_float"] == "inf"
    assert Fraction(int(cells["value_num"]), int(cells["value_den"])) == value


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
