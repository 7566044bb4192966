"""Workloads, output checks and run context shared by the perfbench scripts.

Every workload is a closed loop of real ``permex`` CLI invocations, one
after another from a single client.  Each command pins ``--threads 1``:
the CLI default is ``os.cpu_count()``, and worker pools on a small shared
host made repeat timings too unsteady to compare.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

# The scan's --seed comes from this pool, indexed by the benchmark seed; the
# stdout of every pool member is recorded in expected.json.
SCAN_SEEDS = tuple(range(1, 9))

PRODUCT_BIG = ("product", "--n", "14", "--r", "2", "--m", "7", "--m2", "7", "--threads", "1")
PRODUCT_R3 = ("product", "--n", "7", "--r", "3", "--m", "3", "--m2", "4", "--threads", "1")
VERIFY_ORACLE = ("verify", "--suite", "oracle-product", "--threads", "1")
VERIFY_FACTOR = ("verify", "--suite", "factorization", "--threads", "1")


def scan_command(scan_seed):
    return ("scan", "--r", "2", "--p", "0.5", "--q", "0.5", "--n", "6", "--n", "8",
            "--samples", "1500", "--seed", str(scan_seed), "--threads", "1")


@dataclass(frozen=True)
class Workload:
    """One closed-loop command list; ``shapes`` are the (n, r) it runs at."""

    name: str
    fixed: tuple
    shapes: tuple
    scans: bool = False

    def commands(self, seed):
        """The workload's commands for a benchmark seed."""
        scans = [scan_command(SCAN_SEEDS[seed % len(SCAN_SEEDS)])] if self.scans else []
        return list(self.fixed) + scans

    def subcommands(self):
        return sorted({c[0] for c in self.commands(0)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-product", (PRODUCT_BIG, PRODUCT_R3), ((14, 2), (7, 3))),
        Workload("mc-scan", (), ((6, 2), (8, 2)), scans=True),
        Workload(
            "verify-sweep", (VERIFY_ORACLE, VERIFY_FACTOR),
            tuple((n, r) for n in range(1, 5) for r in (1, 2, 3)) + ((5, 2),),
        ),
    )
}


def all_commands():
    """Every command any workload can run, for recording expected outputs."""
    cmds = [c for w in WORKLOADS.values() for c in w.fixed]
    return cmds + [scan_command(s) for s in SCAN_SEEDS]


def command_key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------
# running and checking one command


def require_source():
    """Exit with code 2 unless the permex source tree is present; import it from there."""
    if not (SRC / "permex" / "cli.py").is_file():
        print(f"error: no permex source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    # Let the warm-up run leave bytecode caches, as an installed package has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Completed:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


# Runs `permex <argv>` as `python -m permex.cli <argv>` does, then at exit
# writes the process's own peak resident set (VmHWM, kB) to the fd given
# first.  The rusage maxrss that wait4 reports is no use for this: a child
# spawned from this process inherits this process's resident set as its
# high-water mark before it execs.
_CHILD = """
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def peak():
    with open('/proc/self/status') as fh:
        os.write(fd, next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')).encode())
atexit.register(peak)
runpy.run_module('permex.cli', run_name='__main__', alter_sys=True)
"""


def run_permex(argv, env):
    """Run ``permex <argv>`` in a child process; time it and measure its peak RSS.

    The child is reaped with ``os.wait4``, so its CPU time includes that of
    any workers it waited for.
    """
    peak_r, peak_w = os.pipe()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(peak_w), *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(peak_w,),
        )
    finally:
        os.close(peak_w)
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kb = os.read(peak_r, 64)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        os.close(peak_r)
    return Completed(proc.returncode, out, err[0] if err else b"", wall,
                     usage.ru_utime + usage.ru_stime, int(peak_kb or 0) / 1024)


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def digest(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def check_output(argv, returncode, stdout, expected):
    """Why a command counts as failed, or None when it succeeded.

    A command fails on a non-zero exit, on stdout that is not byte-identical
    to the recorded output, or on a ``verify`` report with ``"pass": false``.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    want = expected.get(command_key(argv))
    if want is None:
        return "no recorded output for this command"
    if digest(stdout) != want:
        return "stdout differs from the recorded output"
    if argv[0] == "verify" and json.loads(stdout).get("pass") is not True:
        return "verify reported pass: false"
    return None


def report_failures(failures):
    for argv, problem, stderr in failures:
        print(f"FAILED permex {' '.join(argv)}: {problem}", file=sys.stderr)
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        for line in tail:
            print(f"    {line}", file=sys.stderr)


def result(attempted, failed, metrics, correct=True):
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# run context


def _git_sha():
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "permex").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(workload):
    """What ran: backends per (n, r), interpreter, numpy, host, source."""
    import numpy
    from permex import kernels
    from permex.errors import PermexError

    backends = {}
    for n, r in workload.shapes:
        try:
            backends[f"{n},{r}"] = kernels.profile_backend_name(n, r)
        except (ValueError, PermexError) as exc:  # a bad PERMEX_BACKEND is recorded
            backends[f"{n},{r}"] = f"error: {exc}"
    return {
        "workload": workload.name,
        "profile_backends": backends,
        "compiled_available": kernels.compiled_available(),
        "PERMEX_BACKEND": os.environ.get("PERMEX_BACKEND"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
    }


# A run must end well within 180 s even when the program has become much slower.
HARD_LIMIT_S = 120


def repeat_for(seconds, minimum, body):
    """Call ``body(i)`` for i = 0, 1, ... while another call fits in ``seconds``.

    Makes at least ``minimum`` calls unless the next one would end past
    HARD_LIMIT_S; returns the number made.
    """
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        body(i)
        i += 1
        now = time.perf_counter()
        projected = (now - start) + (now - t0)
        if projected > HARD_LIMIT_S or (i >= minimum and projected > seconds):
            return i
