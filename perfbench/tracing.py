"""Per-layer split of a workload: its permex commands traced in one process.

Each command goes through ``permex.cli.dispatch`` with stdout captured and
checked against the same recorded outputs as the untraced run.  Timing
wrappers defined here are installed around the public function at each
module boundary, patched where the caller looks the name up (``from ...
import`` binds early, so ``permex.cli.expectation_product`` is patched, not
``permex.moments.expectation_product``).  Spans stay in memory until the
iteration ends.  A span's self time is its duration minus that of its child
spans; a layer's self time sums its spans' self times.

Every iteration runs the commands once untraced and once traced, in
alternating order; the difference of the median walls is trace.overhead_s.
"""

import contextlib
import io
import json
import os
import random
import statistics
import sys
import time
import traceback
from collections import Counter
from math import factorial

import common

MIN_ITERATIONS = 2
# Matrices per n for the pure/compiled twin timing of kernels.subperm_profile.
TWIN_MATRICES = 200
TWIN_DIMS = (6, 8)


def _product_info(args, result):
    return {"terms": result.term_count, "input": tuple(args[:4])}


# (module, function, layer, info from (args, result)).  An "n" in the info
# splits that function's counts and times by dimension.
BOUNDARIES = (
    ("permex.cli", "expectation_product", "moments", _product_info),
    ("permex.cli", "ensemble_average_bruteforce", "permanents", None),
    ("permex.kernels", "oracle_product_sums", "kernels",
     lambda a, _: {"tuples": factorial(a[0]) ** a[1]}),
    ("permex.kernels", "subperm_profile", "kernels", lambda a, _: {"n": a[1]}),
    ("permex.cli", "convergence_scan", "montecarlo", None),
    ("permex.montecarlo", "estimate_moments", "montecarlo",
     lambda _, r: {"samples": r.product.samples}),
    ("permex.montecarlo", "sample_stream", "model", None),
    ("permex.montecarlo", "single_rate_limit", "asymptotics", None),
    ("permex.cli", "single_rate", "asymptotics", None),
    ("permex.cli", "product_rate", "asymptotics", None),
    ("permex.cli", "solve_stationary", "asymptotics", lambda _, r: {"iters": r.iterations}),
    ("permex.cli", "analytic_solution", "asymptotics", None),
    # the closed form that product_rate and the solver's restart call
    ("permex.asymptotics", "analytic_solution", "asymptotics", None),
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "child", "root", "info")

    def __init__(self, layer, name, root):
        self.layer, self.name, self.root = layer, name, root
        self.child = 0.0
        self.info = None
        self.start = time.perf_counter()


class Tracer:
    """Records spans at the module boundaries while installed."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._stack = []
        self._patched = []

    def _open(self, layer, name):
        span = Span(layer, name, self.root)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def command(self, index):
        """Root span of one dispatched command (the cli layer)."""
        self.root = index
        span = self._open("cli", "dispatch")
        try:
            yield
        finally:
            self._close(span)

    def install(self):
        import importlib

        for module_name, attr, layer, note in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, attr, layer, note))
            self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, layer, note):
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.info = note(args, result)
            return result

        return traced


def summarize(spans):
    """Calls, inclusive seconds, info sums and per-layer self seconds."""
    calls, secs, sums, self_s = Counter(), Counter(), Counter(), Counter()
    for span in spans:
        dur = span.end - span.start
        self_s[span.layer] += dur - span.child
        info = span.info or {}
        names = [span.name] + ([f"{span.name}.n{info['n']}"] if "n" in info else [])
        for name in names:
            calls[name] += 1
            secs[name] += dur
        for key, value in info.items():
            if key != "n" and isinstance(value, int):
                sums[key] += value
    return calls, secs, sums, self_s


def _per(seconds, count):
    """Microseconds per unit; 0 where the workload does none of this work."""
    return seconds / count * 1e6 if count else 0.0


def layer_metrics(spans, enum_s, enum_profiles, twin):
    """The per-layer metrics of one traced iteration, as (value, unit)."""
    calls, secs, sums, self_s = summarize(spans)
    terms = sums["terms"]
    us_per_term = _per(secs["expectation_product"], terms)
    enum_us = _per(enum_s, enum_profiles)
    lookups = calls["ensemble_average_bruteforce"]
    built = calls["oracle_product_sums"]
    metrics = {
        "moments.products": (calls["expectation_product"], "count"),
        "moments.terms": (terms, "count"),
        "moments.product_s": (secs["expectation_product"], "s"),
        "moments.us_per_term": (us_per_term, "us/term"),
        "moments.enum_us_per_profile": (enum_us, "us/profile"),
        "moments.eval_us_per_term": (us_per_term - enum_us if terms else 0.0, "us/term"),
        "permanents.lookups": (lookups, "count"),
        "permanents.tables_built": (built, "count"),
        "permanents.tuples": (sums["tuples"], "count"),
        "permanents.table_hit_ratio": (1 - built / lookups if lookups else 0.0, "ratio"),
        "kernels.oracle_us_per_tuple": (_per(secs["oracle_product_sums"], sums["tuples"]),
                                        "us/tuple"),
        "kernels.profile_calls": (calls["subperm_profile"], "count"),
    }
    for n in TWIN_DIMS:
        key = f"subperm_profile.n{n}"
        metrics[f"kernels.profile_us.n{n}"] = (_per(secs[key], calls[key]), "us/matrix")
    for name, value in twin.items():
        metrics[f"kernels.profile_us.{name}"] = (value, "us/matrix")
    metrics.update({
        "model.streams": (calls["sample_stream"], "count"),
        "model.stream_us": (_per(secs["sample_stream"], calls["sample_stream"]), "us/call"),
        "montecarlo.samples": (sums["samples"], "count"),
        "montecarlo.self_us_per_sample": (_per(self_s["montecarlo"], sums["samples"]),
                                          "us/sample"),
        "asymptotics.solves": (calls["solve_stationary"], "count"),
        "asymptotics.newton_iters": (sums["iters"], "count"),
        "asymptotics.solve_us_per_point": (
            _per(secs["solve_stationary"], calls["solve_stationary"]), "us/point"),
        "asymptotics.analytic_calls": (calls["analytic_solution"], "count"),
        "asymptotics.analytic_us_per_point": (
            _per(secs["analytic_solution"], calls["analytic_solution"]), "us/point"),
        "cli.self_s": (self_s["cli"], "s"),
    })
    return metrics


def dispatch_all(commands, expected, tracer=None):
    """Dispatch each command in this process; return wall seconds and failures."""
    from permex import cli, permanents

    failures = []
    t0 = time.perf_counter()
    for index, argv in enumerate(commands):
        # Each CLI process starts with an empty oracle table cache.
        permanents._table_cache.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with tracer.command(index) if tracer else contextlib.nullcontext():
                    code = cli.dispatch(list(argv))
            except Exception:  # a traceback fails the command, as it would a process
                traceback.print_exc()
                code = 1
        problem = common.check_output(argv, code, out.getvalue().encode(), expected)
        if problem:
            failures.append((argv, problem, err.getvalue().encode()))
    return time.perf_counter() - t0, failures


def enumeration_time(inputs):
    """Seconds to exhaust profile_iterator on each product input, and profiles seen."""
    from permex.moments import profile_iterator

    count = 0
    t0 = time.perf_counter()
    for n, r, m, m2 in inputs:
        for _ in profile_iterator(n, r, m, m2):
            count += 1
    return time.perf_counter() - t0, count


@contextlib.contextmanager
def _backend(name):
    before = os.environ.get("PERMEX_BACKEND")
    os.environ["PERMEX_BACKEND"] = name
    try:
        yield
    finally:
        if before is None:
            del os.environ["PERMEX_BACKEND"]
        else:
            os.environ["PERMEX_BACKEND"] = before


def backend_twin(scan_seed):
    """Time kernels.subperm_profile on scan matrices under each importable backend.

    Returns ({"n6.pure": us, ...}, profiles_agree).
    """
    from permex import kernels
    from permex.model import EnsembleSpec, sample_matrix

    backends = ["pure"] + (["compiled"] if kernels.compiled_available() else [])
    times, agree = {}, True
    for n in TWIN_DIMS:
        spec = EnsembleSpec(n=n, r=2, seed=scan_seed)
        mats = [sample_matrix(spec, i).entries for i in range(TWIN_MATRICES)]
        profiles = {}
        for backend in backends:
            with _backend(backend):
                t0 = time.perf_counter()
                profiles[backend] = [list(kernels.subperm_profile(rows, n, 2)) for rows in mats]
                times[f"n{n}.{backend}"] = _per(time.perf_counter() - t0, len(mats))
        agree = agree and all(p == profiles["pure"] for p in profiles.values())
    return times, agree


def measure(workload, seed, seconds):
    """Per-layer metrics of one workload from in-process traced runs."""
    expected = common.load_expected()
    commands = workload.commands(seed)
    scan_seed = common.SCAN_SEEDS[seed % len(common.SCAN_SEEDS)]
    rng = random.Random(seed)
    plain_walls, traced_walls, per_iteration, failures = [], [], [], []
    twins, by_command = [], {}

    def iteration(i):
        order = rng.sample(commands, len(commands))
        tracer = Tracer()
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                try:
                    wall, failed = dispatch_all(order, expected, tracer)
                finally:
                    tracer.restore()
                traced_walls.append(wall)
            else:
                wall, failed = dispatch_all(order, expected)
                plain_walls.append(wall)
            failures.extend(failed)
        inputs = [s.info["input"] for s in tracer.spans
                  if s.name == "expectation_product" and s.info]
        enum_s, enum_profiles = enumeration_time(inputs)
        twin, agree = backend_twin(scan_seed)
        twins.append((twin, agree))
        per_iteration.append(layer_metrics(tracer.spans, enum_s, enum_profiles,
                                           {k: v for k, v in twin.items() if k.endswith(".pure")}))
        for index, argv in enumerate(order):
            calls, _, sums, self_s = summarize([s for s in tracer.spans if s.root == index])
            by_command.setdefault(common.command_key(argv), {
                "calls": dict(calls), "sums": dict(sums),
                "self_s": {k: round(v, 6) for k, v in self_s.items()},
            })

    iterations = common.repeat_for(seconds, MIN_ITERATIONS, iteration)
    metrics, repeat_ok = {}, True
    for name, (value, unit) in per_iteration[0].items():
        values = [it[name][0] for it in per_iteration]
        if unit == "count":
            repeat_ok = repeat_ok and len(set(values)) == 1
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    twin_ok = all(agree for _, agree in twins)
    twin = {k: statistics.median(t[k] for t, _ in twins) for k in twins[0][0]}
    if len(twin) == len(TWIN_DIMS):
        twin["compiled"] = "unavailable"
    common.report_failures(failures)
    if not repeat_ok:
        print("FAILED: counts differ between traced iterations", file=sys.stderr)
    if not twin_ok:
        print("FAILED: pure and compiled subperm_profile disagree", file=sys.stderr)
    for key, info in by_command.items():
        print(f"layer split: permex {key}: {json.dumps(info, sort_keys=True)}")
    print(f"backend twin (us/matrix, {TWIN_MATRICES} matrices per n): {json.dumps(twin)}")
    res = common.result(iterations * 2 * len(commands), len(failures), metrics,
                        correct=repeat_ok and twin_ok)
    detail = {"iterations": iterations, "plain_wall_s": plain_walls,
              "traced_wall_s": traced_walls, "by_command": by_command,
              "backend_twin": twin}
    return res, detail
