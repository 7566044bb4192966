"""Command-line front end: every library operation as a subcommand.

Reports go to standard output (JSON by default, CSV on request) and are
byte-identical for identical invocations.  Exact rationals are serialized
as decimal numerator/denominator strings, never as floats.  Exit codes:
0 success, 1 domain or usage error (or a failed verification, or a closed
standard output), 2 capacity or solver failure.

Each handler computes its report's fields; `_emit` alone adds the
``schema_version``/``op`` envelope and writes each CSV row as one record
(the fields, unless the handler passes its records) read at the header's
keys.  Option defaults, budgets and the solver tolerance included, live
in the parser.
"""

import argparse
import csv
import io
import json
import os
import sys

from .asymptotics import (
    DEFAULT_SOLVER_TOL,
    analytic_solution,
    product_rate,
    single_rate,
    solve_stationary,
    solve_stationary_batch,
)
from .errors import CapacityError, DomainError, SolverError
from .model import TUPLE_BUDGET_DEFAULT, EnsembleSpec, check_seed
from .moments import (
    TERM_BUDGET_DEFAULT,
    argmax_profile,
    expectation_perm,
    expectation_product,
    product_table,
)
from .montecarlo import convergence_scan, estimate_moments
from .permanents import ensemble_average_bruteforce

SCHEMA_VERSION = 1

GRID_DENSITIES = [i / 10 for i in range(1, 10)]
GRID_R = [2, 3, 4, 5, 6]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _budget(text):
    """--budget's type: an int >= 0 (0 refuses any work)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {text}")
    return int(text)


def _emit(args, fields, header, records=None):
    """Write one report: `fields` in the JSON envelope, or a CSV of `records`.

    A CSV row is one record (by default `fields`) read at the header's keys;
    csv writes floats with repr, and None or a missing key as an empty cell.
    """
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "op": args.command, **fields}))
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows([fields] if records is None else records)
    sys.stdout.write(buf.getvalue())


def _pick(obj, *names):
    """The named attributes of `obj` (options, or a result's fields) as a dict."""
    return {name: getattr(obj, name) for name in names}


def _rational(name, value):
    """An exact rational as the fields `name`_num and `name`_den, decimal strings."""
    return {f"{name}_num": str(value.numerator), f"{name}_den": str(value.denominator)}


def _emit_moment(args, moment):
    fields = {
        **_pick(args, "n", "r", "m", "m2"),
        **_rational("value", moment.value),
        "terms": moment.term_count,
    }
    header = ["n", "r", "m", "m2", "value_num", "value_den", "value_float", "terms"]
    _emit(args, fields, header, [{**fields, "value_float": float(moment.value)}])


def _cmd_expect(args):
    _emit_moment(args, expectation_perm(args.n, args.r, args.m))


def _cmd_product(args):
    _emit_moment(args, expectation_product(
        args.n, args.r, args.m, args.m2, term_budget=args.budget))


def _cmd_oracle(args):
    _emit_moment(args, ensemble_average_bruteforce(
        args.n, args.r, args.m, args.m2, tuple_budget=args.budget))


def _cmd_rate(args):
    fields = _pick(args, "r", "p")
    if args.q is None:
        fields["rate"] = single_rate(args.p, args.r)
    else:
        value = product_rate(args.p, args.q, args.r)
        single_sum = single_rate(args.p, args.r) + single_rate(args.q, args.r)
        fields.update({
            "q": args.q,
            "rate": value,
            "single_sum": single_sum,
            "factorization_gap": value - single_sum,
        })
    _emit(args, fields, ["p", "q", "r", "rate"])


def _emit_solution(args, sol):
    fields = {
        **_pick(args, "p", "q", "r"),
        **_pick(sol, "a", "b", "d", "e", "L"),
        "rate": sol.s_over_n,
        "residuals": list(sol.residuals),
        "residual_max": sol.residual_max,
        "iterations": sol.iterations,
    }
    _emit(args, fields, ["p", "q", "r", "a", "b", "d", "e", "L", "rate", "residual_max"])


def _cmd_solve(args):
    _emit_solution(args, solve_stationary(args.p, args.q, args.r, tol=args.tol))


def _cmd_analytic(args):
    _emit_solution(args, analytic_solution(args.p, args.q, args.r))


def _estimate_fields(est):
    return {
        **_rational("mean", est.mean_exact),
        **_pick(est, "mean", "stderr", "samples", "log_mean_over_n"),
    }


def _cmd_mc(args):
    spec = EnsembleSpec(n=args.n, r=args.r, seed=args.seed)
    result = estimate_moments(spec, args.m, args.m2, args.samples)
    first, second, product = map(_estimate_fields,
                                 (result.first, result.second, result.product))
    fields = {
        **_pick(args, "n", "r", "m", "m2", "seed"),
        "mode": result.mode,
        "first": first,
        "second": second,
        "product": product,
    }
    header = ["stat", "mean_num", "mean_den", "mean", "stderr", "samples",
              "log_mean_over_n"]
    records = [{"stat": "perm_m", **first}, {"stat": "perm_m2", **second},
               {"stat": "product", **product}]
    _emit(args, fields, header, records)


def _cmd_scan(args):
    if not args.n:
        raise DomainError("scan needs at least one --n")
    rows = convergence_scan(args.r, args.p, args.q, args.n, args.samples, seed=args.seed)
    records = [
        {
            **_pick(row, "n", "m", "m2", "samples", "mode"),
            **_rational("mean", row.mean_exact),
            **_pick(row, "log_mean_over_n", "prediction", "gap"),
        }
        for row in rows
    ]
    fields = {**_pick(args, "r", "p", "q", "seed"), "rows": records}
    header = ["n", "m", "m2", "samples", "mode", "mean_num", "mean_den",
              "log_mean_over_n", "prediction", "gap"]
    _emit(args, fields, header, records)


def _cmd_argmax(args):
    profile, value = argmax_profile(
        args.n, args.r, args.m, args.m2, term_budget=args.budget)
    totals = {
        "fresh": sum(profile.fresh),
        "dup": sum(profile.dup),
        "row_hits": sum(map(sum, profile.row_hits)),
        "col_hits": sum(map(sum, profile.col_hits)),
        "cross": sum(map(sum, profile.cross_rows)),
    }
    fields = {
        **_pick(args, "n", "r", "m", "m2"),
        **_rational("value", value),
        # the fields in ColorProfile's order; json writes tuples as lists
        "profile": {**profile._asdict(), "totals": totals},
    }
    # the one flat CSV record: splits joined with "|", the hit matrices totalled
    record = {
        **fields,
        "base": "|".join(map(str, profile.base)),
        "fresh": "|".join(map(str, profile.fresh)),
        "dup": "|".join(map(str, profile.dup)),
        "row_hits_total": totals["row_hits"],
        "col_hits_total": totals["col_hits"],
        "cross_total": totals["cross"],
    }
    header = ["n", "r", "m", "m2", "value_num", "value_den", "base", "fresh",
              "dup", "row_hits_total", "col_hits_total", "cross_total"]
    _emit(args, fields, header, [record])


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite is the one definition of an acceptance criterion (criteria 1-5
# and 10 of tests/test_acceptance.py), its tolerance included.  It takes keyword
# overrides (r=None meaning the suite's own r values; budget bounds the
# oracle suites' DP cells and the recurrence suite's profiles) and returns
# (rows, worst, passed, tol).


def _r_values(r, default):
    return default if r is None else [r]


def _suite_stationarity(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """Relative stationarity residuals of the closed form over the grid."""
    tol = 1e-9
    rows = []
    worst = 0.0
    for r in _r_values(r, GRID_R):
        for p in GRID_DENSITIES:
            for q in GRID_DENSITIES:
                sol = analytic_solution(p, q, r)
                worst = max(worst, sol.residual_max)
                rows.append({"p": p, "q": q, "r": r,
                             "residual_max": sol.residual_max})
    return rows, worst, worst < tol, tol


def _solve_points(points):
    """Newton solutions at every point, in one batch; raises the first failure."""
    sols = solve_stationary_batch(points)
    for sol in sols:
        if isinstance(sol, SolverError):
            raise sol
    return sols


def _suite_factorization(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """product_rate(p, q) against single_rate(p) + single_rate(q) over the
    grid; the Newton solver's rate must agree within 1e-6."""
    tol = 1e-9
    solver_tol = 1e-6
    points = [(p, q, r) for r in _r_values(r, GRID_R)
              for p in GRID_DENSITIES for q in GRID_DENSITIES]
    gaps = []
    for p, q, r in points:
        target = single_rate(p, r) + single_rate(q, r)
        gaps.append((target, abs(product_rate(p, q, r) - target)))
    rows = []
    worst = 0.0
    ok = True
    for (p, q, r), (target, gap), sol in zip(points, gaps, _solve_points(points)):
        solver_gap = abs(sol.s_over_n - target)
        worst = max(worst, gap)
        ok = ok and gap < tol and solver_gap < solver_tol
        rows.append({"p": p, "q": q, "r": r, "gap": gap, "solver_gap": solver_gap})
    return rows, worst, ok, tol


def _suite_solver(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """Newton solver against the closed form at 20 Philox-seeded points."""
    import numpy as np

    tol = 1e-8
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    points = []
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        drawn = int(rng.integers(2, 7))
        # r is drawn even when given, so --r keeps the same (p, q) points
        points.append((p, q, drawn if r is None else r))
    refs = [analytic_solution(*point) for point in points]
    rows = []
    worst = 0.0
    for (p, q, r_point), ref, sol in zip(points, refs, _solve_points(points)):
        diff = max(abs(sol.a - ref.a), abs(sol.b - ref.b), abs(sol.d - ref.d),
                   abs(sol.e - ref.e), abs(sol.L - ref.L))
        worst = max(worst, diff)
        rows.append({"p": p, "q": q, "r": r_point, "coord_diff": diff,
                     "iterations": sol.iterations})
    return rows, worst, worst < tol, tol


def _exact_rows(cases, want, got, product):
    """Rows comparing want(n, r, m, m2) with got(n, r, m, m2) exactly at every
    point of each case (n, r), m <= m2 for products; a row carries got."""
    rows = []
    ok = True
    for n, r in cases:
        for m in range(n + 1):
            for m2 in range(m, n + 1) if product else (0,):
                expected = want(n, r, m, m2)
                value = got(n, r, m, m2)
                equal = expected == value
                ok = ok and equal
                rows.append({"n": n, "r": r, "m": m, "m2": m2, "equal": equal,
                             **_rational("value", value)})
    return rows, 0.0 if ok else 1.0, ok, 0.0


def _oracle(budget):
    return lambda n, r, m, m2: ensemble_average_bruteforce(
        n, r, m, m2, tuple_budget=budget).value


def _profile_sum(budget):
    return lambda n, r, m, m2: expectation_product(
        n, r, m, m2, term_budget=budget).value


def _tables(cases):
    """One product_table per case (n, r), all built first, read at (n, r, m, m2)."""
    tables = {(n, r): product_table(n, r, n, n) for n, r in cases}
    return lambda n, r, m, m2: tables[n, r][m][m2]


def _suite_oracle_single(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """expectation_perm equals the oracle exactly for n <= 5, r <= 3."""
    r_values = _r_values(r, [1, 2, 3])
    cases = [(n, r) for n in range(1, 6) for r in r_values]
    return _exact_rows(cases, _oracle(budget),
                       lambda n, r, m, _: expectation_perm(n, r, m).value, product=False)


def _suite_oracle_product(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """product_table equals the oracle exactly, m <= m2, for n <= 4 at r <=
    3 and for n = 5 at r = 2."""
    r_values = _r_values(r, [1, 2, 3])
    cases = [(n, r) for n in range(1, 5) for r in r_values]
    if r is None or r == 2:
        cases.append((5, 2))
    return _exact_rows(cases, _oracle(budget), _tables(cases), product=True)


def _suite_recurrence(r=None, seed=0, budget=TUPLE_BUDGET_DEFAULT):
    """expectation_product, the profile sum, equals product_table exactly,
    m <= m2, for n <= 9 at r = 2 (or at the given r <= 2), for n <= 5 at a
    given r >= 3."""
    r_values = _r_values(r, [2])
    cases = [(n, r) for r in r_values for n in range(1, 10 if r <= 2 else 6)]
    return _exact_rows(cases, _profile_sum(budget), _tables(cases), product=True)


SUITES = {
    "stationarity": _suite_stationarity,
    "factorization": _suite_factorization,
    "solver": _suite_solver,
    "oracle-single": _suite_oracle_single,
    "oracle-product": _suite_oracle_product,
    "recurrence": _suite_recurrence,
}


def _cmd_verify(args):
    rows, worst, passed, tol = SUITES[args.suite](
        r=args.r, seed=args.seed, budget=args.budget)
    fields = {
        "suite": args.suite,
        "tol": tol,
        "points": len(rows),
        "worst": worst,
        "pass": passed,
        "rows": rows,
    }
    _emit(args, fields, sorted({k for row in rows for k in row}), rows)
    if not passed:
        print(f"verify {args.suite}: FAILED (worst {worst!r})", file=sys.stderr)
        return 1
    print(f"verify {args.suite}: ok over {len(rows)} points", file=sys.stderr)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *names):
    specs = {
        "n": (("--n",), {"type": int, "required": True, "help": "matrix dimension"}),
        "n_list": (("--n",), {"type": int, "action": "append",
                              "help": "dimension, repeatable"}),
        "r": (("--r",), {"type": int, "required": True,
                         "help": "number of summed permutations"}),
        "r_opt": (("--r",), {"type": int, "help": "restrict to one r"}),
        "m": (("--m",), {"type": int, "required": True, "help": "first order"}),
        "m2": (("--m2",), {"type": int, "default": 0, "help": "second order"}),
        "p": (("--p",), {"type": float, "required": True, "help": "density m/n"}),
        "q": (("--q",), {"type": float, "help": "density m2/n"}),
        "q_req": (("--q",), {"type": float, "required": True, "help": "density m2/n"}),
        "samples": (("--samples",), {"type": int, "default": 1000,
                                     "help": "sample count"}),
        "seed": (("--seed",), {"type": int, "default": 0, "help": "64-bit seed"}),
        "tol": (("--tol",), {"type": float, "help": "tolerance override"}),
        "budget": (("--budget",), {"type": _budget, "help": "work budget override:"
                                   " profiles for product, argmax and verify --suite"
                                   " recurrence, the oracle's DP cells otherwise"}),
        "threads": (("--threads",), {"type": int, "help": "accepted and ignored:"
                                     " every subcommand runs in one process"}),
    }
    for name in names:
        flags, kwargs = specs[name]
        sub.add_argument(*flags, **kwargs)
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format")


def build_parser() -> _Parser:
    # --help shows the first two paragraphs, the ones about using the command
    parser = _Parser(prog="permex", description="\n\n".join(__doc__.split("\n\n")[:2]))
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("expect", help="exact E(perm_m)")
    _add_common(sub, "n", "r", "m", "threads")
    sub.set_defaults(func=_cmd_expect, m2=0)  # the report's m2: expect has no --m2

    sub = subs.add_parser("product", help="exact E(perm_m perm_m2)")
    _add_common(sub, "n", "r", "m", "m2", "budget", "threads")
    sub.set_defaults(func=_cmd_product, budget=TERM_BUDGET_DEFAULT)

    sub = subs.add_parser("oracle", help="brute-force E(perm_m perm_m2)")
    _add_common(sub, "n", "r", "m", "m2", "budget")
    sub.set_defaults(func=_cmd_oracle, budget=TUPLE_BUDGET_DEFAULT)

    sub = subs.add_parser("rate", help="asymptotic growth rate")
    _add_common(sub, "r", "p", "q")
    sub.set_defaults(func=_cmd_rate)

    sub = subs.add_parser("solve", help="numeric stationary point")
    _add_common(sub, "r", "p", "q_req", "tol")
    sub.set_defaults(func=_cmd_solve, tol=DEFAULT_SOLVER_TOL)

    sub = subs.add_parser("analytic", help="closed-form stationary point")
    _add_common(sub, "r", "p", "q_req")
    sub.set_defaults(func=_cmd_analytic)

    sub = subs.add_parser("mc", help="Monte Carlo moment estimates")
    _add_common(sub, "n", "r", "m", "m2", "samples", "seed", "threads")
    sub.set_defaults(func=_cmd_mc)

    sub = subs.add_parser("scan", help="finite-size convergence scan")
    _add_common(sub, "n_list", "r", "p", "q_req", "samples", "seed", "threads")
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("argmax", help="dominant profile of the exact sum")
    _add_common(sub, "n", "r", "m", "m2", "budget")
    sub.set_defaults(func=_cmd_argmax, budget=TERM_BUDGET_DEFAULT)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_common(sub, "r_opt", "seed", "budget", "threads")
    sub.set_defaults(func=_cmd_verify, budget=TUPLE_BUDGET_DEFAULT)

    return parser


def dispatch(argv) -> int:
    """Parse argv, run one operation, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    # permex's largest LAPACK call is a stack of 5x5 solves, so BLAS threads
    # would only slow numpy's import; a value the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit, so
        # point it at devnull, or that flush fails too and prints a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
