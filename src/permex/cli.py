"""Command-line front end: every library operation as a subcommand.

Reports go to standard output (JSON by default, CSV on request) and are
byte-identical for identical invocations.  Exact rationals are serialized
as decimal numerator/denominator strings, never as floats.  Exit codes:
0 success, 1 domain or usage error (or a failed verification, or a closed
standard output), 2 capacity or solver failure.
"""

import argparse
import csv
import io
import json
import os
import sys

from .asymptotics import (
    analytic_solution,
    product_rate,
    single_rate,
    solve_stationary,
)
from .errors import CapacityError, DomainError, SolverError
from .model import TUPLE_BUDGET_DEFAULT, EnsembleSpec, check_seed
from .moments import TERM_BUDGET_DEFAULT, argmax_profile, expectation_perm, expectation_product
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


def _or_default(value, default):
    """An option's value, or `default` when it was not given (0 counts as given)."""
    return default if value is None else value


def _emit(args, payload, csv_header, csv_rows):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())


def _moment_payload(op, moment):
    n, r, m, m2 = moment.meta
    return {
        "schema_version": SCHEMA_VERSION,
        "op": op,
        "n": n,
        "r": r,
        "m": m,
        "m2": m2,
        "value_num": str(moment.value.numerator),
        "value_den": str(moment.value.denominator),
        "terms": moment.term_count,
    }


def _moment_csv(moment):
    n, r, m, m2 = moment.meta
    return (
        ["n", "r", "m", "m2", "value_num", "value_den", "value_float", "terms"],
        [[n, r, m, m2, str(moment.value.numerator), str(moment.value.denominator),
          repr(float(moment.value)), moment.term_count]],
    )


def _cmd_expect(args):
    moment = expectation_perm(args.n, args.r, args.m)
    header, rows = _moment_csv(moment)
    _emit(args, _moment_payload("expect", moment), header, rows)
    return 0


def _cmd_product(args):
    moment = expectation_product(
        args.n, args.r, args.m, args.m2,
        term_budget=_or_default(args.budget, TERM_BUDGET_DEFAULT),
    )
    header, rows = _moment_csv(moment)
    _emit(args, _moment_payload("product", moment), header, rows)
    return 0


def _cmd_oracle(args):
    moment = ensemble_average_bruteforce(
        args.n, args.r, args.m, args.m2,
        tuple_budget=_or_default(args.budget, TUPLE_BUDGET_DEFAULT),
    )
    header, rows = _moment_csv(moment)
    _emit(args, _moment_payload("oracle", moment), header, rows)
    return 0


def _cmd_rate(args):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "op": "rate",
        "r": args.r,
        "p": args.p,
    }
    if args.q is None:
        value = single_rate(args.p, args.r)
        payload["rate"] = value
        header = ["p", "q", "r", "rate"]
        rows = [[args.p, "", args.r, repr(value)]]
    else:
        value = product_rate(args.p, args.q, args.r)
        single_sum = single_rate(args.p, args.r) + single_rate(args.q, args.r)
        payload.update({
            "q": args.q,
            "rate": value,
            "single_sum": single_sum,
            "factorization_gap": value - single_sum,
        })
        header = ["p", "q", "r", "rate"]
        rows = [[args.p, args.q, args.r, repr(value)]]
    _emit(args, payload, header, rows)
    return 0


_SOLUTION_CSV_HEADER = ["p", "q", "r", "a", "b", "d", "e", "L", "rate", "residual_max"]


def _solution_payload(op, args, sol):
    return {
        "schema_version": SCHEMA_VERSION,
        "op": op,
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "a": sol.a,
        "b": sol.b,
        "d": sol.d,
        "e": sol.e,
        "L": sol.L,
        "rate": sol.s_over_n,
        "residuals": list(sol.residuals),
        "residual_max": sol.residual_max,
        "iterations": sol.iterations,
    }


def _solution_csv_row(args, sol):
    return [args.p, args.q, args.r, repr(sol.a), repr(sol.b), repr(sol.d),
            repr(sol.e), repr(sol.L), repr(sol.s_over_n), repr(sol.residual_max)]


def _cmd_solve(args):
    sol = solve_stationary(args.p, args.q, args.r, tol=_or_default(args.tol, 1e-10))
    _emit(args, _solution_payload("solve", args, sol),
          _SOLUTION_CSV_HEADER, [_solution_csv_row(args, sol)])
    return 0


def _cmd_analytic(args):
    sol = analytic_solution(args.p, args.q, args.r)
    _emit(args, _solution_payload("analytic", args, sol),
          _SOLUTION_CSV_HEADER, [_solution_csv_row(args, sol)])
    return 0


def _estimate_payload(est):
    return {
        "mean_num": str(est.mean_exact.numerator),
        "mean_den": str(est.mean_exact.denominator),
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "log_mean_over_n": est.log_mean_over_n,
    }


def _cmd_mc(args):
    spec = EnsembleSpec(n=args.n, r=args.r, seed=args.seed)
    result = estimate_moments(spec, args.m, args.m2, args.samples,
                              threads=args.threads)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "op": "mc",
        "n": args.n,
        "r": args.r,
        "m": args.m,
        "m2": args.m2,
        "seed": args.seed,
        "mode": result.mode,
        "first": _estimate_payload(result.first),
        "second": _estimate_payload(result.second),
        "product": _estimate_payload(result.product),
    }
    header = ["stat", "mean_num", "mean_den", "mean", "stderr", "samples",
              "log_mean_over_n"]
    rows = []
    for name, est in (("perm_m", result.first), ("perm_m2", result.second),
                      ("product", result.product)):
        rows.append([name, str(est.mean_exact.numerator),
                     str(est.mean_exact.denominator), repr(est.mean),
                     repr(est.stderr), est.samples, repr(est.log_mean_over_n)])
    _emit(args, payload, header, rows)
    return 0


def _cmd_scan(args):
    if not args.n:
        raise DomainError("scan needs at least one --n")
    rows = convergence_scan(args.r, args.p, args.q, args.n, args.samples,
                            seed=args.seed, threads=args.threads)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "op": "scan",
        "r": args.r,
        "p": args.p,
        "q": args.q,
        "seed": args.seed,
        "rows": [
            {
                "n": row.n, "m": row.m, "m2": row.m2,
                "samples": row.samples, "mode": row.mode,
                "mean_num": str(row.mean_exact.numerator),
                "mean_den": str(row.mean_exact.denominator),
                "log_mean_over_n": row.log_mean_over_n,
                "prediction": row.prediction,
                "gap": row.gap,
            }
            for row in rows
        ],
    }
    header = ["n", "m", "m2", "samples", "mode", "mean_num", "mean_den",
              "log_mean_over_n", "prediction", "gap"]
    csv_rows = [
        [row.n, row.m, row.m2, row.samples, row.mode,
         str(row.mean_exact.numerator), str(row.mean_exact.denominator),
         repr(row.log_mean_over_n), repr(row.prediction), repr(row.gap)]
        for row in rows
    ]
    _emit(args, payload, header, csv_rows)
    return 0


def _cmd_argmax(args):
    profile, value = argmax_profile(
        args.n, args.r, args.m, args.m2,
        term_budget=_or_default(args.budget, TERM_BUDGET_DEFAULT),
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "op": "argmax",
        "n": args.n,
        "r": args.r,
        "m": args.m,
        "m2": args.m2,
        "value_num": str(value.numerator),
        "value_den": str(value.denominator),
        "profile": {
            "base": list(profile.base),
            "fresh": list(profile.fresh),
            "dup": list(profile.dup),
            "row_hits": [list(row) for row in profile.row_hits],
            "col_hits": [list(row) for row in profile.col_hits],
            "cross_rows": [list(row) for row in profile.cross_rows],
            "cross_cols": [list(row) for row in profile.cross_cols],
            "totals": {
                "fresh": profile.fresh_total,
                "dup": profile.dup_total,
                "row_hits": profile.row_hit_total,
                "col_hits": profile.col_hit_total,
                "cross": profile.cross_total,
            },
        },
    }
    header = ["n", "r", "m", "m2", "value_num", "value_den", "base", "fresh",
              "dup", "row_hits_total", "col_hits_total", "cross_total"]
    rows = [[args.n, args.r, args.m, args.m2, str(value.numerator),
             str(value.denominator), "|".join(map(str, profile.base)),
             "|".join(map(str, profile.fresh)), "|".join(map(str, profile.dup)),
             profile.row_hit_total, profile.col_hit_total, profile.cross_total]]
    _emit(args, payload, header, rows)
    return 0


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite is the one definition of an acceptance criterion (criteria 1-5
# of tests/test_acceptance.py).  It takes keyword overrides, None meaning
# "use the suite's default", and returns (rows, worst, passed, tol).


def _r_values(r, default):
    return default if r is None else [r]


def _suite_stationarity(r=None, seed=0, tol=None, budget=None):
    """Relative stationarity residuals of the closed form over the grid."""
    tol = _or_default(tol, 1e-9)
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


def _suite_factorization(r=None, seed=0, tol=None, budget=None):
    """product_rate(p, q) against single_rate(p) + single_rate(q) over the
    grid; the Newton solver's rate must agree within 1e-6."""
    tol = _or_default(tol, 1e-9)
    solver_tol = 1e-6
    rows = []
    worst = 0.0
    ok = True
    for r in _r_values(r, GRID_R):
        for p in GRID_DENSITIES:
            for q in GRID_DENSITIES:
                target = single_rate(p, r) + single_rate(q, r)
                gap = abs(product_rate(p, q, r) - target)
                sol = solve_stationary(p, q, r)
                solver_gap = abs(sol.s_over_n - target)
                worst = max(worst, gap)
                ok = ok and gap < tol and solver_gap < solver_tol
                rows.append({"p": p, "q": q, "r": r, "gap": gap,
                             "solver_gap": solver_gap})
    return rows, worst, ok, tol


def _suite_solver(r=None, seed=0, tol=None, budget=None):
    """Newton solver against the closed form at 20 Philox-seeded points."""
    import numpy as np

    tol = _or_default(tol, 1e-8)
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    rows = []
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        # r is drawn even when given, so --r keeps the same (p, q) points
        r_point = _or_default(r, int(rng.integers(2, 7)))
        ref = analytic_solution(p, q, r_point)
        sol = solve_stationary(p, q, r_point)
        diff = max(abs(sol.a - ref.a), abs(sol.b - ref.b), abs(sol.d - ref.d),
                   abs(sol.e - ref.e), abs(sol.L - ref.L))
        worst = max(worst, diff)
        rows.append({"p": p, "q": q, "r": r_point, "coord_diff": diff,
                     "iterations": sol.iterations})
    return rows, worst, worst < tol, tol


def _oracle_rows(cases, budget, product):
    budget = _or_default(budget, TUPLE_BUDGET_DEFAULT)
    rows = []
    ok = True
    for n, r in cases:
        for m in range(n + 1):
            for m2 in range(m, n + 1) if product else (0,):
                want = ensemble_average_bruteforce(n, r, m, m2, tuple_budget=budget)
                if product:
                    got = expectation_product(n, r, m, m2)
                else:
                    got = expectation_perm(n, r, m)
                equal = want.value == got.value
                ok = ok and equal
                rows.append({"n": n, "r": r, "m": m, "m2": m2, "equal": equal,
                             "value_num": str(got.value.numerator),
                             "value_den": str(got.value.denominator)})
    return rows, 0.0 if ok else 1.0, ok, 0.0


def _suite_oracle_single(r=None, seed=0, tol=None, budget=None):
    """expectation_perm equals the oracle exactly for n <= 5, r <= 3."""
    r_values = _r_values(r, [1, 2, 3])
    cases = [(n, r) for n in range(1, 6) for r in r_values]
    return _oracle_rows(cases, budget, product=False)


def _suite_oracle_product(r=None, seed=0, tol=None, budget=None):
    """expectation_product equals the oracle exactly, m <= m2, for n <= 4
    at r <= 3 and for n = 5 at r = 2."""
    r_values = _r_values(r, [1, 2, 3])
    cases = [(n, r) for n in range(1, 5) for r in r_values]
    if r is None or r == 2:
        cases.append((5, 2))
    return _oracle_rows(cases, budget, product=True)


SUITES = {
    "stationarity": _suite_stationarity,
    "factorization": _suite_factorization,
    "solver": _suite_solver,
    "oracle-single": _suite_oracle_single,
    "oracle-product": _suite_oracle_product,
}


def _cmd_verify(args):
    rows, worst, passed, tol = SUITES[args.suite](
        r=args.r, seed=args.seed, tol=args.tol, budget=args.budget)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "op": "verify",
        "suite": args.suite,
        "tol": tol,
        "points": len(rows),
        "worst": worst,
        "pass": passed,
        "rows": rows,
    }
    header = sorted({k for row in rows for k in row})
    csv_rows = [
        [repr(v) if isinstance(v, float) else v
         for v in (row.get(k, "") for k in header)]
        for row in rows
    ]
    _emit(args, payload, header, csv_rows)
    if not passed:
        print(f"verify {args.suite}: FAILED (worst {worst!r})", file=sys.stderr)
        return 1
    print(f"verify {args.suite}: ok over {len(rows)} points", file=sys.stderr)
    return 0


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
        "budget": (("--budget",), {"type": int, "help": "work budget override"}),
    }
    for name in names:
        flags, kwargs = specs[name]
        sub.add_argument(*flags, **kwargs)
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format")
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker processes for partitionable operations")


def build_parser() -> _Parser:
    parser = _Parser(prog="permex", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("expect", help="exact E(perm_m)")
    _add_common(sub, "n", "r", "m")
    sub.set_defaults(func=_cmd_expect)

    sub = subs.add_parser("product", help="exact E(perm_m perm_m2)")
    _add_common(sub, "n", "r", "m", "m2", "budget")
    sub.set_defaults(func=_cmd_product)

    sub = subs.add_parser("oracle", help="brute-force E(perm_m perm_m2)")
    _add_common(sub, "n", "r", "m", "m2", "budget")
    sub.set_defaults(func=_cmd_oracle)

    sub = subs.add_parser("rate", help="asymptotic growth rate")
    _add_common(sub, "r", "p", "q")
    sub.set_defaults(func=_cmd_rate)

    sub = subs.add_parser("solve", help="numeric stationary point")
    _add_common(sub, "r", "p", "q_req", "tol")
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("analytic", help="closed-form stationary point")
    _add_common(sub, "r", "p", "q_req")
    sub.set_defaults(func=_cmd_analytic)

    sub = subs.add_parser("mc", help="Monte Carlo moment estimates")
    _add_common(sub, "n", "r", "m", "m2", "samples", "seed")
    sub.set_defaults(func=_cmd_mc)

    sub = subs.add_parser("scan", help="finite-size convergence scan")
    _add_common(sub, "n_list", "r", "p", "q_req", "samples", "seed")
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("argmax", help="dominant profile of the exact sum")
    _add_common(sub, "n", "r", "m", "m2", "budget")
    sub.set_defaults(func=_cmd_argmax)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_common(sub, "r_opt", "seed", "tol", "budget")
    sub.set_defaults(func=_cmd_verify)

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
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
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
