"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import math

import numpy as np

from permex import (
    EnsembleSpec,
    argmax_profile,
    estimate_moments,
    expectation_product,
    single_rate,
    subpermanent_bruteforce,
    subpermanent_profile,
)
from permex.cli import SUITES
from permex.model import SquareMatrix


def report(num, name, passed, detail):
    line = f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]"
    print(line)
    assert passed, line


# Criteria 1-5 and 10 are the `permex verify` suites.  Each test pins the suite's
# point count and tolerance, so a suite that shrinks its grid or loosens a
# tolerance fails here.


def _exact_criterion(num, name, suite, points):
    rows, _, passed, tol = SUITES[suite]()
    assert (len(rows), tol) == (points, 0.0)
    bad = [row for row in rows if not row["equal"]]
    report(num, name, passed and not bad,
           f"{len(rows)} cases exactly equal" if not bad else f"first mismatch {bad[0]}")


def test_criterion_1_oracle_equality_single():
    _exact_criterion(1, "oracle equality, single", "oracle-single", 60)


def test_criterion_2_oracle_equality_product():
    _exact_criterion(2, "oracle equality, product", "oracle-product", 123)


def test_criterion_3_stationarity_residuals():
    rows, _, passed, tol = SUITES["stationarity"]()
    assert (len(rows), tol) == (405, 1e-9)
    worst = max(row["residual_max"] for row in rows)
    report(3, "stationarity of the closed form", passed and worst < 1e-9,
           f"max relative residual {worst:.3e} over {len(rows)} grid points")


def test_criterion_4_factorization():
    rows, _, passed, tol = SUITES["factorization"]()
    assert (len(rows), tol) == (405, 1e-9)
    worst = max(row["gap"] for row in rows)
    worst_solver = max(row["solver_gap"] for row in rows)
    report(4, "rate factorization", passed and worst < 1e-9 and worst_solver < 1e-6,
           f"analytic gap {worst:.3e}, solver gap {worst_solver:.3e}")


def test_criterion_5_solver_agreement():
    rows, _, passed, tol = SUITES["solver"](seed=2718)
    assert (len(rows), tol) == (20, 1e-8)
    worst = max(row["coord_diff"] for row in rows)
    report(5, "solver matches closed form", passed and worst < 1e-8,
           f"max coordinate difference {worst:.3e} on {len(rows)} seeded triples")


def test_criterion_6_finite_size_trend():
    prediction = 2 * single_rate(0.5, 2)
    gaps = []
    for n in (8, 10, 12):
        value = expectation_product(n, 2, n // 2, n // 2).value
        log_rate = (math.log(value.numerator) - math.log(value.denominator)) / n
        gaps.append(abs(log_rate - prediction))
    within = all(g < 0.6 for g in gaps)
    decreasing = gaps[0] > gaps[1] > gaps[2]
    report(6, "finite-size trend", within and decreasing,
           "gaps at n=8,10,12: " + ", ".join(f"{g:.4f}" for g in gaps))


def test_criterion_7_mc_consistency():
    exact = float(expectation_product(6, 2, 3, 3).value)
    hits = 0
    for run in range(100):
        est = estimate_moments(EnsembleSpec(6, 2, seed=run), 3, 3, samples=2000)
        if abs(est.product.mean - exact) <= 3 * est.product.stderr:
            hits += 1
    report(7, "Monte Carlo consistency", hits >= 99,
           f"{hits}/100 runs within 3 stderr of the exact value")


def _balance_ok(counts, slots):
    total = sum(counts)
    mean = total / slots
    return all(abs(c - mean) <= 1 for c in counts)


def test_criterion_8_dominant_term_balance():
    failures = []
    for n in (8, 10, 12):
        m = n // 2
        profile, _ = argmax_profile(n, 2, m, m)
        ok = abs(profile.base[0] - m / 2) <= 1
        row_hits, col_hits = (sum(map(sum, mat)) for mat in (profile.row_hits, profile.col_hits))
        ok = ok and abs(row_hits - col_hits) <= 2
        for counts in (profile.base, profile.fresh, profile.dup,
                       tuple(map(sum, profile.cross_rows))):
            ok = ok and _balance_ok(counts, 2)
        for mat in (profile.row_hits, profile.col_hits,
                    profile.cross_rows, profile.cross_cols):
            cells = [mat[i][k] for i in range(2) for k in range(2) if i != k]
            ok = ok and _balance_ok(cells, 2)
        if not ok:
            failures.append((n, profile))
    report(8, "dominant term is color balanced", not failures,
           "maximizers at n=8,10,12 balanced within 1" if not failures
           else f"unbalanced: {failures}")


def test_criterion_9_profile_cross_check():
    rng = np.random.default_rng(31415)
    checked = 0
    worst = None
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rows = [[int(rng.integers(0, 4)) for _ in range(n)] for _ in range(n)]
        mat = SquareMatrix.from_rows(rows)
        prof = subpermanent_profile(mat)
        for m in range(n + 1):
            if prof[m] != subpermanent_bruteforce(mat, m):
                worst = (mat, m)
        checked += 1
    report(9, "profile vs brute force", worst is None,
           f"{checked} random matrices, all orders equal" if worst is None
           else f"mismatch at {worst}")


def test_criterion_10_recurrence_equality():
    _exact_criterion(10, "profile sum equals the r = 2 recurrence", "recurrence", 219)
