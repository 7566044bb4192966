import math
from fractions import Fraction

import numpy as np
import pytest

from permex import asymptotics, cli
from permex import (
    DomainError,
    InfeasiblePointError,
    SolverError,
    analytic_solution,
    product_rate,
    rate_components,
    single_rate,
    single_rate_limit,
    solve_stationary,
    solve_stationary_batch,
    stationarity_residuals,
    stirling_f,
)

GRID = [i / 10 for i in range(1, 10)]

# frozen from direct evaluation of the rate expression at p = 1/2, r = 2
RATE_HALF_2 = 0.9547712524422192


def test_stirling_examples():
    assert stirling_f(1.0) == -1.0
    assert stirling_f(0.0) == 0.0
    assert abs(stirling_f(math.e)) < 1e-15
    with pytest.raises(DomainError):
        stirling_f(-0.1)


def test_single_rate_value():
    assert abs(single_rate(0.5, 2) - RATE_HALF_2) < 1e-12


def test_single_rate_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            single_rate(bad, 2)


def test_single_rate_limits():
    assert single_rate_limit(0.0, 2) == 0.0
    assert single_rate_limit(1.0, 2) == 0.0
    # small-p behavior: the rate vanishes at the left edge
    assert abs(single_rate(1e-12, 2)) < 1e-9
    # right edge for r = 3: (2 - r) ln r + (r - 1) ln(r - 1)
    want = (2 - 3) * math.log(3) + 2 * math.log(2)
    assert abs(single_rate_limit(1.0, 3) - want) < 1e-15


def log_weight(n, m, parts):
    """n-scaled Stirling log-weight of a single placement split into ``parts``."""
    val = -len(parts) * stirling_f(n) + 2 * stirling_f(n) - 2 * stirling_f(n - m)
    for mi in parts:
        val += -stirling_f(mi) + stirling_f(n - mi)
    return val / n


def test_finite_rate_matches_density_rate():
    # at the balanced split the explicit n cancels: single_rate(m / n, r)
    for n, m, r in [(1000, 500, 2), (10, 5, 2), (12, 4, 3)]:
        assert abs(log_weight(n, m, (m / r,) * r) - single_rate(m / n, r)) < 1e-12


def test_balanced_split_dominates():
    # the balanced color split maximizes the single-placement log-weight
    n, m, r = 1000, 500, 2
    best = log_weight(n, m, (m / r,) * r)

    rng = np.random.default_rng(17)
    for _ in range(50):
        delta = int(rng.integers(1, m // 2))
        parts = (m / r + delta, m / r - delta)
        assert log_weight(n, m, parts) <= best


def test_rate_components_reduce_to_single_rate():
    for p in (0.2, 0.5, 0.8):
        for r in (2, 3, 5):
            comps = rate_components(p, 0.0, r, 0.0, 0.0, 0.0, 0.0)
            assert comps.fresh == 0.0
            assert comps.dup == 0.0
            assert comps.row_hit == 0.0
            assert comps.cross == 0.0
            assert abs(comps.total - single_rate(p, r)) < 1e-12


def test_rate_components_at_stationary_point():
    sol = analytic_solution(0.5, 0.5, 2)
    comps = rate_components(0.5, 0.5, 2, sol.a, sol.b, sol.d, sol.e)
    assert abs(comps.total - 2 * RATE_HALF_2) < 1e-9


def test_rate_components_infeasible_names_inequality():
    with pytest.raises(InfeasiblePointError) as err:
        rate_components(0.3, 0.5, 2, 0.0, 0.0, 0.0, 0.4)
    assert "p - e" in str(err.value)


@pytest.mark.parametrize("point, message", [
    ((0.0, 0.5, 2), "need 0 < p < 1, got 0.0"),
    ((1.0, 0.5, 2), "need 0 < p < 1, got 1.0"),
    ((0.5, -0.1, 2), "need 0 <= q <= 1, got -0.1"),
    ((0.5, 1.1, 2), "need 0 <= q <= 1, got 1.1"),
    ((0.5, 0.5, 1), "need r >= 2, got 1"),
])
def test_rate_components_domain(point, message):
    # q may be 0 or 1 here, unlike at the stationary point
    with pytest.raises(DomainError) as err:
        rate_components(*point, 0.0, 0.0, 0.0, 0.0)
    assert str(err.value) == message


def test_residuals_zero_at_analytic_solution():
    worst = 0.0
    for r in (2, 3, 4, 5, 6):
        for p in GRID:
            for q in GRID:
                sol = analytic_solution(p, q, r)
                worst = max(worst, sol.residual_max)
    assert worst < 1e-9


def test_residuals_nonzero_off_solution():
    res = stationarity_residuals(0.5, 0.0, 0.0, 0.0, 1.0, 0.4, 0.5, 2)
    assert max(abs(x) for x in res[:4]) > 1e-3


def test_constraint_exact_in_rationals():
    p = q = Fraction(1, 2)
    r = 2
    a = q * (1 - p) ** 2 * r / (r - p)
    b = (1 - p) * (r - 1) * p * q / (r - p)
    d = (r - 1) ** 2 * p**2 * q / (r * (r - p))
    e = p * q / r
    assert a == Fraction(1, 6)
    assert b == Fraction(1, 12)
    assert d == Fraction(1, 24)
    assert e == Fraction(1, 8)
    assert a + e + 2 * b + d == q


def test_residuals_match_log_weight_gradient():
    # the k-th stationarity equation is term1 - term2 with
    # d(adjusted log-weight)/dv_k = c_k * ln(term1 / term2)
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(20):
        r = int(rng.integers(2, 5))
        p = float(rng.uniform(0.2, 0.7))
        q = float(rng.uniform(0.2, 0.7))
        ref = analytic_solution(p, q, r)
        point = np.array([ref.a, ref.b, ref.d, ref.e]) * float(rng.uniform(0.7, 0.95))
        a, b, d, e = point
        L = ref.L * float(rng.uniform(0.8, 1.2))
        lam = math.log(L)

        def adjusted(v):
            comps = rate_components(p, q, r, v[0], v[1], v[2], v[3])
            return comps.total - lam * (v[0] + v[3] + 2 * v[1] + v[2])

        u = 1 - p - a - b
        w = (p - e - b - d) / r
        t = 1 - (p + a + 2 * b + d) / r
        pairs = [
            (u * u, L * (a / r) * t, 1.0),
            (u * w, L * (b / (r * (r - 1))) * t, 2.0),
            (w * w, L * d / (r * (r - 1) ** 2) * t, 1.0),
            (w * w, L * ((p - e) / r) * (e / r), 1.0),
        ]
        for k, (term1, term2, scale) in enumerate(pairs):
            step = np.zeros(4)
            step[k] = h
            fd = (adjusted(point + step) - adjusted(point - step)) / (2 * h)
            want = scale * math.log(term1 / term2)
            assert abs(fd - want) < 1e-6 * max(1.0, abs(want)), (k, fd, want)


def test_analytic_solution_values():
    sol = analytic_solution(0.5, 0.5, 2)
    assert abs(sol.a - 1 / 6) < 1e-15
    assert abs(sol.b - 1 / 12) < 1e-15
    assert abs(sol.d - 1 / 24) < 1e-15
    assert abs(sol.e - 1 / 8) < 1e-15
    assert abs(sol.L - 4 / 3) < 1e-15


def test_analytic_constraint_on_grid():
    for r in (2, 3, 4, 5, 6):
        for p in GRID:
            for q in GRID:
                sol = analytic_solution(p, q, r)
                assert abs(sol.a + sol.e + 2 * sol.b + sol.d - q) < 1e-12


def test_analytic_small_p_limit():
    q, r = 0.4, 3
    sol = analytic_solution(1e-9, q, r)
    assert abs(sol.a - q) < 1e-6
    assert sol.b < 1e-6 and sol.d < 1e-6 and sol.e < 1e-6


def test_solver_matches_analytic():
    for p, q, r in [(0.5, 0.5, 2), (0.3, 0.7, 3)]:
        ref = analytic_solution(p, q, r)
        sol = solve_stationary(p, q, r)
        for name in ("a", "b", "d", "e", "L"):
            assert abs(getattr(sol, name) - getattr(ref, name)) < 1e-8, (p, q, r, name)
        assert sol.iterations > 0
        assert sol.residual_max < 1e-10


def batch_with_good_first(p, q, r):
    # a batch checks every point, and one bad point fails it whole
    return solve_stationary_batch([(0.5, 0.5, 2), (p, q, r)], tol=math.nan)


@pytest.mark.parametrize("fn", [
    analytic_solution, solve_stationary,
    lambda p, q, r: stationarity_residuals(0.1, 0.1, 0.1, 0.1, 1.0, p, q, r),
    batch_with_good_first,
])
def test_point_domain(fn):
    # one point check: p and q before r, with the same messages everywhere
    for point, message in (((0.0, 0.5, 2), "need p, q in (0, 1), got p=0.0, q=0.5"),
                           ((0.5, 1.0, 2), "need p, q in (0, 1), got p=0.5, q=1.0"),
                           ((0.5, 0.5, 1), "need r >= 2, got 1"),
                           ((1.5, 0.5, 1), "need p, q in (0, 1), got p=1.5, q=0.5")):
        with pytest.raises(DomainError) as err:
            fn(*point)
        assert str(err.value) == message, point


def test_solver_domain():
    # a tol that is not finite and > 0 is refused, not run to a solver failure
    # (tol <= 0, nan) or to the unconverged start point (inf)
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            solve_stationary(0.5, 0.5, 2, tol=tol)


def test_solver_failure_carries_best_point():
    # a tolerance below double precision cannot be met
    with pytest.raises(SolverError) as err:
        solve_stationary(0.3, 0.7, 3, tol=1e-300)
    best = err.value.best
    assert len(best) == 5
    assert all(isinstance(x, float) and x > 0 for x in best)


def test_solver_failure_on_singular_jacobian(monkeypatch):
    # a singular Newton system ends that point's attempt; both attempts ending
    # so is a SolverError that still carries the best point seen
    points = [(0.3, 0.7, 3), (0.1, 0.3, 2), (0.9, 0.9, 6)]
    want = solve_stationary_batch(points)
    real_solve = np.linalg.solve

    def no_stacks(a, b):
        # LAPACK refuses a stack as soon as one matrix in it is singular
        if a.ndim > 2 and len(a) > 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", no_stacks)
    # the batch re-solves such a stack one matrix at a time
    assert solve_stationary_batch(points) == want

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError) as err:
        solve_stationary(0.3, 0.7, 3)
    failures = [err.value, *solve_stationary_batch(points)]
    for failure in failures:
        assert isinstance(failure, SolverError)
        assert len(failure.best) == 5
        assert all(isinstance(x, float) and x > 0 for x in failure.best)


def test_batch_equals_one_point_solves(monkeypatch):
    # every field bit for bit, iteration counts included: the solver suite's
    # points at two seeds, and grid points whose first attempt stalls
    points = [(row["p"], row["q"], row["r"])
              for seed in (0, 2718) for row in cli._suite_solver(seed=seed)[0]]
    restarts = [(0.1, 0.3, 2), (0.5, 0.9, 4), (0.9, 0.9, 6)]
    one_by_one = [solve_stationary(*point) for point in points + restarts]
    real_closed_form = asymptotics._closed_form
    restarted = []

    def closed_form(*point):
        restarted.append(point)
        return real_closed_form(*point)

    monkeypatch.setattr(asymptotics, "_closed_form", closed_form)
    batch = solve_stationary_batch(points + restarts)
    assert set(restarts) <= set(restarted)
    assert len(batch) == len(one_by_one)
    # recorded at seed 2718: a change to the step damping or the restart moves them
    assert [sol.iterations for sol in batch[20:40]] == [
        8, 7, 11, 7, 6, 7, 7, 7, 6, 9, 9, 7, 6, 6, 6, 6, 6, 8, 7, 7]
    for got, want in zip(batch, one_by_one):
        for field in ("a", "b", "d", "e", "L", "s_over_n", "residuals", "iterations"):
            assert getattr(got, field) == getattr(want, field), (got, field)


def test_rel_norm_takes_python_max():
    # the batch's row norm is the max() the one-point residual norm took:
    # a NaN first term is the norm, a later NaN term is passed over
    nan = math.nan
    g = np.array([[nan, 1.0, 2.0, 0.0, 3.0], [1.0, nan, -4.0, 0.0, 2.0],
                  [-1.0, 2.0, 6.0, 5.0, 0.5]])
    firsts = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 0.0, 0.0, 4.0],
                       [nan, 1.0, 2.0, 0.0, 1.0]])
    norms = asymptotics._rel_norm(g, firsts)
    for row, norm in zip(zip(g.tolist(), firsts.tolist()), norms.tolist()):
        want = max(abs(gi / fi) if fi != 0 else abs(gi) for gi, fi in zip(*row))
        assert norm == want or (math.isnan(norm) and math.isnan(want)), (row, norm)
    assert math.isnan(norms[0]) and math.isnan(norms[2])
    assert norms[1] == 4.0


def test_restart_is_feasible():
    # at this point (drawn by the solver suite at seed 3) the first attempt
    # stalls and the closed form scaled by (1.1, 0.9, 1.1, 0.9, 1.1) has
    # 1 - p - a - b < 0: the restart shrinks the scaling until it is feasible
    p, q, r = point = (0.07313656993340666, 0.9387812628920866, 2)
    a, b, *_ = closed = asymptotics._closed_form(*point)
    assert 1 - p - 1.1 * a - 0.9 * b < 0
    start = asymptotics._restart(*point)
    assert asymptotics._feasible(*start[:4], p, r)
    assert 1 < start[0] / a < 1.1 and 0.9 < start[1] / b < 1
    sol = solve_stationary(*point)
    assert max(abs(x - y) for x, y in zip((sol.a, sol.b, sol.d, sol.e, sol.L), closed)) < 1e-8
    # a feasible restart keeps the full scaling
    assert asymptotics._restart(0.5, 0.5, 2) == [
        v * f for v, f in zip(asymptotics._closed_form(0.5, 0.5, 2), (1.1, 0.9, 1.1, 0.9, 1.1))]


def test_batch_keeps_each_points_failure():
    # a point where both attempts fail gets its SolverError in its place,
    # returned, not raised, and the points around it still solve; both
    # attempts start feasible here, and q close to 1 defeats them
    assert solve_stationary_batch([]) == []
    hard = (0.6875102945721865, 0.9787504294978595, 2)
    sols = solve_stationary_batch([(0.5, 0.5, 2), hard, (0.3, 0.7, 3)])
    assert sols[0] == solve_stationary(0.5, 0.5, 2)
    assert sols[2] == solve_stationary(0.3, 0.7, 3)
    with pytest.raises(SolverError) as err:
        solve_stationary(*hard)
    assert isinstance(sols[1], SolverError)
    assert str(sols[1]) == str(err.value)
    assert sols[1].best == err.value.best


def test_product_rate_value_and_symmetry():
    assert abs(product_rate(0.5, 0.5, 2) - 2 * RATE_HALF_2) < 2e-6
    for p, q, r in [(0.2, 0.7, 2), (0.4, 0.9, 5)]:
        assert abs(product_rate(p, q, r) - product_rate(q, p, r)) < 1e-12


def test_factorization_on_subgrid():
    for r in (2, 4):
        for p in (0.1, 0.5, 0.9):
            for q in (0.2, 0.6):
                target = single_rate(p, r) + single_rate(q, r)
                assert abs(product_rate(p, q, r) - target) < 1e-9


def test_stationary_point_is_local_max():
    # numeric Hessian of the adjusted log-weight is negative definite
    h = 1e-5
    for p, q, r in [(0.3, 0.3, 2), (0.5, 0.5, 2), (0.7, 0.4, 3)]:
        sol = analytic_solution(p, q, r)
        lam = math.log(sol.L)
        x0 = np.array([sol.a, sol.b, sol.d, sol.e])

        def adjusted(v):
            comps = rate_components(p, q, r, v[0], v[1], v[2], v[3])
            return comps.total - lam * (v[0] + v[3] + 2 * v[1] + v[2])

        hess = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                vpp = x0.copy(); vpp[i] += h; vpp[j] += h
                vpm = x0.copy(); vpm[i] += h; vpm[j] -= h
                vmp = x0.copy(); vmp[i] -= h; vmp[j] += h
                vmm = x0.copy(); vmm[i] -= h; vmm[j] -= h
                hess[i, j] = (adjusted(vpp) - adjusted(vpm)
                              - adjusted(vmp) + adjusted(vmm)) / (4 * h * h)
        eigvals = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        assert np.all(eigvals < 0), (p, q, r, eigvals)
