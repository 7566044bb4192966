"""Large-n rate functions and the variational problem behind them.

All quantities live at density scale: counts divided by n.  The log of a
factorial is approximated by F(z) = z ln z - z, under which the log-weight
of the dominant profile splits into six components.  Imposing the
second-placement size constraint with a Lagrange multiplier gives a
five-equation stationarity system with a closed-form solution, and the
maximized log-weight per dimension factorizes into the sum of the two
single-subpermanent rates.
"""

import math
from collections import namedtuple

from .errors import DomainError, InfeasiblePointError, SolverError


def stirling_f(z: float) -> float:
    """z ln z - z, extended by continuity with value 0 at z = 0."""
    if z < 0:
        raise DomainError(f"stirling_f needs z >= 0, got {z}")
    if z == 0:
        return 0.0
    return z * math.log(z) - z


def single_rate(p: float, r: int) -> float:
    """Growth rate (1/n) ln E(perm_m) at density p = m/n, for 0 < p < 1."""
    if not 0 < p < 1:
        raise DomainError(f"single_rate needs 0 < p < 1, got {p}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return (
        -p * math.log(p)
        + (2 * p - r) * math.log(r)
        + 2 * (p - 1) * math.log(1 - p)
        + (r - p) * math.log(r - p)
    )


def single_rate_limit(p: float, r: int) -> float:
    """single_rate extended to the closed interval [0, 1] by its limits."""
    if p == 0:
        return 0.0
    if p == 1:
        return (2 - r) * math.log(r) + (r - 1) * math.log(r - 1) if r > 1 else 0.0
    return single_rate(p, r)


class RateComponents(namedtuple("RateComponents",
                                "base fresh dup row_hit cross completion")):
    """The six density-scale components of the dominant log-weight."""

    __slots__ = ()

    @property
    def total(self) -> float:
        # the row-hit component enters twice: once per orientation
        return (self.base + self.fresh + self.dup + 2 * self.row_hit
                + self.cross + self.completion)


def _check_point(p, q, r):
    if not 0 < p < 1 or not 0 < q < 1:
        raise DomainError(f"need p, q in (0, 1), got p={p}, q={q}")
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")


def _check_feasible(name, value):
    if value < 0:
        raise InfeasiblePointError(name, value)
    return value


def rate_components(p, q, r, a, b, d, e) -> RateComponents:
    """Six components of S/n at densities (a, b, d, e), row and col hits tied.

    Every argument fed to stirling_f must be non-negative; the first
    violated inequality is reported by name.
    """
    if not 0 < p < 1:
        raise DomainError(f"need 0 < p < 1, got {p}")
    if not 0 <= q <= 1:
        raise DomainError(f"need 0 <= q <= 1, got {q}")
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    for name, v in (("a", a), ("b", b), ("d", d), ("e", e)):
        _check_feasible(f"{name} >= 0", v)
    F = stirling_f
    u1 = _check_feasible("1 - p - a >= 0", 1 - p - a)
    u2 = _check_feasible("1 - p - a - b >= 0", 1 - p - a - b)
    pe = _check_feasible("p - e >= 0", p - e)
    peb = _check_feasible("p - e - b >= 0", p - e - b)
    pebd = _check_feasible("p - e - b - d >= 0", p - e - b - d)
    slack = _check_feasible(
        "1 - (p + a + 2b + d) / r >= 0", 1 - (p + a + 2 * b + d) / r
    )
    base = (r - 2) - 2 * F(1 - p) - r * F(p / r)
    fresh = 2 * F(1 - p) - 2 * F(u1) - r * F(a / r)
    dup = r * F(p / r) - r * F(pe / r) - r * F(e / r)
    row_hit = (
        F(u1) - F(u2) - r * (r - 1) * F(b / (r * (r - 1)))
        + r * F(pe / r) - r * F(peb / r)
    )
    cross = (
        2 * r * F(peb / r)
        - 2 * r * (r - 1) * F(d / (r * (r - 1)))
        + r * F(d / r)
        - 2 * r * F(pebd / r)
    )
    completion = r * F(slack)
    return RateComponents(
        base=base, fresh=fresh, dup=dup, row_hit=row_hit,
        cross=cross, completion=completion,
    )


def _raw_residuals(a, b, d, e, L, p, q, r, rr1, rr1r1):
    """The five raw residuals and their leading terms, given r, r(r-1) and
    r(r-1)^2 as divisors; elementwise, so the arguments may be arrays."""
    u = 1 - p - a - b
    w = (p - e - b - d) / r
    slack = 1 - (p + a + 2 * b + d) / r
    g = (
        u * u - L * (a / r) * slack,
        u * w - L * (b / rr1) * slack,
        w * w - L * d / rr1r1 * slack,
        w * w - L * ((p - e) / r) * (e / r),
        a + e + 2 * b + d - q,
    )
    firsts = (u * u, u * w, w * w, w * w, a + e + 2 * b + d)
    return g, firsts


def stationarity_residuals(a, b, d, e, L, p, q, r):
    """The five stationarity equations, each scaled by its leading term.

    The first four are the zero-gradient conditions of the multiplier-
    adjusted log-weight in (a, b, d, e); the fifth is the size constraint
    a + e + 2b + d = q.
    """
    _check_point(p, q, r)
    for name, v in (("a", a), ("b", b), ("d", d), ("e", e), ("L", L)):
        _check_feasible(f"{name} >= 0", v)
    _check_feasible("p - e >= 0", p - e)
    g, firsts = _raw_residuals(a, b, d, e, L, p, q, r, r * (r - 1), r * (r - 1) ** 2)
    return tuple(gi / fi if fi != 0 else gi for gi, fi in zip(g, firsts))


class StationarySolution(namedtuple(
        "StationarySolution", "a b d e L s_over_n residuals iterations", defaults=(0,))):
    """Stationary densities (a, b, d, e), multiplier L, and diagnostics."""

    __slots__ = ()

    @property
    def residual_max(self) -> float:
        return max(abs(x) for x in self.residuals)


def _closed_form(p, q, r):
    """The closed-form stationary point (a, b, d, e, L)."""
    a = q * (1 - p) ** 2 * r / (r - p)
    b = (1 - p) * (r - 1) * p * q / (r - p)
    d = (r - 1) ** 2 * p**2 * q / (r * (r - p))
    e = p * q / r
    L = (1 - q) ** 2 * r**2 / (q * (r - q))
    return a, b, d, e, L


def _solution(a, b, d, e, L, p, q, r, iterations=0):
    """The StationarySolution at (a, b, d, e, L): its scaled residuals and S/n."""
    res = stationarity_residuals(a, b, d, e, L, p, q, r)
    s = rate_components(p, q, r, a, b, d, e).total
    return StationarySolution(a=a, b=b, d=d, e=e, L=L, s_over_n=s, residuals=res,
                              iterations=iterations)


def analytic_solution(p, q, r) -> StationarySolution:
    """Closed-form stationary point of the five-equation system."""
    _check_point(p, q, r)
    return _solution(*_closed_form(p, q, r), p, q, r)


def product_rate(p, q, r) -> float:
    """(1/n) ln E(perm_m perm_m2) in the limit: S/n at the stationary point."""
    _check_point(p, q, r)
    a, b, d, e, _ = _closed_form(p, q, r)
    return rate_components(p, q, r, a, b, d, e).total


DEFAULT_SOLVER_TOL = 1e-10
MAX_NEWTON_ITERATIONS = 200
# trial steps per Newton iteration, halving the step after each rejected one
MAX_HALVINGS = 40


def _r_terms(r):
    """The divisors in r of the residuals and their Jacobian: r, r(r-1),
    r(r-1)^2, r^2, r^2(r-1), r^2(r-1)^2, each an exact int rounded once to a
    float, as Python's float / int division rounds it."""
    rr1 = r * (r - 1)
    return tuple(float(v) for v in (r, rr1, rr1 * (r - 1), r * r, r * rr1, rr1 * rr1))


def _rel_norm(g, firsts):
    """Per row, the largest |g / first| (|g| where first is 0), with Python's
    max(): a NaN first term is the result, a later NaN term is passed over."""
    import numpy as np

    ratio = np.abs(g / np.where(firsts != 0, firsts, 1.0))
    return np.where(np.isnan(ratio[:, 0]), ratio[:, 0], np.fmax.reduce(ratio, axis=1))


def _residual_rows(X, c):
    """The raw residuals, one row per point, and their relative norms at the
    points X (rows (a, b, d, e, L)) under the per-point constants c."""
    import numpy as np

    g, firsts = (np.stack(v, axis=1) for v in _raw_residuals(*X.T, *c.T[:5]))
    return g, _rel_norm(g, firsts)


def _log_jacobian(X, c):
    """Per point, the Jacobian of the raw residuals wrt the log coordinates."""
    import numpy as np

    a, b, d, e, L = X.T
    p, _, r, rr1, rr1r1, r2, r2r1, r2r1r1 = c.T
    u = 1 - p - a - b
    w = (p - e - b - d) / r
    t = 1 - (p + a + 2 * b + d) / r
    j = np.zeros((len(X), 5, 5))
    j[:, 0, 0] = -2 * u - L * t / r + L * a / r2
    j[:, 0, 1] = -2 * u + 2 * L * a / r2
    j[:, 0, 2] = L * a / r2
    j[:, 0, 4] = -(a / r) * t
    j[:, 1, 0] = -w + L * b / r2r1
    j[:, 1, 1] = -w - u / r - L * t / rr1 + 2 * L * b / r2r1
    j[:, 1, 2] = -u / r + L * b / r2r1
    j[:, 1, 3] = -u / r
    j[:, 1, 4] = -(b / rr1) * t
    j[:, 2, 0] = L * d / r2r1r1
    j[:, 2, 1] = -2 * w / r + 2 * L * d / r2r1r1
    j[:, 2, 2] = -2 * w / r - L * t / rr1r1 + L * d / r2r1r1
    j[:, 2, 3] = -2 * w / r
    j[:, 2, 4] = -d * t / rr1r1
    j[:, 3, 1] = -2 * w / r
    j[:, 3, 2] = -2 * w / r
    j[:, 3, 3] = -2 * w / r - L * (p - 2 * e) / r2
    j[:, 3, 4] = -((p - e) / r) * (e / r)
    j[:, 4] = (1.0, 2.0, 1.0, 1.0, 0.0)
    # chain rule: column k times d exp(x_k) / dx_k = exp(x_k)
    j *= X[:, None, :]
    return j


def _feasible(a, b, d, e, p, r):
    """Whether (a, b, d, e) lies strictly inside the domain at (p, r), on
    floats or elementwise on arrays."""
    return ((e < p) & (p - e - b - d > 0) & (1 - p - a - b > 0)
            & (1 - (p + a + 2 * b + d) / r > 0))


def _restart(p, q, r):
    """The second attempt's start: the closed form scaled by (1.1, 0.9, 1.1,
    0.9, 1.1), each factor's distance from 1 halved until the start is
    feasible (the closed form itself if no halving is)."""
    point = _closed_form(p, q, r)
    for k in range(MAX_HALVINGS):
        start = [v * (1 + (f - 1) / 2**k) for v, f in zip(point, (1.1, 0.9, 1.1, 0.9, 1.1))]
        if _feasible(*start[:4], p, r):
            return start
    return list(point)


def _newton_steps(jac, rhs):
    """Each point's Newton step, and which points' systems were nonsingular."""
    import numpy as np

    ok = np.ones(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve one at a time
        step = np.zeros_like(rhs)
        for i in range(len(rhs)):
            try:
                step[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return step, ok


def _newton_attempt(x, live, const, tol, state):
    """One damped Newton attempt from the log points x at the point indices
    live.  Counts each point's iterations and keeps its best point (a point
    that converges is its best), and returns the indices of the points that
    did not converge."""
    import numpy as np

    iters, best, best_norm = state
    stalled = []
    for _ in range(MAX_NEWTON_ITERATIONS):
        if not live.size:
            break
        X = np.exp(x)
        c = const[live]
        g, rel = _residual_rows(X, c)
        iters[live] += 1
        better = rel < best_norm[live]
        best_norm[live[better]] = rel[better]
        best[live[better]] = X[better]
        go = ~(rel < tol)
        x, X, c, g, rel, live = x[go], X[go], c[go], g[go], rel[go], live[go]
        step, ok = _newton_steps(_log_jacobian(X, c), -g)
        # backtracking damping on the relative residual norm: each point
        # takes its first trial that is feasible and lowers its norm
        moved = np.zeros(live.size, dtype=bool)
        trying = np.flatnonzero(ok)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            if not trying.size:
                break
            xn = x[trying] + scale * step[trying]
            Xn = np.exp(xn)
            a, b, d, e, _ = Xn.T
            cn = c[trying]
            p, r = cn[:, 0], cn[:, 2]
            take = _feasible(a, b, d, e, p, r) & (_residual_rows(Xn, cn)[1] < rel[trying])
            x[trying[take]] = xn[take]
            moved[trying[take]] = True
            trying = trying[~take]
            scale *= 0.5
        stalled.append(live[~moved])
        x, live = x[moved], live[moved]
    stalled.append(live)
    return np.sort(np.concatenate(stalled))


def solve_stationary_batch(points, tol=DEFAULT_SOLVER_TOL) -> list:
    """Damped Newton iteration on the stationarity system at each (p, q, r).

    Works in log coordinates so all five unknowns stay positive.  The
    first attempt starts at (q/2, q/8, q/8, q/8, 1); a point where that
    stalls gets a second attempt from a mildly perturbed, feasible
    closed-form point (``_restart``).
    The points iterate together, one array row and one stacked 5x5 Newton
    system each, but each keeps its own step damping, iteration count and
    best point.  Returns, in order, each point's StationarySolution or,
    where both attempts fail, a SolverError carrying its best point.
    """
    import numpy as np

    for p, q, r in points:
        _check_point(p, q, r)
    if not 0 < tol < math.inf:
        raise DomainError(f"need a finite tol > 0, got {tol}")
    n = len(points)
    # per point: p, q and the r terms, the constants of every evaluation
    const = np.array([(p, q, *_r_terms(r)) for p, q, r in points], dtype=float).reshape(n, 8)
    iters = np.zeros(n, dtype=int)
    best = np.zeros((n, 5))
    best_norm = np.full(n, math.inf)
    state = (iters, best, best_norm)
    starts = [(q / 2, q / 8, q / 8, q / 8, 1.0) for _, q, _ in points]
    # A full step can overshoot far enough that a trial exp overflows, and
    # the trial's residuals then hold inf - inf; the feasibility test
    # rejects such a trial, so neither is an error.  np.exp, np.log and
    # np.linalg.solve get contiguous arrays, as they did one point at a
    # time: numpy's SIMD loops need not round a strided array's elements as
    # they round a contiguous one's, and the recorded outputs pin every bit.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.log(np.array(starts, dtype=float).reshape(n, 5))
        left = _newton_attempt(x, np.arange(n), const, tol, state)
        if left.size:
            starts = [_restart(*points[i]) for i in left.tolist()]
            left = _newton_attempt(np.log(np.array(starts)), left, const, tol, state)
    failed = set(left.tolist())
    results = []
    rows = zip(points, best.tolist(), best_norm.tolist(), iters.tolist())
    for i, ((p, q, r), point, norm, its) in enumerate(rows):
        if i in failed:
            results.append(SolverError(
                f"stationarity solve failed at (p={p}, q={q}, r={r}); "
                f"best relative residual {norm:.3e}",
                best=tuple(point) if norm < math.inf else None,
            ))
        else:
            results.append(_solution(*point, p, q, r, iterations=its))
    return results


def solve_stationary(p, q, r, tol=DEFAULT_SOLVER_TOL) -> StationarySolution:
    """solve_stationary_batch at one point; raises its SolverError."""
    (sol,) = solve_stationary_batch([(p, q, r)], tol)
    if isinstance(sol, SolverError):
        raise sol
    return sol
