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
from dataclasses import dataclass

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


def finite_rate_single(n: int, m: int, r: int) -> float:
    """The n-scaled log-weight of the balanced color split, via stirling_f.

    Algebraically identical to single_rate(m / n, r): the explicit n cancels.
    """
    if not 0 < m < n:
        raise DomainError(f"need 0 < m < n, got m={m}, n={n}")
    mi = m / r
    value = (
        -r * stirling_f(n)
        + 2 * stirling_f(n)
        - 2 * stirling_f(n - m)
        - r * stirling_f(mi)
        + r * stirling_f(n - mi)
    )
    return value / n


@dataclass(frozen=True)
class RateComponents:
    """The six density-scale components of the dominant log-weight."""

    base: float
    fresh: float
    dup: float
    row_hit: float
    cross: float
    completion: float

    @property
    def total(self) -> float:
        # the row-hit component enters twice: once per orientation
        return (self.base + self.fresh + self.dup + 2 * self.row_hit
                + self.cross + self.completion)


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


def _raw_residuals(a, b, d, e, L, p, q, r):
    u = 1 - p - a - b
    w = (p - e - b - d) / r
    slack = 1 - (p + a + 2 * b + d) / r
    g = (
        u * u - L * (a / r) * slack,
        u * w - L * (b / (r * (r - 1))) * slack,
        w * w - L * d / (r * (r - 1) ** 2) * slack,
        w * w - L * ((p - e) / r) * (e / r),
        a + e + 2 * b + d - q,
    )
    firsts = (u * u, u * w, w * w, w * w, a + e + 2 * b + d)
    return g, firsts


def _rel_norm(g, firsts):
    return max(abs(gi / fi) if fi != 0 else abs(gi) for gi, fi in zip(g, firsts))


def stationarity_residuals(a, b, d, e, L, p, q, r):
    """The five stationarity equations, each scaled by its leading term.

    The first four are the zero-gradient conditions of the multiplier-
    adjusted log-weight in (a, b, d, e); the fifth is the size constraint
    a + e + 2b + d = q.
    """
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    if not 0 < p < 1 or not 0 < q < 1:
        raise DomainError(f"need p, q in (0, 1), got p={p}, q={q}")
    for name, v in (("a", a), ("b", b), ("d", d), ("e", e), ("L", L)):
        _check_feasible(f"{name} >= 0", v)
    _check_feasible("p - e >= 0", p - e)
    g, firsts = _raw_residuals(a, b, d, e, L, p, q, r)
    return tuple(gi / fi if fi != 0 else gi for gi, fi in zip(g, firsts))


@dataclass(frozen=True)
class StationarySolution:
    """Stationary densities (a, b, d, e), multiplier L, and diagnostics."""

    a: float
    b: float
    d: float
    e: float
    L: float
    s_over_n: float
    residuals: tuple
    iterations: int = 0

    @property
    def residual_max(self) -> float:
        return max(abs(x) for x in self.residuals)


def analytic_solution(p, q, r) -> StationarySolution:
    """Closed-form stationary point of the five-equation system."""
    if not 0 < p < 1 or not 0 < q < 1:
        raise DomainError(f"need p, q in (0, 1), got p={p}, q={q}")
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    a = q * (1 - p) ** 2 * r / (r - p)
    b = (1 - p) * (r - 1) * p * q / (r - p)
    d = (r - 1) ** 2 * p**2 * q / (r * (r - p))
    e = p * q / r
    L = (1 - q) ** 2 * r**2 / (q * (r - q))
    res = stationarity_residuals(a, b, d, e, L, p, q, r)
    s = rate_components(p, q, r, a, b, d, e).total
    return StationarySolution(a=a, b=b, d=d, e=e, L=L, s_over_n=s, residuals=res)


def _residual_jacobian(a, b, d, e, L, p, r):
    """Analytic Jacobian of the raw residuals wrt (a, b, d, e, L)."""
    import numpy as np

    u = 1 - p - a - b
    w = (p - e - b - d) / r
    t = 1 - (p + a + 2 * b + d) / r
    rr1 = r * (r - 1)
    j = np.zeros((5, 5))
    j[0] = (
        -2 * u - L * t / r + L * a / r**2,
        -2 * u + 2 * L * a / r**2,
        L * a / r**2,
        0.0,
        -(a / r) * t,
    )
    j[1] = (
        -w + L * b / (r * rr1),
        -w - u / r - L * t / rr1 + 2 * L * b / (r * rr1),
        -u / r + L * b / (r * rr1),
        -u / r,
        -(b / rr1) * t,
    )
    j[2] = (
        L * d / (r * rr1 * (r - 1)),
        -2 * w / r + 2 * L * d / (r * rr1 * (r - 1)),
        -2 * w / r - L * t / (rr1 * (r - 1)) + L * d / (r * rr1 * (r - 1)),
        -2 * w / r,
        -d * t / (rr1 * (r - 1)),
    )
    j[3] = (
        0.0,
        -2 * w / r,
        -2 * w / r,
        -2 * w / r - L * (p - 2 * e) / r**2,
        -((p - e) / r) * (e / r),
    )
    j[4] = (1.0, 2.0, 1.0, 1.0, 0.0)
    return j


DEFAULT_SOLVER_TOL = 1e-10
MAX_NEWTON_ITERATIONS = 200


def solve_stationary(p, q, r, init=None, tol=DEFAULT_SOLVER_TOL) -> StationarySolution:
    """Damped Newton iteration on the stationarity system.

    Works in log coordinates so all five unknowns stay positive.  The
    default start is (q/2, q/8, q/8, q/8, 1); if that stalls, a second
    attempt starts from a mildly perturbed closed-form point.  Raises
    SolverError (carrying the best point) when both attempts fail.
    """
    import numpy as np

    if not 0 < p < 1 or not 0 < q < 1:
        raise DomainError(f"need p, q in (0, 1), got p={p}, q={q}")
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    if init is None:
        starts = [(q / 2, q / 8, q / 8, q / 8, 1.0), None]
    else:
        a0, b0, d0, e0, L0 = init
        for name, v in (("a", a0), ("b", b0), ("d", d0), ("e", e0), ("L", L0)):
            if v <= 0:
                raise InfeasiblePointError(f"{name} > 0", v)
        if e0 >= p:
            raise InfeasiblePointError("p - e >= 0", p - e0)
        starts = [tuple(init)]
    best = None
    best_norm = math.inf
    total_iters = 0
    # A full step can overshoot far enough that a trial exp overflows; the
    # feasibility test then rejects it, so the overflow is not an error.
    with np.errstate(over="ignore"):
        for start in starts:
            if start is None:
                ref = analytic_solution(p, q, r)
                wiggle = (1.1, 0.9, 1.1, 0.9, 1.1)
                start = tuple(v * f for v, f in zip((ref.a, ref.b, ref.d, ref.e, ref.L), wiggle))
            x = np.log(np.asarray(start, dtype=float))
            for _ in range(MAX_NEWTON_ITERATIONS):
                a, b, d, e, L = (float(v) for v in np.exp(x))
                g, firsts = _raw_residuals(a, b, d, e, L, p, q, r)
                rel = _rel_norm(g, firsts)
                total_iters += 1
                if rel < best_norm:
                    best_norm = rel
                    best = (a, b, d, e, L)
                if rel < tol:
                    res = stationarity_residuals(a, b, d, e, L, p, q, r)
                    s = rate_components(p, q, r, a, b, d, e).total
                    return StationarySolution(
                        a=a, b=b, d=d, e=e, L=L, s_over_n=s,
                        residuals=res, iterations=total_iters,
                    )
                jac = _residual_jacobian(a, b, d, e, L, p, r) * np.exp(x)[None, :]
                try:
                    step = np.linalg.solve(jac, -np.asarray(g))
                except np.linalg.LinAlgError:
                    break
                # backtracking damping on the relative residual norm
                scale = 1.0
                moved = False
                for _ in range(40):
                    xn = x + scale * step
                    an, bn, dn, en, Ln = np.exp(xn)
                    if en < p and (p - en - bn - dn) > 0 and (1 - p - an - bn) > 0 \
                            and (1 - (p + an + 2 * bn + dn) / r) > 0:
                        gn, fn = _raw_residuals(an, bn, dn, en, Ln, p, q, r)
                        reln = _rel_norm(gn, fn)
                        if reln < rel:
                            x = xn
                            moved = True
                            break
                    scale *= 0.5
                if not moved:
                    break
    raise SolverError(
        f"stationarity solve failed at (p={p}, q={q}, r={r}); "
        f"best relative residual {best_norm:.3e}",
        best=best,
    )


def product_rate(p, q, r) -> float:
    """(1/n) ln E(perm_m perm_m2) in the limit: S/n at the stationary point."""
    sol = analytic_solution(p, q, r)
    return sol.s_over_n
