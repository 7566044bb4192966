"""Seeded Monte Carlo estimates of subpermanent moments, with exact sums.

Integer statistics (sums and sums of squares) are accumulated exactly and
only converted to floats at the very end, so no precision is lost to
cancellation no matter how large the subpermanent values grow.  Samples
are drawn in passes of about ``kernels.PASS_SAMPLES``: one
``model.sample_block`` call gives a pass's permutations, which fill blocks
of ``kernels.block_size(n)`` matrices; each block's profiles come from one
call of the batched numpy kernel ``kernels.subperm_profiles``, which
certifies int64 or Python-int arithmetic once for the block.  When the
whole tuple space is smaller than the requested sample count, estimation
switches to enumeration mode and returns the exact ensemble average with
zero standard error.
"""

import concurrent.futures
import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .asymptotics import single_rate_limit
from .errors import CapacityError, DomainError
# sample_stream is not called here; perfbench traces it under this name
from .model import EnsembleSpec, sample_block, sample_stream, tuple_count  # noqa: F401
from .permanents import DIM_LIMIT_DEFAULT, MomentKey, moment_key, product_sum_table

@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and error of one statistic; exact mean carried alongside.

    ``log_mean_over_n`` is (1/n) ln(mean), computed from the exact rational
    mean via big-integer logarithms.  ``mean_log_over_n`` is the average of
    (1/n) ln(value) over samples (None in enumeration mode).
    """

    mean: float
    stderr: float
    samples: int
    spec: MomentKey
    log_mean_over_n: float
    mean_exact: Fraction
    mean_log_over_n: float | None = None


@dataclass(frozen=True)
class MomentEstimates:
    """Estimates for perm_m, perm_m2, and their product, from one sample set."""

    first: MCEstimate
    second: MCEstimate
    product: MCEstimate
    mode: str


def _log_fraction(fr: Fraction) -> float:
    return math.log(fr.numerator) - math.log(fr.denominator)


def _mc_worker(args):
    import numpy as np

    n, r, seed, m, m2, lo, hi = args
    spec = EnsembleSpec(n=n, r=r, seed=seed)
    block = kernels.block_size(n)
    span = max(1, kernels.PASS_SAMPLES // block) * block
    batch = np.arange(block)[:, None]
    rows = np.arange(n)
    sums = [0] * 6
    logs = ([], [], [])
    for first in range(lo, hi, span):
        perms = sample_block(spec, first, min(span, hi - first))
        for start in range(0, len(perms), block):
            chunk = perms[start:start + block]
            mats = np.zeros((len(chunk), n, n), dtype=np.int64)
            for k in range(r):
                # one summand puts one entry in every row of every matrix
                mats[batch[:len(chunk)], rows, chunk[:, k]] += 1
            prof = kernels.subperm_profiles(mats, n, r)
            xs, ys = prof[m], prof[m2]
            for k, vals in enumerate((xs, ys, [x * y for x, y in zip(xs, ys)])):
                sums[2 * k] += sum(vals)
                sums[2 * k + 1] += sum(v * v for v in vals)
                logs[k].extend(map(math.log, vals))
    # one fsum over the whole range, so block boundaries cannot move a bit
    return sums, [math.fsum(ls) for ls in logs]


def _make_estimate(total, total_sq, log_total, count, n, key) -> MCEstimate:
    mean_exact = Fraction(total, count)
    var_num = count * total_sq - total * total
    stderr_sq = Fraction(var_num, count * count * (count - 1)) if count > 1 else Fraction(0)
    return MCEstimate(
        mean=float(mean_exact),
        stderr=math.sqrt(float(stderr_sq)),
        samples=count,
        spec=key,
        log_mean_over_n=_log_fraction(mean_exact) / n,
        mean_exact=mean_exact,
        mean_log_over_n=log_total / (count * n) if log_total is not None else None,
    )


def estimate_moments(
    spec: EnsembleSpec, m: int, m2: int, samples: int, threads: int = 1
) -> MomentEstimates:
    """Estimate E(perm_m), E(perm_m2), and E(perm_m perm_m2) from one seed.

    Samples are drawn from per-index streams, so the result is identical for
    any partitioning of the index range across workers.
    """
    n, r = spec.n, spec.r
    if samples < 2:
        raise DomainError(f"need samples >= 2, got {samples}")
    key = moment_key(n, r, m, m2)
    if n > DIM_LIMIT_DEFAULT:
        # each sample's profile DP holds 2^n states
        raise CapacityError(f"profile limited to n <= {DIM_LIMIT_DEFAULT}, got {n}")

    space = tuple_count(n, r)
    if space <= samples:
        # enumeration covers the whole space: means exact, no sampling error
        table = product_sum_table(n, r)

        def exact(total, key):
            mean = Fraction(total, space)
            return MCEstimate(
                mean=float(mean), stderr=0.0, samples=space, spec=key,
                log_mean_over_n=_log_fraction(mean) / n, mean_exact=mean,
            )

        return MomentEstimates(
            first=exact(table[m][0], MomentKey(n, r, m, 0)),
            second=exact(table[m2][0], MomentKey(n, r, m2, 0)),
            product=exact(table[m][m2], key),
            mode="enumeration",
        )

    if threads > 1 and samples >= 2 * threads:
        # load numpy before the pool forks its workers, so that they inherit
        # it rather than each import it again
        import numpy  # noqa: F401

        bounds = [samples * i // threads for i in range(threads + 1)]
        jobs = [(n, r, spec.seed, m, m2, bounds[i], bounds[i + 1])
                for i in range(threads)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_mc_worker, jobs))
        sums = [sum(p[0][k] for p in parts) for k in range(6)]
        logsums = [math.fsum(p[1][k] for p in parts) for k in range(3)]
    else:
        sums, logsums = _mc_worker((n, r, spec.seed, m, m2, 0, samples))

    first = _make_estimate(sums[0], sums[1], logsums[0], samples, n,
                           MomentKey(n, r, m, 0))
    second = _make_estimate(sums[2], sums[3], logsums[1], samples, n,
                            MomentKey(n, r, m2, 0))
    product = _make_estimate(sums[4], sums[5], logsums[2], samples, n, key)
    return MomentEstimates(first=first, second=second, product=product,
                           mode="sampling")


@dataclass(frozen=True)
class ScanRow:
    """One dimension of a finite-size convergence scan."""

    n: int
    m: int
    m2: int
    samples: int
    mode: str
    mean_exact: Fraction
    log_mean_over_n: float
    prediction: float
    gap: float


def convergence_scan(
    r: int,
    p: float,
    q: float,
    n_list,
    samples: int,
    seed: int = 0,
    threads: int = 1,
):
    """Product-moment estimates along n_list against the limiting prediction.

    m and m2 are the nearest integers to p*n and q*n (round-half-even), and
    the prediction column is the sum of the two single rates at p and q.
    """
    prediction = single_rate_limit(p, r) + single_rate_limit(q, r)
    rows = []
    for n in n_list:
        m = round(p * n)
        m2 = round(q * n)
        spec = EnsembleSpec(n=n, r=r, seed=seed)
        est = estimate_moments(spec, m, m2, samples, threads=threads)
        value = est.product.log_mean_over_n
        rows.append(
            ScanRow(
                n=n, m=m, m2=m2, samples=est.product.samples, mode=est.mode,
                mean_exact=est.product.mean_exact, log_mean_over_n=value,
                prediction=prediction, gap=prediction - value,
            )
        )
    return rows
