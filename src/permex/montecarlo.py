"""Seeded Monte Carlo estimates of subpermanent moments, with exact sums.

Integer statistics (sums and sums of squares) are accumulated exactly and
only converted to floats at the very end, so no precision is lost to
cancellation no matter how large the subpermanent values grow.  Samples
are drawn in the calling process from sample 0; sample i reads its own
Philox stream (``model.sample_stream``), so a run is reproducible from
(n, r, seed, samples).  The (perm_m, perm_m2) pairs of all samples are
tallied in one Counter, and the exact sums are read off the tally.

At r = 1 every matrix is a permutation matrix, with perm_m = C(n, m), so
no sample is drawn.  At r = 2 no matrix is built and no DP runs:
relabelling its columns turns P1 + P2 into I + P1^-1 P2, so a sample's
profile depends only on the cycle type of P1^-1 P2.
``model.sample_permutations`` draws each sample's permutations off its
Philox words in pure Python and ``kernels.cycle_type`` reads its cycle
type, so r <= 2 never imports numpy, and each type's profile comes once
from ``kernels.cycle_profile``.  At other r the run reads the same one
generator, ``sample_permutations(spec, 0, samples)``, one DP block at a
time: ``kernels.block_size(n)`` samples, or as many as ``PASS_ENTRIES``
permutation entries hold at r * n a sample, and a run whose one sample
holds more is refused before drawing.  One array and one bincount give a
block's matrices, and the batched numpy kernel ``kernels.subperm_profiles``
profiles them, certifying int64 or Python-int arithmetic once per block.
When the whole tuple space is smaller than the requested sample count
(``model.tuple_count`` capped at that count, so a large r never builds
(n!)^r), estimation switches to enumeration mode and returns the exact
ensemble average with zero standard error, from the oracle table
(``permanents.product_sum_table``), which at small (n, r) builds no arrays
and so does not import numpy.
"""

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from . import kernels
from .asymptotics import single_rate_limit
from .errors import CapacityError, DomainError
# sample_stream is not called here; perfbench traces it under this name
from .model import (EnsembleSpec, sample_permutations, sample_stream,  # noqa: F401
                    tuple_count)
from .permanents import DIM_LIMIT_DEFAULT, check_moment, product_sum_table

# Permutation entries per DP block at r >= 3, r * n per sample, so a block
# holds min(kernels.block_size(n), PASS_ENTRIES // (r * n)) samples and its
# lists and arrays stay bounded at any r; a run whose one sample holds more
# is refused before drawing.  `mc --n 6 --r 1000 --m 3 --samples 2000`, in
# blocks of 174, peaked at 71 MB of RSS; batches of 1,024 samples reached 238 MB.
PASS_ENTRIES = 1 << 20


class MCEstimate(namedtuple("MCEstimate",
                            "mean stderr samples log_mean_over_n mean_exact")):
    """Sample mean and error of one statistic; exact mean carried alongside.

    ``log_mean_over_n`` is (1/n) ln(mean), computed from the exact rational
    mean via big-integer logarithms.
    """

    __slots__ = ()


class MomentEstimates(namedtuple("MomentEstimates", "first second product mode")):
    """Estimates for perm_m, perm_m2, and their product, from one sample set."""

    __slots__ = ()


def _log_fraction(fr: Fraction) -> float:
    return math.log(fr.numerator) - math.log(fr.denominator)


def _sample_sums(spec, m, m2, samples):
    """Exact sums over samples 0..samples-1 of x, x^2, y, y^2, xy and (xy)^2,
    for x = perm_m and y = perm_m2, as a list in that order.

    The (perm_m, perm_m2) pairs are tallied in one Counter: all samples at
    once at r = 1, per cycle type at r = 2, per DP block otherwise.
    """
    n, r = spec.n, spec.r
    pairs = Counter()
    if r == 1:
        # every r = 1 matrix is a permutation matrix: perm_m = C(n, m)
        pairs[math.comb(n, m), math.comb(n, m2)] = samples
    elif r == 2:
        classes = Counter(map(kernels.cycle_type, sample_permutations(spec, 0, samples)))
        for parts, count in classes.items():
            prof = kernels.cycle_profile(parts)
            pairs[prof[m], prof[m2]] += count
    else:
        if r * n > PASS_ENTRIES:
            raise CapacityError(f"a sample of (n={n}, r={r}) holds {r * n} permutation "
                                f"entries, past the sampler's cap of {PASS_ENTRIES}")
        import numpy as np

        block = min(kernels.block_size(n), PASS_ENTRIES // (r * n))  # samples a DP block
        stream = sample_permutations(spec, 0, samples)
        while perms := list(itertools.islice(stream, block)):
            perms = np.array(perms, dtype=np.int64)  # frees the block's lists
            count = len(perms)
            # entry (i, j) of sample b's matrix counts its summands with
            # i -> j: one bincount over the flat cells (b * n + i) * n + j
            rows = np.arange(count * n).reshape(count, 1, n)
            mats = np.bincount((rows * n + perms).ravel(),
                               minlength=count * n * n).reshape(count, n, n)
            prof = kernels.subperm_profiles(mats, n, r)
            pairs.update(zip(prof[m], prof[m2]))
    sums = [0] * 6
    for (x, y), count in pairs.items():
        for k, v in enumerate((x, y, x * y)):
            sums[2 * k] += count * v
            sums[2 * k + 1] += count * v * v
    return sums


def _estimate(mean_exact, stderr, samples, n) -> MCEstimate:
    return MCEstimate(mean=float(mean_exact), stderr=stderr, samples=samples,
                      log_mean_over_n=_log_fraction(mean_exact) / n, mean_exact=mean_exact)


def _make_estimate(total, total_sq, count, n) -> MCEstimate:
    """The estimate from exact sums over count >= 2 samples."""
    var_num = count * total_sq - total * total
    stderr_sq = Fraction(var_num, count * count * (count - 1))
    return _estimate(Fraction(total, count), math.sqrt(float(stderr_sq)), count, n)


def estimate_moments(spec: EnsembleSpec, m: int, m2: int, samples: int) -> MomentEstimates:
    """Estimate E(perm_m), E(perm_m2), and E(perm_m perm_m2) from one seed.

    Sample i reads its own per-index stream, so the result depends only on
    (n, r, seed, samples), not on the order or grouping of the draws.
    """
    n, r = spec.n, spec.r
    if samples < 2:
        raise DomainError(f"need samples >= 2, got {samples}")
    check_moment(n, r, m, m2)
    if n > DIM_LIMIT_DEFAULT:
        # each sample's profile DP holds 2^n states; r <= 2 reads profiles
        # off C(n, m) or cycle types and runs no DP, but keeps the same cap
        # and exit code
        raise CapacityError(f"profile limited to n <= {DIM_LIMIT_DEFAULT}, got {n}")

    space = tuple_count(n, r, samples)
    if space <= samples:
        # enumeration covers the whole space: means exact, no sampling error
        table = product_sum_table(n, r)
        return MomentEstimates(
            first=_estimate(Fraction(table[m][0], space), 0.0, space, n),
            second=_estimate(Fraction(table[m2][0], space), 0.0, space, n),
            product=_estimate(Fraction(table[m][m2], space), 0.0, space, n),
            mode="enumeration",
        )

    sums = _sample_sums(spec, m, m2, samples)
    first = _make_estimate(sums[0], sums[1], samples, n)
    second = _make_estimate(sums[2], sums[3], samples, n)
    product = _make_estimate(sums[4], sums[5], samples, n)
    return MomentEstimates(first=first, second=second, product=product,
                           mode="sampling")


class ScanRow(namedtuple("ScanRow", "n m m2 samples mode mean_exact log_mean_over_n "
                                     "prediction gap")):
    """One dimension of a finite-size convergence scan."""

    __slots__ = ()


def convergence_scan(
    r: int,
    p: float,
    q: float,
    n_list,
    samples: int,
    seed: int = 0,
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
        est = estimate_moments(spec, m, m2, samples)
        value = est.product.log_mean_over_n
        rows.append(
            ScanRow(
                n=n, m=m, m2=m2, samples=est.product.samples, mode=est.mode,
                mean_exact=est.product.mean_exact, log_mean_over_n=value,
                prediction=prediction, gap=prediction - value,
            )
        )
    return rows
