import numpy as np
import pytest

from permex import (
    DomainError,
    EnsembleSpec,
    convergence_scan,
    ensemble_average_bruteforce,
    estimate_moments,
    expectation_product,
    sample_matrix,
    single_rate_limit,
)
from permex import _pykernels, kernels, montecarlo
from permex.kernels import block_size
from permex.model import sample_block
from permex.montecarlo import _make_estimate


def test_enumeration_mode_exact_agreement():
    for n, r in [(2, 2), (3, 2), (2, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=0)
        for m, m2 in [(1, 1), (n, n), (0, 1)]:
            est = estimate_moments(spec, m, m2, samples=10**6)
            assert est.mode == "enumeration"
            want = ensemble_average_bruteforce(n, r, m, m2)
            assert est.product.mean_exact == want.value
            assert est.product.stderr == 0.0


def test_deterministic_first_moment():
    # perm_1 is the total entry count r*n on every sample
    est = estimate_moments(EnsembleSpec(2, 2, seed=5), 1, 1, samples=50)
    assert est.product.mean_exact == 16
    assert est.product.stderr == 0.0


def test_sample_count_validation():
    with pytest.raises(DomainError):
        estimate_moments(EnsembleSpec(3, 2, seed=1), 1, 1, samples=1)
    with pytest.raises(DomainError):
        estimate_moments(EnsembleSpec(3, 2, seed=1), 4, 0, samples=10)


def test_sampling_consistent_with_exact():
    exact = expectation_product(6, 2, 3, 3).value  # 14464
    est = estimate_moments(EnsembleSpec(6, 2, seed=12), 3, 3, samples=1500)
    assert est.mode == "sampling"
    assert abs(est.product.mean - float(exact)) <= 3 * est.product.stderr


def test_seeded_determinism():
    spec = EnsembleSpec(6, 2, seed=99)
    a = estimate_moments(spec, 3, 3, samples=300)
    b = estimate_moments(spec, 3, 3, samples=300)
    assert a == b


def reference_estimates(xs, ys, n):
    """The three estimates from per-sample values of perm_m and perm_m2."""
    columns = (xs, ys, [x * y for x, y in zip(xs, ys)])
    return [_make_estimate(sum(vals), sum(v * v for v in vals), len(xs), n)
            for vals in columns]


@pytest.mark.parametrize("n, r, m, m2, samples", [
    (6, 3, 2, 4, block_size(6) + 1),  # one sample past the first DP block
    (10, 3, 5, 4, block_size(10) + 6),  # DP blocks held at 64 matrices
    (13, 3, 6, 7, 4),  # DP blocks of one matrix
    (4, 3, 2, 2, 1500),  # one DP block per pass: ends part way through the second
    # a DP block of 2048 matrices cut by passes of 1024, below the 1296 tuples
    (3, 4, 1, 2, 1100),
    # r = 2 counts samples per cycle type of P1^-1 P2: its tally against
    # the per-sample DP, from few cycle types to about one per sample
    (5, 2, 2, 3, 301),
    (8, 2, 4, 3, 150),
    (10, 2, 5, 4, block_size(10) + 6),
    (13, 2, 6, 7, 4),
    (6, 2, 3, 3, 2300),  # sampler passes of 1024: ends in the third pass
    # r = 1 draws no sample: every permutation matrix has perm_m = C(n, m)
    (7, 1, 2, 4, 300),
])
def test_blocked_sampling_matches_per_sample_reference(n, r, m, m2, samples):
    spec = EnsembleSpec(n, r, seed=7)
    profiles = [_pykernels.subperm_profile(sample_matrix(spec, i).entries, n)
                for i in range(samples)]
    want = reference_estimates([p[m] for p in profiles], [p[m2] for p in profiles], n)

    est = estimate_moments(spec, m, m2, samples)
    assert est.mode == "sampling"
    assert [est.first, est.second, est.product] == want


@pytest.mark.parametrize("n, m, m2, samples",
                         [(6, 3, 3, 2300), (9, 4, 5, 700), (6, 3, 3, 30000)])
def test_r2_samplers_match_dp_reference(monkeypatch, n, m, m2, samples):
    # the reference: the block pass's permutations, profiled by the subset DP
    spec = EnsembleSpec(n, 2, seed=11)
    perms = sample_block(spec, 0, samples)
    mats = np.zeros((samples, n, n), dtype=np.int64)
    for k in range(2):
        mats[np.arange(samples)[:, None], np.arange(n), perms[:, k]] += 1
    profiles = kernels.subperm_profiles(mats, n, 2)
    want = reference_estimates(profiles[m], profiles[m2], n)

    # r = 2 reads classes with model.sample_classes at every length (30,000
    # samples at n = 6 are 300,000 shuffle draws): the block pass is removed
    monkeypatch.setattr(montecarlo, "sample_block", None)
    est = estimate_moments(spec, m, m2, samples)
    assert [est.first, est.second, est.product] == want


def test_convergence_scan_rows():
    rows = convergence_scan(2, 0.5, 0.5, [2, 4], samples=1000, seed=3)
    assert [row.n for row in rows] == [2, 4]
    assert rows[0].m == 1 and rows[1].m == 2
    # the whole space fits under the sample budget at these sizes
    assert all(row.mode == "enumeration" for row in rows)
    want = 2 * single_rate_limit(0.5, 2)
    assert all(abs(row.prediction - want) < 1e-15 for row in rows)
    assert all(abs(row.gap - (row.prediction - row.log_mean_over_n)) < 1e-15
               for row in rows)


def test_convergence_scan_single_rate_when_q_zero():
    rows = convergence_scan(2, 0.5, 0.0, [3], samples=50, seed=3)
    assert rows[0].m2 == 0
    assert abs(rows[0].prediction - single_rate_limit(0.5, 2)) < 1e-15
    # perm_0 = 1, so the product reduces to the single moment
    want = ensemble_average_bruteforce(3, 2, 2, 0)
    assert rows[0].mean_exact == want.value


def test_convergence_scan_deterministic():
    a = convergence_scan(2, 0.5, 0.5, [5], samples=150, seed=8)
    b = convergence_scan(2, 0.5, 0.5, [5], samples=150, seed=8)
    assert a == b
