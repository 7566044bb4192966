import itertools
import math
import sys
import time
from collections import Counter

import pytest

from permex import (
    CapacityError,
    DomainError,
    EnsembleSpec,
    SquareMatrix,
    assemble_matrix,
    enumerate_tuples,
    sample_matrix,
    sample_permutation,
    sample_stream,
    tuple_count,
)
from permex import kernels, model
from permex.model import sample_permutations


def _samples(spec, start, count):
    """The samples sample_permutations yields, as a list."""
    return list(sample_permutations(spec, start, count))


def _stream_block(spec, start, count):
    """sample_permutations' samples, drawn one sample_stream at a time."""
    out = []
    for i in range(start, start + count):
        rng = sample_stream(spec, i)
        out.append([list(sample_permutation(spec.n, rng)) for _ in range(spec.r)])
    return out


def _classes(samples):
    """Counter of the sorted cycle lengths of P1^-1 P2 over (P1, P2) samples."""
    tally = Counter()
    for p1, p2 in samples:
        inverse = [0] * len(p1)
        for row, col in enumerate(p1):
            inverse[col] = row
        sigma = [inverse[col] for col in p2]
        lengths = []
        for first in range(len(sigma)):
            length, i = 0, first
            while sigma[i] is not None:
                sigma[i], i = None, sigma[i]
                length += 1
            if length:
                lengths.append(length)
        tally[tuple(sorted(lengths))] += 1
    return tally


def test_spec_validation():
    with pytest.raises(DomainError):
        EnsembleSpec(n=0, r=1)
    with pytest.raises(DomainError):
        EnsembleSpec(n=1, r=0)
    with pytest.raises(DomainError):
        EnsembleSpec(n=1, r=1, seed=2**64)


def test_n1_identity_always():
    spec = EnsembleSpec(n=1, r=1, seed=123)
    for i in range(20):
        assert sample_permutation(1, sample_stream(spec, i)) == (0,)


def test_sampling_deterministic():
    spec = EnsembleSpec(n=2, r=2, seed=42)
    seq1 = [sample_matrix(spec, i).entries for i in range(30)]
    seq2 = [sample_matrix(spec, i).entries for i in range(30)]
    assert seq1 == seq2
    other = EnsembleSpec(n=2, r=2, seed=43)
    assert seq1 != [sample_matrix(other, i).entries for i in range(30)]


def test_stream_independent_of_draw_order():
    spec = EnsembleSpec(n=4, r=2, seed=9)
    forward = [sample_matrix(spec, i).entries for i in range(8)]
    backward = [sample_matrix(spec, i).entries for i in reversed(range(8))]
    assert forward == list(reversed(backward))


def test_permutation_frequencies_n3():
    # 3-sigma band per cell of the multinomial over all 6 permutations
    spec = EnsembleSpec(n=3, r=1, seed=2024)
    draws = 60000
    counts = {}
    for i in range(draws):
        p = sample_permutation(3, sample_stream(spec, i))
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for perm, c in counts.items():
        assert abs(c - expected) <= 3 * sigma, (perm, c)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 1000, 2**40])
def test_block_sampler_matches_stream(seed, start):
    for n in range(1, 15):
        for r in range(1, 6):
            spec = EnsembleSpec(n=n, r=r, seed=seed)
            assert _samples(spec, start, 5) == _stream_block(spec, start, 5)
    with pytest.raises(DomainError):
        _samples(EnsembleSpec(n=3, r=1), -1, 1)


def test_sampler_input_checks():
    spec = EnsembleSpec(n=3, r=2, seed=5)
    with pytest.raises(DomainError, match="sample_index must be >= 0"):
        sample_stream(spec, -1)
    with pytest.raises(DomainError, match="n must be >= 1"):
        sample_permutation(0, sample_stream(spec, 0))
    # sample indices are 64-bit Philox counters: the last one may be drawn,
    # a block running past it may not
    assert _samples(spec, 2**64 - 1, 1) == _stream_block(spec, 2**64 - 1, 1)
    with pytest.raises(DomainError, match="below 2\\^64"):
        _samples(spec, 2**64 - 1, 2)


def _log_lanes(monkeypatch):
    """Record the (start, samples, first block, blocks) of every _philox_lanes call."""
    calls = []
    philox = model._philox_lanes
    monkeypatch.setattr(model, "_philox_lanes",
                        lambda *args: calls.append(args[1:]) or philox(*args))
    return calls


def _check_refills(calls, start, count, blocks):
    """One call for all allotments, then each long sample's next blocks in order."""
    assert calls[0] == (start, count, 0, blocks)
    refills = {}
    for index, samples, block, width in calls[1:]:
        assert (samples, width) == (1, 1) and start <= index < start + count
        refills.setdefault(index, []).append(block)
    assert refills
    assert all(got == list(range(blocks, blocks + len(got))) for got in refills.values())


def test_block_sampler_refills_rows(monkeypatch):
    # 24 words (3 blocks) for 3 * 7 draws that take about 25 on average:
    # many samples run past their allotment, each after its own number of
    # rejections, and take their next blocks one at a time
    monkeypatch.setattr(model, "WORDS_PER_DRAW", 1)
    calls = _log_lanes(monkeypatch)
    spec = EnsembleSpec(n=8, r=3, seed=31)
    assert _samples(spec, 17, 200) == _stream_block(spec, 17, 200)
    _check_refills(calls, 17, 200, 3)


@pytest.mark.parametrize("seed", [0, 2718, 2**64 - 1])
def test_pure_sampler_matches_block_and_stream(seed):
    # runs of 600 and 1,100 samples are longer than one _philox_lanes call
    # (PHILOX_LANES // blocks samples)
    for n in (1, 2, 5, 8, 13, 24):
        spec = EnsembleSpec(n=n, r=2, seed=seed)
        for count in (3, 600, 1100):
            for start in (0, 2**64 - count):
                want = _samples(spec, start, count)
                assert want == _stream_block(spec, start, count)
                assert Counter(map(kernels.cycle_type, want)) == _classes(want)
    assert 600 > model.PHILOX_LANES // 2  # n = 5 takes 2 blocks a sample
    # at r = 3, n = 5 takes 3 blocks a sample and a call 341 samples
    spec = EnsembleSpec(n=5, r=3, seed=seed)
    for count in (600, 1100):
        assert _samples(spec, 2**64 - count, count) == _stream_block(spec, 2**64 - count, count)


def test_pure_sampler_input_checks():
    spec = EnsembleSpec(n=3, r=2, seed=5)
    assert _samples(spec, 10, 0) == []
    # a sample of more than PHILOX_LANES blocks (1,025) takes a call of its own
    wide = EnsembleSpec(n=2051, r=2, seed=5)
    assert _samples(wide, 0, 2) == _stream_block(wide, 0, 2)
    with pytest.raises(DomainError, match="start >= 0"):
        _samples(spec, -1, 1)
    with pytest.raises(DomainError, match="start >= 0"):
        _samples(spec, 0, -1)


def test_pure_sampler_reads_past_first_block(monkeypatch):
    # 16 words (2 blocks) for 2 * 7 draws that take about 16.8 on average
    monkeypatch.setattr(model, "WORDS_PER_DRAW", 1)
    calls = _log_lanes(monkeypatch)
    spec = EnsembleSpec(n=8, r=2, seed=31)
    assert _samples(spec, 17, 200) == _stream_block(spec, 17, 200)
    _check_refills(calls, 17, 200, 2)


@pytest.mark.parametrize(
    "perms,expected",
    [
        ([(0, 1, 2)], ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ([(0, 1), (0, 1)], ((2, 0), (0, 2))),
        ([(0, 1), (1, 0)], ((1, 1), (1, 1))),
    ],
)
def test_assemble_examples(perms, expected):
    assert assemble_matrix(perms).entries == expected


def test_assemble_rejects_bad_input():
    with pytest.raises(DomainError):
        assemble_matrix([(0, 1), (0, 1, 2)])
    with pytest.raises(DomainError):
        assemble_matrix([(0, 0)])
    with pytest.raises(DomainError):
        assemble_matrix([])


def test_line_sums_equal_r():
    for n, r in [(3, 1), (4, 2), (5, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=5)
        for i in range(10):
            mat = sample_matrix(spec, i)
            assert tuple(map(sum, mat.entries)) == (r,) * n
            assert tuple(map(sum, zip(*mat.entries))) == (r,) * n


@pytest.mark.parametrize("n,r,count", [(2, 1, 2), (3, 2, 36), (4, 2, 576)])
def test_enumerate_tuple_counts(n, r, count):
    tuples = list(enumerate_tuples(n, r))
    assert len(tuples) == count == tuple_count(n, r)
    assert len(set(tuples)) == count


def test_enumerate_lexicographic():
    tuples = list(enumerate_tuples(2, 2))
    perms = list(itertools.permutations(range(2)))
    assert tuples == [(a, b) for a in perms for b in perms]


def test_enumerate_domain():
    with pytest.raises(DomainError, match="need n >= 1 and r >= 1"):
        enumerate_tuples(0, 1)


def test_enumerate_budget():
    with pytest.raises(CapacityError) as err:
        list(enumerate_tuples(5, 3, budget=1000))
    assert "n=5" in str(err.value) and "r=3" in str(err.value)
    # (3!)^(10^8) is never built: the refusal is immediate
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"\(n=3, r=100000000\) exceed budget 100000000"):
        enumerate_tuples(3, 10**8)
    assert time.perf_counter() - start < 1


def test_tuple_count_is_the_power_capped_at_limit():
    # r = 0 is the oracle's r = 2 path: (n!)^(r - 2) at r = 2
    for n in range(1, 7):
        for r in range(7):
            exact = math.factorial(n) ** r
            assert tuple_count(n, r) == exact
            for limit in {0, 1, exact - 1, exact, exact + 1, 10**8}:
                assert tuple_count(n, r, limit) == min(exact, limit + 1), (n, r, limit)


def test_tuple_count_caps_without_building_the_power():
    start = time.perf_counter()
    assert tuple_count(1, sys.maxsize, 0) == 1  # 1^r at any r
    assert tuple_count(1, sys.maxsize) == 1
    assert tuple_count(3, 10**8, 10**8) == 10**8 + 1
    assert tuple_count(10**6, 1, 10**8) == 10**8 + 1  # n! past 2^(n-1)
    assert tuple_count(20, 10**4, 10**300) == 10**300 + 1
    assert time.perf_counter() - start < 1


def test_matrix_validation():
    with pytest.raises(DomainError):
        SquareMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DomainError):
        SquareMatrix.from_rows([[1, -1], [0, 1]])
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        SquareMatrix(n=0, entries=())
