import functools
import itertools
import time
from math import comb, factorial

import numpy as np
import pytest

from permex import (
    CapacityError,
    DomainError,
    EnsembleSpec,
    SquareMatrix,
    assemble_matrix,
    ensemble_average_bruteforce,
    enumerate_tuples,
    sample_matrix,
    subpermanent_bruteforce,
    subpermanent_profile,
)
from permex import _pykernels, kernels, permanents
from permex.model import sample_permutations
from permex.permanents import DIM_LIMIT_DEFAULT, product_sum_table

IDENTITY3 = SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
ONES3 = SquareMatrix.from_rows([[1, 1, 1]] * 3)
ONES2 = SquareMatrix.from_rows([[1, 1], [1, 1]])
DIAG2 = SquareMatrix.from_rows([[2, 0], [0, 2]])
TOO_BIG = SquareMatrix.from_rows([[1] * (DIM_LIMIT_DEFAULT + 1)] * (DIM_LIMIT_DEFAULT + 1))


def perm_by_definition(mat):
    total = 0
    for sigma in itertools.permutations(range(mat.n)):
        prod = 1
        for i, j in enumerate(sigma):
            prod *= mat.entries[i][j]
        total += prod
    return total


def random_matrix(rng, n, max_entry=3):
    rows = [[int(rng.integers(0, max_entry + 1)) for _ in range(n)] for _ in range(n)]
    return SquareMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "mat,value", [(IDENTITY3, 1), (ONES3, 6), (DIAG2, 4)]
)
def test_permanent_examples(mat, value):
    # perm_n is the permanent itself
    assert subpermanent_profile(mat)[-1] == value


def test_permanent_matches_definition():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        mat = random_matrix(rng, n)
        assert subpermanent_profile(mat)[-1] == perm_by_definition(mat)


@pytest.mark.parametrize(
    "mat,values", [(ONES2, (1, 4, 2)), (DIAG2, (1, 4, 4))]
)
def test_profile_examples(mat, values):
    assert subpermanent_profile(mat) == values


def test_profile_basic_identities():
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        mat = random_matrix(rng, n)
        prof = subpermanent_profile(mat)
        assert prof[0] == 1
        assert prof[1] == sum(map(sum, mat.entries))
        assert prof[-1] == perm_by_definition(mat)


@pytest.mark.parametrize(
    "mat,m,value",
    [(ONES3, 2, 18), (ONES3, 0, 1), (IDENTITY3, 2, 3)],
)
def test_bruteforce_examples(mat, m, value):
    assert subpermanent_bruteforce(mat, m) == value


def test_profile_vs_bruteforce_spot():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        mat = random_matrix(rng, n)
        prof = subpermanent_profile(mat)
        for m in range(n + 1):
            assert prof[m] == subpermanent_bruteforce(mat, m)


def test_profile_capacity():
    with pytest.raises(CapacityError):
        subpermanent_profile(TOO_BIG)
    with pytest.raises(CapacityError):
        subpermanent_bruteforce(SquareMatrix.from_rows([[1] * 9] * 9), 2)


def test_bruteforce_domain():
    with pytest.raises(DomainError, match="m must be in 0..3"):
        subpermanent_bruteforce(ONES3, 4)
    # n = 0 passes check_moment's range check; the oracle table refuses it
    with pytest.raises(DomainError, match="need n >= 1 and r >= 1"):
        ensemble_average_bruteforce(0, 1, 0, 0)


def test_oracle_hand_values_n2_r2():
    assert ensemble_average_bruteforce(2, 2, 2, 0).value == 3
    assert ensemble_average_bruteforce(2, 2, 2, 2).value == 10
    assert ensemble_average_bruteforce(2, 2, 1, 1).value == 16


def test_oracle_term_count_and_denominator():
    m = ensemble_average_bruteforce(3, 2, 2, 1)
    assert m.term_count == 36
    assert factorial(3) ** 2 % m.value.denominator == 0


def test_profile_monotone_bound():
    for n, r in [(4, 2), (5, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=21)
        for i in range(5):
            mat = sample_matrix(spec, i)
            prof = subpermanent_profile(mat)
            assert prof[1] == r * n
            for m in range(n + 1):
                assert prof[m] <= comb(n, m) ** 2 * factorial(m) * r**m


@functools.cache
def full_enumeration_table(n, r):
    """The oracle table summed over every tuple with the reference kernel."""
    want = [[0] * (n + 1) for _ in range(n + 1)]
    for perms in enumerate_tuples(n, r):
        prof = _pykernels.subperm_profile(assemble_matrix(perms).entries, n)
        for m in range(n + 1):
            for m2 in range(n + 1):
                want[m][m2] += prof[m] * prof[m2]
    return want


def test_oracle_matches_full_enumeration():
    # The orbit sum fixes P1 = I and takes P2 per cycle type; summing over
    # every tuple checks that reduction independently.  The last four tally
    # many matrices into few distinct profiles ((1, 12): one matrix, [[12]]).
    cases = ([(n, r) for n in range(1, 5) for r in range(1, 4)]
             + [(5, 2), (3, 4), (3, 5), (2, 6), (1, 12)])
    for n, r in cases:
        assert product_sum_table(n, r) == full_enumeration_table(n, r), (n, r)


@pytest.mark.parametrize("n, r", [(4, 3), (3, 4), (5, 2)])
def test_oracle_blocks_end_part_way(monkeypatch, n, r):
    # Blocks of 5 end inside a head's run of tails and across heads; these
    # tables are small enough for the pure path, so numpy's is forced.
    monkeypatch.setattr(kernels, "PURE_ORACLE_CELLS", 0)
    monkeypatch.setattr(kernels, "block_size", lambda n: 5)
    monkeypatch.setattr(permanents, "_table_cache", {})
    assert product_sum_table(n, r) == full_enumeration_table(n, r)


# Every table the pure-path rule takes with n <= 5 (n = 1 for r <= 12,
# where each table is one 1 x 1 matrix).  Beside them, (5, 3) is left to
# numpy and (6, 2) is pure.
PURE_RULE_TABLES = [(n, r) for n in range(1, 6) for r in range(1, 13)
                    if kernels.oracle_cells(n, r) <= kernels.PURE_ORACLE_CELLS]


@pytest.mark.parametrize("n, r", PURE_RULE_TABLES + [(5, 3), (6, 2)])
def test_oracle_paths_agree(monkeypatch, n, r):
    def forced(bound):
        monkeypatch.setattr(kernels, "PURE_ORACLE_CELLS", bound)
        monkeypatch.setattr(permanents, "_table_cache", {})
        return product_sum_table(n, r)

    numpy_table = forced(0)
    # the pure path profiles with the reference DP alone
    for name in ("subperm_profile", "subperm_profiles"):
        monkeypatch.setattr(kernels, name, None)
    assert forced(1 << 40) == numpy_table


def test_oracle_budget_counts_evaluated_matrices(monkeypatch):
    # (5, 3) sums over (5!)^3 tuples but evaluates p(5) * 5! = 840 matrices,
    # each a DP over 2^5 states; the budget is on those 26,880 cells, at
    # both edges.  A cached table would skip the evaluation, not the budget
    # check.
    monkeypatch.setattr(permanents, "_table_cache", {})
    assert kernels.oracle_matrix_count(5, 3) == 7 * 120
    assert kernels.oracle_matrix_count(5, 1) == 1
    assert kernels.oracle_cells(5, 3) == 7 * 120 * 32
    moment = ensemble_average_bruteforce(5, 3, 1, 1, tuple_budget=26_880)
    assert moment.term_count == factorial(5) ** 3
    with pytest.raises(CapacityError):
        ensemble_average_bruteforce(5, 3, 1, 1, tuple_budget=26_879)


@pytest.mark.parametrize("n", range(1, 10))
def test_cycle_classes_cover_the_group(n):
    # one representative per partition of n, of that cycle type; the class sizes sum to n!
    classes = list(kernels._cycle_classes(n))
    types = []
    for rep, _ in classes:
        assert sorted(rep) == list(range(n))
        seen, lengths = set(), []
        for start in range(n):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i, length = rep[i], length + 1
            if length:
                lengths.append(length)
        types.append(sorted(lengths))
    assert types == [[part for part in split if part] for split in kernels.rising_splits(n, n)]
    assert sum(size for _, size in classes) == factorial(n)


def test_oracle_cells_exact_up_to_limit():
    # exact whenever the count fits the limit, and above the limit otherwise
    for n in range(1, 7):
        for r in range(1, 6):
            cells = kernels.oracle_cells(n, r)
            assert cells == kernels.oracle_matrix_count(n, r) << n
            for limit in {0, 1, cells - 1, cells, cells + 1, 10**8}:
                capped = kernels.oracle_cells(n, r, limit)
                assert (capped == cells) if cells <= limit else (capped > limit), (n, r, limit)


def test_oracle_refuses_huge_r_at_once():
    # neither (3!)^(10^8 - 2) nor a loop over r is run: the refusal is immediate
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="exceed budget 100000000"):
        product_sum_table(3, 10**8)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", range(1, 10))
def test_cycle_profile_matches_reference(n):
    # each class representative was built from its rising split, whose
    # nonzero parts are its cycle type (test_cycle_classes_cover_the_group)
    for (rep, _), split in zip(kernels._cycle_classes(n), kernels.rising_splits(n, n)):
        head = [[int(i == j) + (j == rep[i]) for j in range(n)] for i in range(n)]
        parts = [part for part in split if part]
        assert kernels.cycle_profile(parts) == _pykernels.subperm_profile(head, n)
        assert kernels.cycle_profile(parts[::-1]) == kernels.cycle_profile(parts)


def test_cycle_profile_of_sampled_matrices():
    # P1 + P2 has the profile of the cycle type of P1^-1 P2
    count = 3
    for n in (12, 16):
        spec = EnsembleSpec(n=n, r=2, seed=n)
        samples = list(sample_permutations(spec, 0, count))
        mats = [assemble_matrix(sample).entries for sample in samples]
        profiles = kernels.subperm_profiles(mats, n, 2)
        for b, sample in enumerate(samples):
            parts = kernels.cycle_type(sample)
            assert sum(parts) == n
            assert kernels.cycle_profile(parts) == [column[b] for column in profiles]


@pytest.mark.parametrize("perms, parts", [
    (([2, 0, 1], [2, 0, 1]), (1, 1, 1)),  # equal pairs: sigma is the identity
    (([0, 1, 2, 3], [1, 2, 0, 3]), (1, 3)),  # P1 = I: the cycle type of P2
    (([0, 1, 2], [1, 0, 2]), (1, 2)),  # one transposition
    (([3, 1, 0, 2], [3, 0, 1, 2]), (1, 1, 2)),  # P2 = P1 with two rows swapped
    (([0], [0]), (1,)),  # n = 1
])
def test_cycle_type_hand_cases(perms, parts):
    assert kernels.cycle_type(perms) == parts


def test_oracle_matrix_count_is_partition_count():
    # at r = 2 the oracle evaluates one matrix per cycle type: p(n)
    p = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert [kernels.oracle_matrix_count(n, 2) for n in range(1, 13)] == p


def test_oracle_dimension_limit():
    # one matrix at r = 1: its 2^25 DP cells fit the default budget, but
    # its DP holds more than 2^24 states
    with pytest.raises(CapacityError):
        product_sum_table(DIM_LIMIT_DEFAULT + 1, 1)


def test_oracle_budget_checked_on_cache_hit():
    ensemble_average_bruteforce(4, 3, 1, 1)
    with pytest.raises(CapacityError):
        ensemble_average_bruteforce(4, 3, 1, 1, tuple_budget=10)


def assert_batch_matches_reference(mats, n, max_entry):
    profiles = kernels.subperm_profiles(mats, n, max_entry)
    assert len(profiles) == n + 1
    for b, rows in enumerate(mats.tolist()):
        assert [column[b] for column in profiles] == _pykernels.subperm_profile(rows, n)


@pytest.mark.parametrize("mode", ["auto", "pure"])
def test_batched_profiles_match_reference(monkeypatch, mode):
    if mode == "pure":  # no bound certifies int64, so every block runs on Python ints
        monkeypatch.setattr(kernels, "I64_SAFE_BOUND", 0)
    rng = np.random.default_rng(21)
    for n in range(1, 10):
        assert kernels.profile_backend_name(n, 3) == ("int64" if mode == "auto" else "pure")
        for block in (1, 3, 11):
            mats = rng.integers(0, 4, size=(block, n, n))
            assert_batch_matches_reference(mats, n, 3)


def test_batched_profiles_beyond_int64():
    rng = np.random.default_rng(22)
    big = 1 << 40
    for n in (2, 4, 6):
        assert kernels.profile_backend_name(n, big) == "pure"
        mats = rng.integers(big - 8, big + 1, size=(5, n, n))
        assert max(kernels.subperm_profiles(mats, n, big)[n]) >= 1 << 63
        assert_batch_matches_reference(mats, n, big)


def test_backend_name_reports_certified_arithmetic():
    assert kernels.profile_backend_name(6, 2) == "int64"
    assert kernels.profile_backend_name(6, 1 << 40) == "pure"


def test_product_table_cached_and_symmetric():
    table = product_sum_table(3, 2)
    assert table is product_sum_table(3, 2)
    for m in range(4):
        for m2 in range(4):
            assert table[m][m2] == table[m2][m]
