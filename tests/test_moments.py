import itertools
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial, perm, prod

import pytest

from permex import (
    CapacityError,
    ColorProfile,
    DomainError,
    argmax_profile,
    ensemble_average_bruteforce,
    expectation_perm,
    expectation_product,
    product_table,
    profile_iterator,
    validate_profile,
)
from permex import moments
from permex.cli import SUITES
from permex.kernels import rising_splits
from permex.moments import (
    _base_integer,
    _capped_compositions,
    _column_sums,
    _dup_integer,
    _host_integer,
    _loads,
    _offdiag_matrices,
    _offdiag_rowsum_matrices,
)


def zeros(r):
    return tuple((0,) * r for _ in range(r))


def make_profile(r, base, fresh=None, dup=None, row_hits=None, col_hits=None,
                 cross_rows=None, cross_cols=None):
    return ColorProfile(
        base=tuple(base),
        fresh=tuple(fresh) if fresh else (0,) * r,
        dup=tuple(dup) if dup else (0,) * r,
        row_hits=row_hits or zeros(r),
        col_hits=col_hits or zeros(r),
        cross_rows=cross_rows or zeros(r),
        cross_cols=cross_cols or zeros(r),
    )


# ---------------------------------------------------------------------------
# single-moment formula


def test_expectation_perm_examples():
    assert expectation_perm(4, 3, 0).value == 1
    assert expectation_perm(3, 2, 1).value == 6
    assert expectation_perm(2, 2, 2).value == 3


def test_expectation_perm_term_count():
    assert expectation_perm(4, 2, 3).term_count == 4
    assert expectation_perm(5, 3, 2).term_count == 6
    # one term per color split, counted without enumerating the splits
    assert expectation_perm(40, 12, 20).term_count == 84_672_315


def test_expectation_perm_domain():
    with pytest.raises(DomainError):
        expectation_perm(3, 2, 4)
    with pytest.raises(DomainError):
        expectation_perm(3, 2, -1)
    # past sys.maxsize math.factorial cannot take n: a capacity refusal
    with pytest.raises(CapacityError):
        expectation_perm(sys.maxsize + 1, 2, 2)


def test_expectation_perm_at_huge_n():
    # E(perm_2) at r = 2 is (n - 1)(2n - 1): the sum never builds n!
    for n in (10**6, sys.maxsize):
        assert expectation_perm(n, 2, 2).value == (n - 1) * (2 * n - 1)


def test_expectation_perm_r1_is_binomial():
    # a single permutation matrix has C(n, m) placements of every size
    for n in range(1, 6):
        for m in range(n + 1):
            assert expectation_perm(n, 1, m).value == comb(n, m)


def _expectation_perm_by_convolutions(n, r, m):
    """E(perm_m) as r - 1 binomial convolutions of a_j = (n - j)!/(n - m)!."""
    a = [perm(n - j, m - j) for j in range(m + 1)]
    power = a
    for _ in range(r - 1):
        power = [sum(comb(k, j) * power[j] * a[k - j] for j in range(k + 1))
                 for k in range(m + 1)]
    return Fraction(comb(n, m) ** 2 * factorial(m) * power[m], perm(n, m) ** r)


def test_expectation_perm_equals_the_r_fold_convolution():
    # the binomial expansion in r sums min(m, r) powers of h, not r - 1
    # convolutions of a; both must give the same Fraction
    for n in range(13):
        for r in range(1, 9):
            for m in range(n + 1):
                want = _expectation_perm_by_convolutions(n, r, m)
                assert expectation_perm(n, r, m).value == want, (n, r, m)


# ---------------------------------------------------------------------------
# profile iterator


def test_iterator_counts():
    assert len(list(profile_iterator(2, 2, 0, 0))) == 1
    assert len(list(profile_iterator(2, 2, 2, 0))) == 3
    profiles = list(profile_iterator(1, 1, 1, 1))
    assert len(profiles) == 1
    assert profiles[0].base == (1,)
    assert profiles[0].dup == (1,)


def test_iterator_profiles_all_valid_and_distinct():
    for n, r, m, m2 in [(3, 2, 2, 2), (2, 3, 1, 2), (4, 2, 3, 2), (3, 3, 3, 3)]:
        seen = set()
        for profile in profile_iterator(n, r, m, m2):
            validate_profile(profile, n, r, m, m2)
            assert profile not in seen
            seen.add(profile)


def test_validator_rejects_unbalanced_cross():
    bad = make_profile(
        2, base=(1, 1),
        cross_rows=((0, 1), (0, 0)),
        cross_cols=((0, 0), (0, 0)),
    )
    with pytest.raises(DomainError):
        validate_profile(bad, 2, 2, 2, 1)


# ---------------------------------------------------------------------------
# the seven factors, on hand-built profiles


def test_factor_base_examples():
    def base(b, n, r, m):
        return Fraction(_base_integer(b, n, m), factorial(n) ** r)

    assert base((1, 1), 2, 2, 2) == 1
    assert base((0,), 2, 1, 0) == Fraction(1, 2)
    assert base((2, 0), 2, 2, 2) == Fraction(1, 2)


def test_factor_fresh_examples():
    # fresh cells are a placement on the (n - m) x (n - m) free board: n = 3, m = 1
    assert _base_integer((0, 0), 3 - 1, 0) == 1
    assert _base_integer((1, 0), 3 - 1, 1) == 4
    assert _base_integer((1, 1), 3 - 1, 2) == 4


def test_factor_dup_examples():
    assert _dup_integer((2, 1), (0, 0)) == 1
    assert _dup_integer((2,), (1,)) == 2
    assert _dup_integer((2, 1), (1, 1)) == 2


def test_factor_row_hits_examples():
    # a hit factor is perm(free, T) * _host_integer over the undup'd base lines
    # n = 3, m = 2, no fresh cells: one free column and nothing to place
    assert perm(1, 0) * _host_integer([1, 1], [1, 1], zeros(2)) == 1
    # n = 3, m = 1: one color-0 row hit on color 1's row, two free columns
    hits = ((0, 1), (0, 0))
    assert perm(2, 1) * _host_integer([0, 1], [0, 0], hits) == 2


def test_factor_col_hits_mirrors_row_hits():
    # swapping rows and columns swaps the row-hit and col-hit factors and
    # the two cross host factors, so every term is unchanged
    checked = 0
    for profile in profile_iterator(4, 2, 3, 3):
        swapped = ColorProfile(
            base=profile.base, fresh=profile.fresh, dup=profile.dup,
            row_hits=profile.col_hits, col_hits=profile.row_hits,
            cross_rows=profile.cross_cols, cross_cols=profile.cross_rows,
        )
        assert reference_term(swapped, 4, 3) == reference_term(profile, 4, 3)
        checked += 1
        if checked >= 100:
            break
    assert checked == 100


def test_factor_cross_examples():
    assert _host_integer((1, 1), (1, 1), zeros(2)) == 1
    cross = ((0, 1), (0, 0))
    assert _host_integer((1, 1), (1, 0), cross) == 1


def test_factor_completion_examples():
    def completion(profile, n):
        return prod(factorial(n - load) for load in _loads(profile))

    assert completion(make_profile(2, (0, 0)), 2) == 4
    assert completion(make_profile(2, (2, 0)), 2) == 2


def reference_term(p, n, m):
    """The seven factors written out in binomials and factorials, one by one."""
    r = len(p.base)

    def multinomial(parts):
        return factorial(sum(parts)) // prod(map(factorial, parts))

    def hosts(mat):
        """Split the cells standing on each host color's lines by their color."""
        return prod(multinomial([mat[i][k] for i in range(r)]) for k in range(r))

    def choose_lines(caps, mat):
        return prod(comb(caps[k], sum(mat[i][k] for i in range(r))) for k in range(r))

    a = sum(p.fresh)
    free = n - m - a
    undup = [b - e for b, e in zip(p.base, p.dup)]
    rows_left = [u - sum(p.row_hits[i][k] for i in range(r)) for k, u in enumerate(undup)]
    cols_left = [u - sum(p.col_hits[i][k] for i in range(r)) for k, u in enumerate(undup)]
    base = comb(n, m) ** 2 * factorial(m) * multinomial(p.base)
    fresh = comb(n - m, a) ** 2 * factorial(a) * multinomial(p.fresh)
    dup = prod(comb(b, e) for b, e in zip(p.base, p.dup))

    def hit_factor(mat):
        """Fresh lines for the hits, in order, then their host lines."""
        t = sum(map(sum, mat))
        return comb(free, t) * factorial(t) * choose_lines(undup, mat) * hosts(mat)

    row_hits, col_hits = hit_factor(p.row_hits), hit_factor(p.col_hits)
    cross = (prod(factorial(sum(row)) for row in p.cross_rows)
             * choose_lines(rows_left, p.cross_rows) * hosts(p.cross_rows)
             * choose_lines(cols_left, p.cross_cols) * hosts(p.cross_cols))
    loads = [p.base[i] + p.fresh[i] + sum(p.row_hits[i]) + sum(p.col_hits[i])
             + sum(p.cross_rows[i]) for i in range(r)]
    completion = prod(factorial(n - load) for load in loads)
    return base * fresh * dup * row_hits * col_hits * cross * completion


# ---------------------------------------------------------------------------
# product formula against the brute-force oracle


def test_product_oracle_equality_small():
    for n in (1, 2, 3):
        for r in (1, 2):
            for m in range(n + 1):
                for m2 in range(m, n + 1):
                    got = expectation_product(n, r, m, m2)
                    want = ensemble_average_bruteforce(n, r, m, m2)
                    assert got.value == want.value, (n, r, m, m2)


def test_product_known_values():
    assert expectation_product(2, 2, 2, 0).value == 3
    assert expectation_product(2, 2, 1, 1).value == 16
    assert expectation_product(2, 2, 2, 2).value == 10


def test_product_symmetry():
    # the profile decomposition is oriented, so only the values must match
    for m, m2 in [(1, 3), (0, 2), (2, 4)]:
        a = expectation_product(4, 2, m, m2)
        b = expectation_product(4, 2, m2, m)
        assert a.value == b.value


def test_product_reduces_to_single():
    for n, r in [(3, 2), (4, 2), (3, 3)]:
        for m in range(n + 1):
            assert expectation_product(n, r, m, 0).value == expectation_perm(n, r, m).value


def test_product_oracle_equality_larger():
    # beyond the oracle-product suite: tables of 1,399, 7,920 and 100,800
    # matrices, then every m <= m2 at r = 5, 6, 7 and 12 (69,120, 3,888,
    # 23,328 and 2,048 matrices)
    points = [(8, 2, 4, 4), (6, 3, 3, 3), (5, 4, 2, 3)]
    points += [(n, r, m, m2) for n, r in [(4, 5), (3, 6), (3, 7), (2, 12)]
               for m in range(n + 1) for m2 in range(m, n + 1)]
    assert len(points) == 3 + 41
    for point in points:
        got = expectation_product(*point)
        assert got.value == ensemble_average_bruteforce(*point).value, point


def cycle_index_product(n, m, m2):
    """E(perm_m perm_m2) at r = 2 from the cycle index of S_n, without profiles.

    perm_m is invariant under row and column permutations, so A = P1 + P2 may
    be taken with P1 = I and P2 = sigma uniform.  A sigma-cycle of length c is
    then a 2c-cycle of the row-column graph, with (2c / (2c - k)) C(2c - k, k)
    k-matchings (at c = 1 the entry 2: g_1 = 1 + 2z).  Choosing the cycle of
    the first element, G_j = sum_c (j - 1)!/(j - c)! g_c(z) g_c(w) G_(j - c),
    truncated at z^m w^m2, and E = G_n[m][m2] / n!.
    """

    def times_g(poly, c):  # poly * g_c(z) g_c(w), truncated
        g = [2 * c * comb(2 * c - k, k) // (2 * c - k) for k in range(c + 1)]
        out = [[0] * (m2 + 1) for _ in range(m + 1)]
        for i, j in itertools.product(range(m + 1), range(m2 + 1)):
            for a, b in itertools.product(range(min(c, m - i) + 1), range(min(c, m2 - j) + 1)):
                out[i + a][j + b] += poly[i][j] * g[a] * g[b]
        return out

    G = [[[int(i == j == 0) for j in range(m2 + 1)] for i in range(m + 1)]]
    for j in range(1, n + 1):
        G.append([[0] * (m2 + 1) for _ in range(m + 1)])
        for c in range(1, j + 1):
            term = times_g(G[j - c], c)
            for i, k in itertools.product(range(m + 1), range(m2 + 1)):
                G[j][i][k] += perm(j - 1, c - 1) * term[i][k]
    return Fraction(G[n][m][m2], factorial(n))


def test_product_r2_cycle_index():
    # an r = 2 reference independent of profiles and of the oracle, checked
    # against the oracle first, then against the product sum beyond its
    # reach; product_table's recurrence is checked against all three
    for n in range(1, 8):
        table = product_table(n, 2, n, n)
        for m, m2 in itertools.product(range(n + 1), repeat=2):
            want = ensemble_average_bruteforce(n, 2, m, m2).value
            assert cycle_index_product(n, m, m2) == want == table[m][m2], (n, m, m2)
    for n, m, m2 in [(16, 8, 8), (17, 6, 9), (18, 9, 9)]:
        value = expectation_product(n, 2, m, m2).value
        assert value == cycle_index_product(n, m, m2), (n, m, m2)
        assert value == product_table(n, 2, m, m2)[m][m2], (n, m, m2)


def test_product_table_corners_and_r1():
    # a table cut at (m_max, m2_max) is that corner of the full table, at
    # every r, and r = 1 is the oracle's C(n, m) C(n, m2)
    for n in range(6):
        for r in (1, 2, 3):
            full = product_table(n, r, n, n)
            for m_max, m2_max in itertools.product(range(n + 1), repeat=2):
                assert product_table(n, r, m_max, m2_max) == [
                    row[:m2_max + 1] for row in full[:m_max + 1]], (n, r, m_max, m2_max)
            if n and r <= 2:
                assert full == [[ensemble_average_bruteforce(n, r, m, m2).value
                                 for m2 in range(n + 1)] for m in range(n + 1)]


def test_product_table_at_large_n():
    # far past the profile sum: symmetric, and its m2 = 0 column is E(perm_m)
    for r, n, top in [(2, 100, 50), (3, 100, 4)]:
        table = product_table(n, r, top, top)
        assert all(table[m][m2] == table[m2][m] for m in range(top + 1) for m2 in range(top + 1))
        assert [row[0] for row in table] == [expectation_perm(n, r, m).value
                                             for m in range(top + 1)]
        # perm_1 is the sum of A's entries, rn for every A = P1 + .. + Pr
        assert product_table(n, r, 1, 1)[1][1] == (r * n) ** 2


def test_product_table_domain():
    with pytest.raises(DomainError):
        product_table(4, 2, 5, 0)
    with pytest.raises(CapacityError):
        product_table(2**64, 2, 1, 1)
    assert all(product_table(0, r, 0, 0) == [[1]] for r in (1, 2, 3))


def test_product_table_refuses_past_its_state_budget(monkeypatch):
    # the r >= 3 table bounds the coefficients it would keep before it
    # builds any: 82,059,171 at (40, 3, 20, 20), and exactly 1,935 at (4, 3, 4, 4)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="82059171 coefficients, over budget 200000"):
        product_table(40, 3, 20, 20)
    assert time.perf_counter() - start < 1
    assert moments._table_state_bound(3, 4, 4, 4) == 1935
    full = product_table(4, 3, 4, 4)
    monkeypatch.setattr(moments, "TABLE_STATE_BUDGET", 1935)
    assert product_table(4, 3, 4, 4) == full
    monkeypatch.setattr(moments, "TABLE_STATE_BUDGET", 1934)
    with pytest.raises(CapacityError):
        product_table(4, 3, 4, 4)


def test_product_table_builds_only_the_paths_it_reads():
    # at m2_max = 0 only one-cell paths fit, so a long table over many colors
    # stays small: its bound is 125,995 and its column is E(perm_m)
    assert moments._table_state_bound(8, 12, 12, 0) == 125995
    start = time.perf_counter()
    table = product_table(12, 8, 12, 0)
    assert time.perf_counter() - start < 5
    assert [row[0] for row in table] == [expectation_perm(12, 8, m).value for m in range(13)]


def test_product_table_r3_equals_profile_sum():
    # the path/cycle table against the profile sum at every m and m2: n <= 5
    # at r = 3, n <= 4 at r = 4 and 5; symmetric, its m2 = 0 column E(perm_m)
    for r, top in [(3, 5), (4, 4), (5, 4)]:
        for n in range(top + 1):
            table = product_table(n, r, n, n)
            assert table == [[expectation_product(n, r, m, m2).value for m2 in range(n + 1)]
                             for m in range(n + 1)], (n, r)
            assert table == [list(col) for col in zip(*table)], (n, r)
            assert [row[0] for row in table] == [expectation_perm(n, r, m).value
                                                 for m in range(n + 1)], (n, r)


def test_product_table_r3_equals_oracle():
    for r in (3, 4):
        for n in range(1, 5):
            assert product_table(n, r, n, n) == [
                [ensemble_average_bruteforce(n, r, m, m2).value for m2 in range(n + 1)]
                for m in range(n + 1)], (n, r)


def test_path_cycle_table_at_r1_and_r2():
    # called directly, the r >= 3 routine gives r = 1's binomials and r = 2's
    # recurrence
    for r in (1, 2):
        for n in range(9):
            assert moments._path_cycle_table(n, r, n, n) == \
                product_table(n, r, n, n), (n, r)


def test_product_with_m_zero_is_single():
    # E(perm_0 perm_m) = E(perm_m); with m = 0 no line hosts a hit, so every
    # dup split whose slack needs hits is dropped before its fresh splits
    for n, r in [(4, 3), (6, 5), (5, 12)]:
        for m in range(n + 1):
            assert expectation_product(n, r, 0, m).value == expectation_perm(n, r, m).value


def profile_sum(n, r, m, m2):
    """The reference: every profile enumerated, its seven factors multiplied."""
    total = count = 0
    for profile in profile_iterator(n, r, m, m2):
        total += reference_term(profile, n, m)
        count += 1
    return Fraction(total, factorial(n) ** r), count


def test_product_collapse_matches_profile_sum():
    # r = 3 with m != m2, and r = 4, 5 (orbits of up to 12 color splits)
    for point in [(7, 3, 3, 4), (3, 4, 3, 3), (4, 4, 1, 3), (3, 5, 1, 3), (0, 3, 0, 0),
                  (3, 2, 2, 2), (4, 3, 2, 3)]:
        got = expectation_product(*point)
        assert (got.value, got.term_count) == profile_sum(*point), point
    # r = 2 at large n and the oracle-product suite: the value against the
    # oracle (the faster reference here), the count against the enumerator
    rows = SUITES["oracle-product"]()[0]
    points = [(row["n"], row["r"], row["m"], row["m2"]) for row in rows]
    assert len(points) == 123
    for point in points + [(14, 2, 7, 7), (12, 2, 6, 6)]:
        got = expectation_product(*point)
        assert got.value == ensemble_average_bruteforce(*point).value, point
        assert got.term_count == sum(1 for _ in profile_iterator(*point)), point


def test_product_domain_and_budget():
    with pytest.raises(DomainError):
        expectation_product(3, 2, 4, 0)
    with pytest.raises(CapacityError):
        expectation_product(4, 2, 3, 3, term_budget=10)
    # the budget bounds the raw profile count, orbit weights included
    count = expectation_product(4, 3, 2, 3).term_count
    assert count == 1173
    assert expectation_product(4, 3, 2, 3, term_budget=count).term_count == count
    with pytest.raises(CapacityError):
        expectation_product(4, 3, 2, 3, term_budget=count - 1)
    # tiny budgets also cap the cross-hit tables: every budget below the count refuses
    count = expectation_product(4, 2, 2, 2).term_count
    for budget in range(count):
        with pytest.raises(CapacityError):
            expectation_product(4, 2, 2, 2, term_budget=budget)
    # checked as the sum runs: refused long before the full sum would end
    with pytest.raises(CapacityError):
        expectation_product(16, 4, 8, 8, term_budget=1000)


@pytest.mark.parametrize("r", [32, 40])
def test_product_and_argmax_at_large_r(r):
    # the hit matrices have r(r - 1) cells, more than the default recursion
    # limit from r = 32; perm_1 is the entry total n*r, so E(perm_1^2) = (2r)^2
    assert expectation_product(2, r, 1, 1).value == (2 * r) ** 2
    profile, value = argmax_profile(2, r, 1, 1)
    assert sum(profile.base) == 1
    assert value > 0


def _depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("walk", ["expectation_product", "argmax_profile", "profile_iterator"])
def test_walk_depth_is_independent_of_r(walk):
    # the enumerators are loops: 30 frames past the caller's depth run any r
    # (the recursive ones needed 2r + 5); at n = 1 all r^2 profiles weigh 1.
    # Exhausting profile_iterator at r = 60 builds 3,600 profiles of four
    # 60 x 60 matrices (seconds); its first profile already nests as deep.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 30)
    try:
        for r in (2, 6, 20, 60):
            point = (1, r, 1, 1)
            if walk == "expectation_product":
                product = expectation_product(*point)
                assert (product.value, product.term_count) == (r * r, r * r)
            elif walk == "argmax_profile":
                profile, value = argmax_profile(*point)
                validate_profile(profile, *point)
                assert value == 1
            elif r < 60:
                assert sum(1 for _ in profile_iterator(*point)) == r * r
            else:
                validate_profile(next(profile_iterator(*point)), *point)
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("total", range(9))
def test_rising_splits_are_sorted_compositions(total):
    # argmax breaks ties in this order, so it is pinned against brute force
    for parts in range(1, 6):
        want = [c for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total and list(c) == sorted(c)]
        assert list(rising_splits(total, parts)) == want


def test_rising_splits_many_parts():
    assert list(rising_splits(1, 1000)) == [(0,) * 999 + (1,)]


@pytest.mark.parametrize("parts", range(1, 5))
def test_capped_compositions_lex_order(parts):
    for caps in itertools.product(range(4), repeat=parts):
        for total in range(sum(caps) + 2):
            want = [c for c in itertools.product(*(range(cap + 1) for cap in caps))
                    if sum(c) == total]
            assert list(_capped_compositions(total, caps)) == want


@pytest.mark.parametrize("r", range(1, 5))
def test_offdiag_rowsum_matrices_lex_order(r):
    # every off-diagonal matrix with row sums <= 2, in lex order, filtered
    # by each call's row sums and column caps, with the column caps it leaves
    rows = [[(*row[:i], 0, *row[i:]) for row in itertools.product(range(3), repeat=r - 1)
             if sum(row) <= 2] for i in range(r)]
    by_sums = {}
    for mat in itertools.product(*rows):
        by_sums.setdefault(tuple(map(sum, mat)), []).append((_column_sums(mat), mat))
    for sums in itertools.product(range(3), repeat=r):
        for caps in itertools.product(range(3), repeat=r):
            want = [(mat, tuple(cap - c for c, cap in zip(cols, caps)))
                    for cols, mat in by_sums.get(sums, [])
                    if all(c <= cap for c, cap in zip(cols, caps))]
            assert list(_offdiag_rowsum_matrices(r, sums, caps)) == want


@pytest.mark.parametrize("r, budget, caps", [(1, 3, (2,)), (2, 3, (1, 2)), (3, 2, (1, 0, 2)),
                                             (3, 4, (2, 2, 2)), (4, 2, (1, 1, 0, 2))])
def test_offdiag_matrices_lex_order(r, budget, caps):
    # every off-diagonal matrix within the budget and column caps, sorted,
    # with the column caps it leaves
    cells = [(i, k) for i in range(r) for k in range(r) if k != i]
    want = []
    for values in itertools.product(*(range(min(budget, caps[k]) + 1) for _, k in cells)):
        mat = [[0] * r for _ in range(r)]
        for (i, k), v in zip(cells, values):
            mat[i][k] = v
        cols = _column_sums(mat)
        if sum(values) <= budget and all(s <= c for s, c in zip(cols, caps)):
            want.append((tuple(map(tuple, mat)), tuple(c - s for s, c in zip(cols, caps))))
    assert list(_offdiag_matrices(r, budget, caps)) == sorted(want)


def test_empty_cross_table_composes_no_rows(monkeypatch):
    # row 0 must put 2 cells in columns 1 and 2, capped at 0: Hall's
    # condition fails, so no row composition is tried
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return compositions(*args)

    compositions = moments._capped_compositions
    monkeypatch.setattr(moments, "_capped_compositions", counted)
    assert list(_offdiag_rowsum_matrices(3, (2, 0, 0), (2, 0, 0))) == []
    assert calls == 0


@pytest.mark.parametrize("point", [(4, 2, 3, 3), (4, 3, 2, 3), (3, 4, 2, 2), (5, 2, 3, 4),
                                   (3, 3, 3, 3)])
def test_profile_iterator_order(point):
    # argmax breaks ties by this order, so it is pinned field by field
    profiles = list(profile_iterator(*point))

    def key(p):
        return (p.base, sum(p.fresh), p.fresh, p.dup, p.row_hits, p.col_hits,
                tuple(map(sum, p.cross_rows)), p.cross_rows, p.cross_cols)

    assert profiles == sorted(profiles, key=key)


@pytest.mark.parametrize("fn", [expectation_product, argmax_profile])
def test_refusal_draws_few_hit_matrices(monkeypatch, fn):
    # row and col hits share one list per dup split, filled only as far as it
    # is read: refusing must not first draw the millions of hit matrices of
    # the first dup split at r = 12
    drawn = 0
    offdiag = moments._offdiag_matrices

    def counted(*args):
        nonlocal drawn
        for mat in offdiag(*args):
            drawn += 1
            yield mat

    monkeypatch.setattr(moments, "_offdiag_matrices", counted)
    with pytest.raises(CapacityError):
        fn(24, 12, 12, 12, term_budget=1000)
    assert 0 < drawn < 100


@pytest.mark.parametrize("fn", [expectation_product, argmax_profile])
def test_budget_zero_refuses_before_any_work(monkeypatch, fn):
    # every input has a profile, so a budget below one is refused before the
    # walk builds the r (r - 1)-cell hit lists of (1, 1000, 1, 1)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return offdiag(*args)

    offdiag = moments._offdiag_matrices
    monkeypatch.setattr(moments, "_offdiag_matrices", counted)
    with pytest.raises(CapacityError, match="budget 0 at"):
        fn(1, 1000, 1, 1, term_budget=0)
    assert calls == 0


@pytest.mark.parametrize("fn", [expectation_product, argmax_profile])
def test_cross_tables_keep_no_matrices(fn):
    # a cross-hit table entry holds numbers, no matrix: one 60 x 60 matrix
    # per (dvec, caps) would peak near 2.3 MB here, growing as r^3; and a
    # refusal at r = 300 builds no cells of empty columns and no r zero rows
    # per matrix first (about 10 MB)
    tracemalloc.start()
    try:
        fn(1, 60, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CapacityError):
            fn(1, 300, 1, 1, term_budget=5)
        refusal_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert refusal_peak < 4 * 10**6


@pytest.mark.parametrize("fn", [expectation_product, argmax_profile])
def test_cross_table_stops_past_budget(monkeypatch, fn):
    # no small real input fills a cross-hit table past the budget, so every
    # table is made endless: each must stop one matrix past the budget, and
    # the walk must refuse rather than read the partial table
    drawn = []

    def endless(r, row_sums, col_caps):
        drawn.append(0)
        k = len(drawn) - 1
        while drawn[k] < 10**4:
            drawn[k] += 1
            yield zeros(r), tuple(col_caps)
        raise AssertionError("a cross-hit table drew 10^4 matrices")

    monkeypatch.setattr(moments, "_offdiag_rowsum_matrices", endless)
    with pytest.raises(CapacityError):
        fn(4, 3, 2, 2, term_budget=50)
    assert drawn and max(drawn) <= 51


# ---------------------------------------------------------------------------
# dominant-term structure


def test_argmax_trivial():
    profile, value = argmax_profile(2, 2, 0, 0)
    assert profile.base == (0, 0)
    assert sum(profile.fresh) + sum(profile.dup) == 0
    assert all(sum(map(sum, mat)) == 0 for mat in (
        profile.row_hits, profile.col_hits, profile.cross_rows, profile.cross_cols))
    assert value == Fraction(reference_term(profile, 2, 0), factorial(2) ** 2)


def test_argmax_balanced_at_n8():
    profile, value = argmax_profile(8, 2, 4, 4)
    assert abs(profile.base[0] - 2) <= 1
    assert abs(sum(map(sum, profile.row_hits)) - sum(map(sum, profile.col_hits))) <= 2
    assert value > 0


def reference_argmax(n, r, m, m2):
    """Every profile enumerated and its term written out; the first largest wins."""
    best, best_w = None, -1
    for profile in profile_iterator(n, r, m, m2):
        w = reference_term(profile, n, m)
        if w > best_w:
            best, best_w = profile, w
    return best, Fraction(best_w, factorial(n) ** r)


@pytest.mark.parametrize("point", [(4, 2, 2, 2), (4, 3, 2, 3), (3, 5, 1, 3), (6, 2, 3, 4),
                                   (5, 3, 2, 2), (4, 4, 2, 2)])
def test_argmax_matches_per_profile_reference(point):
    assert argmax_profile(*point) == reference_argmax(*point)


def refuses(fn, point, budget):
    try:
        fn(*point, term_budget=budget)
    except CapacityError:
        return True
    return False


@pytest.mark.parametrize("point", [(4, 2, 2, 2), (3, 3, 2, 3)])
def test_argmax_budget(point):
    with pytest.raises(CapacityError):
        argmax_profile(8, 2, 4, 4, term_budget=5)
    # the budget bounds the raw profile count, as for expectation_product:
    # both refuse exactly the budgets below it
    count = sum(1 for _ in profile_iterator(*point))
    assert count == expectation_product(*point).term_count
    for budget in range(count + 1):
        assert refuses(argmax_profile, point, budget) == (budget < count), budget
        assert refuses(expectation_product, point, budget) == (budget < count), budget
    assert argmax_profile(*point, term_budget=count) == argmax_profile(*point)
