"""Exact expectations of perm_m and perm_m * perm_m2 over the ensemble.

Both expectations reduce to finite combinatorial sums.  Expanding perm_m
turns it into a sum over "placements": sets of m cells, no two sharing a
row or column, each cell carrying a color in 1..r that names which of the
r permutations must pass through it.  The expectation of a product of two
subpermanent sums is then a sum over pairs (first placement, second
placement), and the probability weight of a pair depends only on how the
second placement's cells collide with the first.  Each second-placement
cell falls in exactly one class:

  fresh      row and column both unused by the first placement
  dup        duplicates a first-placement cell (same spot, same color)
  row hit    stands on a used row, but on a fresh column
  col hit    stands on a used column, but on a fresh row
  cross hit  used row and used column, without being a dup

Same-color collisions other than exact duplication are impossible, so a
row/col/cross hit of color i always stands on rows or columns held by some
other color k.  A ColorProfile records all the per-color (and per color
pair) counts of this classification; the expectation is the sum over all
feasible profiles of a product of seven exact counting factors, divided by
(n!)^r.  The factors count, in order: first-placement choices, fresh
cells, dup choices, row hits, col hits, cross hits, and the number of ways
to complete each permutation around its forced cells.
"""

import concurrent.futures
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, perm, prod

from .errors import CapacityError, DomainError
from .permanents import ExactMoment, moment_key

TERM_BUDGET_DEFAULT = 10**9


# ---------------------------------------------------------------------------
# constrained enumeration helpers


def _compositions(total, parts):
    """All tuples of `parts` non-negative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


def _capped_compositions(total, caps):
    """Compositions of `total` with part i at most caps[i]."""
    if not caps:
        if total == 0:
            yield ()
        return
    hi = min(caps[0], total)
    for v in range(hi + 1):
        for rest in _capped_compositions(total - v, caps[1:]):
            yield (v,) + rest


def _bounded_tuples(caps, budget):
    """All tuples with part i at most caps[i] and total at most `budget`."""
    if not caps:
        yield ()
        return
    hi = min(caps[0], budget)
    for v in range(hi + 1):
        for rest in _bounded_tuples(caps[1:], budget - v):
            yield (v,) + rest


def _offdiag_cells(r):
    return [(i, k) for i in range(r) for k in range(r) if k != i]


def _offdiag_matrices(r, budget, col_caps):
    """Off-diagonal r x r count matrices with total <= budget, col sums capped."""
    cells = _offdiag_cells(r)
    mat = [[0] * r for _ in range(r)]
    cols = [0] * r

    def rec(idx, rem):
        if idx == len(cells):
            yield tuple(tuple(row) for row in mat)
            return
        i, k = cells[idx]
        hi = min(rem, col_caps[k] - cols[k])
        for v in range(hi + 1):
            mat[i][k] = v
            cols[k] += v
            yield from rec(idx + 1, rem - v)
            cols[k] -= v
        mat[i][k] = 0

    if budget < 0:
        return
    yield from rec(0, budget)


def _offdiag_rowsum_matrices(r, row_sums, col_caps):
    """Off-diagonal matrices with exact row sums and capped column sums."""
    mat = [None] * r
    cols = [0] * r

    def rec(i):
        if i == r:
            yield tuple(mat)
            return
        caps = [0 if k == i else col_caps[k] - cols[k] for k in range(r)]
        for row in _capped_compositions(row_sums[i], caps):
            mat[i] = row
            for k in range(r):
                cols[k] += row[k]
            yield from rec(i + 1)
            for k in range(r):
                cols[k] -= row[k]

    yield from rec(0)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ColorProfile:
    """Per-color collision census of one second placement against a first.

    ``base[i]`` is the number of first-placement cells of color i; the other
    fields count second-placement cells by class.  The pair-indexed fields
    are zero on the diagonal: ``row_hits[i][k]`` counts color-i row hits
    standing on a row held by color k != i, and similarly for ``col_hits``.
    A cross hit occupies one used row and one used column, so it appears
    once in ``cross_rows[i][k]`` (row host k) and once in
    ``cross_cols[i][k']`` (column host k').
    """

    base: tuple
    fresh: tuple
    dup: tuple
    row_hits: tuple
    col_hits: tuple
    cross_rows: tuple
    cross_cols: tuple

    @cached_property
    def fresh_total(self):
        return sum(self.fresh)

    @cached_property
    def dup_total(self):
        return sum(self.dup)

    @cached_property
    def row_hit_total(self):
        return sum(map(sum, self.row_hits))

    @cached_property
    def col_hit_total(self):
        return sum(map(sum, self.col_hits))

    @cached_property
    def cross_total(self):
        return sum(map(sum, self.cross_rows))

    @cached_property
    def row_hit_colors(self):
        """Row hits of each color (row sums of row_hits)."""
        return tuple(map(sum, self.row_hits))

    @cached_property
    def row_hit_hosts(self):
        """Row hits standing on each color's rows (column sums of row_hits)."""
        r = len(self.base)
        return tuple(sum(self.row_hits[k][i] for k in range(r)) for i in range(r))

    @cached_property
    def col_hit_colors(self):
        return tuple(map(sum, self.col_hits))

    @cached_property
    def col_hit_hosts(self):
        r = len(self.base)
        return tuple(sum(self.col_hits[k][i] for k in range(r)) for i in range(r))

    @cached_property
    def cross_colors(self):
        """Cross hits of each color (row sums of cross_rows and cross_cols)."""
        return tuple(map(sum, self.cross_rows))

    @cached_property
    def cross_row_hosts(self):
        r = len(self.base)
        return tuple(sum(self.cross_rows[k][i] for k in range(r)) for i in range(r))

    @cached_property
    def cross_col_hosts(self):
        r = len(self.base)
        return tuple(sum(self.cross_cols[k][i] for k in range(r)) for i in range(r))

    @cached_property
    def loads(self):
        """Forced cells per color: how much of each permutation is pinned."""
        return tuple(
            b + f + rh + ch + x
            for b, f, rh, ch, x in zip(
                self.base, self.fresh, self.row_hit_colors,
                self.col_hit_colors, self.cross_colors,
            )
        )

    @cached_property
    def second_total(self):
        return (self.fresh_total + self.dup_total + self.row_hit_total
                + self.col_hit_total + self.cross_total)


def profile_iterator(n, r, m, m2):
    """Yield every feasible ColorProfile exactly once, in nested lex order."""
    moment_key(n, r, m, m2)
    yield from _iter_profiles(n, r, m, m2)


def _iter_profiles(n, r, m, m2, m1_range=None):
    if m1_range is None:
        base_iter = _compositions(m, r)
    else:
        lo, hi = m1_range
        base_iter = (
            (m1,) + rest
            for m1 in range(lo, hi)
            for rest in _compositions(m - m1, r - 1)
        )
    for base in base_iter:
        fresh_caps = [n - bi for bi in base]
        for a in range(min(n - m, m2) + 1):
            for fresh in _capped_compositions(a, fresh_caps):
                for dup in _bounded_tuples(base, m2 - a):
                    e = sum(dup)
                    hosts = [base[i] - dup[i] for i in range(r)]
                    rh_budget = min(n - m - a, m2 - a - e)
                    for rowh in _offdiag_matrices(r, rh_budget, hosts):
                        b = sum(map(sum, rowh))
                        rh_rows = [sum(row) for row in rowh]
                        rh_cols = [sum(rowh[k][i] for k in range(r)) for i in range(r)]
                        ch_budget = min(n - m - a, m2 - a - e - b)
                        for colh in _offdiag_matrices(r, ch_budget, hosts):
                            c = sum(map(sum, colh))
                            ch_rows = [sum(row) for row in colh]
                            ch_cols = [sum(colh[k][i] for k in range(r)) for i in range(r)]
                            d = m2 - a - e - b - c
                            loads = [
                                n - base[i] - fresh[i] - rh_rows[i] - ch_rows[i]
                                for i in range(r)
                            ]
                            lcaps = [hosts[i] - rh_cols[i] for i in range(r)]
                            rcaps = [hosts[i] - ch_cols[i] for i in range(r)]
                            for dvec in _capped_compositions(d, loads):
                                for lmat in _offdiag_rowsum_matrices(r, dvec, lcaps):
                                    for rmat in _offdiag_rowsum_matrices(r, dvec, rcaps):
                                        yield ColorProfile(
                                            base=base,
                                            fresh=fresh,
                                            dup=dup,
                                            row_hits=rowh,
                                            col_hits=colh,
                                            cross_rows=lmat,
                                            cross_cols=rmat,
                                        )


def validate_profile(profile, n, r, m, m2):
    """Check every structural constraint of a profile; raise DomainError if any fails."""

    def ensure(cond, what):
        if not cond:
            raise DomainError(f"profile violates: {what} ({profile})")

    p = profile
    fields = [p.base, p.fresh, p.dup]
    mats = [p.row_hits, p.col_hits, p.cross_rows, p.cross_cols]
    ensure(all(len(f) == r for f in fields), "per-color tuples have length r")
    for mat in mats:
        ensure(len(mat) == r and all(len(row) == r for row in mat), "matrices are r x r")
        ensure(all(mat[i][i] == 0 for i in range(r)), "matrix diagonals are zero")
        ensure(all(v >= 0 for row in mat for v in row), "counts are non-negative")
    ensure(all(v >= 0 for f in fields for v in f), "counts are non-negative")
    ensure(sum(p.base) == m, "base sizes sum to m")
    ensure(p.second_total == m2, "second-placement classes sum to m2")
    ensure(
        tuple(map(sum, p.cross_cols)) == p.cross_colors,
        "cross row sums match across the two host matrices",
    )
    ensure(p.fresh_total <= n - m, "fresh count fits outside used rows/columns")
    ensure(p.fresh_total + p.row_hit_total + m <= n, "row hits fit on fresh columns")
    ensure(p.fresh_total + p.col_hit_total + m <= n, "col hits fit on fresh rows")
    for i in range(r):
        ensure(p.dup[i] <= p.base[i], "dups fit in the base cells of their color")
        ensure(
            p.dup[i] + p.row_hit_hosts[i] <= p.base[i],
            "row hits fit on undup'd rows of the host color",
        )
        ensure(
            p.dup[i] + p.col_hit_hosts[i] <= p.base[i],
            "col hits fit on undup'd columns of the host color",
        )
        ensure(
            p.dup[i] + p.row_hit_hosts[i] + p.cross_row_hosts[i] <= p.base[i],
            "cross hits fit on remaining rows of the host color",
        )
        ensure(
            p.dup[i] + p.col_hit_hosts[i] + p.cross_col_hosts[i] <= p.base[i],
            "cross hits fit on remaining columns of the host color",
        )
        ensure(p.loads[i] <= n, "forced cells of each color fit in the matrix")


# ---------------------------------------------------------------------------
# the seven counting factors


def _base_integer(profile, n, m) -> int:
    """First-placement choices: locations and color split, before 1/(n!)^r."""
    w = comb(n, m) ** 2 * factorial(m) * factorial(m)
    for mi in profile.base:
        w //= factorial(mi)
    return w


def factor_base(profile, n, r, m) -> Fraction:
    """First-placement weight: location choices, color split, 1/(n!)^r."""
    return Fraction(_base_integer(profile, n, m), factorial(n) ** r)


def factor_fresh(profile, n, m) -> int:
    """Fresh cells: choose rows and columns off the base, pair, and color."""
    a = profile.fresh_total
    w = comb(n - m, a) ** 2 * factorial(a) * factorial(a)
    for ai in profile.fresh:
        w //= factorial(ai)
    return w


def factor_dup(profile) -> int:
    """Duplicated cells: pick which base cells of each color to copy."""
    w = 1
    for mi, ei in zip(profile.base, profile.dup):
        w *= comb(mi, ei)
    return w


def _entry_factorials(*mats) -> int:
    """Product of v! over every entry v of the given count matrices."""
    return prod(factorial(v) for mat in mats for row in mat for v in row)


def _hit_factor(profile, n, m, hits, hit_hosts, total) -> int:
    """Fresh lines for the hits, their host lines, and the per-pair grouping.

    C(n-m-a, T) T! prod_i C(base_i - dup_i, hosts_i) hosts_i! divided by
    prod_{i != k} hits[i][k]!, for a fresh cells and T hits; perm(k, j) is
    C(k, j) j!, and the one division is exact.
    """
    w = perm(n - m - profile.fresh_total, total)
    # host lines: which of each color's unduplicated lines get stood on
    for base, dup, hosts in zip(profile.base, profile.dup, hit_hosts):
        w *= perm(base - dup, hosts)
    return w // _entry_factorials(hits)


def factor_row_hits(profile, n, m) -> int:
    """Row hits: fresh columns for them, host rows, and the pairing."""
    return _hit_factor(
        profile, n, m, profile.row_hits, profile.row_hit_hosts, profile.row_hit_total
    )


def factor_col_hits(profile, n, m) -> int:
    """Col hits: the row-hit count with rows and columns swapped."""
    return _hit_factor(
        profile, n, m, profile.col_hits, profile.col_hit_hosts, profile.col_hit_total
    )


def factor_cross(profile) -> int:
    """Cross hits: host rows, host columns, and the per-color pairing.

    prod_i cross_colors_i! C(avail_rows_i, row_hosts_i) row_hosts_i!
    C(avail_cols_i, col_hosts_i) col_hosts_i!, divided by the factorial of
    every cross_rows and cross_cols entry; the one division is exact.
    """
    p = profile
    w = prod(map(factorial, p.cross_colors))
    for i, (base, dup) in enumerate(zip(p.base, p.dup)):
        w *= perm(base - dup - p.row_hit_hosts[i], p.cross_row_hosts[i])
        w *= perm(base - dup - p.col_hit_hosts[i], p.cross_col_hosts[i])
    return w // _entry_factorials(p.cross_rows, p.cross_cols)


def factor_completion(profile, n) -> int:
    """Ways to finish each permutation outside its forced cells."""
    w = 1
    for load in profile.loads:
        w *= factorial(n - load)
    return w


def _term_integer(profile, n, r, m) -> int:
    """term_value numerator over the common denominator (n!)^r."""
    return (
        _base_integer(profile, n, m)
        * factor_fresh(profile, n, m)
        * factor_dup(profile)
        * factor_row_hits(profile, n, m)
        * factor_col_hits(profile, n, m)
        * factor_cross(profile)
        * factor_completion(profile, n)
    )


def term_value(profile, n, r, m) -> Fraction:
    """Full weight of one profile: the product of all seven factors."""
    return Fraction(_term_integer(profile, n, r, m), factorial(n) ** r)


# ---------------------------------------------------------------------------
# expectations


def expectation_perm(n, r, m) -> ExactMoment:
    """Exact E(perm_m) as a sum over color splits of a single placement.

    The split m_1 + .. + m_r = m weighs m!/prod m_i! * prod (n - m_i)!.
    Summed over all C(m+r-1, r-1) splits (the term count), that is entry m
    of the r-fold binomial convolution power of a_j = (n - j)!, where
    (f * g)_k = sum_j C(k, j) f_j g_(k-j): O(r m^2) work for any r.
    """
    key = moment_key(n, r, m)
    a = [factorial(n - j) for j in range(m + 1)]
    power = a
    for _ in range(r - 1):
        power = [
            sum(comb(k, j) * power[j] * a[k - j] for j in range(k + 1))
            for k in range(m + 1)
        ]
    value = Fraction(comb(n, m) ** 2 * factorial(m) * power[m], factorial(n) ** r)
    return ExactMoment(value=value, term_count=comb(m + r - 1, r - 1), meta=key)


def _weighted_profiles(n, r, m, m2, term_budget, m1_range=None):
    """Yield (profile, _term_integer) per profile; CapacityError past the budget."""
    for count, profile in enumerate(_iter_profiles(n, r, m, m2, m1_range=m1_range), 1):
        if count > term_budget:
            raise CapacityError(
                f"profile count exceeded budget {term_budget} at (n={n}, r={r}, m={m}, m2={m2})"
            )
        yield profile, _term_integer(profile, n, r, m)


def _product_sum_range(n, r, m, m2, m1_range, term_budget):
    total = count = 0
    for count, (_, w) in enumerate(_weighted_profiles(n, r, m, m2, term_budget, m1_range), 1):
        total += w
    return total, count


def _product_worker(args):
    n, r, m, m2, lo, hi, budget = args
    return _product_sum_range(n, r, m, m2, (lo, hi), budget)


def expectation_product(
    n, r, m, m2, term_budget=TERM_BUDGET_DEFAULT, threads=1
) -> ExactMoment:
    """Exact E(perm_m * perm_m2) by summing term_value over all profiles.

    With threads > 1 the outermost color-split coordinate is partitioned
    across worker processes; exact integer partial sums merge associatively,
    so the result does not depend on the partitioning.  The term budget is
    then enforced per worker and once more on the merged count.
    """
    key = moment_key(n, r, m, m2)
    if threads > 1 and r > 1 and m >= 1:
        bounds = sorted({(m + 1) * i // threads for i in range(threads + 1)})
        jobs = [
            (n, r, m, m2, bounds[i], bounds[i + 1], term_budget)
            for i in range(len(bounds) - 1)
        ]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_product_worker, jobs))
        total = sum(p[0] for p in parts)
        count = sum(p[1] for p in parts)
        if count > term_budget:
            raise CapacityError(
                f"profile count {count} exceeded budget {term_budget}"
            )
    else:
        total, count = _product_sum_range(n, r, m, m2, None, term_budget)
    value = Fraction(total, factorial(n) ** r)
    return ExactMoment(value=value, term_count=count, meta=key)


def argmax_profile(n, r, m, m2, term_budget=TERM_BUDGET_DEFAULT):
    """The profile with the largest term_value, first one on ties.

    Returns (profile, value).  Useful for checking that the dominant term
    spreads counts evenly across colors.
    """
    moment_key(n, r, m, m2)
    best = None
    best_w = -1
    for profile, w in _weighted_profiles(n, r, m, m2, term_budget):
        if w > best_w:
            best_w = w
            best = profile
    return best, Fraction(best_w, factorial(n) ** r)
