"""Subpermanent profiles, a brute-force reference, and the ensemble oracle.

perm_m of an n x n matrix is the sum, over all ways to pick m rows and m
columns, of the permanent of the selected m x m submatrix.  The oracle
averages perm_m * perm_m2 over all (n!)^r permutation tuples as an orbit
sum over cycle types (see ``kernels.oracle_product_sums``).  Profiles come
from the batched numpy DP in ``kernels``, except the small oracle tables',
which the reference DP in ``_pykernels`` computes without numpy.  All of it
is exact integer or rational arithmetic.  ``check_moment`` checks every
moment's (n, r, m, m2); an ``ExactMoment`` holds a value and its term count.
"""

import sys
import threading
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from . import kernels
from .errors import CapacityError, DomainError
from .model import TUPLE_BUDGET_DEFAULT, SquareMatrix, tuple_count

DIM_LIMIT_DEFAULT = 24
BRUTEFORCE_DIM_LIMIT = 8


def check_moment(n: int, r: int, m: int, m2: int = 0) -> None:
    """Raise DomainError unless m and m2 lie in 0..n and r >= 1.

    n = 0 passes here; operations that need n >= 1 check it themselves.  An
    n past sys.maxsize, which ``math.factorial`` cannot take, is a
    CapacityError, and so is an r past it, which ``range`` and ``math.comb``
    cannot take.
    """
    if not (0 <= m <= n and 0 <= m2 <= n):
        raise DomainError(f"m and m2 must lie in 0..{n}, got {m}, {m2}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if n > sys.maxsize:
        raise CapacityError(f"n must be <= {sys.maxsize}, got {n}")
    if r > sys.maxsize:
        raise CapacityError(f"r must be <= {sys.maxsize}, got {r}")


class ExactMoment(namedtuple("ExactMoment", "value term_count")):
    """An exact rational expectation plus how many terms produced it."""

    __slots__ = ()


def subpermanent_profile(matrix: SquareMatrix) -> tuple:
    """(perm_0, .., perm_n) via the subset dynamic program (2^n states)."""
    n = matrix.n
    if n > DIM_LIMIT_DEFAULT:
        raise CapacityError(f"profile limited to n <= {DIM_LIMIT_DEFAULT}, got {n}")
    return tuple(kernels.subperm_profile(matrix.entries, n, matrix.max_entry()))


def subpermanent_bruteforce(matrix: SquareMatrix, m: int) -> int:
    """Independent oracle for perm_m: enumerate subsets, expand by definition."""
    n = matrix.n
    if n > BRUTEFORCE_DIM_LIMIT:
        raise CapacityError(f"brute force limited to n <= {BRUTEFORCE_DIM_LIMIT}, got {n}")
    if not 0 <= m <= n:
        raise DomainError(f"m must be in 0..{n}, got {m}")
    rows = matrix.entries
    total = 0
    for rsel in combinations(range(n), m):
        for csel in combinations(range(n), m):
            for perm in permutations(range(m)):
                prod = 1
                for a in range(m):
                    prod *= rows[rsel[a]][csel[perm[a]]]
                total += prod
    return total


_table_cache = {}
_table_lock = threading.Lock()


def product_sum_table(n: int, r: int, tuple_budget: int = TUPLE_BUDGET_DEFAULT):
    """Exact (n+1) x (n+1) table of sums of perm_m * perm_m2 over all tuples.

    Cached per (n, r).  The budget is checked on every call, cached or not,
    so whether an input is refused does not depend on earlier calls.  It
    bounds the oracle's DP cells (``kernels.oracle_cells``): p(n) (n!)^(r-2)
    matrices (one at r = 1) for the (n!)^r tuples the table sums over, times
    the 2^n states of each matrix's DP.
    """
    if n < 1 or r < 1:
        raise DomainError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    if n > DIM_LIMIT_DEFAULT:
        # each matrix's profile DP holds 2^n states
        raise CapacityError(f"oracle limited to n <= {DIM_LIMIT_DEFAULT}, got {n}")
    # (n!)^(r-2) is never built: the count stops growing past the budget
    cells = kernels.oracle_cells(n, min(r, 2))
    for _ in range(r - 2 if n > 1 else 0):
        if cells > tuple_budget:
            break
        cells *= factorial(n)
    if cells > tuple_budget:
        raise CapacityError(
            f"the oracle's DP cells for (n={n}, r={r}) exceed budget {tuple_budget}"
        )
    key = (n, r)
    with _table_lock:
        if key in _table_cache:
            return _table_cache[key]
    table = kernels.oracle_product_sums(n, r)
    with _table_lock:
        _table_cache[key] = table
    return table


def ensemble_average_bruteforce(
    n: int,
    r: int,
    m: int,
    m2: int,
    tuple_budget: int = TUPLE_BUDGET_DEFAULT,
) -> ExactMoment:
    """Exact E(perm_m * perm_m2) over all (n!)^r tuples, from the oracle table."""
    check_moment(n, r, m, m2)
    table = product_sum_table(n, r, tuple_budget=tuple_budget)
    total = tuple_count(n, r)
    return ExactMoment(value=Fraction(table[m][m2], total), term_count=total)
