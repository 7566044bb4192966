"""Random matrices built as sums of independent uniform permutation matrices.

A sample is drawn by stacking ``r`` independent uniformly random n x n
permutation matrices, so every row sum and column sum of the result equals
``r``.  Sampling is counter-based: sample index ``i`` of a given seed reads
from a Philox stream whose 256-bit counter starts at ``i << 128``, which
makes parallel sampling reproducible regardless of how samples are
partitioned across workers.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

TUPLE_BUDGET_DEFAULT = 10**8


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of the permutation-sum ensemble: dimension, summands, seed."""

    n: int
    r: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix with non-negative integer entries."""

    n: int
    entries: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise DomainError(f"entries must form an {self.n}x{self.n} array")
        for row in self.entries:
            for v in row:
                if v < 0:
                    raise DomainError(f"entries must be non-negative, got {v}")

    @classmethod
    def from_rows(cls, rows):
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(n=len(entries), entries=entries)

    def row_sums(self):
        return tuple(sum(row) for row in self.entries)

    def col_sums(self):
        return tuple(sum(row[j] for row in self.entries) for j in range(self.n))

    def entry_total(self):
        return sum(map(sum, self.entries))

    def max_entry(self):
        return max(map(max, self.entries))


def sample_stream(spec: EnsembleSpec, sample_index: int) -> np.random.Generator:
    """Philox stream for one sample; streams of distinct indices never overlap."""
    if sample_index < 0:
        raise DomainError(f"sample_index must be >= 0, got {sample_index}")
    bitgen = np.random.Philox(key=spec.seed, counter=sample_index << 128)
    return np.random.Generator(bitgen)


def sample_permutation(n: int, rng: np.random.Generator):
    """Draw one uniform permutation of {0..n-1} from an explicit stream."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return tuple(int(v) for v in rng.permutation(n))


def assemble_matrix(perms) -> SquareMatrix:
    """Sum the permutation matrices of ``perms``; entry (i, j) counts hits."""
    perms = [tuple(p) for p in perms]
    if not perms:
        raise DomainError("need at least one permutation")
    n = len(perms[0])
    rows = [[0] * n for _ in range(n)]
    for p in perms:
        if len(p) != n:
            raise DomainError(f"permutation lengths differ: {len(p)} vs {n}")
        if sorted(p) != list(range(n)):
            raise DomainError(f"not a permutation of 0..{n - 1}: {p}")
        for i, j in enumerate(p):
            rows[i][j] += 1
    return SquareMatrix.from_rows(rows)


def sample_matrix(spec: EnsembleSpec, sample_index: int = 0) -> SquareMatrix:
    """Draw sample ``sample_index`` of the ensemble (r stacked permutations)."""
    rng = sample_stream(spec, sample_index)
    return assemble_matrix(sample_permutation(spec.n, rng) for _ in range(spec.r))


def tuple_count(n: int, r: int) -> int:
    return math.factorial(n) ** r


def enumerate_tuples(n: int, r: int, budget: int = TUPLE_BUDGET_DEFAULT):
    """Yield all (n!)^r permutation r-tuples exactly once, lexicographically.

    Raises CapacityError when (n!)^r exceeds ``budget``.
    """
    if n < 1 or r < 1:
        raise DomainError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    total = tuple_count(n, r)
    if total > budget:
        raise CapacityError(
            f"(n!)^r = {total} tuples for (n={n}, r={r}) exceeds budget {budget}"
        )
    perms = list(itertools.permutations(range(n)))
    return itertools.product(perms, repeat=r)
