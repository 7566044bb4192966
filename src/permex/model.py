"""Random matrices built as sums of independent uniform permutation matrices.

A sample is drawn by stacking ``r`` independent uniformly random n x n
permutation matrices, so every row sum and column sum of the result equals
``r``.  Sampling is counter-based: sample index ``i`` of a given seed reads
from a Philox stream whose 256-bit counter starts at ``i << 128``, which
makes parallel sampling reproducible regardless of how samples are
partitioned across workers.

The stream contract.  ``sample_stream`` is numpy's Philox4x64-10 bit
generator (Salmon et al., SC'11) under key ``(seed, 0)``, so output block j
of sample i is the encryption of counter words ``(j + 1, 0, i, 0)``.  Each
64-bit output word is consumed as two 32-bit words, low half first, and
each of the r permutations is numpy's shuffle of ``0..n-1``: for
i = n-1 down to 1 it takes the next word w with ``w & mask(i) <= i``,
mask(i) the smallest all-ones mask covering i, and swaps positions i and
``w & mask(i)``.  ``sample_stream``, ``sample_permutation`` and
``sample_matrix`` are the reference definition of that stream.

The block pass.  ``sample_block`` draws the permutations of many
consecutive samples at once, bit-identical to the reference: it runs
Philox on uint64 arrays, one row of words per sample, with the 64 x 64 ->
128-bit multiply done on 32-bit halves, and then runs every row's shuffle
in lockstep, one numpy operation per draw across all rows.  Each row gets
``WORDS_PER_DRAW * r * (n - 1)`` words up front; rejection can exceed any
fixed allotment, so a row that runs out is refilled with its next blocks.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import CapacityError, DomainError

TUPLE_BUDGET_DEFAULT = 10**8

# Philox4x64-10 multipliers and Weyl key increments, as numpy's Philox uses
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10

# 32-bit words a block pass computes per shuffle draw up front.  A draw at
# bound i accepts a word with probability (i + 1) / (mask(i) + 1) > 1/2,
# so it takes under 2 words on average; rows that reject past the
# allotment are refilled, which costs extra numpy operations.
WORDS_PER_DRAW = 2

_U64 = (1 << 64) - 1
_LO32 = 0xFFFFFFFF
_SHIFT32 = 32


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
        check_seed(self.seed)


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


def check_seed(seed: int) -> int:
    """The seed rule of every seeded stream: 0 <= seed < 2^64."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def sample_stream(spec: EnsembleSpec, sample_index: int) -> "np.random.Generator":
    """Philox stream for one sample; streams of distinct indices never overlap."""
    import numpy as np

    if sample_index < 0:
        raise DomainError(f"sample_index must be >= 0, got {sample_index}")
    bitgen = np.random.Philox(key=spec.seed, counter=sample_index << 128)
    return np.random.Generator(bitgen)


def sample_permutation(n: int, rng: "np.random.Generator"):
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


def _mulhilo(m: int, x):
    """Low and high 64-bit words of the 128-bit products m * x, uint64 x."""
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return x * m, hi


def _philox_words(seed: int, index, first_block, blocks: int):
    """32-bit words of Philox blocks first_block..first_block+blocks-1.

    Row b belongs to sample ``index[b]`` and starts at its block
    ``first_block[b]``; block j encrypts counter (j + 1, 0, index, 0) under
    key (seed, 0).  Returns a (rows, 8 * blocks) uint32 array.
    """
    import numpy as np

    c0 = first_block[:, None] + np.arange(1, blocks + 1, dtype=np.uint64)
    c2 = np.broadcast_to(index[:, None], c0.shape)
    c1 = c3 = np.zeros_like(c0)
    for k in range(PHILOX_ROUNDS):
        k0 = np.uint64((seed + k * PHILOX_W[0]) & _U64)
        k1 = np.uint64((k * PHILOX_W[1]) & _U64)
        lo0, hi0 = _mulhilo(PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.stack([c0, c1, c2, c3], axis=-1)
    # little-endian 64-bit words read as 32-bit pairs: low half first
    return out.astype("<u8").view("<u4").reshape(len(index), -1)


def sample_block(spec: EnsembleSpec, start: int, count: int):
    """Permutations of samples start..start+count-1, in one vectorised pass.

    Returns a (count, r, n) int64 array whose entry [b, k] is the k-th
    permutation ``sample_permutation(n, sample_stream(spec, start + b))``
    draws; see the module docstring for the stream both follow.
    """
    import numpy as np

    n, r = spec.n, spec.r
    if start < 0 or count < 0:
        raise DomainError(f"need start >= 0 and count >= 0, got {start}, {count}")
    if start + count > 2**64:
        raise DomainError(f"sample indices must stay below 2^64, got {start + count}")
    out = np.empty((count, r, n), dtype=np.int64)
    out[:] = np.arange(n)
    draws = r * (n - 1)
    if count == 0 or draws == 0:
        return out
    blocks = -(-WORDS_PER_DRAW * draws // 8)
    index = np.uint64(start) + np.arange(count, dtype=np.uint64)
    first = np.zeros(count, dtype=np.uint64)
    words = _philox_words(spec.seed, index, first, blocks)
    width = words.shape[1]
    pos = np.zeros(count, dtype=np.intp)
    rows = np.arange(count)

    def take(sel):
        """The next word of each row in ``sel``."""
        at = pos[sel]
        spent = sel[at == width]
        if spent.size:
            first[spent] += np.uint64(blocks)
            words[spent] = _philox_words(spec.seed, index[spent], first[spent], blocks)
            pos[spent] = 0
            at = pos[sel]
        pos[sel] = at + 1
        return words[sel, at]

    for k in range(r):
        perm = out[:, k]
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = take(rows) & mask
            bad = np.flatnonzero(j > i)
            while bad.size:
                j[bad] = take(bad) & mask
                bad = bad[j[bad] > i]
            held = perm[rows, j]
            perm[rows, j] = perm[:, i]
            perm[:, i] = held
    return out


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
