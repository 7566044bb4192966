"""Random matrices built as sums of independent uniform permutation matrices.

A sample is drawn by stacking ``r`` independent uniformly random n x n
permutation matrices, so every row sum and column sum of the result equals
``r``.  Sampling is counter-based: sample index ``i`` of a given seed reads
from a Philox stream whose 256-bit counter starts at ``i << 128``, so a
sample's permutations depend only on (n, r, seed, i), whatever range of
indices a call draws.

The stream contract.  ``sample_stream`` is numpy's Philox4x64-10 bit
generator (Salmon et al., SC'11) under key ``(seed, 0)``, so output block j
of sample i is the encryption of counter words ``(j + 1, 0, i, 0)``.  Each
64-bit output word is consumed as two 32-bit words, low half first, and
each of the r permutations is numpy's shuffle of ``0..n-1``: for
i = n-1 down to 1 it takes the next word w with ``w & mask(i) <= i``,
mask(i) the smallest all-ones mask covering i, and swaps positions i and
``w & mask(i)``.  ``sample_stream``, ``sample_permutation`` and
``sample_matrix`` are the reference definition of that stream.

One engine.  ``_philox_lanes`` encrypts that stream for up to
``PHILOX_LANES`` counters at once on Python ints, each counter a 128-bit
lane of four ints c0..c3, so a round costs a few big-integer operations
for all of them.  ``sample_permutations`` reads it, bit-identical to
the reference: it allots each sample ``WORDS_PER_DRAW`` words per shuffle
draw, gives a sample whose rejections run past that its next blocks one
counter at a time, and runs numpy's shuffle on lists.  Monte Carlo builds
its r >= 3 matrices from those permutations and reads the class of each
r = 2 sample off them with ``kernels.cycle_type``, so no r <= 2 run
imports numpy.  numpy's Philox remains only as the reference,
``sample_stream``.
"""

import array
import itertools
import math
import sys
from collections import namedtuple

from .errors import CapacityError, DomainError

# default work budgets: the oracle's DP cells, the exact walk's profiles
TUPLE_BUDGET_DEFAULT = 10**8
TERM_BUDGET_DEFAULT = 10**9

# Philox4x64-10 multipliers and Weyl key increments, as numpy's Philox uses
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10

# 32-bit words a sample is allotted per shuffle draw up front.  A draw at
# bound i accepts a word with probability (i + 1) / (mask(i) + 1) > 1/2,
# so it takes under 2 words on average; a sample that rejects past its
# allotment takes its next blocks one ``_philox_lanes`` call each.
WORDS_PER_DRAW = 2

# Philox counters one ``_philox_lanes`` call encrypts at most, so its
# Python ints stay at 16 KiB each and its words at 32 KiB.  On 2 shared
# vCPUs calls of 512 to 8,192 counters take about the same time per counter.
PHILOX_LANES = 1 << 10

_U64 = (1 << 64) - 1
_LANE = 16  # bytes of one counter lane in ``_philox_lanes``
_ONE_LANE = (1).to_bytes(_LANE, "little")


class EnsembleSpec(namedtuple("EnsembleSpec", "n r seed", defaults=(0,))):
    """Parameters of the permutation-sum ensemble: dimension, summands, seed."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, seed: int = 0):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if r < 1:
            raise DomainError(f"r must be >= 1, got {r}")
        check_seed(seed)
        return super().__new__(cls, n, r, seed)


class SquareMatrix(namedtuple("SquareMatrix", "n entries")):
    """Immutable square matrix with non-negative integer entries."""

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple):
        if n < 1:
            raise DomainError(f"dimension must be >= 1, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise DomainError(f"entries must form an {n}x{n} array")
        for row in entries:
            for v in row:
                if v < 0:
                    raise DomainError(f"entries must be non-negative, got {v}")
        return super().__new__(cls, n, entries)

    @classmethod
    def from_rows(cls, rows):
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(n=len(entries), entries=entries)

    def max_entry(self):
        return max(map(max, self.entries))


def check_maxsize(name: str, value: int) -> None:
    """The rule of every count that ``range``, ``math.comb``,
    ``math.factorial`` or a float conversion takes: value <= sys.maxsize."""
    if value > sys.maxsize:
        raise CapacityError(f"{name} must be <= {sys.maxsize}, got {value}")


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


def _check_range(start: int, count: int):
    """Samples start..start+count-1 must have 64-bit Philox counters."""
    if start < 0 or count < 0:
        raise DomainError(f"need start >= 0 and count >= 0, got {start}, {count}")
    if start + count > 2**64:
        raise DomainError(f"sample indices must stay below 2^64, got {start + count}")


def _philox_lanes(seed: int, start: int, samples: int, first_block: int, blocks: int):
    """The 32-bit words of blocks first_block.. of samples start.., on Python ints.

    Encrypts the counters (first_block + b + 1, 0, start + s, 0) for
    s < ``samples`` and b < ``blocks`` under key (seed, 0), all at once:
    word k of every counter and every round key is one Python int with a
    128-bit lane per counter.  A round multiplies c0 and c2 by their 64-bit
    multipliers; each lane's 64 x 64-bit product fits in its 128 bits, so no
    lane carries into the next, and one shift and two masks split every
    lane's product into its high and low words.  The keys advance by their
    Weyl increments, an addition and a mask.  Returns an unsigned 32-bit
    array of the words sample by sample, block by block, each block's eight
    in stream order.
    """
    lanes = samples * blocks
    rep = int.from_bytes(_ONE_LANE * lanes, "little")
    mask = _U64 * rep
    c0 = int.from_bytes(b"".join(
        (first_block + b + 1).to_bytes(_LANE, "little") for b in range(blocks)) * samples,
        "little")
    c2 = int.from_bytes(b"".join(
        index.to_bytes(_LANE, "little") * blocks for index in range(start, start + samples)),
        "little")
    c1 = c3 = k1 = 0
    k0 = seed * rep
    w0, w1 = PHILOX_W[0] * rep, PHILOX_W[1] * rep
    m0, m1 = PHILOX_M
    for _ in range(PHILOX_ROUNDS):
        p0, p1 = m0 * c0, m1 * c2
        c0 = (p1 >> 64) & mask ^ c1 ^ k0
        c2 = (p0 >> 64) & mask ^ c3 ^ k1
        c1, c3 = p1 & mask, p0 & mask
        k0, k1 = (k0 + w0) & mask, (k1 + w1) & mask
    # the little-endian lanes of c0 | c1 << 64 and c2 | c3 << 64 hold each
    # block's first and last 16 bytes: interleave them 8 bytes at a time
    first, last = (array.array("Q", (lo | hi << 64).to_bytes(_LANE * lanes, "little"))
                   for lo, hi in ((c0, c1), (c2, c3)))
    stream = array.array("Q", bytes(32 * lanes))
    stream[0::4], stream[1::4] = first[0::2], first[1::2]
    stream[2::4], stream[3::4] = last[0::2], last[1::2]
    words = array.array("I", stream.tobytes())
    if sys.byteorder == "big":
        words.byteswap()
    return words


def sample_permutations(spec: EnsembleSpec, start: int, count: int):
    """Yield the r permutations of samples start..start+count-1, in order.

    Sample b's are a list of r lists, the k-th equal to the k-th permutation
    ``sample_permutation(n, sample_stream(spec, start + b))`` draws: numpy's
    shuffle of 0..n-1, run on a list.  Each sample is allotted
    ``WORDS_PER_DRAW`` words a shuffle draw in whole blocks, and one
    ``_philox_lanes`` call encrypts the allotments of up to
    ``PHILOX_LANES // blocks`` samples; a sample whose shuffles reject past
    its allotment is shuffled again from its words and its next blocks,
    encrypted one at a time.
    """
    _check_range(start, count)
    n, r = spec.n, spec.r
    draws = [(i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1)]
    points = list(range(n))
    blocks = -(-WORDS_PER_DRAW * r * (n - 1) // 8)
    width = 8 * blocks
    chunk = max(PHILOX_LANES // max(blocks, 1), 1)  # samples a call
    for first in range(start, start + count, chunk):
        size = min(chunk, start + count - first)
        words = _philox_lanes(spec.seed, first, size, 0, blocks)
        for s in range(size):
            allot = words[s * width:(s + 1) * width]
            take = iter(allot).__next__
            while True:
                # a StopIteration let out of a generator becomes a RuntimeError
                try:
                    perms = []
                    for _ in range(r):
                        perm = points[:]
                        for i, mask in draws:
                            j = take() & mask
                            while j > i:
                                j = take() & mask
                            perm[i], perm[j] = perm[j], perm[i]
                        perms.append(perm)
                    break
                except StopIteration:
                    more = itertools.chain.from_iterable(
                        _philox_lanes(spec.seed, first + s, 1, b, 1) for b in itertools.count(blocks))
                    take = itertools.chain(allot, more).__next__
            yield perms


def tuple_count(n: int, r: int, limit: int | None = None) -> int:
    """(n!)^r, or limit + 1 once bit lengths prove that (n!)^r passes ``limit``:
    n! >= 2^(n-1) and (n!)^r >= 2^r at n >= 2, r >= 1, so neither is built past it."""
    if limit is not None and n > 1 and r > 0:
        bits = limit.bit_length()
        if n > bits or r > bits or (math.factorial(n).bit_length() - 1) * r >= bits:
            return limit + 1
    total = math.factorial(n) ** r
    return total if limit is None or total <= limit else limit + 1


def enumerate_tuples(n: int, r: int, budget: int = TUPLE_BUDGET_DEFAULT):
    """Yield all (n!)^r permutation r-tuples exactly once, lexicographically.

    Raises CapacityError when (n!)^r exceeds ``budget``.
    """
    if n < 1 or r < 1:
        raise DomainError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    if tuple_count(n, r, budget) > budget:
        raise CapacityError(f"the (n!)^r tuples for (n={n}, r={r}) exceed budget {budget}")
    perms = list(itertools.permutations(range(n)))
    return itertools.product(perms, repeat=r)
