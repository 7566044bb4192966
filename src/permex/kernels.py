"""The subpermanent profile kernel, the arithmetic it runs on, and the oracle.

Every profile, sampled or enumerated, comes from one vectorised numpy DP,
``subperm_profiles``, run over a block of matrices.  Each call picks its
arithmetic from its input, once per block: when ``profile_value_bound``
proves that all values fit, the DP runs on int64, and otherwise on
``object`` arrays of exact Python integers.  ``_pykernels`` keeps the
pure-Python DP as the reference the tests compare against.
"""

import itertools
from collections import Counter
from math import comb, factorial
from operator import mul

I64_SAFE_BOUND = 1 << 62

# Matrices per kernel call, for sampled and oracle blocks alike (both have
# at most r nonzeros per column).  Up to 2^BLOCK_MAX_N states a block
# holds at least BLOCK_MATRICES matrices and BLOCK_CELLS DP cells (2^n
# states x matrices): fewer leave numpy's per-operation cost dominant,
# more raise peak memory without running faster.  Above that each op
# already spans thousands of states, so batching gains nothing, while a
# block of one matrix lets the kernel skip most of its n^2 row updates.
BLOCK_CELLS = 1 << 14
BLOCK_MATRICES = 64
BLOCK_MAX_N = 12

# Samples per Monte Carlo sampler pass (``model.sample_block``), rounded
# down to whole blocks, at least one.  The pass's numpy operations per
# draw do not grow with its length: on 2 shared vCPUs it costs 17-28 us
# per sample at 64 samples and 2.4-4.6 us at 1024 (n = 6..13, r = 2).
PASS_SAMPLES = 1 << 10


def block_size(n: int) -> int:
    return max(BLOCK_MATRICES, BLOCK_CELLS >> n) if n <= BLOCK_MAX_N else 1


def compiled_available() -> bool:
    """Always False: numpy runs every DP.  Kept for perfbench's run context."""
    return False


def profile_value_bound(n: int, max_entry: int) -> int:
    """Exact upper bound on any subpermanent sum: max_m C(n,m)^2 m! max_entry^m."""
    best = 1
    for m in range(n + 1):
        v = comb(n, m) ** 2 * factorial(m) * max_entry**m
        if v > best:
            best = v
    return best


def profile_backend_name(n: int, max_entry: int) -> str:
    """The arithmetic ``subperm_profiles`` certifies: "int64", or "pure" Python ints."""
    return "int64" if profile_value_bound(n, max_entry) < I64_SAFE_BOUND else "pure"


def subperm_profile(rows, n: int, max_entry=None):
    """Profile of one matrix: ``subperm_profiles`` on a block of one."""
    if max_entry is None:
        max_entry = max(max(row) for row in rows)
    return [column[0] for column in subperm_profiles([rows], n, max_entry)]


def subperm_profiles(mats, n: int, max_entry: int):
    """Profiles of a (B, n, n) block of matrices with entries <= max_entry.

    The subset DP of ``_pykernels.subperm_profile``, run on the whole block
    at once: the state is laid out (2^n, B), batch innermost, so adding row
    i to every subset that lacks it is one numpy op on a reshaped view.
    Returns n + 1 lists of Python ints; entry [m][b] is perm_m of matrix b.
    """
    import numpy as np

    dtype = np.int64 if profile_backend_name(n, max_entry) == "int64" else object
    # cols[j, i] holds entry (i, j) of every matrix in the block
    cols = np.ascontiguousarray(np.asarray(mats).transpose(2, 1, 0), dtype=dtype)
    size, batch = 1 << n, cols.shape[-1]
    f = np.zeros((size, batch), dtype=dtype)
    f[0] = 1
    for j in range(n):
        g = f.copy()
        for i in range(n):
            if not cols[j, i].any():
                continue  # zero in every matrix: pays off for blocks of one
            # axis 1 of these views is bit i of the subset index
            src = f.reshape(-1, 2, 1 << i, batch)
            dst = g.reshape(src.shape)
            dst[:, 1] += cols[j, i] * src[:, 0]
        f = g
    popcount = np.zeros(size, dtype=np.intp)
    for i in range(n):
        popcount.reshape(-1, 2, 1 << i)[:, 1] += 1
    return [f[popcount == m].sum(axis=0).tolist() for m in range(n + 1)]


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _cycle_classes(n: int):
    """One permutation of each cycle type of S_n, with the size of its class."""
    for parts in _partitions(n, n):
        perm, start = [], 0
        for part in parts:
            perm.extend(range(start + 1, start + part))
            perm.append(start)
            start += part
        centralizer = 1
        for part, mult in Counter(parts).items():
            centralizer *= part**mult * factorial(mult)
        yield tuple(perm), factorial(n) // centralizer


def oracle_matrix_count(n: int, r: int) -> int:
    """Matrices ``oracle_product_sums`` evaluates: p(n) (n!)^(r-2), or 1 at r = 1."""
    if r == 1:
        return 1
    return sum(1 for _ in _partitions(n, n)) * factorial(n) ** (r - 2)


def oracle_product_sums(n: int, r: int):
    """Exact sums of perm_m * perm_m2 over all (n!)^r permutation tuples.

    perm_m is invariant under row and column permutations of the matrix.
    Left-multiplying a tuple by P1^-1 permutes rows and maps the tuples
    bijectively onto those with P1 = I, so the sum is n! times the sum with
    P1 fixed at I.  Conjugating by any g fixes I and permutes rows and
    columns, so P2 contributes only through its cycle type: one
    representative per class, weighted by the class size.  P3..Pr still
    range over all of S_n, so p(n) (n!)^(r-2) matrices are evaluated, in
    blocks of ``block_size(n)``; matrix k of that sequence is head
    k // (n!)^(r-2) plus the tail whose base-n! digits are k % (n!)^(r-2).
    Returns an (n+1) x (n+1) symmetric table of exact integers.
    """
    import numpy as np

    eye = np.eye(n, dtype=np.int64)
    nfact = factorial(n)
    if r == 1:
        heads, weights = eye[None], [nfact]
    else:
        classes = list(_cycle_classes(n))
        heads = np.array([eye + eye[list(rep)] for rep, _ in classes])
        weights = [nfact * size for _, size in classes]
    tail_len = max(r - 2, 0)
    tails = nfact**tail_len
    if tail_len:  # n! x n x n entries; r <= 2 needs none
        perms = eye[list(itertools.permutations(range(n)))]
    count, block = oracle_matrix_count(n, r), block_size(n)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for start in range(0, count, block):
        head, tail = np.divmod(np.arange(start, min(start + block, count)), tails)
        mats = heads[head]
        for _ in range(tail_len):
            tail, digit = np.divmod(tail, nfact)
            mats += perms[digit]
        prof = subperm_profiles(mats, n, r)
        weight = [weights[h] for h in head.tolist()]
        for m in range(n + 1):
            weighted = list(map(mul, weight, prof[m]))
            row = table[m]
            for m2 in range(m, n + 1):
                row[m2] += sum(map(mul, weighted, prof[m2]))
    for m in range(n + 1):
        for m2 in range(m + 1, n + 1):
            table[m2][m] = table[m][m2]
    return table
