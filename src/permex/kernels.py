"""The subpermanent profile kernel, the arithmetic it runs on, and the oracle.

Sampled profiles at r >= 3, and those of every oracle table too large for
Python lists, come from one vectorised numpy DP, ``subperm_profiles``, run
over a block of matrices; a sampled r = 2 matrix needs no DP, as its
profile is ``cycle_profile`` of the cycle type of P1^-1 P2, which
``model.sample_classes`` reads off the sample's shuffle draws.  Each DP call
picks its arithmetic from its input, once per block: when
``profile_value_bound`` proves that all values fit, the DP runs on int64,
and otherwise on ``object`` arrays of exact Python integers.  The
pure-Python DP in ``_pykernels`` is the reference the tests compare that
kernel against; it also profiles the oracle's small tables
(``PURE_ORACLE_CELLS``), which then never import numpy.  The oracle reads
its table off one tally of (head index, profile) pairs, one per matrix.
"""

import itertools
from bisect import bisect_right
from collections import Counter
from math import comb, factorial

from . import _pykernels

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

# Oracle tables of at most this many DP cells (matrices x 2^n states) run
# the reference DP on Python lists, so they never import numpy.  The pure
# DP's cost per cell grows as n^2.  In fresh processes on 2 shared vCPUs
# the largest such table, (n, r) = (12, 1), takes 0.10-0.16 s against
# 0.20-0.23 s for `python -c "import numpy"`; a bound of BLOCK_CELLS would
# admit (14, 1), at 0.29-0.32 s.
PURE_ORACLE_CELLS = 1 << 12


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


def subperm_profile(rows, n: int, max_entry: int):
    """Profile of one matrix: ``subperm_profiles`` on a block of one."""
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


def cycle_profile(parts):
    """Profile of I + sigma for a permutation sigma of cycle type ``parts``.

    Relabelling the columns of P1 + P2 by P1^-1 gives I + sigma with
    sigma = P1^-1 P2, and perm_m is invariant under that relabelling, so
    every r = 2 matrix has the profile of its class.  The rows and columns
    of a sigma-cycle of length c form their own block of I + sigma, so the
    profile polynomial sum_m perm_m z^m is the product over the cycles of
    g_c(z): g_1 = 1 + 2z (one entry 2) and, for the 2c-cycle of the
    row-column graph, g_c = (1 + 2z) g_(c-1) - z^2 g_(c-2) with g_0 = 2.
    Returns the n + 1 exact coefficients, n = sum(parts).
    """
    g = [[2], [1, 2]]
    while len(g) <= max(parts, default=0):
        grown, shifted = _poly_product([1, 2], g[-1]), [0, 0] + g[-2]
        g.append([x - y for x, y in zip(grown, shifted)])
    out = [1]
    for c in parts:
        out = _poly_product(out, g[c])
    return out


def _poly_product(p, q):
    """Coefficients of the product of two polynomials given by coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def rising_splits(total, parts):
    """Non-decreasing splits of `total` into `parts` >= 1 parts, in lex order.

    The one partition enumerator: the oracle's cycle types of S_n are
    rising_splits(n, n) less the zeros, the product's color orbits rising_splits(m, r).
    Each step raises the last part at least 2 below the final one (just
    those can grow; a bisection finds it, as splits are sorted), sets the
    parts after it to its new value and gives the final part the rest.
    """
    split = [0] * (parts - 1) + [total]
    yield tuple(split)
    while (j := bisect_right(split, split[-1] - 2, 0, parts - 1) - 1) >= 0:
        v, rest = split[j] + 1, sum(split[j:])
        split[j:] = [v] * (parts - 1 - j) + [rest - v * (parts - 1 - j)]
        yield tuple(split)


def _cycle_classes(n: int):
    """One permutation of each cycle type of S_n, with the size of its class."""
    for split in rising_splits(n, n):
        parts = [part for part in split if part]
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
    return sum(1 for _ in rising_splits(n, n)) * factorial(n) ** (r - 2)


def oracle_cells(n: int, r: int) -> int:
    """DP cells of the oracle's work: ``oracle_matrix_count`` matrices x 2^n states."""
    return oracle_matrix_count(n, r) << n


def oracle_product_sums(n: int, r: int):
    """Exact sums of perm_m * perm_m2 over all (n!)^r permutation tuples.

    perm_m is invariant under row and column permutations of the matrix.
    Left-multiplying a tuple by P1^-1 permutes rows and maps the tuples
    bijectively onto those with P1 = I, so the sum is n! times the sum with
    P1 fixed at I.  Conjugating by any g fixes I and permutes rows and
    columns, so P2 contributes only through its cycle type: one head
    I + P2 per class, weighted by n! times the class size.  P3..Pr still
    range over all of S_n, so p(n) (n!)^(r-2) matrices are evaluated.  A
    table of at most ``PURE_ORACLE_CELLS`` DP cells runs the reference DP
    on Python lists (``_pure_oracle_profiles``), larger ones numpy's
    (``_numpy_oracle_profiles``); both yield a (head index, profile) pair
    per matrix.  One tally of the pairs weighs each distinct profile p, and
    the symmetric (n+1) x (n+1) table of exact integers this returns is
    read off it: entry (m, m2) is the sum of w_p p[m] p[m2].
    """
    nfact = factorial(n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    if r == 1:
        heads, weights = [eye], [nfact]
    else:
        classes = list(_cycle_classes(n))
        heads = [[[int(i == j) + (j == rep[i]) for j in range(n)] for i in range(n)]
                 for rep, _ in classes]
        weights = [nfact * size for _, size in classes]
    if oracle_cells(n, r) <= PURE_ORACLE_CELLS:
        pairs = _pure_oracle_profiles(heads, n, r)
    else:
        pairs = _numpy_oracle_profiles(heads, n, r)
    weight = Counter()
    for (h, prof), count in Counter(pairs).items():
        weight[prof] += weights[h] * count
    return [[sum(w * prof[m] * prof[m2] for prof, w in weight.items()) for m2 in range(n + 1)]
            for m in range(n + 1)]


def _pure_oracle_profiles(heads, n: int, r: int):
    """Every oracle matrix's (head index, profile), profiled by the reference DP.

    Each head is followed by its P3..Pr tails; a tail adds one entry per
    row of each of its permutations.
    """
    if n == 1:  # every tail is the identity: the one matrix is [[r]]
        yield 0, (1, r)
        return
    perms = list(itertools.permutations(range(n))) if r > 2 else []  # n! only for tails
    for h, head in enumerate(heads):
        for tail in itertools.product(perms, repeat=max(r - 2, 0)):
            mat = [row[:] for row in head]
            for perm in tail:
                for i, j in enumerate(perm):
                    mat[i][j] += 1
            yield h, tuple(_pykernels.subperm_profile(mat, n))


def _numpy_oracle_profiles(heads, n: int, r: int):
    """Every oracle matrix's (head index, profile), by numpy in int64 blocks.

    Blocks hold ``block_size(n)`` matrices.  Matrix k is head k // (n!)^(r-2)
    plus the tail whose base-n! digits are k % (n!)^(r-2).
    """
    import numpy as np

    heads = np.array(heads, dtype=np.int64)
    nfact = factorial(n)
    tail_len = max(r - 2, 0)
    tails = nfact**tail_len
    if tail_len:  # perms[k, i]: the column permutation k puts in row i
        cells = itertools.chain.from_iterable(itertools.permutations(range(n)))
        perms = np.fromiter(cells, dtype=np.int8, count=nfact * n).reshape(nfact, n)
    rows = np.arange(n)
    count, block = oracle_matrix_count(n, r), block_size(n)
    for start in range(0, count, block):
        head, tail = np.divmod(np.arange(start, min(start + block, count)), tails)
        mats = heads[head]
        batch = np.arange(len(head))[:, None]
        for _ in range(tail_len):
            tail, digit = np.divmod(tail, nfact)
            mats[batch, rows, perms[digit]] += 1
        yield from zip(head.tolist(), zip(*subperm_profiles(mats, n, r)))
