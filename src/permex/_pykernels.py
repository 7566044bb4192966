"""Pure-Python reference kernel for the subpermanent profile.

It runs on plain Python integers, so it has no overflow ceiling.  The
oracle profiles its small tables with it (``kernels.PURE_ORACLE_CELLS``),
which saves them importing numpy; every other profile comes from the
batched numpy kernel ``kernels.subperm_profiles``, which runs the same DP
over a block of matrices.  Tests and ``benchmarks/benchmark_backends.py``
check that kernel against this one, so the two must stay bit-identical.
"""


def subperm_profile(rows, n):
    """All subpermanent sums of an n x n integer matrix in one pass.

    Column-by-column dynamic program over subsets of used rows: after
    processing every column, accumulator S holds the weighted count of
    rook placements covering exactly the row set S.  Grouping by popcount
    gives the value for every placement size at once.
    """
    size = 1 << n
    f = [0] * size
    f[0] = 1
    for j in range(n):
        col = [rows[i][j] for i in range(n)]
        # Descend so f[S ^ bit] still holds the previous column's value.
        for s in range(size - 1, 0, -1):
            acc = f[s]
            t = s
            while t:
                low = t & -t
                v = col[low.bit_length() - 1]
                if v:
                    acc += v * f[s ^ low]
                t ^= low
            f[s] = acc
    out = [0] * (n + 1)
    for s in range(size):
        out[bin(s).count("1")] += f[s]
    return out
