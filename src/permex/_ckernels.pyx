# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of the subpermanent-profile kernel in ``_pykernels``.

Profile values are carried in int64, so callers must certify (via
``profile_value_bound``) that every intermediate fits; the dispatcher in
``kernels`` routes oversized inputs to the pure-Python implementation
instead.
"""

import math

from libc.stdlib cimport free, malloc

from .errors import CapacityError

cdef extern from *:
    int __builtin_ctzl(unsigned long) nogil
    int __builtin_popcountl(unsigned long) nogil

ctypedef long long i64

BACKEND_NAME = "compiled"

I64_SAFE_BOUND = 1 << 62


def profile_value_bound(int n, max_entry):
    """Exact upper bound on any subpermanent sum of an n x n matrix."""
    best = 1
    for m in range(n + 1):
        v = math.comb(n, m) ** 2 * math.factorial(m) * max_entry**m
        if v > best:
            best = v
    return best


cdef void _profile_kernel(const i64 *mat, int n, i64 *f, i64 *out):
    cdef long size = (<long>1) << n
    cdef long s, t
    cdef int i, j
    cdef i64 acc, v
    f[0] = 1
    for s in range(1, size):
        f[s] = 0
    for j in range(n):
        # Descend so f[s ^ bit] is still the previous column's value.
        for s in range(size - 1, 0, -1):
            acc = f[s]
            t = s
            while t:
                i = __builtin_ctzl(<unsigned long>t)
                v = mat[i * n + j]
                if v:
                    acc += v * f[s ^ ((<long>1) << i)]
                t &= t - 1
            f[s] = acc
    for i in range(n + 1):
        out[i] = 0
    for s in range(size):
        out[__builtin_popcountl(<unsigned long>s)] += f[s]


def subperm_profile(rows, int n):
    """int64 version of the subset dynamic program; see the pure twin."""
    if profile_value_bound(n, max(max(row) for row in rows)) >= I64_SAFE_BOUND:
        raise CapacityError(f"profile values may overflow int64 at n={n}")
    cdef long size = (<long>1) << n
    cdef i64 *mat = <i64 *>malloc(n * n * sizeof(i64))
    cdef i64 *f = <i64 *>malloc(size * sizeof(i64))
    cdef i64 *out = <i64 *>malloc((n + 1) * sizeof(i64))
    if mat == NULL or f == NULL or out == NULL:
        free(mat); free(f); free(out)
        raise MemoryError()
    cdef int i, j
    try:
        for i in range(n):
            row = rows[i]
            for j in range(n):
                mat[i * n + j] = row[j]
        _profile_kernel(mat, n, f, out)
        return [out[i] for i in range(n + 1)]
    finally:
        free(mat); free(f); free(out)
