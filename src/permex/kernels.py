"""Kernel backend selection, the batched sampling kernel, and the oracle.

Every kernel call certifies its inputs once: when ``profile_value_bound``
proves that all values fit, fixed-width int64 arithmetic is used, and
otherwise exact Python integers.  Per matrix, int64 means the compiled
extension, and without it the pure-Python kernel runs; a block of sampled
matrices runs one vectorised numpy DP, on int64 or on ``object`` arrays
of Python ints, on every install.
``PERMEX_BACKEND=pure`` forces Python integers, ``auto`` (the default)
and ``compiled`` use int64 when certified, and ``compiled`` raises if the
extension is missing or the bound fails.
"""

import itertools
import os
from collections import Counter
from math import comb, factorial

import numpy as np

from . import _pykernels
from .errors import CapacityError, DomainError

try:
    from . import _ckernels
except ImportError:
    _ckernels = None

I64_SAFE_BOUND = 1 << 62


def compiled_available() -> bool:
    return _ckernels is not None


def backend_mode() -> str:
    mode = os.environ.get("PERMEX_BACKEND", "auto").lower()
    if mode not in ("auto", "pure", "compiled"):
        raise DomainError(f"PERMEX_BACKEND must be auto|pure|compiled, got {mode!r}")
    return mode


def profile_value_bound(n: int, max_entry: int) -> int:
    """Exact upper bound on any subpermanent sum: max_m C(n,m)^2 m! max_entry^m."""
    best = 1
    for m in range(n + 1):
        v = comb(n, m) ** 2 * factorial(m) * max_entry**m
        if v > best:
            best = v
    return best


def _fixed_width(bound: int) -> bool:
    """Whether values up to ``bound`` run on int64 under PERMEX_BACKEND."""
    mode = backend_mode()
    if mode == "pure":
        return False
    if mode == "compiled":
        if _ckernels is None:
            raise CapacityError("PERMEX_BACKEND=compiled but the extension is not built")
        if bound >= I64_SAFE_BOUND:
            raise CapacityError("PERMEX_BACKEND=compiled but values exceed the int64 bound")
    return bound < I64_SAFE_BOUND


def _pick(bound: int):
    if _fixed_width(bound) and _ckernels is not None:
        return _ckernels
    return _pykernels


def profile_backend_name(n: int, max_entry: int) -> str:
    return _pick(profile_value_bound(n, max_entry)).BACKEND_NAME


def subperm_profile(rows, n: int, max_entry=None):
    """Profile of all subpermanent sums; dispatches on the value bound."""
    if max_entry is None:
        max_entry = max(max(row) for row in rows)
    return _pick(profile_value_bound(n, max_entry)).subperm_profile(rows, n)


def subperm_profiles(mats, n: int, max_entry: int):
    """Profiles of a (B, n, n) block of matrices with entries <= max_entry.

    The subset DP of ``_pykernels.subperm_profile``, run on the whole block
    at once: the state is laid out (2^n, B), batch innermost, so adding row
    i to every subset that lacks it is one numpy op on a reshaped view.
    Returns n + 1 lists of Python ints; entry [m][b] is perm_m of matrix b.
    """
    dtype = np.int64 if _fixed_width(profile_value_bound(n, max_entry)) else object
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


def oracle_product_sums(n: int, r: int):
    """Exact sums of perm_m * perm_m2 over all (n!)^r permutation tuples.

    perm_m is invariant under row and column permutations of the matrix.
    Left-multiplying a tuple by P1^-1 permutes rows and maps the tuples
    bijectively onto those with P1 = I, so the sum is n! times the sum with
    P1 fixed at I.  Conjugating by any g fixes I and permutes rows and
    columns, so P2 contributes only through its cycle type: one
    representative per class, weighted by the class size.  P3..Pr still
    range over all of S_n, so p(n) (n!)^(r-2) matrices are evaluated.
    Returns an (n+1) x (n+1) symmetric table of exact integers.
    """
    backend = _pick(profile_value_bound(n, r))
    identity = tuple(range(n))
    if r == 1:
        heads = [((identity,), 1)]
    else:
        heads = [((identity, rep), size) for rep, size in _cycle_classes(n)]
    perms = list(itertools.permutations(range(n)))
    nfact = factorial(n)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for head, size in heads:
        weight = nfact * size
        for tail in itertools.product(perms, repeat=r - len(head)):
            rows = [[0] * n for _ in range(n)]
            for p in head + tail:
                for i, j in enumerate(p):
                    rows[i][j] += 1
            prof = backend.subperm_profile(rows, n)
            for m in range(n + 1):
                pm = weight * prof[m]
                row = table[m]
                for m2 in range(m, n + 1):
                    row[m2] += pm * prof[m2]
    for m in range(n + 1):
        for m2 in range(m + 1, n + 1):
            table[m2][m] = table[m][m2]
    return table
