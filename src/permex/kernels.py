"""Kernel backend selection, and the ensemble oracle built on it.

The compiled extension is used whenever it imported successfully and the
input certifies as safe for its fixed-width arithmetic; anything else runs
on the pure-Python kernels.  ``PERMEX_BACKEND=pure|compiled|auto`` forces
the choice (``compiled`` raises if unusable).
"""

import itertools
import os
from collections import Counter
from math import comb, factorial

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


def _pick(bound: int):
    mode = backend_mode()
    if mode == "pure":
        return _pykernels
    if mode == "compiled":
        if _ckernels is None:
            raise CapacityError("PERMEX_BACKEND=compiled but the extension is not built")
        if bound >= I64_SAFE_BOUND:
            raise CapacityError("PERMEX_BACKEND=compiled but values exceed the int64 bound")
        return _ckernels
    if _ckernels is not None and bound < I64_SAFE_BOUND:
        return _ckernels
    return _pykernels


def profile_backend_name(n: int, max_entry: int) -> str:
    return _pick(profile_value_bound(n, max_entry)).BACKEND_NAME


def subperm_profile(rows, n: int, max_entry=None):
    """Profile of all subpermanent sums; dispatches on the value bound."""
    if max_entry is None:
        max_entry = max(max(row) for row in rows)
    return _pick(profile_value_bound(n, max_entry)).subperm_profile(rows, n)


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
