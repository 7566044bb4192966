#!/usr/bin/env python3
"""Time the subpermanent-profile kernels against the pure-Python reference.

The per-matrix profile DP runs once per matrix the oracle evaluates, on
the compiled extension when it is built.  Monte Carlo sampling instead
runs the batched numpy kernel ``kernels.subperm_profiles`` on blocks of
``montecarlo.block_size(n)`` matrices.  Run after an editable install:

    python benchmarks/benchmark_backends.py
"""

import time

import numpy as np

from permex import EnsembleSpec, sample_matrix
from permex import _pykernels, kernels
from permex.montecarlo import block_size


def time_call(fn, *args, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_profiles():
    print("subpermanent profile DP (500 sampled matrices each; speedup = pure / batched)")
    print(f"{'n':>4} {'r':>3} {'pure':>10} {'compiled':>10} {'batched':>10} {'speedup':>8}")
    for n, r in [(6, 2), (8, 2), (10, 2), (12, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=1)
        mats = [sample_matrix(spec, i).entries for i in range(500)]
        block = block_size(n)
        blocks = [np.array(mats[i:i + block], dtype=np.int64)
                  for i in range(0, len(mats), block)]

        def run(impl):
            out = 0
            for rows in mats:
                out ^= impl.subperm_profile(rows, n)[n]
            return out

        def run_batched():
            out = 0
            for chunk in blocks:
                for value in kernels.subperm_profiles(chunk, n, r)[n]:
                    out ^= value
            return out

        t_pure, check_pure = time_call(run, _pykernels)
        t_batch, check_batch = time_call(run_batched)
        assert check_batch == check_pure
        comp = "n/a"
        if kernels.compiled_available():
            from permex import _ckernels

            t_comp, check_comp = time_call(run, _ckernels)
            assert check_pure == check_comp
            comp = f"{t_comp:.3f}s"
        print(f"{n:>4} {r:>3} {t_pure:>9.3f}s {comp:>10} {t_batch:>9.3f}s "
              f"{t_pure / t_batch:>7.1f}x")


if __name__ == "__main__":
    backend = "compiled + pure" if kernels.compiled_available() else "pure only"
    print(f"available backends: {backend}")
    print()
    bench_profiles()
