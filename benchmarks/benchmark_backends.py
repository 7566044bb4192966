#!/usr/bin/env python3
"""Time the compiled subpermanent-profile kernel against its pure-Python twin.

The profile dynamic program is the one compiled kernel; it runs once per
sampled matrix and once per matrix the oracle evaluates.  Run after an
editable install:

    python benchmarks/benchmark_backends.py
"""

import time

from permex import EnsembleSpec, sample_matrix
from permex import _pykernels, kernels


def time_call(fn, *args, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_profiles():
    print("subpermanent profile DP (500 sampled matrices each)")
    print(f"{'n':>4} {'r':>3} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for n, r in [(6, 2), (8, 2), (10, 2), (12, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=1)
        mats = [sample_matrix(spec, i).entries for i in range(500)]

        def run(impl):
            out = 0
            for rows in mats:
                out ^= impl.subperm_profile(rows, n)[n]
            return out

        t_pure, check_pure = time_call(run, _pykernels)
        if kernels.compiled_available():
            from permex import _ckernels

            t_comp, check_comp = time_call(run, _ckernels)
            assert check_pure == check_comp
            print(f"{n:>4} {r:>3} {t_pure:>9.3f}s {t_comp:>9.3f}s {t_pure / t_comp:>7.1f}x")
        else:
            print(f"{n:>4} {r:>3} {t_pure:>9.3f}s {'n/a':>10} {'':>8}")


if __name__ == "__main__":
    backend = "compiled + pure" if kernels.compiled_available() else "pure only"
    print(f"available backends: {backend}")
    print()
    bench_profiles()
