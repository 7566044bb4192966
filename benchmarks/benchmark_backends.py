#!/usr/bin/env python3
"""Time the subpermanent-profile kernel and the Philox sample stream.

Every profile in the package comes from the batched numpy kernel
``kernels.subperm_profiles``: Monte Carlo sampling and the oracle run it
on blocks of ``kernels.block_size(n)`` matrices, and the per-matrix API
``kernels.subperm_profile`` runs it on a block of one.  Both are timed
here against ``_pykernels.subperm_profile``, and both must reproduce its
values.  Monte Carlo draws its permutations with ``model.sample_block``,
one pass of ``kernels.PASS_SAMPLES`` samples at a time; it is timed
against the per-sample reference stream ``model.sample_stream`` and must
reproduce its permutations.  The start-up table times ``permex <sub>
--help`` for every subcommand, and one ``rate`` run, in fresh child
processes, and shows whether each loaded numpy.  Run after an editable
install:

    python benchmarks/benchmark_backends.py
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import permex
from permex import EnsembleSpec, sample_matrix, sample_permutation, sample_stream
from permex import _pykernels, kernels
from permex.model import sample_block

SUBCOMMANDS = ("expect", "product", "oracle", "rate", "solve", "analytic", "mc",
               "scan", "argmax", "verify")
STARTUP_RUNS = 5

# Runs `permex <argv>` as the console script does; at exit, after main()'s
# sys.exit, writes to stderr whether numpy was imported.
_CHILD = """
import atexit, sys
atexit.register(lambda: sys.stderr.write(f"\\nnumpy={'numpy' in sys.modules}\\n"))
from permex.cli import main
main()
"""


def time_call(fn, *args, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_startup():
    env = dict(os.environ)
    src = str(Path(permex.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    print(f"start-up: median wall time of {STARTUP_RUNS} fresh processes")
    print(f"{'command':<28} {'wall':>8} {'numpy':>6}")
    commands = [[sub, "--help"] for sub in SUBCOMMANDS]
    commands.append(["rate", "--r", "2", "--p", "0.5"])
    for argv in commands:
        walls = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            walls.append(time.perf_counter() - t0)
            assert proc.returncode == 0, proc.stderr.decode()
        loaded = proc.stderr.decode().rsplit("numpy=", 1)[1].strip()
        print(f"{' '.join(argv):<28} {statistics.median(walls):>7.3f}s "
              f"{'yes' if loaded == 'True' else 'no':>6}")


def bench_profiles():
    print("subpermanent profile DP (500 sampled matrices each; speedup = pure / batched)")
    print(f"{'n':>4} {'r':>3} {'pure':>10} {'one':>10} {'batched':>10} {'speedup':>8}")
    for n, r in [(6, 2), (8, 2), (10, 2), (12, 3)]:
        spec = EnsembleSpec(n=n, r=r, seed=1)
        mats = [sample_matrix(spec, i).entries for i in range(500)]
        block = kernels.block_size(n)
        blocks = [np.array(mats[i:i + block], dtype=np.int64)
                  for i in range(0, len(mats), block)]

        def run(profile):
            out = 0
            for rows in mats:
                out ^= profile(rows, n)[n]
            return out

        def run_batched():
            out = 0
            for chunk in blocks:
                for value in kernels.subperm_profiles(chunk, n, r)[n]:
                    out ^= value
            return out

        t_pure, check_pure = time_call(run, _pykernels.subperm_profile)
        t_one, check_one = time_call(run, kernels.subperm_profile)
        t_batch, check_batch = time_call(run_batched)
        assert check_one == check_pure
        assert check_batch == check_pure
        print(f"{n:>4} {r:>3} {t_pure:>9.3f}s {t_one:>9.3f}s {t_batch:>9.3f}s "
              f"{t_pure / t_batch:>7.1f}x")


def bench_sampling():
    count = kernels.PASS_SAMPLES
    print(f"Philox sample stream, r = 2 ({count} samples each; us per sample)")
    print(f"{'n':>4} {'stream':>10} {'block':>10} {'speedup':>8}")
    for n in (6, 8, 10, 13):
        spec = EnsembleSpec(n=n, r=2, seed=1)

        def per_sample():
            out = []
            for i in range(count):
                rng = sample_stream(spec, i)
                out.append([list(sample_permutation(n, rng)) for _ in range(spec.r)])
            return out

        t_stream, want = time_call(per_sample)
        t_block, got = time_call(sample_block, spec, 0, count, repeat=3)
        assert got.tolist() == want
        print(f"{n:>4} {t_stream / count * 1e6:>10.1f} {t_block / count * 1e6:>10.1f} "
              f"{t_stream / t_block:>7.1f}x")


if __name__ == "__main__":
    bench_startup()
    print()
    print("pure: _pykernels, one matrix per call; one: kernels.subperm_profile,")
    print("a block of one; batched: kernels.subperm_profiles, kernels.block_size(n)")
    print()
    bench_profiles()
    print()
    bench_sampling()
