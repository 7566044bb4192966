#!/usr/bin/env python3
"""Time the subpermanent-profile kernel and the Philox sample stream.

Monte Carlo sampling and the oracle's large tables run the batched numpy
kernel ``kernels.subperm_profiles`` on blocks of ``kernels.block_size(n)``
matrices, and the per-matrix API ``kernels.subperm_profile`` runs it on a
block of one; the oracle's small tables run the reference DP itself.
Both numpy calls are timed here against ``_pykernels.subperm_profile``,
and both must reproduce its values.  At r = 2 Monte Carlo reads each
sample's class, the cycle type of P1^-1 P2, off its Philox words with the
pure-Python ``model.sample_classes``; it is timed against the classes of
the permutations of ``model.sample_block``, which reads the same words,
and of the per-sample reference stream ``model.sample_stream``, and all
three tallies must be equal (speedup = stream / sample_classes).  At
r = 3 ``sample_block`` is timed against the reference stream, and its
permutations must equal the stream's.  The
fresh-process table times ``permex <sub> --help`` for every subcommand, one ``rate`` run, five ``argmax`` runs
(the collapsed walk of ``moments``, at r = 2, 3, 5 and 250), six ``product``
runs (r = 3, 4, 12, 60 twice and 250, the last four with few profiles but
long compositions and mostly empty rows), five ``oracle`` runs (the orbit sum of ``kernels``, at
r = 2, 3, 4 and 5; (4, 3) is small enough for the pure path, and (4, 5) tallies 69,120
matrices into few distinct profiles) and ``verify
--suite oracle-product`` in fresh child processes, and shows whether each
loaded numpy.  Run after an editable install:

    python benchmarks/benchmark_backends.py
"""

import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import permex
from permex import EnsembleSpec, sample_matrix, sample_permutation, sample_stream
from permex import _pykernels, kernels
from permex.model import sample_block, sample_classes

SUBCOMMANDS = ("expect", "product", "oracle", "rate", "solve", "analytic", "mc",
               "scan", "argmax", "verify")
STARTUP_RUNS = 5

# Runs `permex <argv>` as the console script does; the hook, registered
# before main(), runs in main()'s atexit step and writes to stderr whether
# numpy was imported.
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
    print(f"fresh processes: median wall time of {STARTUP_RUNS} each")
    print(f"{'command':<36} {'wall':>8} {'numpy':>6}")
    commands = [[sub, "--help"] for sub in SUBCOMMANDS]
    commands.append(["rate", "--r", "2", "--p", "0.5"])
    for sub, points in (("argmax", ((10, 2, 5, 5), (12, 2, 6, 6), (7, 3, 3, 4), (6, 5, 3, 3),
                                    (1, 250, 1, 1))),
                        ("product", ((10, 3, 5, 5), (8, 4, 4, 4), (4, 12, 2, 2), (1, 60, 1, 1),
                                     (2, 60, 1, 2), (1, 250, 1, 1))),
                        ("oracle", ((12, 2, 6, 6), (7, 3, 3, 4), (5, 4, 2, 3), (4, 3, 2, 2),
                                    (4, 5, 2, 2)))):
        for n, r, m, m2 in points:
            commands.append([sub, "--n", str(n), "--r", str(r), "--m", str(m), "--m2", str(m2)])
    commands.append(["verify", "--suite", "oracle-product"])
    for argv in commands:
        walls = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            walls.append(time.perf_counter() - t0)
            assert proc.returncode == 0, proc.stderr.decode()
        loaded = proc.stderr.decode().rsplit("numpy=", 1)[1].strip()
        print(f"{' '.join(argv):<36} {statistics.median(walls):>7.3f}s "
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

        def run(profile, *max_entry):
            out = 0
            for rows in mats:
                out ^= profile(rows, n, *max_entry)[n]
            return out

        def run_batched():
            out = 0
            for chunk in blocks:
                for value in kernels.subperm_profiles(chunk, n, r)[n]:
                    out ^= value
            return out

        t_pure, check_pure = time_call(run, _pykernels.subperm_profile)
        t_one, check_one = time_call(run, kernels.subperm_profile, r)
        t_batch, check_batch = time_call(run_batched)
        assert check_one == check_pure
        assert check_batch == check_pure
        print(f"{n:>4} {r:>3} {t_pure:>9.3f}s {t_one:>9.3f}s {t_batch:>9.3f}s "
              f"{t_pure / t_batch:>7.1f}x")


def cycle_types(samples):
    """Counter of the sorted cycle lengths of P1^-1 P2 over (P1, P2) samples."""
    tally = Counter()
    for p1, p2 in samples:
        inverse = sorted(range(len(p1)), key=p1.__getitem__)
        sigma = [inverse[col] for col in p2]
        lengths = []
        for first in range(len(sigma)):
            length, i = 0, first
            while sigma[i] >= 0:
                sigma[i], i = -1, sigma[i]
                length += 1
            if length:
                lengths.append(length)
        tally[tuple(sorted(lengths))] += 1
    return tally


def stream_samples(spec, count):
    """The permutations of samples 0..count-1, one reference stream each."""
    out = []
    for i in range(count):
        rng = sample_stream(spec, i)
        out.append([list(sample_permutation(spec.n, rng)) for _ in range(spec.r)])
    return out


def bench_sampling():
    count = 1024
    print(f"r = 2 sample classes ({count} samples each; us per sample)")
    print(f"{'n':>4} {'stream':>10} {'block':>10} {'classes':>10} {'speedup':>8}")
    for n in (6, 8, 10, 13):
        spec = EnsembleSpec(n=n, r=2, seed=1)
        t_stream, want = time_call(lambda: cycle_types(stream_samples(spec, count)))
        t_block, got_block = time_call(
            lambda: cycle_types(sample_block(spec, 0, count).tolist()), repeat=3)
        t_classes, got = time_call(sample_classes, spec, 0, count, repeat=3)
        assert got_block == want
        assert got == want
        print(f"{n:>4} {t_stream / count * 1e6:>10.1f} {t_block / count * 1e6:>10.1f} "
              f"{t_classes / count * 1e6:>10.1f} {t_stream / t_classes:>7.1f}x")
    print()
    print(f"r = 3 permutations ({count} samples each; us per sample)")
    print(f"{'n':>4} {'stream':>10} {'block':>10} {'speedup':>8}")
    for n in (6, 8, 10, 13):
        spec = EnsembleSpec(n=n, r=3, seed=1)
        t_stream, want = time_call(stream_samples, spec, count)
        t_block, got = time_call(lambda: sample_block(spec, 0, count).tolist(), repeat=3)
        assert got == want
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
