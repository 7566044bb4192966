#!/usr/bin/env python3
"""The permex benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mc-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times real ``permex`` CLI processes and reports the end-to-end
metrics.  ``--trace 1`` runs the same commands in this process under timing
wrappers and reports the per-layer split (see tracing.py).  The last line
of stdout is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; ``--out FILE`` also appends the result, with its run context,
as one JSON line for compare.py.  The workloads and metrics are described
in perfbench/README.md.
"""

import argparse
import json
import random
import statistics
import sys
import time

import common

# Each iteration runs the workload's commands once, in a seeded order.
MIN_ITERATIONS = 3
# `permex <subcommand> --help` runs per subcommand per iteration; their
# median is setup_s.
HELP_RUNS = 2


def run_commands(commands, env, expected):
    """Run commands one after another; return wall, CPU, peak RSS, failures."""
    cpu = peak = 0.0
    failures = []
    t0 = time.perf_counter()
    for argv in commands:
        res = common.run_permex(argv, env)
        cpu += res.cpu_s
        peak = max(peak, res.rss_mb)
        problem = common.check_output(argv, res.returncode, res.stdout, expected)
        if problem:
            failures.append((argv, problem, res.stderr))
    return time.perf_counter() - t0, cpu, peak, failures


def measure(workload, seed, seconds):
    """End-to-end metrics of one workload from untraced child processes."""
    env = common.child_env()
    expected = common.load_expected()
    commands = workload.commands(seed)
    subs = workload.subcommands()
    common.run_permex([subs[0], "--help"], env)  # warm-up: bytecode caches
    rng = random.Random(seed)
    setup = {sub: [] for sub in subs}
    walls, cpus, peaks, failures = [], [], [], []

    def iteration(_):
        for sub in subs:
            for _ in range(HELP_RUNS):
                res = common.run_permex([sub, "--help"], env)
                setup[sub].append(res.wall_s)
                if res.returncode != 0:
                    failures.append(([sub, "--help"], f"exit code {res.returncode}", res.stderr))
        order = rng.sample(commands, len(commands))
        wall, cpu, peak, failed = run_commands(order, env, expected)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        failures.extend(failed)

    iterations = common.repeat_for(seconds, MIN_ITERATIONS, iteration)
    attempted = iterations * (len(commands) + HELP_RUNS * len(subs))
    common.report_failures(failures)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (sum(statistics.median(v) for v in setup.values()), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    detail = {"iterations": iterations, "wall_s": walls, "cpu_s": cpus,
              "peak_rss_mb": peaks, "setup_s": setup}
    return common.result(attempted, len(failures), metrics), detail


def print_table(name, res):
    ratio = res["failed"] / res["attempted"]
    print(f"{name}: {res['attempted']} commands, {res['failed']} failed "
          f"(fail_ratio {ratio:g}), correct={res['correct']}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")


def run_one(name, seed, seconds, trace):
    workload = common.WORKLOADS[name]
    if trace:
        import tracing

        res, detail = tracing.measure(workload, seed, seconds)
    else:
        res, detail = measure(workload, seed, seconds)
    context = common.run_context(workload)
    print("context " + json.dumps(context, sort_keys=True))
    print_table(name, res)
    return res, {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                 "context": context, "detail": detail, "result": res}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*common.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result record as a JSON line to this file")
    args = ap.parse_args(argv)
    common.require_source()

    names = list(common.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res, record = run_one(name, args.seed, args.seconds, args.trace)
        results[name] = res
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
