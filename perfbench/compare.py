#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one run
per line.  For every workload and end-to-end metric this prints both
medians, their quartiles and run counts, and a verdict against the
metric's bound in BENCHMARK.json (a share of the base median):

  WORSE       the new median is worse by more than the bound
  better      the new median is better by more than the bound, or every
              new run beats every base run
  unresolved  either side's quartile spread exceeds the bound
  unchanged   otherwise

It also prints each set's fail ratio and warns when the sets ran on
different kernel backends, which must not be compared silently.
Exits 1 when any metric is WORSE or any run failed.
"""

import json
import statistics
import sys
from collections import defaultdict

import common


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def describe(values):
    """(median, q1, q3, relative spread); one run has no spread."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, new, bound, lower_is_better):
    b_med, _, _, b_spread = describe(base)
    n_med, _, _, n_spread = describe(new)
    sign = 1 if lower_is_better else -1
    change = sign * (n_med - b_med) / b_med
    if change > bound:
        return "WORSE"
    if max(b_spread, n_spread) > bound:
        all_better = max(new) < min(base) if lower_is_better else min(new) > max(base)
        return "better" if all_better else "unresolved"
    return "better" if change < -bound else "unchanged"


def backends(records):
    return {json.dumps([r["context"]["profile_backends"], r["context"]["compiled_available"],
                        r["context"]["PERMEX_BACKEND"]]) for r in records}


def main(base_path, new_path):
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    bad = False
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        if not b_runs or not n_runs:
            print("  missing on one side; not compared")
            continue
        for label, runs in (("base", b_runs), ("new", n_runs)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"  {label} fail_ratio {failed / attempted:g} ({failed}/{attempted})")
            bad = bad or failed > 0
        if backends(b_runs) != backends(n_runs):
            print(f"  WARNING: backends differ: base {sorted(backends(b_runs))} "
                  f"new {sorted(backends(n_runs))}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs]
            v = verdict(b, n, metric["bound"], metric["better"] == "lower")
            bad = bad or v == "WORSE"
            bm, bq1, bq3, _ = describe(b)
            nm, nq1, nq3, _ = describe(n)
            print(f"  {name:12s} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b)}  "
                  f"new {nm:.4g} [{nq1:.4g}, {nq3:.4g}] n={len(n)}  "
                  f"{(nm - bm) / bm:+.1%} {metric['unit']}  bound {metric['bound']:.0%}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
