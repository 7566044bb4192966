#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and failure counting.

    python3 perfbench/selftest.py

Runs a few quick permex commands through the same paths the timed and
traced runs use, and shows that a command counts as failed when its stdout
differs from the recorded output, when it exits non-zero, or when a verify
report says "pass": false, while a matching command does not.  Exits 1 if
any of this does not hold.
"""

import json
import sys

import common
import run
import tracing

QUICK = ("expect", "--n", "4", "--r", "2", "--m", "2", "--threads", "1")
# m > n is a domain error: exit code 1
DOMAIN_ERROR = ("expect", "--n", "4", "--r", "2", "--m", "9", "--threads", "1")


def failures_of(commands, expected, env):
    _, _, _, failures = run.run_commands(commands, env, expected)
    return len(failures)


def main():
    common.require_source()
    env = common.child_env()
    quick = common.run_permex(QUICK, env)
    recorded = {common.command_key(QUICK): common.digest(quick.stdout)}
    tampered = {common.command_key(QUICK): common.digest(quick.stdout.replace(b"1", b"2"))}
    report = json.dumps({"op": "verify", "pass": False}).encode()
    report_key = "verify --suite stationarity"
    checks = [
        ("matching output counts as success", failures_of([QUICK], recorded, env), 0),
        ("tampered expected output counts as failure", failures_of([QUICK], tampered, env), 1),
        ("non-zero exit counts as failure",
         failures_of([DOMAIN_ERROR], {common.command_key(DOMAIN_ERROR): common.digest(b"")}, env),
         1),
        ("verify report with pass false counts as failure",
         int(common.check_output(report_key.split(), 0, report,
                                 {report_key: common.digest(report)}) is not None), 1),
        ("recorded factorization output matches",
         failures_of([common.VERIFY_FACTOR], common.load_expected(), env), 0),
        ("traced run: matching output counts as success",
         len(tracing.dispatch_all([QUICK], recorded)[1]), 0),
        ("traced run: tampered expected output counts as failure",
         len(tracing.dispatch_all([QUICK], tampered)[1]), 1),
        ("traced run: non-zero exit counts as failure",
         len(tracing.dispatch_all([DOMAIN_ERROR], {})[1]), 1),
    ]
    ok = True
    for what, got, want in checks:
        print(f"{'ok  ' if got == want else 'FAIL'} {what} (failures {got}, expected {want})")
        ok = ok and got == want
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
