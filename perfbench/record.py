#!/usr/bin/env python3
"""Record the stdout digest of every benchmark command into expected.json.

    python3 perfbench/record.py

The benchmark fails any command whose stdout is not byte-identical to the
recorded output.  Record again only for a change whose purpose is to alter
a report, and say so in that change.
"""

import json
import sys

import common


def main():
    common.require_source()
    env = common.child_env()
    expected = {}
    for argv in common.all_commands():
        res = common.run_permex(argv, env)
        if res.returncode != 0:
            sys.exit(f"permex {' '.join(argv)} exited {res.returncode}:\n"
                     + res.stderr.decode(errors="replace"))
        expected[common.command_key(argv)] = common.digest(res.stdout)
        print(f"{res.wall_s:7.2f} s  permex {' '.join(argv)}")
    common.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
