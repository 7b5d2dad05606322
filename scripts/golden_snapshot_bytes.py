#!/usr/bin/env python3
"""Checks that two ObsGolden outputs differ only in snapshot byte counts.

A change to the snapshot layout moves two things in the golden files under
tests/golden/: the bayonet_checkpoint_bytes_total metric and the "bytes" arg
of each snapshot.write span. This masks exactly those values and requires
every other byte to match, then prints the moved values.

Usage: scripts/golden_snapshot_bytes.py OLD_DIR NEW_DIR
  e.g. scripts/golden_snapshot_bytes.py tests/golden build/golden.actual
Files present only in OLD_DIR are skipped (the tests write only mismatches).
Exit status 1 when anything other than a snapshot byte count differs.
"""

import os
import re
import sys

PATTERNS = [
    re.compile(r"(bayonet_checkpoint_bytes_total=)(\d+)"),
    re.compile(r'("name":"snapshot\.write".*?"bytes":")(\d+)'),
]


def masked(text):
    values = []
    for pat in PATTERNS:
        values += [m.group(2) for m in pat.finditer(text)]
        text = pat.sub(lambda m: m.group(1) + "N", text)
    return text, values


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = argv[1], argv[2]
    bad = False
    for name in sorted(os.listdir(new_dir)):
        with open(os.path.join(old_dir, name)) as f:
            old, old_vals = masked(f.read())
        with open(os.path.join(new_dir, name)) as f:
            new, new_vals = masked(f.read())
        if old != new:
            print(f"{name}: differs beyond snapshot byte counts")
            bad = True
            continue
        moved = [f"{a}->{b}" for a, b in zip(old_vals, new_vals) if a != b]
        print(f"{name}: only snapshot bytes moved: {', '.join(moved)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
