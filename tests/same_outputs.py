"""Compare two trees of CLI outputs: did a change move any artifact?

    python3 tests/same_outputs.py PARENT_DIR CHANGE_DIR [--rtol R]

Lists the files only one tree has, then says for each file both have
whether its bytes are identical.  For a CSV or JSON file that differs it
gives the largest absolute and relative difference of each CSV column and
each JSON number path (list indices shown as ``[]``); a cell or value that
is not a number must be equal.  Two numbers a and b are within tolerance
when |a - b| <= R * max(|a|, |b|).  The default R of 0 asks for identical
bytes in every file; any other file type must be identical whatever R is.
Exits 0 only when no file is added, removed or out of tolerance.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _cell_number(text):
    """A CSV cell as a float, or None if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def _is_json_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class Diff:
    """The largest differences of a file, per column or path, and what else differs."""

    def __init__(self, rtol):
        self.rtol = rtol
        self.worst = {}  # key -> [max abs, max rel]
        self.unequal = []  # what is not a number and differs

    def numbers(self, key, a, b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            abs_diff = rel_diff = 0.0
        elif math.isfinite(a) and math.isfinite(b):
            abs_diff = abs(a - b)
            rel_diff = abs_diff / max(abs(a), abs(b))
        else:
            abs_diff = rel_diff = math.inf
        worst = self.worst.setdefault(key, [0.0, 0.0])
        worst[0], worst[1] = max(worst[0], abs_diff), max(worst[1], rel_diff)

    def within(self) -> bool:
        """The numbers are within ``rtol`` and all else is equal; never at rtol 0."""
        return (self.rtol > 0 and not self.unequal
                and all(rel <= self.rtol for _, rel in self.worst.values()))


def _compare_csv(diff, a_text, b_text):
    a_rows = list(csv.reader(a_text.splitlines()))
    b_rows = list(csv.reader(b_text.splitlines()))
    if [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        diff.unequal.append(f"row or column counts differ: {len(a_rows)} vs {len(b_rows)} rows")
        return
    # a first row with no number in it is a header naming the columns
    header = a_rows[0] if a_rows and all(_cell_number(x) is None for x in a_rows[0]) else None
    for a_row, b_row in zip(a_rows, b_rows):
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            column = header[j] if header and j < len(header) else f"column {j}"
            x, y = _cell_number(a), _cell_number(b)
            if x is not None and y is not None:
                diff.numbers(column, x, y)
            elif a != b:
                diff.unequal.append(f"{column}: {a!r} != {b!r}")


def _compare_json(diff, a, b, path="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            diff.unequal.append(f"{path}: keys differ: {sorted(a.keys() ^ b.keys())}")
        for key in sorted(a.keys() & b.keys()):
            _compare_json(diff, a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.unequal.append(f"{path}: lengths differ: {len(a)} vs {len(b)}")
        for x, y in zip(a, b):
            _compare_json(diff, x, y, f"{path}[]")
    elif _is_json_number(a) and _is_json_number(b):
        diff.numbers(path, float(a), float(b))
    elif a != b or type(a) is not type(b):
        diff.unequal.append(f"{path}: {a!r} != {b!r}")


def compare_file(a_path: Path, b_path: Path, rtol):
    """The Diff of two files that differ, or None when their bytes are identical."""
    a_bytes, b_bytes = a_path.read_bytes(), b_path.read_bytes()
    if a_bytes == b_bytes:
        return None
    diff = Diff(rtol)
    try:
        if a_path.suffix == ".csv":
            _compare_csv(diff, a_bytes.decode(), b_bytes.decode())
        elif a_path.suffix == ".json":
            _compare_json(diff, json.loads(a_bytes), json.loads(b_bytes))
        else:
            diff.unequal.append("bytes differ")
    except ValueError as e:  # not text, or not valid JSON
        diff.unequal.append(f"unreadable: {e}")
    return diff


def _files(root: Path):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance of a number; 0 asks for identical bytes")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    parent, change = _files(args.parent), _files(args.change)
    for name in sorted(change - parent):
        print(f"added: {name}")
    for name in sorted(parent - change):
        print(f"removed: {name}")
    identical = failed = 0
    common = sorted(parent & change)
    for name in common:
        diff = compare_file(args.parent / name, args.change / name, args.rtol)
        if diff is None:
            identical += 1
            print(f"identical: {name}")
            continue
        ok = diff.within()
        failed += not ok
        print(f"differs: {name} ({'within' if ok else 'out of'} tolerance)")
        lines = [f"{key}: max abs {abs_diff:.3g}, max rel {rel_diff:.3g}"
                 for key, (abs_diff, rel_diff) in sorted(diff.worst.items()) if rel_diff]
        for line in lines + diff.unequal or ["every number equal, the text differs"]:
            print(f"  {line}")
    added, removed = len(change - parent), len(parent - change)
    print(f"summary: {len(common)} common files, {identical} identical, "
          f"{len(common) - identical} differ ({failed} out of tolerance at rtol {args.rtol:g}), "
          f"{added} added, {removed} removed")
    return 0 if not (added or removed or failed) else 1


if __name__ == "__main__":
    sys.exit(main())
