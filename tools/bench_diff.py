#!/usr/bin/env python3
"""Cell-by-cell diff and digests of BENCH_<name>.json reports.

A bench report holds `bench`, `params` and `rows` plus host-side
fields: wall time (`wall_time_s`, `eval_wall_s`, any key containing
"wall"), runner footers (keys starting "runner") and the machine
(keys starting "machine" or "host", `hardware_concurrency`).  The
host-side fields change from run to run; everything else is a pure
function of the source tree, bit for bit, because numbers are written
with %.17g.

    bench_diff.py A.json B.json
        Print every cell that differs between two reports of one
        bench, before and after.  Exit 1 when any cell moved.

    bench_diff.py --check DIGESTS [DIR]
        Recompute the digest of DIR/BENCH_<name>.json (DIR defaults to
        the working directory) for every bench DIGESTS names and
        compare.  Exit 1 on a mismatch or a missing report.

    bench_diff.py --update DIGESTS [DIR]
        Rewrite DIGESTS from the reports in DIR, for the benches it
        already names.

A digest is the SHA-256 of the report minus its host-side fields,
serialized with sorted keys; Python's float repr round-trips, so equal
digests mean bit-identical tables.  Stdlib only.
"""

import argparse
import hashlib
import json
import os
import sys


def host_field(key):
    """True for the wall-time, runner and machine fields."""
    return ("wall" in key or key.startswith(("runner", "machine", "host"))
            or key == "hardware_concurrency")


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if not host_field(k)}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def load(path):
    with open(path) as f:
        return strip(json.load(f))


def digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def row_label(row):
    """The row's string cells: its identity in the table."""
    return ", ".join(f"{k}={v}" for k, v in row.items()
                     if isinstance(v, str))


def cells(report):
    """Yield (where, key, value) for every cell of a stripped report."""
    for key, value in report.get("params", {}).items():
        yield "params", key, value
    for i, row in enumerate(report.get("rows", [])):
        for key, value in row.items():
            yield f"rows[{i}] ({row_label(row)})", key, value
    for key, value in report.items():
        if key not in ("params", "rows"):
            yield "report", key, value


def diff(a, b):
    """Moved cells of two stripped reports, as printable lines."""
    before = {(w, k): v for w, k, v in cells(a)}
    after = {(w, k): v for w, k, v in cells(b)}
    lines = []
    for where, key in list(before) + [c for c in after if c not in before]:
        old = before.get((where, key), "<absent>")
        new = after.get((where, key), "<absent>")
        if old != new or type(old) is not type(new):
            lines.append(f"{where} {key}: {old!r} -> {new!r}")
    return lines


def report_path(directory, name):
    return os.path.join(directory, f"BENCH_{name}.json")


def check(digests_path, directory):
    with open(digests_path) as f:
        expected = json.load(f)
    failures = 0
    for name, want in expected.items():
        path = report_path(directory, name)
        if not os.path.exists(path):
            print(f"{name}: no {path}")
            failures += 1
            continue
        got = digest(load(path))
        if got == want:
            print(f"{name}: ok")
        else:
            print(f"{name}: digest {got} != committed {want}; diff the "
                  "report against one from the parent commit to list "
                  "the moved cells")
            failures += 1
    return 1 if failures else 0


def update(digests_path, directory):
    with open(digests_path) as f:
        names = list(json.load(f))
    table = {name: digest(load(report_path(directory, name)))
             for name in names}
    with open(digests_path, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff bench reports cell by cell, or check digests.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="DIGESTS",
                      help="compare DIR's reports with DIGESTS")
    mode.add_argument("--update", metavar="DIGESTS",
                      help="rewrite DIGESTS from DIR's reports")
    parser.add_argument("paths", nargs="*",
                        help="A.json B.json, or DIR with --check/--update")
    args = parser.parse_args(argv)

    if args.check or args.update:
        if len(args.paths) > 1:
            parser.error("--check/--update take at most one DIR")
        directory = args.paths[0] if args.paths else "."
        if args.check:
            return check(args.check, directory)
        return update(args.update, directory)

    if len(args.paths) != 2:
        parser.error("expected two reports: A.json B.json")
    a, b = (load(p) for p in args.paths)
    lines = diff(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} moved cell(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
