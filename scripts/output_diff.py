"""Print how far two CLI output trees differ, column by column.

    python scripts/output_diff.py OLD_DIR NEW_DIR

The trees are the ones ``scripts/output_digest.py --keep DIR`` leaves.  For
each ``verify_report.txt`` that differs, every check whose status changed is
printed.  Every other file that differs is read as comma-separated (the CSVs
and ``summary.txt``): rows are grouped by their text cells (model and
scheme), and each numeric column of a group that changed gets one line with
its largest absolute and relative change; a change of shape or of a text
cell is printed as such.  A file in one tree only is listed.  Identical
trees print nothing but the last line.
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_changes(old: Path, new: Path) -> list:
    with open(old, newline="") as fh_old, open(new, newline="") as fh_new:
        rows_old, rows_new = list(csv.reader(fh_old)), list(csv.reader(fh_new))
    if len(rows_old) != len(rows_new) or rows_old[:1] != rows_new[:1]:
        return [f"shape or header changed ({len(rows_old)} -> {len(rows_new)} rows)"]
    header = rows_old[0]
    worst = {}  # (text cells, column) -> [max abs change, max rel change]
    lines = []
    for row_old, row_new in zip(rows_old[1:], rows_new[1:]):
        key = tuple(c for c in row_old if c and _number(c) is None)
        for col, a, b in zip(header, row_old, row_new):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or math.isnan(x) or math.isnan(y):
                lines.append(f"{'/'.join(key)} {col}: {a!r} -> {b!r}")
                continue
            entry = worst.setdefault((key, col), [0.0, 0.0])
            entry[0] = max(entry[0], abs(y - x))
            entry[1] = max(entry[1], abs(y - x) / abs(x) if x else math.inf)
    for (key, col), (dabs, drel) in worst.items():
        lines.append(f"{'/'.join(key) or '-'} {col}: max abs {dabs:.3g}, max rel {drel:.3g}")
    return lines


def _statuses(path: Path) -> dict:
    """(model, check) -> status of each line of a verify report, plus its RESULT."""
    out = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if line.startswith("RESULT:"):
            out[("RESULT",)] = parts[1]
        elif len(parts) >= 3 and parts[0] != "model" and not line.startswith("-"):
            out[(parts[0], parts[1])] = parts[2]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="per-column changes between two output trees")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    files_old = {p.relative_to(args.old) for p in args.old.rglob("*") if p.is_file()}
    files_new = {p.relative_to(args.new) for p in args.new.rglob("*") if p.is_file()}
    changed = 0
    for rel in sorted(files_old ^ files_new):
        print(f"{rel}: only in {'old' if rel in files_old else 'new'}")
        changed += 1
    for rel in sorted(files_old & files_new):
        old, new = args.old / rel, args.new / rel
        if old.read_bytes() == new.read_bytes():
            continue
        changed += 1
        if rel.name == "verify_report.txt":
            before, after = _statuses(old), _statuses(new)
            lines = [f"{' '.join(k)}: {before.get(k)} -> {after.get(k)}"
                     for k in sorted(before.keys() | after.keys()) if before.get(k) != after.get(k)]
            lines = lines or ["statuses unchanged; details differ"]
        else:  # the CSVs and summary.txt, which is comma-separated too
            lines = _csv_changes(old, new)
        print(f"{rel}:")
        for line in lines:
            print(f"  {line}")
    print(f"{changed} of {len(files_old | files_new)} files differ")


if __name__ == "__main__":
    main()
