"""Which cells of a sweep CSV moved against a reference, and by how much.

    python3 tests/csvdiff.py reference.csv other.csv

Rows are paired by position.  Per column and per combo (arch, M, K, users,
snr_db) the report gives the count of moved cells, the first trial_id that
moved and the max absolute and relative change of the numeric ones, and it
closes by saying whether any ``ber`` or ``goodput_bps`` cell moved.  A cell
moves when its text changes, so NaN to NaN is not a move.  The script exits
1 when the two files differ in any byte, else 0.
``tests/test_golden.py`` uses the report as its byte assertions' message.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

COMBO = ("arch", "M", "K", "users", "snr_db")
OUTCOME = ("ber", "goodput_bps")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _change(old, new):
    """(abs, rel) change of two numeric cells, or None if either is not;
    a move to or from NaN or inf counts as an infinite change."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    delta = abs(b - a)
    return delta, (delta / abs(a) if a else math.inf)


def report(reference, other) -> str:
    ref, new = _rows(reference), _rows(other)
    if not ref or not new:
        return f"{reference} or {other} is empty"
    header, lines = ref[0], []
    if new[0] != header:
        lines.append(f"header: {header} -> {new[0]}")
    if len(new) != len(ref):
        lines.append(f"data rows: {len(ref) - 1} -> {len(new) - 1}")
    combo_cols = [header.index(c) for c in COMBO if c in header]
    trial_col = header.index("trial_id") if "trial_id" in header else None
    moved = {}  # (column, combo) -> [count, first trial_id, max abs, max rel]
    for old_row, new_row in zip(ref[1:], new[1:]):
        combo = " ".join(f"{header[i]}={old_row[i]}" for i in combo_cols)
        for col, old, cell in zip(header, old_row, new_row):
            if old == cell:
                continue
            first = old_row[trial_col] if trial_col is not None else "?"
            entry = moved.setdefault((col, combo), [0, first, 0.0, 0.0])
            entry[0] += 1
            change = _change(old, cell)
            if change is not None:
                entry[2], entry[3] = max(entry[2], change[0]), max(entry[3], change[1])
    for (col, combo), (count, first, max_abs, max_rel) in moved.items():
        lines.append(
            f"{col} @ {combo}: {count} moved (first trial_id {first}), "
            f"max abs {max_abs:.3g}, max rel {max_rel:.3g}"
        )
    outcome = any(col in OUTCOME for col, _ in moved)
    cells = sum(entry[0] for entry in moved.values())
    lines.append(
        f"{cells} cells moved; ber or goodput_bps moved: {'yes' if outcome else 'no'}"
    )
    return f"{reference} -> {other}\n" + "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: csvdiff.py reference.csv other.csv", file=sys.stderr)
        return 2
    print(report(*args))
    return int(Path(args[0]).read_bytes() != Path(args[1]).read_bytes())


if __name__ == "__main__":
    sys.exit(main())
