"""Print the largest relative change of each column of the CSV files that two
output directories share.

    python .github/scripts/csv_change.py HERE_DIR PARENT_DIR

Each file present in both directories (matched by its path below the
directory) is read as a header line and rows of cells. A column's change is
the largest ``|a - b| / max(|a|, |b|)`` over the rows of both files (0 where
both cells are 0, and empty cells are equal only to empty cells), or
``"text differs"`` when a cell is not a number, and is reported with the row
where it occurs. A file whose header or row count differs is reported as
such. The script only reports: it exits 0 whatever the files hold.
"""

import csv
import math
import sys
from pathlib import Path


def _change(a: str, b: str) -> float | None:
    """Relative change of one cell, or None when a cell is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) or math.isnan(y):
        return math.inf
    scale = max(abs(x), abs(y))
    return math.inf if math.isinf(scale) else abs(x - y) / scale


def report(here: Path, parent: Path) -> list[str]:
    lines = []
    for path in sorted(here.rglob("*.csv")):
        name = path.relative_to(here)
        other = parent / name
        if not other.is_file():
            lines.append(f"{name}: only in {here}")
            continue
        with path.open(newline="") as fa, other.open(newline="") as fb:
            rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
        if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
            lines.append(f"{name}: headers differ")
            continue
        if len(rows_a) != len(rows_b):
            lines.append(f"{name}: {len(rows_a) - 1} rows against {len(rows_b) - 1}")
            continue
        cells = []
        for col, title in enumerate(rows_a[0]):
            worst, at = 0.0, None
            for row, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), 1):
                change = _change(ra[col], rb[col])
                if change is None:
                    worst, at = None, row
                    break
                if change > worst:
                    worst, at = change, row
            text = ("text differs" if worst is None
                    else "0" if worst == 0.0 else f"{worst:.2e}")
            cells.append(f"{title} {text}" + (f" (row {at})" if at else ""))
        lines.append(f"{name}: largest relative change: " + ", ".join(cells))
    return lines


if __name__ == "__main__":
    print("\n".join(report(Path(sys.argv[1]), Path(sys.argv[2]))))
