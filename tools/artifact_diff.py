"""Say how the files of two artifact directories differ, where their bytes do.

    python3 tools/artifact_diff.py DIR_A DIR_B

A companion to tools/artifact_digests.py: run that script in two checkouts,
then this one on the two OUTDIRs. Each file under either directory is
compared by bytes; for each one that differs, one line is printed:

- a CSV: its row count in each, and per numeric column the worst relative
  deviation |a - b| / max(|a|, |b|) over the rows both have (inf where only
  one side leaves a cell empty);
- a .ckpt checkpoint: whether the headers (grid and time) are equal, whether
  the values are equal by np.array_equal, how many doubles differ bit for
  bit and how many of those are zeros on both sides, differing in sign only;
- any other file: that it differs, or that only one directory has it.

It exits 0 when every file is the same, 1 when any differs and 2 on a usage
error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from decwt.fields import load_field_2d  # noqa: E402


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _deviation(x: str, y: str) -> float:
    """|a - b| / max(|a|, |b|) of two cells; inf where one is empty."""
    if "" in (x, y):
        return 0.0 if x == y else math.inf
    a, b = float(x), float(y)
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def csv_diff(a: bytes, b: bytes) -> str:
    """Row counts and the worst relative deviation per numeric column."""
    ra, rb = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    if not ra or not rb or ra[0] != rb[0]:
        return "header differs"
    header, ra, rb = ra[0], ra[1:], rb[1:]
    worst = {}
    for i, col in enumerate(header):
        cells = [[r[i] if i < len(r) else "" for r in rows] for rows in (ra, rb)]
        filled = [c for side in cells for c in side if c]
        if not filled or None in map(_float, filled):
            continue  # a text or empty column
        worst[col] = max(map(_deviation, *cells), default=0.0)
    cols = ", ".join(f"{c} {d:.3g}" for c, d in worst.items())
    return f"rows {len(ra)}/{len(rb)}; worst relative deviation: {cols}"


def ckpt_diff(pa: Path, pb: Path) -> str:
    """Header equality, value equality and the doubles that differ by bits."""
    try:
        fa, fb = load_field_2d(pa), load_field_2d(pb)
    except ValueError as exc:  # a truncated file
        return f"unreadable: {exc}"
    header = fa.grid == fb.grid and fa.t == fb.t
    if fa.values.shape != fb.values.shape:
        return f"header equal {header}; shapes {fa.values.shape}/{fb.values.shape}"
    da, db = fa.values.view(np.float64), fb.values.view(np.float64)
    differ = da.view(np.int64) != db.view(np.int64)
    zeros = int(np.count_nonzero((da[differ] == 0) & (db[differ] == 0)))
    return (f"header equal {header}; values array_equal "
            f"{np.array_equal(fa.values, fb.values)}; "
            f"{int(np.count_nonzero(differ))} doubles differ, {zeros} of them signed zeros")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: artifact_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    names = sorted({f.relative_to(d).as_posix() for d in (a, b)
                    for f in d.rglob("*") if f.is_file()})
    differs = 0
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {a if pa.is_file() else b}")
        elif (xa := pa.read_bytes()) == (xb := pb.read_bytes()):
            continue
        elif name.endswith(".csv"):
            print(f"{name}: {csv_diff(xa, xb)}")
        elif name.endswith(".ckpt"):
            print(f"{name}: {ckpt_diff(pa, pb)}")
        else:
            print(f"{name}: differs")
        differs += 1
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
