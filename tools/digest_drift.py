"""Print the numeric drift between two run trees kept by ``tools/cli_digest.py --keep``.

For each run whose output files differ byte for byte, one line gives the
largest relative change |a - b| / max(|a|, |b|) among the numbers of its
JSON and CSV files, paired in reading order, with the two numbers and the
file they are in (a large change of a number at the rounding floor, such as
a gap of 1e-14, shows as such); a run whose files differ in anything but
their numbers (other text, a different count of numbers, a file written by
one side only, a file that does not parse) says so instead.  Every
change of exit code gets a line of its own, and the last line counts the
runs that differ and gives the largest relative change of all.  It exits 0
when every run has the same files and exit code on both sides, 1 when any
run's files or exit code differ or a run is kept by one side only, and 2
for a wrong number of arguments:

    python3 tools/cli_digest.py --repo OLD --keep old-runs > old.txt
    python3 tools/cli_digest.py --repo NEW --keep new-runs > new.txt
    python3 tools/digest_drift.py old-runs new-runs
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def tokens(path: Path) -> tuple[list[float], list]:
    """The numbers of a JSON or CSV file, in reading order, and everything else in it."""
    numbers, others = [], []

    def take(value) -> None:
        try:
            numbers.append(float(value))
        except (ValueError, OverflowError):
            others.append(value)

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                others.append(key)
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            take(node)
        else:
            others.append(node)

    text = path.read_text()
    if path.suffix == ".json":
        walk(json.loads(text))
    else:
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                take(cell)
    return numbers, others


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def run_drift(old: Path, new: Path) -> tuple[float, float, float, str] | str | None:
    """None for equal outputs, else (largest relative change, its numbers, their file) or why they do not pair."""
    names = sorted({p.name for p in old.glob("out/*")} | {p.name for p in new.glob("out/*")})
    if all((old / "out" / n).is_file() and (new / "out" / n).is_file() for n in names):
        if all((old / "out" / n).read_bytes() == (new / "out" / n).read_bytes() for n in names):
            return None
    worst = (-1.0, math.nan, math.nan, "")
    for name in names:
        a, b = old / "out" / name, new / "out" / name
        if not (a.is_file() and b.is_file()):
            return f"{name} written by one side only"
        if a.suffix not in (".json", ".csv"):
            if a.read_bytes() != b.read_bytes():
                return f"{name} differs and is not JSON or CSV"
            continue
        try:
            (old_numbers, old_others), (new_numbers, new_others) = tokens(a), tokens(b)
        except ValueError:
            return f"{name} differs and does not parse"
        if old_others != new_others or len(old_numbers) != len(new_numbers):
            return f"{name} differs in more than its numbers"
        for x, y in zip(old_numbers, new_numbers):
            worst = max(worst, (relative_change(x, y), x, y, name), key=lambda drift: drift[0])
    return worst


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old_root, new_root = Path(sys.argv[1]), Path(sys.argv[2])
    differing, largest, changed = 0, 0.0, False
    for run in sorted({p.name for p in old_root.iterdir()} | {p.name for p in new_root.iterdir()}):
        old, new = old_root / run, new_root / run
        if not (old / "run.txt").is_file() or not (new / "run.txt").is_file():
            print(f"run {run} kept by one side only")
            changed = True
            continue
        (label, old_code), (new_label, new_code) = ((p / "run.txt").read_text().split("\n")[:2] for p in (old, new))
        if label != new_label:
            print(f"run {run} is {label} on one side and {new_label} on the other")
            changed = True
            continue
        if old_code != new_code:
            print(f"exit {old_code} -> {new_code}  {label}")
            changed = True
        drift = run_drift(old, new)
        if drift is None:
            continue
        differing += 1
        if isinstance(drift, str):
            print(f"{drift}  {label}")
            largest = math.inf
        else:
            change, x, y, name = drift
            largest = max(largest, change)
            print(f"{change:.3e}  ({x!r} -> {y!r})  {label}/{name}")
    print(f"{differing} runs differ; largest relative change {largest:.3e}")
    return 1 if changed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
