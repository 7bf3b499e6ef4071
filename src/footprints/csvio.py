"""The CSV format of every artifact: one header row, "\\n" line ends, and
floats written as their shortest round-trip repr. ``csv.writer`` writes a
float, ``np.float64`` included, as ``repr(float(v))``, so callers pass
numbers as they are."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Mapping, Sequence

KEY_COLUMNS = ("problem_id", "instance_id", "dimension")


def format_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    Path(path).write_text(format_csv(header, rows), newline="")


def read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """The header and the rows, as ``csv.DictReader`` dicts, of a CSV artifact."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return list(reader.fieldnames or ()), rows


def row_key(row: Mapping[str, str]) -> tuple[int, int, int]:
    """The (problem_id, instance_id, dimension) key of a ``read_csv`` row."""
    return int(row["problem_id"]), int(row["instance_id"]), int(row["dimension"])
