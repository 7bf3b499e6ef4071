"""The CSV format of every artifact: one header row, "\\n" line ends, and
floats written as their shortest round-trip repr. ``csv.writer`` writes a
float, ``np.float64`` included, as ``repr(float(v))``, so callers pass
numbers as they are. Every artifact, CSV or not, is written through
``write_text`` or ``write_json`` of this module: to a temporary file first,
then renamed into place."""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping, Sequence

KEY_COLUMNS = ("problem_id", "instance_id", "dimension")
# an instance key: the values of KEY_COLUMNS
Key = tuple[int, int, int]


def format_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@contextmanager
def _replacing(path):
    """A text handle on ``<path>.tmp`` that is renamed over `path` when the
    block ends cleanly, so a write that fails part way leaves the previous
    file whole and no new or temporary one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """Indented, with sorted keys and a final newline."""
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    write_text(path, format_csv(header, rows))


def read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    """The header and the rows, as ``csv.DictReader`` dicts, of a CSV artifact."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return list(reader.fieldnames or ()), rows


def row_key(row: Mapping[str, str]) -> Key:
    """The (problem_id, instance_id, dimension) key of a ``read_csv`` row."""
    return int(row["problem_id"]), int(row["instance_id"]), int(row["dimension"])
