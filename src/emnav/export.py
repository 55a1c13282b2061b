"""The one CSV row writer behind every table artifact, and the JSON writer.

Every number is written with ``%.17g``: 17 significant digits round-trip
every double, ``inf``/``-inf``/``nan`` are spelled as Python spells them, and
a whole number below 10^17 (a sample or agent index, a 0/1 flag) prints
without a decimal point.  Rows are formatted ``BLOCK`` at a time from a
numeric block that the caller builds from slices of its arrays, and written
with one ``write`` per block, so neither a whole-file string nor a full-size
copy of the table is ever held.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .magmodel import BLOCK

__all__ = ["write_csv", "write_json"]


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: int,
    block: Callable[[int, int], np.ndarray],
    labels: Sequence[str] | None = None,
    newline: str = "\r\n",
) -> None:
    """Write a CSV of ``rows`` rows after the ``header`` line.

    ``block(start, stop)`` returns rows ``start`` to ``stop - 1`` of the
    numeric columns as a 2-D array.  ``labels``, if given, holds one string
    per row for the last column, a text column.  ``newline`` ends every line
    (``\\r\\n`` is what ``csv.writer`` writes).
    """
    numeric = len(header) - (labels is not None)
    template = ",".join(["%.17g"] * numeric + ["%s"] * (labels is not None))
    template += newline
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, rows, BLOCK):
            stop = min(start + BLOCK, rows)
            values = block(start, stop).tolist()
            if labels is not None:
                values = [(*row, label)
                          for row, label in zip(values, labels[start:stop])]
            fh.write("".join([template % tuple(row) for row in values]))


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
