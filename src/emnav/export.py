"""The one CSV row writer behind every table artifact, and the JSON writer.

Every number is written with ``%.17g``: 17 significant digits round-trip
every double, ``inf``/``-inf``/``nan`` are spelled as Python spells them, and
a whole number below 10^17 (a sample or agent index, a 0/1 flag) prints
without a decimal point.  Rows are formatted ``BLOCK`` at a time from a
list of columns that the caller builds from slices of its arrays, each a
1-D float array or a sequence of strings written as they are, and written
with one ``write`` per block.  A column of few distinct values (a lattice
axis) is formatted once per distinct value by ``text_column``.
Neither a whole-file string nor a full-size copy of the table is ever held.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .magmodel import BLOCK

__all__ = ["text_column", "write_csv", "write_json"]


def text_column(values: np.ndarray, text: dict[int, str]) -> list[str]:
    """``'%.17g'`` of each value of the 1-D float array ``values``, looked up
    in ``text`` by the value's bits (its ``int64`` view, so ``-0.0`` keeps
    its sign).  Values new to ``text`` are formatted and added: with one
    dict per column for all of a table's blocks, each distinct value is
    formatted once per table."""
    bits = np.asarray(values, float).view(np.int64).tolist()
    for key in set(bits).difference(text):
        text[key] = "%.17g" % np.int64(key).view(np.float64)
    return list(map(text.__getitem__, bits))


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: int,
    block: Callable[[int, int], list],
    newline: str = "\r\n",
) -> None:
    """Write a CSV of ``rows`` rows after the ``header`` line.

    ``block(start, stop)`` returns rows ``start`` to ``stop - 1`` as a list
    of columns, each a 1-D float array (written with ``%.17g``) or a
    sequence of strings (written as they are).  ``newline`` ends every line
    (``\\r\\n`` is what ``csv.writer`` writes).
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, rows, BLOCK):
            columns = block(start, min(start + BLOCK, rows))
            template = ",".join(
                "%.17g" if isinstance(column, np.ndarray) else "%s"
                for column in columns
            ) + newline
            columns = [column.tolist() if isinstance(column, np.ndarray)
                       else column for column in columns]
            fh.write("".join([template % row for row in zip(*columns)]))


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
