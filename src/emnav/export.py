"""The one CSV row writer behind every table artifact, and the JSON writer.

Every number is written with ``%.17g``: 17 significant digits round-trip
every double, ``inf``/``-inf``/``nan`` are spelled as Python spells them, and
a whole number below 10^17 (a sample or agent index, a 0/1 flag) prints
without a decimal point.  Rows are formatted ``BLOCK`` at a time from the
columns the caller builds from slices of its arrays (1-D float arrays, or
sequences of strings written as they are), joined as strings if at least
half are text, else by one row template, and written in one ``write``.  A
column of few distinct values (a lattice axis, a symmetric map's margins) is
formatted once per distinct value by a ``text_lookup``: neither a
whole-file string nor a full-size copy of the table is ever held.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .magmodel import BLOCK

__all__ = ["text_lookup", "write_csv", "write_json"]


def text_lookup(values: np.ndarray, most: float = np.inf):
    """``'%.17g'`` of slices of the 1-D float array ``values``, as a function
    of the slice: each distinct value, by bits (the ``int64`` view, so ``-0.0``
    and each NaN payload stay apart), formatted once, and a slice mapped by
    ``np.searchsorted`` into their sorted bits; ``None`` if there are more
    than ``most``.  A sort, not ``np.unique``'s hash table (slower, +1 MB RSS)."""
    bits = np.sort(values.view(np.int64))
    first = np.ones(bits.size, bool)
    first[1:] = bits[1:] != bits[:-1]
    bits = bits[first]
    if bits.size > most:
        return None
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], object)
    return lambda block: text[np.searchsorted(bits, block.view(np.int64))].tolist()


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
    sequence of strings (written as they are); a block of at least as many
    text as number columns is joined as strings, others take one row
    template, faster for numbers.  ``newline`` ends every line (``\\r\\n``
    is what ``csv.writer`` writes).
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, rows, BLOCK):
            columns = block(start, min(start + BLOCK, rows))
            numbers = [isinstance(column, np.ndarray) for column in columns]
            if 2 * sum(numbers) <= len(columns):  # mostly text: join strings
                columns = [list(map("%.17g".__mod__, c.tolist())) if n else c
                           for c, n in zip(columns, numbers)]
                fh.write(newline.join(map(",".join, zip(*columns))) + newline)
            else:  # mostly numbers: one row template
                template = ",".join(("%s", "%.17g")[n] for n in numbers) + newline
                columns = [c.tolist() if n else c for c, n in zip(columns, numbers)]
                fh.write("".join([template % row for row in zip(*columns)]))


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
