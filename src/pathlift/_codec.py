"""The one CSV/JSON codec behind the public ``*_csv``/``*_json`` adapters.

Tables are RFC 4180 CSV with CRLF line endings and one header row (the
quantile file has none). ``csv.writer`` puts Python floats in shortest
round-trip form, so a table read back is bit-identical to the array it
was written from.
"""

import csv
import itertools
import json
from collections.abc import Mapping
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

_REQUIRED = object()
_ROW_BLOCK = 4096  # rows that ``array_rows`` turns into Python floats at once


def write_table(f: TextIO, header, rows: Iterable) -> None:
    """Write the header (unless None) and the rows, CRLF-terminated."""
    writer = csv.writer(f, lineterminator="\r\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)


def array_rows(*arrays: np.ndarray) -> Iterator[list]:
    """The rows of 2d arrays side by side, as lists of Python floats.

    A block of _ROW_BLOCK rows is converted at a time, so a table writer
    holds one block of rows as Python objects, not every column.
    """
    for k in range(0, len(arrays[0]), _ROW_BLOCK):
        yield from np.hstack([a[k : k + _ROW_BLOCK] for a in arrays]).tolist()


def read_table(f: TextIO, width: Optional[int] = None):
    """(header, float array of shape (rows, columns)) of a CSV table.

    With ``width`` None the first line is the header and sets the width;
    otherwise there is no header (None) and rows have ``width`` cells.
    Blank lines are skipped. A row of another width, a non-numeric cell or
    a file with no data rows raises ValueError, naming the first bad line.
    """
    lines, header, offset = iter(f), None, 1
    if width is None:
        header, offset = next(csv.reader([next(lines, "")]), None), 2
        if not header:
            raise ValueError("CSV has no header line")
        width = len(header)
    rows = []
    try:
        rows.extend(csv.reader(lines, quoting=csv.QUOTE_NONNUMERIC))
        sizes = np.fromiter(map(len, rows), int, count=len(rows))
        if np.any((sizes != 0) & (sizes != width)):
            raise ValueError("ragged rows")
        arr = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float)
    except ValueError as exc:
        for line, row in enumerate(rows, offset):
            try:
                if row and len(row) != width:
                    raise ValueError(f"{len(row)} cells, expected {width}")
                list(map(float, row))
            except ValueError as err:
                raise ValueError(f"line {line}: {err}") from None
        # the reader failed on an unquoted cell, after the rows it gave
        raise ValueError(f"line {offset + len(rows)}: {exc}") from None
    if arr.size == 0:
        raise ValueError("CSV contains no data rows")
    return header, arr.reshape(-1, width)


def grid_depth(times: np.ndarray, horizon: float) -> int:
    """Depth M if each row of ``times`` is k horizon / 2^M, k = 0..2^M."""
    n = times.shape[-1] - 1
    if n <= 0 or n & (n - 1):
        raise ValueError(f"expected 2^M + 1 grid rows, got {n + 1}")
    grid = np.linspace(0.0, horizon, n + 1)
    if not np.allclose(times, grid, rtol=0, atol=1e-9 * max(1.0, horizon)):
        raise ValueError(f"times are not the dyadic grid of [0, {horizon!r}]")
    return n.bit_length() - 1


def json_fields(obj, what: str, **kinds) -> list:
    """Values of the named fields of a JSON object (a str or a mapping).

    Each keyword names a field and gives its kind, ``int``, ``float`` or
    ``list`` (read as a float array), or ``(kind, default)`` if optional.
    A missing or mistyped field, or an ``int`` field that is not integral,
    raises ValueError("malformed <what> object: ...").
    """

    def malformed(reason):
        return ValueError(f"malformed {what} object: {reason}")

    try:
        obj = json.loads(obj) if isinstance(obj, str) else obj
    except json.JSONDecodeError as exc:
        raise malformed(exc) from exc
    if not isinstance(obj, Mapping):
        raise malformed(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for name, kind in kinds.items():
        kind, default = kind if isinstance(kind, tuple) else (kind, _REQUIRED)
        value = obj.get(name, default)
        if value is _REQUIRED:
            raise malformed(f"missing field {name!r}")
        if name not in obj:
            values.append(value)
        elif kind is list:
            try:
                values.append(np.asarray(value, dtype=float))
            except (TypeError, ValueError) as exc:
                raise malformed(f"field {name!r}: {exc}") from exc
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
                or kind is int and isinstance(value, float)
                and not value.is_integer()):
            noun = "an integer" if kind is int else "a number"
            raise malformed(f"field {name!r} must be {noun}, got {value!r}")
        else:
            values.append(kind(value))
    return values
