"""The one CSV codec behind the public ``*_csv`` adapters and the CLI's
tables, and the typed field reader of the CLI's JSON configs.

Tables are RFC 4180 CSV with CRLF line endings and one header row (the
quantile file has none), in the bytes of ``csv.writer``: a float cell is
its ``repr`` (shortest round trip, so a table reads back bit-identical),
an int or bool its ``str``, and a string is quoted only if it holds a
comma, quote, CR or LF. Each value is formatted to a cell once.
"""

import csv
import itertools
from collections.abc import Mapping
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

_REQUIRED = object()
_ROW_BLOCK = 4096  # rows formatted and written at once
_QUOTED = frozenset(',"\r\n')  # a str cell holding one of these is quoted


def _cell(v) -> str:
    """The cell ``csv.writer`` writes for a float, int, bool or str."""
    if not isinstance(v, str):
        return repr(v) if isinstance(v, float) else str(v)
    return v if _QUOTED.isdisjoint(v) else '"' + v.replace('"', '""') + '"'


def write_table(f: TextIO, header, rows: Iterable[Sequence[str]]) -> None:
    """Write the header values (unless None), then rows of cell strings."""
    if header is not None:
        f.write(",".join(map(_cell, header)) + "\r\n")
    rows = iter(rows)
    while lines := [",".join(r) for r in itertools.islice(rows, _ROW_BLOCK)]:
        f.write("\r\n".join(lines + [""]))


def array_rows(*arrays: np.ndarray) -> Iterator[Sequence[str]]:
    """The rows of 2d arrays side by side, as ``repr`` cell strings.

    A block of _ROW_BLOCK rows is converted at a time, so a table writer
    holds one block of rows as Python objects, not every column.
    """
    for k in range(0, len(arrays[0]), _ROW_BLOCK):
        block = np.hstack([a[k : k + _ROW_BLOCK] for a in arrays])
        yield from zip(*[map(repr, col) for col in block.T.tolist()])


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


_NOUNS = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false", list: "a list"}


def _has_kind(value, kind) -> bool:
    if kind in (str, bool, list):
        return isinstance(value, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind is float or not isinstance(value, float) or value.is_integer()


def json_fields(obj, what: str, **kinds) -> list:
    """Values of the named fields of a parsed JSON object (a mapping).

    Each keyword names a field and gives its kind, ``int``, ``float``,
    ``str``, ``bool`` or ``list`` (a JSON array, read as a float array),
    or ``(kind, default)`` if optional. A missing or mistyped field (a
    boolean is not a number, an ``int`` field must be integral) raises
    ValueError("malformed <what> object: ...") naming the field.
    """

    def malformed(reason):
        return ValueError(f"malformed {what} object: {reason}")

    if not isinstance(obj, Mapping):
        raise malformed(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for name, kind in kinds.items():
        kind, default = kind if isinstance(kind, tuple) else (kind, _REQUIRED)
        if name not in obj:
            if default is _REQUIRED:
                raise malformed(f"missing field {name!r}")
            values.append(default)
            continue
        value = obj[name]
        if not _has_kind(value, kind):
            raise malformed(
                f"field {name!r} must be {_NOUNS[kind]}, got {value!r}"
            )
        if kind is list:
            try:
                value = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise malformed(f"field {name!r}: {exc}") from exc
        values.append(kind(value) if kind in (int, float) else value)
    return values
