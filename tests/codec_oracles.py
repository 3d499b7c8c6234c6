"""Per-type CSV codecs, kept as references for the tests.

The library once wrote and read each table with its own hand-written
pair: one row and one ``repr`` per value, with its own blank-line
skipping and width checks, and the CLI formatted its own CSV rows. It now
has one columnar codec in ``pathlift._codec``; these functions restate
the per-type writers (whose bytes the codec must reproduce) and readers
(whose arrays it must reproduce on well-formed files).

The writers go through ``csv.writer`` with CRLF line ends and its
default minimal quoting: that is the reference the codec's own
string-joining writer must match byte for byte.
"""

import csv

import numpy as np

from pathlift import (
    DyadicPath,
    PathMeasure,
    QuantileMeasure,
)


# ---------------------------------------------------------------------------
# writers


def path_to_csv(path, f):
    writer = csv.writer(f, lineterminator="\r\n")
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(path.dim)])
    for t, row in zip(path.times(), path.values):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def qm_to_csv(m, f):
    writer = csv.writer(f, lineterminator="\r\n")
    for q in m.quantiles:
        writer.writerow([repr(float(q))])


def pm_to_csv(pi, f):
    writer = csv.writer(f, lineterminator="\r\n")
    writer.writerow(["path_id", "t"] + [f"x_{i + 1}" for i in range(pi.dim)])
    times = pi.times()
    for j in range(pi.n_paths):
        for k, t in enumerate(times):
            writer.writerow(
                [j, repr(float(t))]
                + [repr(float(v)) for v in pi.paths[j, k]]
            )


def cli_csv(f, header, rows):
    """The CLI's own table writer: floats through ``repr``, others as is."""
    writer = csv.writer(f, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# readers


def path_from_csv(f):
    reader = csv.reader(f)
    header = next(reader)
    rows = [[float(v) for v in line] for line in reader if line]
    arr = np.asarray(rows, dtype=float)
    n = arr.shape[0] - 1
    depth = n.bit_length() - 1
    assert header[0] == "t" and arr.shape[1] == len(header)
    assert n > 0 and 2 ** depth == n
    return DyadicPath(depth=depth, values=arr[:, 1:], horizon=arr[-1, 0])


def qm_from_csv(f):
    vals = [float(line[0]) for line in csv.reader(f) if line]
    return QuantileMeasure(np.asarray(vals))


def pm_from_csv(f):
    reader = csv.reader(f)
    assert next(reader)[:2] == ["path_id", "t"]
    by_path = {}
    for line in reader:
        if line:
            by_path.setdefault(int(line[0]), []).append(
                (float(line[1]), [float(v) for v in line[2:]])
            )
    ids = sorted(by_path)
    assert ids == list(range(len(ids)))
    paths = np.asarray(
        [[xs for _, xs in sorted(by_path[j])] for j in ids], dtype=float
    )
    n = paths.shape[1] - 1
    weights = np.full(len(ids), 1.0 / len(ids))
    return PathMeasure(depth=n.bit_length() - 1, paths=paths, weights=weights)

