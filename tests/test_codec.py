"""The columnar CSV codec and the typed JSON field reader: bytes against
the per-type oracles, exact round trips, and rejection of malformed
tables and JSON fields."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import codec_oracles as oracle
from pathlift import (
    DyadicPath,
    PathMeasure,
    QuantileMeasure,
    path_from_csv,
    path_to_csv,
    pm_from_csv,
    pm_to_csv,
    qm_from_csv,
    qm_to_csv,
)
from pathlift._codec import json_fields
from pathlift.cli import _csv_file, _write_files

# values whose shortest round-trip form is easy to get wrong
EDGE = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
     1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3, 123456789.0]
)


def edge_values(gen, shape):
    """Random normals with the edge values planted in the first cells."""
    vals = gen.standard_normal(shape)
    flat = vals.reshape(-1)
    flat[: min(EDGE.size, flat.size)] = EDGE[: flat.size]
    return vals


def csv_bytes(write, obj):
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def examples(dim):
    gen = np.random.default_rng(40 + dim)
    path = DyadicPath(4, edge_values(gen, (17, dim)), horizon=0.3)
    qm = QuantileMeasure(np.sort(edge_values(gen, 20)))
    w = gen.uniform(0.1, 1.0, 6)
    pi = PathMeasure(
        depth=3, paths=edge_values(gen, (6, 9, dim)), weights=w / w.sum()
    )
    return [
        (path, path_to_csv, oracle.path_to_csv, path_from_csv,
         oracle.path_from_csv),
        (qm, qm_to_csv, oracle.qm_to_csv, qm_from_csv, oracle.qm_from_csv),
        (pi, pm_to_csv, oracle.pm_to_csv, pm_from_csv, oracle.pm_from_csv),
    ]


def arrays_of(obj):
    if isinstance(obj, DyadicPath):
        return [obj.values, np.array([obj.horizon, obj.depth])]
    if isinstance(obj, QuantileMeasure):
        return [obj.quantiles]
    return [obj.paths, obj.weights, np.array([obj.depth])]


def assert_bit_identical(a, b):
    for x, y in zip(arrays_of(a), arrays_of(b)):
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# differential: the adapters against the per-type oracles


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_writers_match_oracle_bytes(dim):
    for obj, write, write_ref, _, _ in examples(dim):
        assert csv_bytes(write, obj) == csv_bytes(write_ref, obj)


def test_writers_match_oracle_bytes_across_row_blocks():
    # several blocks of converted rows, the last one partial
    gen = np.random.default_rng(7)
    path = DyadicPath(13, edge_values(gen, (2 ** 13 + 1, 2)))
    qm = QuantileMeasure(np.sort(edge_values(gen, 9000)))
    # each path spans three blocks of grid times
    pi = PathMeasure(13, edge_values(gen, (2, 2 ** 13 + 1, 2)), [0.5, 0.5])
    for obj, write, write_ref in (
        (path, path_to_csv, oracle.path_to_csv),
        (qm, qm_to_csv, oracle.qm_to_csv),
        (pi, pm_to_csv, oracle.pm_to_csv),
    ):
        assert csv_bytes(write, obj) == csv_bytes(write_ref, obj)


def peak_bytes(tmp_path, write, obj):
    with open(tmp_path / "t.csv", "w", encoding="utf-8", newline="") as f:
        tracemalloc.start()
        try:
            write(obj, f)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_path_csv_writer_memory_is_bounded(tmp_path):
    # whole columns as Python lists took 16.9 MB at 2^18 rows
    path = DyadicPath(18, np.random.default_rng(0).standard_normal(2 ** 18 + 1))
    assert peak_bytes(tmp_path, path_to_csv, path) < 4_000_000


@pytest.mark.parametrize("n_paths, depth", [(64, 12), (1, 18)])
def test_pm_csv_writer_memory_is_bounded(tmp_path, n_paths, depth):
    # 2^18 rows either way; a whole path as Python floats took 17 MB
    shape = (n_paths, 2 ** depth + 1, 1)
    paths = np.random.default_rng(1).standard_normal(shape)
    pi = PathMeasure(depth, paths, np.full(n_paths, 1.0 / n_paths))
    assert peak_bytes(tmp_path, pm_to_csv, pi) < 4_000_000


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_readers_match_oracle_arrays(dim):
    for obj, write, _, read, read_ref in examples(dim):
        text = csv_bytes(write, obj)
        assert_bit_identical(read(io.StringIO(text)),
                             read_ref(io.StringIO(text)))


def test_cli_table_matches_oracle_bytes(tmp_path):
    header = ["name", "n", "x", "ok", 'odd, "head"']
    rows = [["a", 3, float(v), v > 0, ""] for v in EDGE]
    rows.append(["needs,quote", -1, 1e-7, True, ""])
    for text in ['"', "\r", "\n", "a\r\nb", " padded ", 'say "hi"']:
        rows.append([text, 2 ** 64, -0.0, False, text])
    for x in [5e-324, 1e16, 1e-05]:
        rows.append(["x", 0, x, True, "1.5"])
    _write_files(tmp_path, [_csv_file("t.csv", header, rows)])
    buf = io.StringIO()
    oracle.cli_csv(buf, header, rows)
    assert (tmp_path / "t.csv").read_bytes() == buf.getvalue().encode()
    with open(tmp_path / "t.csv", encoding="utf-8", newline="") as f:
        back = list(csv.reader(f))
    written = [[v if isinstance(v, str) else repr(v) if isinstance(v, float)
                else str(v) for v in row] for row in [header] + rows]
    assert back == written


# ---------------------------------------------------------------------------
# exact round trips


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


@st.composite
def codec_objects(draw):
    kind = draw(st.sampled_from(["path", "qm", "pm"]))
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4))
    n = draw(st.integers(1, 6))
    if kind == "path":
        horizon = draw(st.floats(1e-3, 1e3))
        return DyadicPath(depth, draw(finite_arrays((2 ** depth + 1, dim))),
                          horizon)
    if kind == "qm":
        return QuantileMeasure(np.sort(draw(finite_arrays(n))))
    paths = draw(finite_arrays((n, 2 ** depth + 1, dim)))
    return PathMeasure(depth=depth, paths=paths, weights=np.full(n, 1.0 / n))


CODECS = {
    DyadicPath: (path_to_csv, path_from_csv),
    QuantileMeasure: (qm_to_csv, qm_from_csv),
    PathMeasure: (pm_to_csv, pm_from_csv),
}


@settings(max_examples=150, deadline=None)
@given(obj=codec_objects())
def test_round_trips_are_exact_property(obj):
    to_csv, from_csv = CODECS[type(obj)]
    assert_bit_identical(from_csv(io.StringIO(csv_bytes(to_csv, obj))), obj)


def test_pm_csv_reads_rows_in_any_order():
    gen = np.random.default_rng(3)
    pi = PathMeasure(depth=2, paths=gen.standard_normal((3, 5, 2)),
                     weights=np.full(3, 1.0 / 3))
    head, *rows = csv_bytes(pm_to_csv, pi).split("\r\n")[:-1]
    rows = [rows[i] for i in gen.permutation(len(rows))]
    clone = pm_from_csv(io.StringIO("\r\n".join([head] + rows) + "\r\n"))
    assert_bit_identical(clone, pi)


def test_blank_lines_are_skipped():
    text = "t,x_1\r\n\r\n0.0,1.0\r\n0.5,2.0\r\n\r\n1.0,3.0\r\n\r\n"
    assert np.array_equal(path_from_csv(io.StringIO(text)).values[:, 0],
                          [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# malformed tables


PM_HEAD = "path_id,t,x_1\r\n"


@pytest.mark.parametrize("body,match", [
    ("0,0.0,1\r\n0,0.3,2\r\n0,1.0,3\r\n", "not the dyadic grid"),
    ("0,0.0,1\r\n0,0.0,2\r\n0,1.0,3\r\n", "not the dyadic grid"),
    ("0,0.0,1\r\n0,1.0,2\r\n0,2.0,3\r\n", r"dyadic grid of \[0, 1\.0\]"),
    ("0,0.0,1,5\r\n0,0.5,2,5\r\n0,1.0,3,5\r\n", "line 2: 4 cells, expected 3"),
    ("0,0.0,1\r\n0,0.5,2\r\n0,1.0,3\r\n0.5,0.0,1\r\n0.5,0.5,2\r\n"
     "0.5,1.0,3\r\n", "integers 0..N-1"),
    ("0,0.0,1\r\n0,0.5,2\r\n0,1.0,3\r\n1,0.0,1\r\n1,1.0,3\r\n",
     "same number of rows"),
    ("0,0.0,1\r\n0,0.5,2\r\n0,x,3\r\n",
     "line 4: could not convert string to float: 'x'"),
])
def test_pm_csv_rejects_malformed_grids(body, match):
    with pytest.raises(ValueError, match=match):
        pm_from_csv(io.StringIO(PM_HEAD + body))


def test_qm_csv_rejects_extra_columns():
    with pytest.raises(ValueError, match="line 1: 2 cells, expected 1"):
        qm_from_csv(io.StringIO("1,99\r\n2,99\r\n"))


@pytest.mark.parametrize("body,match", [
    ("0.0,1,2\r\n\r\n0.5,1\r\n1.0,1,2\r\n", "line 4: 2 cells, expected 3"),
    ("0.0,1,2\r\n\r\n0.5,1,\r\n1.0,1,2\r\n", "line 4: .*float: ''"),
    ('0.0,1,2\r\n0.5,"1",2\r\n1.0,"a",2\r\n', "line 4: .*float: 'a'"),
    ("0.0,1,2\r\n0.5,1,2,3\r\n1.0,x,2\r\n", "line 3: 4 cells"),
])
def test_path_csv_names_the_first_bad_line(body, match):
    with pytest.raises(ValueError, match=match):
        path_from_csv(io.StringIO("t,x_1,x_2\r\n" + body))


@pytest.mark.parametrize("read", [path_from_csv, pm_from_csv, qm_from_csv])
@pytest.mark.parametrize("text", ["", "\r\n", "t,x_1\r\n\r\n"])
def test_csv_rejects_files_without_data(read, text):
    with pytest.raises(ValueError):
        read(io.StringIO(text))


# ---------------------------------------------------------------------------
# malformed JSON fields


@pytest.mark.parametrize("obj,kinds,match", [
    ({"depth": 1.9}, {"depth": int}, "field 'depth' must be an integer"),
    ({"depth": "1"}, {"depth": int}, "field 'depth' must be an integer"),
    ({"depth": True}, {"depth": int}, "field 'depth' must be an integer"),
    ({"horizon": "2"}, {"horizon": (float, 1.0)},
     "field 'horizon' must be a number"),
    ({"labels": "abc"}, {"labels": list}, "field 'labels' must be a list"),
    ({"flag": 1}, {"flag": bool}, "field 'flag' must be true or false"),
    ([1, 2], {"depth": int}, "expected a JSON object, got list"),
    ("{}", {"depth": int}, "expected a JSON object, got str"),
    ({"depth": 1}, {"depth": int, "paths": list}, "missing field 'paths'"),
], ids=["fraction", "string", "boolean", "string-number", "string-list",
        "number-flag", "list", "text", "missing"])
def test_json_fields_rejects_mistyped_fields(obj, kinds, match):
    with pytest.raises(ValueError, match=f"malformed config object: {match}"):
        json_fields(obj, "config", **kinds)


def test_json_accepts_integral_floats():
    (depth,) = json_fields({"depth": 1.0}, "config", depth=int)
    assert depth == 1 and isinstance(depth, int)
