"""Artifact writers: exact CSV and JSON bytes, and files that appear whole
or not at all."""

import csv
import io
import json
import math
import os
import stat
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klcert.cli
from klcert import tracefmt
from klcert.convex import (
    Ball,
    CompositeObjective,
    half_squared_distance,
    indicator,
    row_norms,
)
from klcert.descent import forward_backward
from klcert.experiments import (
    PRESET_NAMES,
    SWEEP_COLUMNS,
    preset_configs,
    run_experiment,
    trace_columns,
    write_sweep,
)
from klcert.tracefmt import TRACE_COLUMNS, write_json, write_table

# (first row, values) per column; the other columns are empty
COLUMNS = {
    "k": (0, [0, 1]),
    "value_gap": (0, [1.5, 0.1]),
    "value_bound": (0, [math.inf]),
    "step_norm": (1, [2.0 / 3.0]),
}
BAD_COLUMNS = dict(COLUMNS, k=(0, [0, 1, 2]),
                   value_gap=(0, [1.5, 0.1, "not a number"]))


def _reference_write_table(path, fieldnames, rows):
    """The writer the column-wise one replaced: dict rows, one cell at a
    time, through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fieldnames)
    for row in rows:
        out = []
        for col in fieldnames:
            v = row.get(col)
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append(str(int(v)))
            elif isinstance(v, int):
                out.append(str(v))
            else:
                v = float(v)
                out.append("inf" if math.isinf(v) else f"{v:.17g}")
        writer.writerow(out)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(buf.getvalue())


def _column_rows(count, columns):
    """The dict rows of a table given by columns as write_table takes
    them."""
    rows = [{} for _ in range(count)]
    for name, (first, values) in columns.items():
        for k, v in enumerate(values[:max(count - first, 0)], start=first):
            rows[k][name] = v
    return rows


def _reference_table_rows(count, columns):
    """The dict rows the trace writers used to build: (first row, values)
    per column."""
    cells = [range(count)]
    for start, values in columns.values():
        column = [None] * start + np.asarray(values).tolist()
        cells.append(column[:count] + [None] * (count - len(column)))
    names = ("k",) + tuple(columns)
    return [dict(zip(names, row)) for row in zip(*cells)]


def _reference_trace_rows(run, maj, xstar):
    columns = {
        "value_bound": (0, maj.psi_values),
        "step_norm": (1, run.step_norms),
        "witness_norm": (1, run.witness_norms),
        "distance_bound": (1, maj.distance_bounds),
    }
    if run.min_value is not None:
        columns["value_gap"] = (0, np.where(np.isinf(run.raw_values), None,
                                            run.gaps))
    if xstar is not None:
        columns["distance_to_xstar"] = (0, row_norms(run.iterates - xstar))
    return _reference_table_rows(len(run.raw_values), columns)


def _text(cells):
    """The strings of a matrix of cells that write_table returns: each row
    without its NULs, as ASCII."""
    assert cells.dtype == np.uint8 and cells.ndim == 2
    return [bytes(row[row != 0]).decode("ascii") for row in cells]


def _returned_rows(count, columns):
    """The rows of cells, as strings, of a table given by the columns
    write_table returns."""
    rows = [[""] * len(columns) for _ in range(count)]
    for j, (first, cells) in enumerate(columns.values()):
        for k, text in enumerate(_text(cells), start=first):
            rows[k][j] = text
    return rows


def test_trace_table_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    columns = write_table(path, TRACE_COLUMNS, range(2), COLUMNS)
    assert path.read_bytes() == (
        b"k,value_gap,value_bound,step_norm,witness_norm,"
        b"distance_to_xstar,distance_bound\r\n"
        b"0,1.5,inf,,,,\r\n"
        b"1,0.10000000000000001,,0.66666666666666663,,,\r\n")
    # each column as (first row, cells), the cells of the rows it fills
    assert {name: (first, _text(cells))
            for name, (first, cells) in columns.items()} == {
        "k": (0, ["0", "1"]),
        "value_gap": (0, ["1.5", "0.10000000000000001"]),
        "value_bound": (0, ["inf"]),
        "step_norm": (1, ["0.66666666666666663"]),
        "witness_norm": (2, []), "distance_to_xstar": (2, []),
        "distance_bound": (2, [])}
    with open(path, "r", encoding="ascii", newline="") as fh:
        back = [{k: None if v == "" else float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    assert back[0]["value_bound"] == math.inf
    assert back[1]["step_norm"] == 2.0 / 3.0
    assert back[1]["witness_norm"] is None


def test_failed_csv_write_creates_no_target(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "trace.csv", TRACE_COLUMNS, range(3),
                    BAD_COLUMNS)
    assert os.listdir(tmp_path) == []


def test_failed_csv_write_keeps_existing_target(tmp_path):
    path = tmp_path / "trace.csv"
    write_table(path, TRACE_COLUMNS, range(2), COLUMNS)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_table(path, TRACE_COLUMNS, range(3), BAD_COLUMNS)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_failed_rename_removes_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_json(path, {"passed": True})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(tracefmt.os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_json(path, {"passed": False})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def _no_temporary_files(root):
    return not [name for _, _, names in os.walk(root) for name in names
                if name.endswith(".tmp")]


def test_writer_creates_a_missing_nested_directory(tmp_path):
    path = tmp_path / "a" / "b" / "c" / "report.json"
    write_json(path, {"passed": True})
    assert json.loads(path.read_text()) == {"passed": True}
    assert os.listdir(path.parent) == ["report.json"]
    assert _no_temporary_files(tmp_path)


def test_writer_replaces_an_existing_target(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old bytes, longer than the new ones\n")
    write_json(path, {"passed": False})
    assert path.read_bytes() == b'{\n  "passed": false\n}\n'
    assert os.listdir(tmp_path) == ["report.json"]


def test_writer_refuses_a_directory_that_is_a_regular_file(tmp_path):
    (tmp_path / "plain").write_bytes(b"x")
    for path in (tmp_path / "plain" / "report.json",
                 tmp_path / "plain" / "deeper" / "report.json"):
        with pytest.raises(OSError):
            write_json(path, {"passed": True})
    assert (tmp_path / "plain").read_bytes() == b"x"
    assert os.listdir(tmp_path) == ["plain"]


def test_chunk_that_is_not_bytes_like_leaves_the_target(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"kept")
    with pytest.raises(TypeError):
        tracefmt._atomic_write(path, b"head\r\n", "a str is not bytes")
    assert path.read_bytes() == b"kept"
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_large_chunk_survives_short_writes(tmp_path, monkeypatch):
    # os.write may write less than it is given: the writer goes on from
    # where each call stopped
    calls = []
    write = os.write

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, data[:1 << 20])

    monkeypatch.setattr(tracefmt.os, "write", short_write)
    chunk = np.random.default_rng(0).integers(
        0, 256, 3 * 10 ** 6, dtype=np.uint8)
    path = tmp_path / "big.bin"
    tracefmt._atomic_write(path, b"", b"head", chunk, bytearray(b"tail"))
    assert path.read_bytes() == b"head" + chunk.tobytes() + b"tail"
    assert len(calls) == 5
    assert os.listdir(tmp_path) == ["big.bin"]


def test_temporary_name_does_not_grow_with_the_target_name(tmp_path):
    # a name at the file system's limit still gets its temporary file
    name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".json")) + ".json"
    write_json(tmp_path / name, {})
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # run's artifacts, certify's report, sweep.csv and a generated
    # instance, as open() would make them: 0o666 less the umask
    run = tmp_path / "runs" / "tiny-lasso"
    extra = [tmp_path / "certified" / "report.json",
             tmp_path / "sweep" / "sweep.csv", tmp_path / "instance.json"]
    old = os.umask(umask)
    try:
        assert klcert.cli.main(["run", "--preset", "tiny-lasso",
                                "--out", str(tmp_path / "runs")]) == 0
        assert klcert.cli.main([
            "certify", "--run", str(run / "run.json"),
            "--certificate", str(run / "certificate.json"),
            "--out", str(extra[0])]) == 0
        assert klcert.cli.main(["sweep", "--preset", "tiny-lasso",
                                "--out", str(extra[1].parent)]) == 0
        assert klcert.cli.main(["generate", "--family", "lasso",
                                "--out", str(extra[2])]) == 0
    finally:
        os.umask(old)
    assert sorted(os.listdir(run)) == sorted(
        ("instance.json", "run.json", "trace.csv", "majorant.csv",
         "certificate.json", "report.json", "config.json"))
    written = sorted(run.iterdir()) + extra
    assert [oct(stat.S_IMODE(path.stat().st_mode)) for path in written] == [
        oct(mode)] * len(written)
    assert _no_temporary_files(tmp_path)


def test_json_is_sorted_ascii_with_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1.0, None], "a": "x"})
    assert path.read_bytes() == (
        b'{\n  "a": "x",\n  "b": [\n    1.0,\n    null\n  ]\n}\n')


def test_json_layout_bytes(tmp_path):
    # rows of numbers one number a line, non-ASCII as \u escapes, the
    # non-finite floats as json.dumps spells them, and empty containers
    path = tmp_path / "doc.json"
    write_json(path, {"rows": [[1.0, -0.5], [2, 3e-300]],
                      "caf\u00e9": ["na\u00efve", "\u2603"],
                      "limits": [math.nan, math.inf, -math.inf, -0.0,
                                 np.float64(0.1)],
                      "empty": [[], {}], "flag": None})
    assert path.read_bytes() == (
        b'{\n  "caf\\u00e9": [\n    "na\\u00efve",\n    "\\u2603"\n  ],\n'
        b'  "empty": [\n    [],\n    {}\n  ],\n  "flag": null,\n'
        b'  "limits": [\n    NaN,\n    Infinity,\n    -Infinity,\n'
        b'    -0.0,\n    0.1\n  ],\n'
        b'  "rows": [\n    [\n      1.0,\n      -0.5\n    ],\n'
        b'    [\n      2,\n      3e-300\n    ]\n  ]\n}\n')


# float columns this long take the vectorized kernel: lengths on either side
# of the crossover, and that of a 5000-step trace
CROSSOVER = tracefmt._KERNEL_MIN_CELLS
LONG = (CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 5001)


def test_writer_matches_row_dict_reference_on_edge_cells(tmp_path):
    cells = [None, math.inf, -math.inf, 0, 7, -3, 2 ** 53 + 1, 0.0, -0.0,
             5e-324, 1e16, 0.1, 1.0 / 3.0, -2.5e-300, math.nan, True,
             np.float64(0.2), np.int64(2 ** 53 + 1)]
    floats = [v for v in cells if type(v) is float]
    special = [-math.inf, math.nan, -0.0, math.inf, 5e-324]
    for count in (len(cells), *LONG):
        plain = [i / 7.0 for i in range(count)]
        # every float edge cell inside an otherwise plain float column
        spread = list(plain)
        for i, v in enumerate(floats):
            spread[(2 * i + 1) * count // (2 * len(floats))] = v
        floating = [[special[i % len(special)] for i in range(count)], plain,
                    spread]
        columns = [
            # every cell in every column, next to every other kind of cell
            *([cells[(i + j) % len(cells)] for i in range(count)]
              for j in range(4)),
            # all-float columns, formatted without a per-cell type check,
            # as lists and as the arrays trace_columns gives
            *floating,
            *map(np.array, floating),
            # all-int columns, formatted without a per-cell type check (a
            # range among them, as trace.csv's k), and an all-bool column,
            # which is not one
            range(count),
            [(-1) ** i * 2 ** (i % 70) for i in range(count)],
            [i % 3 == 0 for i in range(count)],
            # one odd cell in an otherwise all-float column, first or last
            [2 ** 53 + 1] + plain[1:],
            plain[:-1] + [2 ** 53 + 1],
            [None] + plain[1:],
            plain[:-1] + [None],
        ]
        names = tuple(f"c{j}" for j in range(len(columns)))
        for first, last in ((0, count), (0, 1), (count - 1, count), (0, 0),
                            (3, count)):
            # rows first..last-1 of every column, starting at row first
            table = {name: (first, column[first:last])
                     for name, column in zip(names, columns)}
            write_table(tmp_path / "new.csv", names, range(last), table)
            _reference_write_table(tmp_path / "ref.csv", names,
                                   _column_rows(last, table))
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes()), (count, first)


def test_float_kernel_matches_printf():
    """The kernel writes '%.17g' % v ("inf" for either infinity) for 2^20
    random bit patterns of random sign, 64 at each of the 2048 exponents
    and the rest at exponents in the kernel's range [1e-240, 1e240]; for
    the double nearest every 10^k and its neighbours up to 2 ulps away, of
    both signs; for exact ties of the 17th digit; and for zeros,
    subnormals, the largest doubles, infinities and nan."""
    rng = np.random.default_rng(20261019)
    count, every = 1 << 20, 64 * 2048
    # biased exponents 226..1820 are 2^-797..2^797, inside [1e-240, 1e240]
    exponents = np.concatenate([np.arange(every) % 2048, rng.integers(
        226, 1821, count - every)]).astype(np.uint64)
    bits = (rng.integers(0, 1 << 52, count, dtype=np.uint64)
            | exponents << np.uint64(52)
            | rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63))
    # the double nearest 10^k, by an int division, which rounds correctly
    powers = np.array([float(10 ** k) for k in range(309)]
                      + [1 / 10 ** k for k in range(1, 324)])
    near = np.add.outer(powers.view(np.int64), np.arange(-2, 3))
    near = near[near > 0].view(np.float64)
    # m / 2^18 has 18 digits after the point, the last a 5
    ties = np.arange(100001, 160001, 2) / 2.0 ** 18
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e308,
             sys.float_info.max, math.inf, math.nan]
    values = np.concatenate([bits.view(np.float64), near, -near, ties,
                             -ties, edges, np.negative(edges)])
    # one %-format call for all cells, then "inf" for -inf
    expected = ("%.17g\n" * len(values) % tuple(values.tolist())).split()
    expected = ["inf" if cell == "-inf" else cell for cell in expected]
    cells = tracefmt._format_floats(values)
    assert cells.shape == (len(values), 24)
    assert _text(cells) == expected


# float cells that printf and the kernel format: subnormals, -0.0, nan,
# +-inf
FLOAT_CELLS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, -2.5e-310, math.nan,
                                  math.inf, -math.inf]))
CELLS = st.one_of(st.none(), st.booleans(), st.integers(), FLOAT_CELLS)
COLUMN = st.tuples(st.integers(0, 3), st.one_of(
    st.lists(FLOAT_CELLS, max_size=6), st.lists(st.integers(), max_size=6),
    st.lists(CELLS, max_size=6)))


def _long_column(length, cells, as_array):
    """length floats of either sign spread in log over [1e-300, 1e300],
    with cells inside, as a list or an array."""
    column = np.geomspace(1e-300, 1e300, length)
    column[::3] *= -1
    for i, v in enumerate(cells):
        column[(2 * i + 1) * length // (2 * len(cells))] = v
    return column if as_array else column.tolist()


LONG_COLUMN = st.builds(
    lambda first, *made: (first, _long_column(*made)), st.integers(0, 3),
    st.sampled_from(LONG), st.lists(FLOAT_CELLS, max_size=6), st.booleans())


# two columns at least: csv.writer quotes a row that is one empty cell
@given(st.one_of(st.integers(0, 6), st.sampled_from((CROSSOVER + 4, 5004))),
       st.lists(st.one_of(COLUMN, LONG_COLUMN), min_size=2, max_size=4))
@settings(max_examples=200, derandomize=True)
def test_table_matches_row_dict_reference(tmp_path_factory, count, columns):
    base = tmp_path_factory.getbasetemp()
    names = tuple(f"c{j}" for j in range(len(columns)))
    table = dict(zip(names, columns))
    returned = write_table(base / "new.csv", names, range(count), table)
    _reference_write_table(base / "ref.csv", names,
                           _column_rows(count, table))
    written = (base / "new.csv").read_bytes()
    assert written == (base / "ref.csv").read_bytes()
    # the columns it returns hold the reference's cells, and written again
    # they give the same bytes
    with open(base / "ref.csv", "r", encoding="ascii", newline="") as fh:
        assert _returned_rows(count, returned) == list(csv.reader(fh))[1:]
    write_table(base / "again.csv", names, range(count), returned)
    assert (base / "again.csv").read_bytes() == written


def _assert_matches_reference(tmp_path, count, table):
    names = tuple(table)
    write_table(tmp_path / "new.csv", names, range(count), table)
    _reference_write_table(tmp_path / "ref.csv", names,
                           _column_rows(count, table))
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("values", [
    range(0), range(1), range(7, 12), range(CROSSOVER),
    range(7, 7 + 5001), range(999, 999 + 3 * CROSSOVER, 3),
    range(CROSSOVER, 0, -1), range(-5, CROSSOVER),
    range(10 ** 15 - CROSSOVER, 10 ** 15), range(10 ** 15 - 3, 10 ** 15 + 400),
    range(2 ** 70, 2 ** 70 + CROSSOVER)], ids=repr)
def test_range_cells_match_str(tmp_path, values):
    # a long range of counts below 1e15 takes the digit arithmetic, any
    # other range str, from any start and by any step
    _assert_matches_reference(tmp_path, len(values) + 2, {
        "k": (1, values), "x": (0, [0.5] * (len(values) + 2))})


BLOCK = tracefmt._BLOCK


@pytest.mark.parametrize("count", [
    1, 2, 57, CROSSOVER - 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
    5001])
def test_column_extents_match_row_dict_reference(tmp_path, count):
    # columns that begin and end anywhere in short and long tables, and
    # float columns on either side of a block of the kernel's gather
    plain = np.linspace(-3.0, 7.0, count + 2)
    table = {"k": (0, range(count)), "all": (0, plain)}
    for first in sorted({0, 1, BLOCK - 1, BLOCK, BLOCK + 1, count - 1}):
        for length in (1, BLOCK, count):
            if 0 <= first <= count:
                table[f"c{first}-{length}"] = (first, plain[:length])
    _assert_matches_reference(tmp_path, count, table)


def test_printf_cells_inside_a_long_column_match_reference(tmp_path):
    # the cells the kernel leaves to printf: zeros of either sign,
    # infinities, nan, exact ties of the 17th digit and values beyond the
    # kernel's range, at the start, end and middle of a long column
    odd = [0.0, -0.0, math.inf, -math.inf, math.nan, 100001 / 2.0 ** 18,
           -100003 / 2.0 ** 18, 1e-300, -1e300, 5e-324]
    column = np.geomspace(1e-17, 20.0, 5001)
    column[:len(odd)] = odd
    column[-len(odd):] = odd
    column[2500:2500 + len(odd)] = odd
    _assert_matches_reference(tmp_path, 5001, {
        "k": (0, range(5001)), "array": (0, column),
        "list": (1, column.tolist())})


def test_int_cells_longer_than_a_float_cell_match_reference(tmp_path):
    # a Python int can take more digits than the 24 bytes of a float cell
    big = [10 ** 30, -(10 ** 40) - 7, 5, 0]
    _assert_matches_reference(tmp_path, 6, {
        "ints": (0, big), "mixed": (1, big + [1.5, None]),
        "long": (0, [3 ** 200] + [0.25] * 5)})


def _circular_list():
    cycle = [1.0]
    cycle.append(cycle)
    return cycle


REFUSED_PAYLOADS = {
    "numpy-int": {"n": np.int64(3)},
    "numpy-int-among-numbers": {"xs": [1.0, np.int64(3)]},
    "numpy-int-in-a-row": [[1.0], [np.int64(3)]],
    "set": {"s": {1, 2}},
    "tuple-key": {(1, 2): 3},
    "key-of-another-kind": {"a": {b"bytes": 1}},
    "unsortable-keys": {1: 2, "a": 3},
    # json.dumps meets the set first, in sorted key order
    "refusals-in-key-order": [{"b": np.int64(1), "a": {1}}],
    "circular-list": {"x": _circular_list()},
}


@pytest.mark.parametrize("payload", REFUSED_PAYLOADS.values(),
                         ids=REFUSED_PAYLOADS)
def test_json_refuses_what_the_reference_refuses(tmp_path, payload):
    with pytest.raises(Exception) as reference:
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(type(reference.value)) as ours:
        write_json(tmp_path / "doc.json", payload)
    assert type(ours.value) is type(reference.value)
    assert str(ours.value) == str(reference.value)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("config", [
    c for p in PRESET_NAMES for c in preset_configs(p)], ids=lambda c: c.name)
def test_preset_tables_match_row_dict_reference(config, tmp_path):
    config.checks["samples"] = 10
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    run, maj = result.run, result.majorant
    # write_artifacts' rule for the reference point of distance_to_xstar
    xstar = result.bundle.minimizer
    if xstar is None and (run.converged or (
            run.num_steps > 0 and float(run.step_norms[-1]) < 1e-10)):
        xstar = run.iterates[-1]
    majorant = _reference_table_rows(len(maj.alpha), {
        "value_bound": (0, maj.psi_values),
        "distance_bound": (1, maj.distance_bounds)})
    for name, rows in (("trace.csv", _reference_trace_rows(run, maj, xstar)),
                       ("majorant.csv", majorant)):
        _reference_write_table(tmp_path / name, TRACE_COLUMNS, rows)
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / name).read_bytes()), name


def test_trace_of_a_start_outside_the_domain_leaves_its_gap_empty(tmp_path):
    # alternating projections between tangent balls, started outside C_1:
    # f(x_0) = +inf, then a slow approach to the touching point, so the
    # float columns take the kernel
    c1 = Ball(np.array([-1.0, 0.0]), 1.0)
    c2 = Ball(np.array([1.0, 0.0]), 1.0)
    comp = CompositeObjective(smooth=half_squared_distance(c2, 2),
                              nonsmooth=indicator(c1, 2))
    run = forward_backward(comp, np.array([-3.0, 1.0]), 1.0, CROSSOVER,
                           min_value=0.0)
    assert math.isinf(run.raw_values[0]) and run.num_steps == CROSSOVER
    maj = SimpleNamespace(psi_values=1.0 / np.arange(1, CROSSOVER + 2),
                          distance_bounds=np.sqrt(np.arange(1, CROSSOVER + 1)))
    xstar = np.zeros(2)
    columns = trace_columns(run, maj, xstar)
    assert columns["value_gap"][0] == 1
    write_table(tmp_path / "trace.csv", TRACE_COLUMNS,
                range(CROSSOVER + 1), columns)
    _reference_write_table(tmp_path / "ref.csv", TRACE_COLUMNS,
                           _reference_trace_rows(run, maj, xstar))
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert (tmp_path / "trace.csv").read_bytes().split(b"\r\n")[1] == (
        b"0,,1,,,3.1622776601683795,")


def test_default_sweep_matches_row_dict_reference(tmp_path, monkeypatch):
    swept = []

    def keep_rows(path, rows):
        swept.append(rows)
        write_sweep(path, rows)

    monkeypatch.setattr(klcert.cli, "write_sweep", keep_rows)
    assert klcert.cli.main(["sweep", "--preset", "tiny-lasso", "--out",
                            str(tmp_path)]) == 0
    _reference_write_table(tmp_path / "ref.csv", SWEEP_COLUMNS, swept[0])
    assert ((tmp_path / "sweep.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
