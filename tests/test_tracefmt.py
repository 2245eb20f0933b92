"""Artifact writers: exact CSV bytes, and files that appear whole or not at
all."""

import math
import os

import pytest

from klcert import tracefmt
from klcert.tracefmt import TRACE_COLUMNS, read_trace, write_json, write_table

ROWS = [
    {"k": 0, "value_gap": 1.5, "value_bound": math.inf},
    {"k": 1, "value_gap": 0.1, "step_norm": 2.0 / 3.0, "witness_norm": None},
]
BAD_ROWS = ROWS + [{"k": 2, "value_gap": "not a number"}]


def test_trace_table_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    write_table(path, TRACE_COLUMNS, ROWS)
    assert path.read_bytes() == (
        b"k,value_gap,value_bound,step_norm,witness_norm,"
        b"distance_to_xstar,distance_bound\r\n"
        b"0,1.5,inf,,,,\r\n"
        b"1,0.10000000000000001,,0.66666666666666663,,,\r\n")
    back = read_trace(path)
    assert back[0]["value_bound"] == math.inf
    assert back[1]["step_norm"] == 2.0 / 3.0
    assert back[1]["witness_norm"] is None


def test_failed_csv_write_creates_no_target(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "trace.csv", TRACE_COLUMNS, BAD_ROWS)
    assert os.listdir(tmp_path) == []


def test_failed_csv_write_keeps_existing_target(tmp_path):
    path = tmp_path / "trace.csv"
    write_table(path, TRACE_COLUMNS, ROWS)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_table(path, TRACE_COLUMNS, BAD_ROWS)
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


def test_json_is_sorted_ascii_with_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1.0, None], "a": "x"})
    assert path.read_bytes() == (
        b'{\n  "a": "x",\n  "b": [\n    1.0,\n    null\n  ]\n}\n')
