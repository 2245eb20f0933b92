"""Artifact formats: the one atomic file writer, JSON and CSV on top of it,
and the one JSON record reader.

Every artifact goes through `_atomic_write`: the bytes land in a temporary
file next to the target and are renamed over it, so a partial file never
appears under the target name.  JSON is ASCII with sorted keys and a
two-space indent; a record is read back with `read_json` and checked with
`require` and `require_type`, so a malformed one raises ValueError instead
of being patched with defaults or converted.  CSV is RFC 4180 (CRLF, '.'
decimal separator) with 17 significant digits, so that round-tripping and
byte-for-byte reproducibility hold.  A table arrives as rows of cells, one tuple per row
in the order of its field names; the writer formats each column in one pass
and joins the cells.  Method traces and worst-case majorant traces share
TRACE_COLUMNS, which makes overlay plotting trivial; a column a table has
no values for is a column of empty (None) cells.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

TRACE_COLUMNS = (
    "k",
    "value_gap",
    "value_bound",
    "step_norm",
    "witness_norm",
    "distance_to_xstar",
    "distance_bound",
)


def _atomic_write(path, text: str) -> None:
    data = text.encode("ascii")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path) -> dict:
    """The JSON object stored at path; any other top level is refused."""
    with open(path, "r", encoding="ascii") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return record


def require(record: dict, fields, what: str) -> None:
    """Refuse a record that lacks any of fields, or whose schema_version,
    when that is one of them, is not 1."""
    if "schema_version" in fields and record.get("schema_version", 1) != 1:
        raise ValueError(f"unsupported {what} schema version")
    missing = [key for key in fields if key not in record]
    if missing:
        raise ValueError(f"{what} record lacks {', '.join(missing)}")


def require_type(value, kind: type, what: str) -> None:
    """Refuse a value that is not of kind, never converting it: an int
    passes where a float is expected, unless no float can hold it, and a
    bool is always refused."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"{what} must be {kind.__name__}, not {type(value).__name__}")
    if kind is float and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} is beyond the range of a float")


def _column_cells(column) -> list[str]:
    return ["" if v is None else str(v) if type(v) is int
            else "inf" if v == -math.inf else f"{v:.17g}" for v in column]


def write_table(path, fieldnames, rows) -> None:
    """rows: tuples of cells in fieldnames order, one per data row.

    A Python int cell is written without a decimal point, None becomes an
    empty cell and anything else is a float: "inf" when infinite (of
    either sign), else 17 significant digits.
    """
    columns = [_column_cells(column) for column in zip(*rows)]
    lines = [",".join(fieldnames), *map(",".join, zip(*columns)), ""]
    _atomic_write(path, "\r\n".join(lines))
