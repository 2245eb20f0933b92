"""Artifact formats: the one atomic file writer, JSON and CSV on top of it,
and the one JSON record reader and writer.

Every artifact goes through `write_bytes`, iterates.bin's raw float64
bytes directly and every other file through the JSON and CSV writers
below: the bytes land in a temporary file with a short random name next
to the target, created with mode 0o666 less the umask as open() creates a
file, and are renamed over the target, so a partial file never appears
under the target name.  The target's directory is created only when
opening that file finds it missing.  `read_json` reads the file's bytes
and decodes them as ASCII.  JSON is `json.dumps(payload, sort_keys=True,
indent=2)` plus a newline: ASCII with sorted keys and a two-space indent.
A record is read back with `read_json` and checked with `require`,
`require_type` and `require_number`, so a malformed one raises ValueError
instead of being patched with defaults or converted.  A record whose keys
a table gives, instance.json's payload and certificate.json's
desingularizer, is read by `read_value` with exactly its keys at every
level and written by `write_value`.
CSV is RFC 4180 (CRLF, '.' decimal separator) with 17 significant digits,
so that round-tripping and byte-for-byte reproducibility hold.  A table
arrives as columns, each as (first row, values) by field name, and goes
to its file as bytes, with no Python string per cell and no row built:
each column becomes one uint8 matrix of ASCII cells padded with NULs, the
lines are laid out in one matrix with a comma or CRLF after each field's
slot, and the bytes that are not NUL are written.  A column of floats, a
list or a float64 array, whatever its empty leading cells, is formatted
by one printf-style call, 24 bytes a cell, when it is shorter than
_KERNEL_MIN_CELLS, and by `_format_floats`, a vectorized kernel that
writes exactly the cells '%.17g' writes, when it is longer.  A long range
of counts, as trace.csv's k, takes digit arithmetic; other ints and mixed
columns take str, one cell at a time.
For each finite |v| in [1e-240, 1e240] the kernel takes the decimal
exponent e from log10 and scales v to y = v 10^(16-e) in double-double
arithmetic: 10^(16-e) is held as hi + lo, built from exact integers on
first use; the product v hi is p plus an error term made exact by
Dekker's split; and v lo is added to that term.  Each of the three
roundings left (lo itself, v lo, the sum) is under 2e-15 since y < 1e17,
so y is known to within 1e-14, far inside the 1e-6 margin below.  y
rounds to the 17-digit integer D, whose digits come from a table of
every 4-digit group, and one template per (sign, exponent, significant
digits) gathers them with the sign, the point and the exponent into the
cell's 24 bytes.  A cell it cannot decide is given to '%.17g' itself: y
within 1e-6 of a tie between two integers; y below 1e16, or rounding to
1e17, as when log10 rounds across a power of ten; and zero, +-inf, nan
and values outside the range.  The writer returns its columns with their
cell matrices, and writes such a matrix as it is, so a second table that
shares columns with the first writes their cells without formatting them
again.  Method traces and worst-case majorant traces share TRACE_COLUMNS,
which makes overlay plotting trivial; a column a table has no values for
is a column of empty cells.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

TRACE_COLUMNS = (
    "k",
    "value_gap",
    "value_bound",
    "step_norm",
    "witness_norm",
    "distance_to_xstar",
    "distance_bound",
)


def write_bytes(path, *chunks) -> None:
    """Write the bytes-like chunks, one after another, to path."""
    directory = os.path.dirname(os.path.abspath(path))
    # a short random name: the target's name plus a suffix can pass
    # NAME_MAX.  Mode 0o666 lets the umask apply, as open() does, and
    # O_BINARY keeps Windows from translating newlines.
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk).cast("B")
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    write_bytes(path, (json.dumps(payload, sort_keys=True, indent=2)
                       + "\n").encode("ascii"))


def read_json(path) -> dict:
    """The JSON object stored at path; any other top level is refused."""
    with open(path, "rb") as fh:
        record = json.loads(fh.read().decode("ascii"))
    if not isinstance(record, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return record


def require(record: dict, fields, what: str, version: int = 1,
            exact: bool = False) -> None:
    """Refuse a record that lacks any of fields, whose schema_version (1
    when absent), when that is one of them, is not the int version, or,
    when exact, that holds any other key."""
    stored = record.get("schema_version", 1)
    if "schema_version" in fields and (type(stored) is not int
                                       or stored != version):
        raise ValueError(f"unsupported {what} schema version: "
                         f"schema_version is {stored!r}, not {version}")
    missing = [key for key in fields if key not in record]
    if missing:
        raise ValueError(f"{what} record lacks {', '.join(missing)}")
    unknown = sorted(set(record) - set(fields)) if exact else ()
    if unknown:
        raise ValueError(
            f"{what} record has unknown keys {', '.join(unknown)}")


def require_type(value, kind: type, what: str) -> None:
    """Refuse a value that is not of kind, never converting it: an int
    passes where a float is expected, unless no float can hold it, and a
    bool is refused unless kind is bool.  An infinite float is refused as
    not finite; require_number refuses NaN too."""
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) is not (kind is bool)
            or not isinstance(value, accepted)):
        raise ValueError(
            f"{what} must be {kind.__name__}, not {type(value).__name__}")
    if kind is float and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} is not finite" if isinstance(value, float)
                         else f"{what} is beyond the range of a float")


def require_number(value, what: str) -> float:
    """value as a float, refused unless it is a finite number (an int
    passes, as in require_type)."""
    require_type(value, float, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite")
    return float(value)


# what a record key holds: a finite number, a list of them, a non-empty
# list of equally long such lists, or one of the three specs below
NUMBER, VECTOR, MATRIX = "number", "vector", "matrix"
# records told apart by their tag key: kinds maps each tag value to the
# class such a record reads as, which takes its other keys as keyword
# arguments and keeps them as attributes, and to what each of those holds
Records = namedtuple("Records", "tag kinds")
# a list whose entries each hold what entry gives
Listed = namedtuple("Listed", "entry")
# what held gives, or null standing for means
Nullable = namedtuple("Nullable", "held means", defaults=(None,))


def _check_numbers(values: list, what: str) -> None:
    """Refuse any entry that is not a finite number (named only then)."""
    for i, v in enumerate(values):
        if type(v) is not float or not math.isfinite(v):
            require_number(v, f"{what}[{i}]")


def read_fields(record: dict, fields: dict, what: str, tag: tuple = ()
                ) -> dict:
    """The keys of record read as fields gives them, by key; record must
    hold exactly these keys and those of tag."""
    require(record, (*tag, *fields), what, exact=True)
    return {key: read_value(record[key], held, f"{what} {key}")
            for key, held in fields.items()}


def read_value(value, held, what: str):
    """value as held gives it: a float, an array, an object of a Records
    class, a tuple or a Nullable's meaning.  Any other shape, type, kind or
    key, at any level, is refused (ValueError naming what), never
    converted."""
    if isinstance(held, Nullable):
        return held.means if value is None else read_value(
            value, held.held, what)
    if held == NUMBER:
        return require_number(value, what)
    if isinstance(held, Records):
        require_type(value, dict, what)
        require(value, (held.tag,), what)
        kind = value[held.tag]
        if not (isinstance(kind, str) and kind in held.kinds):
            raise ValueError(f"{what} has unknown {held.tag} {kind!r}, not "
                             f"one of {', '.join(held.kinds)}")
        cls, fields = held.kinds[kind]
        return cls(**read_fields(value, fields, what, (held.tag,)))
    require_type(value, list, what)
    if isinstance(held, Listed):
        return tuple(read_value(v, held.entry, f"{what}[{i}]")
                     for i, v in enumerate(value))
    if held == VECTOR:
        _check_numbers(value, what)
        return np.array(value, dtype=float)
    for i, row in enumerate(value):
        where = f"{what}[{i}]"
        require_type(row, list, where)
        _check_numbers(row, where)
    if not value or len({len(row) for row in value}) != 1:
        raise ValueError(f"{what} must be a list of rows of one length")
    return np.array(value, dtype=float)


def write_value(value, held):
    """The JSON value that read_value reads as value; a record's keys come
    from the attributes of those names.  An object of no kind in the table
    is refused (ValueError)."""
    if isinstance(held, Nullable):
        null = value is None if held.means is None else value == held.means
        if null:
            return None
        held = held.held
    if isinstance(held, Records):
        for kind, (cls, fields) in held.kinds.items():
            if type(value) is cls:
                return {held.tag: kind, **{
                    key: write_value(getattr(value, key), fields[key])
                    for key in fields}}
        raise ValueError(f"{type(value).__name__} has no record")
    if isinstance(held, Listed):
        return [write_value(v, held.entry) for v in value]
    return np.asarray(value).tolist()


# Float columns of at least this many cells go to _format_floats, shorter
# ones to one printf-style call.  Measured on 2 CPUs (Python 3.11.7, numpy
# 2.4.6), best of 200 calls per length, on 200..800-cell slices of the six
# float columns of a 5000-step uniformly-convex trace and of |v| spread
# evenly in log over [1e-17, 20]: the kernel took 1.2-2.1x printf's time at
# 150 cells, 0.5-1.5x at 200-300, 0.65-0.86x at 350 and about 0.4x at 5000
# (1.25 ms against 3.0 ms).
_KERNEL_MIN_CELLS = 350
# the kernel's exponent range: every |v| in [1e-240, 1e240] has its decimal
# exponent in it, even when log10 rounds across a power of ten
_E_MIN, _E_MAX = -241, 240
# the source row a template indexes: byte 3 + j holds digit j of the 17, so
# that digits 1-16 are four aligned 4-byte groups (bytes 0-2 are unused),
# and bytes 20.. hold _ALPHABET, whose last two bytes pad a cell with NULs
_ALPHABET = b"-.e+0123456789\0\0"
_ROW = 20 + len(_ALPHABET)
# rows gathered at once: the index array, 512 x 24 intp (96 KiB), stays
# below glibc's 128 KiB mmap threshold, so the gather reuses heap pages
# where a 1024-row block (196 KB) was mapped fresh on every call: in a
# fresh process on 2 CPUs (numpy 2.4.6), 48 fewer page faults per
# 5000-cell column
_BLOCK = 512


@functools.cache
def _kernel_tables():
    """10^(16-e) as hi + lo and hi's Dekker halves, by e - _E_MIN; the
    ASCII of every 4-digit group; and, per group position i, 1 + the
    position of a group's last nonzero digit among the 17 (1 when the group
    is zero).  Built from exact integers on first use."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den                       # int division rounds correctly
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))   # 10^(16-e) - h
    hi = np.array(hi)
    c = 134217729.0 * hi                   # 2^27 + 1
    hi_top = c - (c - hi)
    group = np.arange(10000, dtype=np.int16)
    place = np.array([1000, 100, 10, 1], np.int16)
    text = (group[:, None] // place % 10 + 48).astype(np.uint8)
    # a group's digits up to its last nonzero one (0 for 0000)
    kept = 4 - (group[:, None] % (10 * place[::-1]) == 0).sum(axis=1)
    last = [np.where(kept > 0, kept + 1 + 4 * i, 1).astype(np.int8)
            for i in range(4)]
    return (hi, hi_top, hi - hi_top, np.array(lo), text.view(np.uint32)[:, 0],
            last)


# the cache holds at most 2 * 482 * 17 templates of 24 bytes
@functools.cache
def _template(key: int) -> bytes:
    """Where in the source row each byte of the text '%.17g' gives a value
    of template key comes from: key holds the sign, decimal exponent e and
    s significant digits, and the text is padded with NULs to 24 bytes,
    the longest such text."""
    rest, s = divmod(key, 17)
    e, negative = divmod(rest, 2)
    e, s = e + _E_MIN, s + 1
    digit = list(range(3, 20))
    char = {chr(b): 20 + i for i, b in enumerate(_ALPHABET[:-2])}
    out = [char["-"]] if negative else []
    if e < -4 or e > 16:
        out += digit[:1] + ([char["."]] + digit[1:s] if s > 1 else [])
        out += [char[c] for c in f"e{e:+03d}"]
    elif e < 0:
        out += [char["0"], char["."]] + [char["0"]] * (-e - 1) + digit[:s]
    else:
        # the integer part keeps its zeros: digits past s are "0"
        out += digit[:e + 1]
        out += [char["."]] + digit[e + 1:s] if s > e + 1 else []
    return bytes(out + [_ROW - 1] * (24 - len(out)))


def _format_floats(values: np.ndarray) -> np.ndarray:
    """The cells of a non-empty float64 array, each exactly '%.17g' % v
    ("inf" for either infinity), as the rows of an (n, 24) uint8 matrix
    padded with NULs.  See the module docstring for the method; a cell it
    cannot decide takes the printf path."""
    hi, hi_top, hi_low, lo, group_text, last = _kernel_tables()
    n = len(values)
    a = np.abs(values)
    ok = (a >= 1e-240) & (a <= 1e240)
    a[~ok] = 1.0
    # the decimal exponent, as its row e - _E_MIN in the tables
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= _E_MIN
    # y = a 10^(16-e) = p + t: p = fl(a hi), the Dekker product's error
    # and a lo in t
    p = a * hi[e]
    c = 134217729.0 * a
    a_top = c - (c - a)
    a_low = a - a_top
    h_top, h_low = hi_top[e], hi_low[e]
    t = ((a_top * h_top - p) + a_top * h_low + a_low * h_top
         + a_low * h_low) + a * lo[e]
    # D = round(y) = p + r, unless y is within 1e-6 of a tie
    r = np.floor(t)
    up = t - r
    ok &= np.abs(up - 0.5) > 1e-6
    up = up > 0.5
    r += up
    # D = top 1e8 + rest with 0 <= rest < 1e8, exactly in doubles: the
    # floor is off by at most one, and rest is within 50 of [0, 1e8)
    top = np.floor(p * 1e-8)
    rest = p - top * 1e8 + r
    below = rest < 0
    top -= below
    rest += below * 1e8
    above = rest >= 1e8
    top += above
    rest -= above * 1e8
    # 17 digits: 1e16 <= y and D < 1e17
    ok &= (top >= 1e8) & (top < 1e9) & ~((top == 1e8) & (rest == 0) & up)
    # a cell left to printf gets the digits of 1e16, which index the tables
    top[~ok] = 1e8
    rest[~ok] = 0
    # (x + 0.5) 1e-4 is within 1e-10 of x / 1e4 and 5e-5 away from an
    # integer, so the floor is exact
    top4 = np.floor((top + 0.5) * 1e-4)
    lead = np.floor((top4 + 0.5) * 1e-4)
    mid = np.floor((rest + 0.5) * 1e-4)
    source = np.empty((n, _ROW), np.uint8)
    source[:, 3] = lead + 48
    source[:, 20:] = np.frombuffer(_ALPHABET, np.uint8)
    words = source[:, 4:20].view(np.uint32)
    significant = np.ones(n, np.int8)
    for i, group in enumerate((top4 - lead * 1e4, top - top4 * 1e4, mid,
                               rest - mid * 1e4)):
        group = group.astype(np.intp)
        words[:, i] = group_text[group]
        np.maximum(significant, last[i][group], out=significant)
    # the template key, as _template reads it: (2 e + sign) 17 + s - 1
    key = e * 34
    key += 17 * (values < 0)
    key += significant - 1
    key[~ok] = 0        # cells left to printf need no template of their own
    used = np.flatnonzero(np.bincount(key))
    template_of = np.zeros(used[-1] + 1, np.intp)
    template_of[used] = np.arange(len(used))
    template_of = template_of[key]
    templates = np.frombuffer(b"".join(map(_template, used.tolist())),
                              np.uint8).reshape(-1, 24)
    flat = source.ravel()
    cells = np.empty((n, 24), np.uint8)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        index = templates[template_of[start:stop]] + np.arange(
            start * _ROW, stop * _ROW, _ROW)[:, None]
        np.take(flat, index, out=cells[start:stop], mode="clip")
    failed = np.flatnonzero(~ok)
    if failed.size:
        cells[failed] = _printf(values[failed].tolist())
    return cells


def _printf(values: list) -> np.ndarray:
    """The cells of a list of floats, by one printf-style call, as the
    rows of a (len(values), 24) uint8 matrix padded with NULs."""
    # every cell left-justified in 24 bytes, its longest text; only an
    # infinite cell can read "-inf"
    text = ("%-24.17g" * len(values) % tuple(values)).replace("-inf", "inf ")
    cells = np.frombuffer(bytearray(text, "ascii"), np.uint8).reshape(-1, 24)
    cells[cells == 32] = 0
    return cells


def _as_bytes(cells: list) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix padded with NULs, as
    wide as the longest (a Python int can take more than 24 digits)."""
    text = np.array(cells, dtype=bytes)
    return text.view(np.uint8).reshape(len(cells), text.itemsize)


def _range_cells(values: range) -> np.ndarray:
    """The cells of a range of integers in [0, 1e15), as _as_bytes gives
    them, by digit arithmetic in doubles, one digit column at a time: a
    leading zero is a NUL."""
    q = np.arange(values.start, values.stop, values.step, dtype=float)
    width = len(str(max(values[0], values[-1])))
    cells = np.empty((len(q), width), np.uint8)
    for j in range(width - 1, -1, -1):
        # q < 1e15 is exact, and (q + 0.5) 0.1 is within 0.02 of
        # q / 10 + 0.05, so its floor is the quotient
        rest = np.floor((q + 0.5) * 0.1)
        digit = q - rest * 10 + 48
        if j < width - 1:
            digit[q == 0] = 0
        cells[:, j] = digit
        q = rest
    return cells


def _cells(values) -> np.ndarray:
    """The cells of values as _as_bytes gives them: a matrix of such cells
    as it is; floats by _format_floats when there are at least
    _KERNEL_MIN_CELLS of them, else by one printf-style call (a float64
    array without a per-cell type test); as many values of a range in
    [0, 1e15) by _range_cells; any other range, or a column of Python ints
    alone (no bools), by str without a per-cell type test; and any other
    list one cell at a time."""
    if not len(values):
        return np.empty((0, 0), np.uint8)
    if type(values) is range:
        if (len(values) >= _KERNEL_MIN_CELLS
                and 0 <= min(values[0], values[-1])
                and max(values[0], values[-1]) < 10 ** 15):
            return _range_cells(values)
        return _as_bytes([str(v) for v in values])
    if isinstance(values, np.ndarray):
        if values.ndim == 2:
            return values
        if values.dtype == np.float64:
            if len(values) >= _KERNEL_MIN_CELLS:
                return _format_floats(values)
            return _printf(values.tolist())
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float}:
        if len(values) >= _KERNEL_MIN_CELLS:
            return _format_floats(np.array(values))
        return _printf(values)
    if kinds == {int}:
        # a comprehension's str call beats map(str, ...) on CPython 3.11
        return _as_bytes([str(v) for v in values])
    return _as_bytes(["" if v is None else str(v) if type(v) is int
                      else "inf" if v == -math.inf else f"{v:.17g}"
                      for v in values])


def write_table(path, fieldnames, rows, columns: dict) -> dict:
    """Write a table of len(rows) data rows (rows may be range(count));
    return its columns as columns gives them, with each field's values as
    the matrix of its cells, so that a second table sharing columns with
    this one writes their cells without formatting them again.

    columns maps a field name to (first row, values): the field's cells
    from row `first` on are those of values, as far as the table reaches,
    and its other cells are empty, as is every cell of a field columns
    does not name.  A Python int is written without a decimal point, None
    as an empty cell, a matrix of cells this writer returned as it is, and
    anything else as a float: "inf" when infinite (of either sign), else
    17 significant digits.

    The lines are laid out in one uint8 matrix: each field has a slot as
    wide as its widest cell, followed by a comma, or by CRLF after the
    last field, and the bytes of the matrix without its NULs are the lines.
    """
    count = len(rows)
    written, slots, blank = {}, [], bytearray()
    for name in fieldnames:
        first, values = columns.get(name, (count, ()))
        first = min(first, count)
        cells = _cells(values[:count - first])
        written[name] = (first, cells)
        slots.append((first, cells, len(blank)))
        blank += bytes(cells.shape[1]) + b","
    blank[-1:] = b"\r\n"
    table = np.empty((count, len(blank)), np.uint8)
    table[:] = np.frombuffer(blank, np.uint8)
    for first, cells, start in slots:
        table[first:first + len(cells), start:start + cells.shape[1]] = cells
    write_bytes(path, (",".join(fieldnames) + "\r\n").encode("ascii"),
                table[table != 0])
    return written
