"""CSV ingestion and serialization for the declared file schemas.

Schemas (comma-separated, header row, '.' decimal, UTF-8):

    accel:     t_s,ax_ms2,ay_ms2,az_ms2
    mag:       t_s,easting_m,northing_m,alt_m,tmi_nT
    base:      t_s,tmi_nT
    vlf:       t_s,easting_m,northing_m,alt_m,inphase_pct,outphase_pct,
               h1_pct,h2_pct,pT_nT,roll_deg,pitch_deg
    rad:       t_s,easting_m,northing_m,alt_m,k_pct,u_ppm[,th_ppm][,ch0..chN]
    crossover: x_utm,y_utm,flights_k_pct,tie_k_pct,flights_u_ppm,tie_u_ppm

Every CSV the package reads has its header read by csv in _open_csv.
The float readers (ingest_csv for every schema but crossover,
read_spectra_csv, the CLI's buzz traces and the attitude track with its
label column) go through _read_columns, which hands the data rows to
numpy's C parser. Any input that parser refuses or may misread is read
again by _read_rows, which splits it into rows with csv, and
_parse_columns, so rejected rows, reasons and error messages are those
of the row reader on either route. Only the crossover schema (exact
Decimal cells) is always read by _read_rows, and no other module calls
these parts. Every artifact the package writes (these CSVs, the attitude
track, the vibration spectrum, ESRI ASCII grids and PGM images) goes
through write_table, every JSON artifact through _write_json, and every
JSON file the package reads through _read_json. Floats are written with
repr(), the shortest representation that round-trips exactly, so
serialize(ingest(f)) reproduces numeric content bit-for-bit and repeated
runs produce byte-identical files. write_table does not call repr() per
cell: the numtext kernel gives whole chunks of float64 cells repr()'s
exact text in numpy and calls repr() only for the values it is not sure
of (subnormals, nan, inf and a few near-ties). Each chunk of about
_CHUNK_CELLS cells is laid out first, then written into a byte canvas
whose slots are as wide as its texts need, with a filler byte that no
UTF-8 text holds around every text, so the chunk's rows are the canvas
bytes that are not filler. A table whose rows or columns make another
artifact (spectra.csv from rad.csv, the line files from mag.csv) writes
that one too, cut from the same text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import CrossoverRow, LineRole, SurveyLine, TimeSeries, UtmPoint
from .errors import EmptyFileError, MissingColumnError, NonMonotoneTimeError

CSV_SCHEMA_VERSION = "1"

# cells write_table formats at a time; bounds the writer's extra memory
# and keeps the number kernel's arrays in cache
_CHUNK_CELLS = 1 << 14
# bytes of a cell's slot in write_table's canvas when no label is longer:
# the longest number text and a two-byte separator, in whole uint32 words
_SLOT = 44
# characters str() can produce for a Python bool, int or float
_NUMERIC_TEXT = frozenset("0123456789+-.einfaTrueFls")
# bytes on which loadtxt reads a line otherwise than csv and float(), so a
# file holding one goes to the row reader: a quote (loadtxt splits a
# quoted cell at its commas, which shifts the columns after it even when
# that cell is not read) and the information separators U+001C to U+001F
# (loadtxt strips them around a number, float() rejects them). No other
# UTF-8 character contains these bytes.
_CSV_ONLY = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class SchemaKind(Enum):
    ACCEL = "accel"
    MAG = "mag"
    BASE = "base"
    VLF = "vlf"
    RAD = "rad"
    CROSSOVER = "crossover"


# required columns per schema; rad additionally allows th_ppm and ch0..chN
_REQUIRED = {
    SchemaKind.ACCEL: ("t_s", "ax_ms2", "ay_ms2", "az_ms2"),
    SchemaKind.MAG: ("t_s", "easting_m", "northing_m", "alt_m", "tmi_nT"),
    SchemaKind.BASE: ("t_s", "tmi_nT"),
    SchemaKind.VLF: ("t_s", "easting_m", "northing_m", "alt_m", "inphase_pct",
                     "outphase_pct", "h1_pct", "h2_pct", "pT_nT",
                     "roll_deg", "pitch_deg"),
    SchemaKind.RAD: ("t_s", "easting_m", "northing_m", "alt_m", "k_pct", "u_ppm"),
    SchemaKind.CROSSOVER: ("x_utm", "y_utm", "flights_k_pct", "tie_k_pct",
                           "flights_u_ppm", "tie_u_ppm"),
}

# angle columns are validated to the declared [-180, 180] envelope
_ANGLE_COLS = ("roll_deg", "pitch_deg")
# columns that must be >= 0 when present
_NONNEG_COLS = ("k_pct", "u_ppm", "th_ppm")


@dataclass(frozen=True)
class Ingested:
    """Result of ingest_csv: parsed data plus rejected row indices.

    `rejected_rows` holds (1-based data row index, reason) for rows that
    failed to parse or violated a sample invariant; they are dropped, not
    fatal. `data` is a TimeSeries for the time-stamped schemas and a tuple
    of CrossoverRow for the crossover schema.
    """

    data: TimeSeries | tuple[CrossoverRow, ...]
    rejected_rows: tuple[tuple[int, str], ...] = ()


@contextmanager
def _open_csv(path: str | Path):
    """(file, header, rows): the open file, its header and a csv reader.

    Blank rows are skipped; the header is the first other row, its cells
    stripped, and `rows` yields the data rows after it. The file is
    positioned just after the header, so another parser can take the data
    rows instead of `rows`. A header that names a column twice, or a row
    csv refuses (a cell over its field size limit), in the header or while
    the caller reads `rows`, raises ValueError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = filter(None, csv.reader(fh))
        try:
            header = next(rows, None)
            if header is None:
                raise EmptyFileError(f"{path}: empty file")
            header = [c.strip() for c in header]
            if len(set(header)) < len(header):
                name = next(c for i, c in enumerate(header) if c in header[:i])
                raise ValueError(f"{path}: column '{name}' appears twice in "
                                 f"the header")
            yield fh, header, rows
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _open_csv(path) as (_, header, rows):
        body = list(rows)
    if not body:
        raise EmptyFileError(f"{path}: no data rows")
    return header, body


def _check_header(path, header: list[str], required) -> dict[str, int]:
    idx = {name: i for i, name in enumerate(header)}
    for col in required:
        if col not in idx:
            raise MissingColumnError(f"{path}: missing column '{col}'")
    return idx


def _parse_columns(body: list[list[str]], cols: list[int],
                   labelled: bool = False):
    """(values, failed, ragged, labels) of the cells `cols` of `body`.

    `values` holds them as floats, one row per row of `body`; with
    `labelled` the last of `cols` is a text column instead, whose cells
    make the tuple `labels` (None while a row is ragged), else None.
    `ragged` marks the rows without every cell of `cols`; `failed` marks
    those and the rows with a cell Python's float() rejects (" 1.5 ",
    "1_0", "nan" and "Infinity" parse).
    """
    n = len(body)
    floats = cols[:-1] if labelled else cols
    ragged = np.fromiter(map(len, body), np.intp, count=n) <= max(cols)
    failed = ragged.copy()
    values = np.full((n, len(floats)), np.nan)
    for i in np.flatnonzero(~ragged).tolist():
        try:
            values[i] = [float(body[i][c]) for c in floats]
        except ValueError:
            failed[i] = True
    labels = (tuple(map(itemgetter(cols[-1]), body))
              if labelled and not ragged.any() else None)
    return values, failed, ragged, labels


def _load_floats(fh, cols: list[int], labelled: bool = False):
    """(values, labels) of the rest of `fh` by numpy's C parser, or None.

    As in _parse_columns; a text cell is kept as it stands, as csv keeps
    it. loadtxt converts a float cell with PyOS_string_to_double, the core
    of float(), and skips blank lines as csv does. Where the two were seen
    to differ, other than at the bytes _CSV_ONLY, it raises ValueError:
    "1_0", non-ASCII digits, an empty cell, a short row, a whitespace-only
    or NUL line, a NUL in a cell, bytes that are not UTF-8. Those, and a
    file without data rows, give None.
    """
    dtype = (np.dtype([("v", float, (len(cols) - 1,)), ("s", object)])
             if labelled else float)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None,
                               ndmin=1 if labelled else 2, usecols=cols,
                               dtype=dtype)
        except (ValueError, UserWarning):
            return None
    return (table["v"], tuple(table["s"].tolist())) if labelled \
        else (table, None)


def _has_csv_only_bytes(path) -> bool:
    with open(path, "rb") as fh:
        return any(b in block for block in iter(lambda: fh.read(1 << 20), b"")
                   for b in _CSV_ONLY)


def _read_columns(path, select, labelled: bool = False):
    """(header, body, values, failed, ragged, labels) of the cells select
    names, as _parse_columns gives them.

    `select(header)` gives the column indices to read and raises
    MissingColumnError for a header without them. The data rows go to
    _load_floats first; there `body` is None and no row failed. Where it
    gives None, the file holds a byte of _CSV_ONLY or select rejects the
    header, the file is read again by _read_rows and _parse_columns, so
    the rows, the errors and their messages are exactly theirs.
    """
    with _open_csv(path) as (fh, header, _):
        try:
            cols = select(header)
        except MissingColumnError:
            cols = None     # so a file without data rows says that first
        table = (None if cols is None or _has_csv_only_bytes(path)
                 else _load_floats(fh, cols, labelled))
    if table is None:
        header, body = _read_rows(path)
        return header, body, *_parse_columns(body, select(header), labelled)
    values, labels = table
    passed = np.zeros(len(values), bool)
    return header, None, values, passed, passed, labels


def _read_floats(path, select, labelled: bool = False):
    """(values, labels) of _read_columns for the strict readers: the first
    bad row raises.

    The ValueError names the file and the 1-based data row: the first row
    with too few cells or an unparsable cell, else the first with a nan or
    inf.
    """
    header, body, values, failed, ragged, labels = _read_columns(
        path, select, labelled)
    if failed.any():
        i = int(np.argmax(failed))
        if ragged[i]:
            raise ValueError(f"{path}: data row {i + 1} has {len(body[i])} "
                             f"cells, the header has {len(header)}")
        raise ValueError(f"{path}: data row {i + 1} has an unparsable value")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: data row {int(np.argmax(bad)) + 1} has a "
                         f"non-finite value")
    return values, labels


def _read_buzz_trace(path: Path) -> TimeSeries:
    """Buzz traces are mag CSVs or any two-column t_s,<value> file."""
    with _open_csv(path) as (_, header, _):
        pass
    if "tmi_nT" in header:
        data = ingest_csv(path, SchemaKind.MAG).data
        return TimeSeries(data.t, data.column("tmi_nT"), ("tmi_nT",))

    def value_column(header: list[str]) -> str:
        if "t_s" not in header:
            raise MissingColumnError(f"{path}: no t_s column")
        value_col = [c for c in header if c != "t_s"]
        if not value_col:
            raise MissingColumnError(f"{path}: no value column")
        return value_col[-1]

    values, _ = _read_floats(path, lambda header: [
        header.index(c) for c in ("t_s", value_column(header))])
    return TimeSeries(*values.T, (value_column(header),))


def ingest_csv(path: str | Path, schema: SchemaKind | str,
               strict: bool = False) -> Ingested:
    """Parse a CSV against a declared schema.

    Rows with unparsable or invariant-violating cells are rejected with
    their row index. Duplicate/non-increasing timestamps: lenient mode
    keeps the first occurrence (field loggers hiccup), strict mode raises
    NonMonotoneTimeError.
    """
    schema = SchemaKind(schema) if not isinstance(schema, SchemaKind) else schema
    if schema is SchemaKind.CROSSOVER:
        header, body = _read_rows(path)
        idx = _check_header(path, header, _REQUIRED[schema])
        return _ingest_crossover(path, body, idx)

    def columns(header: list[str]) -> list[int]:
        idx = _check_header(path, header, _REQUIRED[schema])
        return [idx[c] for c in ("t_s", *_value_columns(schema, header))]

    header, _, values, failed, _, _ = _read_columns(path, columns)
    value_cols = _value_columns(schema, header)
    checks = [(failed, "unparsable field"),
              (~np.isfinite(values).all(axis=1), "non-finite field")]
    for c, v in zip(value_cols, values[:, 1:].T):
        if c in _ANGLE_COLS:     # a nan row has failed the finite check
            checks.append((np.abs(v) > 180.0, f"{c} out of [-180, 180]"))
        elif c in _NONNEG_COLS:
            checks.append((v < 0, f"{c} negative"))
    reasons = [r for _, r in checks] + ["duplicate/non-monotone timestamp"]
    # each row's first failed check, 1-based; 0 for a row that passes all
    first_fail = np.select([m for m, _ in checks], range(1, len(checks) + 1))

    # a timestamp must exceed every timestamp kept before it
    kept = np.flatnonzero(first_fail == 0)
    t = values[kept, 0]
    late = t <= np.maximum.accumulate(np.r_[-np.inf, t[:-1]])
    if strict and late.any():
        raise NonMonotoneTimeError(f"{path}: non-monotone timestamp at data "
                                   f"row {kept[np.argmax(late)] + 1}")
    first_fail[kept[late]] = len(reasons)
    kept = kept[~late]

    if not len(kept):
        raise EmptyFileError(f"{path}: no usable data rows")
    data = values[kept, 1:] if len(value_cols) > 1 else values[kept, 1]
    rejected = tuple((i + 1, reasons[first_fail[i] - 1])
                     for i in np.flatnonzero(first_fail).tolist())
    if rejected:
        _warn_rejected(path, rejected)
    return Ingested(TimeSeries(values[kept, 0], data, tuple(value_cols)),
                    rejected)


def _value_columns(schema: SchemaKind, header: list[str]) -> list[str]:
    """Everything `schema` requires after t_s, plus rad's optionals."""
    cols = list(_REQUIRED[schema][1:])
    if schema is SchemaKind.RAD:
        if "th_ppm" in header:
            cols.append("th_ppm")
        cols.extend(_channel_columns(header))
    return cols


def _channel_columns(header: list[str]) -> list[str]:
    """The gamma channel columns of `header` (ch0..chN), in its order."""
    return [c for c in header if c.startswith("ch") and c[2:].isdigit()]


def _warn_rejected(path, rejected: tuple[tuple[int, str], ...]) -> None:
    """One WARNING on the aerosurvey logger: the file, the count and the
    first three (data row, reason) pairs."""
    # loaded by the first file with a bad row, so clean runs skip it
    import logging

    first = "; ".join(f"row {i}: {reason}" for i, reason in rejected[:3])
    more = ", ..." if len(rejected) > 3 else ""
    logging.getLogger("aerosurvey").warning(
        "%s: %d data rows rejected (%s%s)", path, len(rejected), first, more)


def _ingest_crossover(path, body, idx) -> Ingested:
    rows: list[CrossoverRow] = []
    rejected: list[tuple[int, str]] = []
    for rownum, row in enumerate(body, start=1):
        try:
            x = float(row[idx["x_utm"]])
            y = float(row[idx["y_utm"]])
            # 2-decimal deliverable values: exact decimal arithmetic so
            # differences and their maxima are exact, not float-approximate
            fk = Decimal(row[idx["flights_k_pct"]])
            tk = Decimal(row[idx["tie_k_pct"]])
            fu = Decimal(row[idx["flights_u_ppm"]])
            tu = Decimal(row[idx["tie_u_ppm"]])
        except (ValueError, IndexError, InvalidOperation):
            rejected.append((rownum, "unparsable field"))
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            rejected.append((rownum, "non-finite field"))
            continue
        rows.append(CrossoverRow(UtmPoint(x, y), fk, tk, fu, tu))
    if not rows:
        raise EmptyFileError(f"{path}: no usable crossover rows")
    return Ingested(tuple(rows), tuple(rejected))


def write_table(path: str | Path, head, columns, delimiter: str = ",",
                lineterminator: str = "\r\n", parts=()) -> None:
    """Write `head` rows, then one row per index across `columns`.

    `path` is a file name, or a binary file open for writing: the rows go
    after what it holds, so a table can be written a block of rows at a
    time, its head with the first.

    Columns are 1-D arrays or sequences of equal length. The bytes are
    those a csv.writer with this dialect writes for the same rows, where a
    numpy float is written as the repr() of its float64 value; the head
    goes through one. Each (path, first, rows) of `parts` names a further
    file: the table of rows `rows` (ascending indices, None for all) and
    columns `first` on of this one, head rows included, as write_table
    would write it. Its text is cut from this table's, not made again. A
    part of one text column needs a table of one, for csv writes an empty
    field as "" only when it is alone in its row.

    The body is built in chunks of about _CHUNK_CELLS cells, each in a
    byte canvas with one fixed-width slot per cell, filled with
    numtext.FILL, a byte no UTF-8 text holds:

    * Runs of adjacent int or float array columns (uint64 apart) are
      formatted by numtext.NumberText straight into their slots, a run's
      cells in one call; it sends the values its digit search is not sure
      of to repr(). Their text holds no quote, line break or (for the
      usual delimiters) delimiter, so csv never quotes it; a dialect
      whose delimiter or line terminator uses a character of that text
      sends the column down the escaping path below instead.
    * Any other column (labels, bools, plain sequences) has each distinct
      value escaped once by a csv.writer of the same dialect, into one
      table of texts its cells index; the memo key keeps the type, so 1,
      1.0 and True stay apart. A one-column table keeps csv's "" for an
      empty field.

    The chunk's texts are laid out before any is written, so a slot holds
    only the layout columns some text of the chunk reaches: each cell's
    text lies at [start, end) of its slot with FILL around it and its
    delimiter (the line terminator in the last column) after every column
    a text is written to. The chunk's rows are then the canvas bytes that
    are not FILL, taken in one pass, and a part's rows are cut from them
    by the cell lengths. Chunks have _CHUNK_CELLS * _SLOT // slot cells,
    where a slot is _SLOT bytes, wider when a label does not fit.
    """
    # loaded by the first write, so a command that writes no table skips it
    from .numtext import FILL, PLAIN, TEXT_END, NumberText, text_table

    n_cols = len(columns)
    n_rows = len(columns[0]) if n_cols else 0
    numeric_ok = not _NUMERIC_TEXT.intersection(delimiter + lineterminator)
    escape = _escaper(delimiter, lineterminator, n_cols)
    # [first, stop) of each run of adjacent float, int or uint64 columns;
    # a run stacks without rounding
    runs: list[list[int]] = []
    memos = {}
    run_kind = None
    for ci, col in enumerate(columns):
        kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
        if kind in "iuf" and numeric_ok:
            kind = ("f" if kind == "f" else
                    "u" if col.dtype == np.uint64 else "i")
            if kind != run_kind:
                runs.append([ci, ci])
            runs[-1][1] = ci + 1
        else:
            codes, texts = _memo(col, escape)
            memos[ci] = (codes, *text_table(texts))
            kind = None
        run_kind = kind
    seps = [delimiter] * (n_cols - 1) + [lineterminator] if n_cols else []
    sep_len = np.array([len(sep.encode()) for sep in seps], np.int64)
    longest = max(sep_len, default=0)
    sep_bytes = np.full((n_cols, longest), FILL, np.uint8)
    for ci, sep in enumerate(seps):
        sep_bytes[ci, :sep_len[ci]] = np.frombuffer(sep.encode(), np.uint8)
    # labels start at PLAIN like the fallback texts of numbers
    text_end = max([TEXT_END] + [PLAIN + table.shape[1]
                                 for _, table, _ in memos.values()])
    slot = max(_SLOT, -(-(text_end + longest) // 4) * 4)
    rows = max(1, _CHUNK_CELLS * _SLOT // (slot * max(n_cols, 1)))
    for _, first, _ in parts:
        if n_cols - first == 1 < n_cols and first in memos:
            raise ValueError("a part of one text column needs a table of one")
    with ExitStack() as files:
        outs = []
        for out, first, part_rows in ((path, 0, None), *parts):
            fh = out if hasattr(out, "write") else \
                files.enter_context(open(out, "wb"))
            head_text = io.StringIO()
            csv.writer(head_text, delimiter=delimiter,
                       lineterminator=lineterminator
                       ).writerows(row[first:] for row in head)
            fh.write(head_text.getvalue().encode())
            outs.append((fh, first, part_rows))
        buffer = np.empty(min(rows, n_rows) * n_cols * slot, np.uint8)
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            start = np.full((r1 - r0, n_cols), PLAIN)
            end = np.empty((r1 - r0, n_cols), np.int64)
            texts = []
            for c0, c1 in runs:
                text = NumberText(np.stack(
                    [columns[ci][r0:r1] for ci in range(c0, c1)], axis=1))
                start[:, c0:c1], end[:, c0:c1] = text.start, text.end
                texts.append((c0, c1, text))
            labels = []
            for ci, (codes, table, length) in memos.items():
                cell_length = length[codes[r0:r1]]
                end[:, ci] = PLAIN + cell_length
                # only as wide as this chunk's longest text
                text_width = int(cell_length.max(initial=0))
                labels.append((ci, table[codes[r0:r1], :text_width]))
            # slots hold columns [lo, at + longest) of the layout: the
            # separators follow every column the texts are written to
            lo = min([PLAIN] + [text.first for _, _, text in texts])
            at = max([int(end.max())] + [text.high for _, _, text in texts])
            width = -(-(at + longest - lo) // 4) * 4
            canvas = buffer[:(r1 - r0) * n_cols * width].reshape(
                r1 - r0, n_cols, width)
            row = np.full((n_cols, width), FILL, np.uint8)
            row[:, at - lo:at - lo + longest] = sep_bytes
            canvas[:] = row
            for c0, c1, text in texts:
                text.write(canvas[:, c0:c1], lo)
            del texts
            for ci, cells in labels:
                canvas[:, ci, PLAIN - lo:PLAIN - lo + cells.shape[1]] = cells
            del labels
            flat = canvas.reshape(-1)
            body = flat[flat != FILL]
            outs[0][0].write(body)
            if len(outs) > 1:
                cell = end - start + sep_len        # bytes, separator included
                row_len = cell.sum(axis=1)
                row_end = np.cumsum(row_len)
            for fh, first, part_rows in outs[1:]:
                if part_rows is None:
                    local = np.arange(r1 - r0)
                else:
                    a, b = np.searchsorted(part_rows, (r0, r1))
                    local = part_rows[a:b] - r0
                if len(local):
                    begin = (row_end[local] - row_len[local]
                             + cell[local, :first].sum(axis=1))
                    fh.write(_cut(body, begin, row_end[local]))


def _cut(body: np.ndarray, begin: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The bytes [begin[i], stop[i]) of `body`, for ascending spans."""
    gap = np.append(begin[1:] - stop[:-1], 0)
    span = body[begin[0]:stop[-1]]
    if not gap.any():
        return span
    keep = np.repeat(np.resize([True, False], 2 * len(gap)),
                     np.column_stack([stop - begin, gap]).ravel())
    return span[keep]


def _memo(column, escape) -> tuple[np.ndarray, list[bytes]]:
    """(codes, texts): texts[codes[i]] is the escaped UTF-8 text of cell i.

    Cells with the same type and str() share one text, so 1, 1.0 and True
    stay apart and each distinct value is escaped once; a column of str
    is keyed by its values.
    """
    values = column.tolist() if isinstance(column, np.ndarray) else column
    try:
        plain = all(type(v) is str for v in set(values))
    except TypeError:                   # an unhashable cell
        plain = False
    keys = values if plain else list(zip(map(type, values), map(str, values)))
    distinct = dict(zip(keys, values))
    code = dict(zip(distinct, range(len(distinct))))
    return (np.fromiter(map(code.__getitem__, keys), np.intp, len(keys)),
            [escape(v).encode() for v in distinct.values()])


def _escaper(delimiter: str, lineterminator: str, n_cols: int):
    """value -> its cell text as a csv.writer of this dialect writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator=lineterminator)
    # csv writes an empty cell as "" only when it is the row's one cell; an
    # empty trailing cell gives the value the context of a wider row
    tail = (None,) if n_cols > 1 else ()
    cut = len(lineterminator) + len(delimiter) * len(tail)

    def escape(value) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value,) + tail)
        return buf.getvalue()[:-cut]
    return escape


def write_series_csv(path: str | Path, series: TimeSeries, parts=()) -> None:
    """Serialize a TimeSeries using its field names as the header; `parts`
    as write_table's, with t_s as column 0."""
    fields = series.fields if series.fields else ("value",)
    vals = series.values if series.values.ndim == 2 else series.values[:, None]
    write_table(path, [("t_s",) + tuple(fields)], [series.t, *vals.T],
                parts=parts)


def read_survey_lines(directory: str | Path, schema: SchemaKind | str,
                      role: LineRole) -> tuple[SurveyLine, ...]:
    """One survey line per CSV file in `directory`; line id = file stem."""
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise EmptyFileError(f"{directory}: no CSV files")
    lines = []
    for f in files:
        ingested = ingest_csv(f, schema)
        lines.append(SurveyLine(f.stem, role, ingested.data))
    return tuple(lines)


def read_spectra_csv(path: str | Path) -> np.ndarray:
    """Plain spectra matrix: header ch0..chN, one sample per row."""
    def columns(header: list[str]) -> list[int]:
        cols = _channel_columns(header)
        if not cols:
            raise MissingColumnError(f"{path}: no ch0..chN columns")
        return [header.index(c) for c in cols]

    return _read_floats(path, columns)[0]


def write_spectra_csv(path: str | Path, counts: np.ndarray) -> None:
    counts = np.asarray(counts, dtype=float)
    write_table(path, [[f"ch{j}" for j in range(counts.shape[1])]], counts.T)


def _json_text(obj) -> str:
    """The text of every JSON artifact and of the CLI's JSON output."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: str | Path, obj) -> None:
    Path(path).write_text(_json_text(obj))


def _write_crossings(path, records, report) -> None:
    """crossings.json: crossover_analysis's QcReport and every record."""
    _write_json(path, {
        "report": report.to_dict(),
        "crossings": [{
            "easting_m": r.location.easting,
            "northing_m": r.location.northing,
            "flight": r.flight_value, "tie": r.tie_value,
            "difference": r.difference,
        } for r in records],
    })


def _read_json(path: str | Path):
    """The JSON value in file `path`; bad JSON raises ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def crossover_fixture_path() -> Path:
    """Bundled 16-row tie-line repeatability sample (radiometric K/U)."""
    return Path(__file__).parent / "data" / "crossover_sample.csv"
