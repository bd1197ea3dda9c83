"""CSV ingestion and serialization for the declared file schemas.

Schemas (comma-separated, header row, '.' decimal, UTF-8):

    accel:     t_s,ax_ms2,ay_ms2,az_ms2
    mag:       t_s,easting_m,northing_m,alt_m,tmi_nT
    base:      t_s,tmi_nT
    vlf:       t_s,easting_m,northing_m,alt_m,inphase_pct,outphase_pct,
               h1_pct,h2_pct,pT_nT,roll_deg,pitch_deg
    rad:       t_s,easting_m,northing_m,alt_m,k_pct,u_ppm[,th_ppm][,ch0..chN]
    crossover: x_utm,y_utm,flights_k_pct,tie_k_pct,flights_u_ppm,tie_u_ppm

Every CSV the package reads has its header read by csv in _open_csv. The
float readers (ingest_csv for every schema but crossover,
read_spectra_csv and the CLI's buzz traces) go through _read_columns,
which hands the data rows to numpy's C parser. Any input that parser
refuses or may misread is read again by _read_rows, which splits it into
rows with csv, and _parse_columns, so rejected rows, reasons and error
messages are those of the row reader on either route. Only the crossover
schema (exact Decimal cells) is always read by _read_rows, and no other
module calls these parts. Every artifact the package writes (these CSVs,
the attitude track, the vibration spectrum, ESRI ASCII grids and PGM
images) goes through write_table, every JSON artifact through
_write_json, and every JSON file the package reads through _read_json.
Floats are written with repr(), the shortest representation that
round-trips exactly, so serialize(ingest(f)) reproduces numeric content
bit-for-bit and repeated runs produce byte-identical files. write_table
does not call repr() per cell: it checks the dialect and the columns and
writes the heads, and numtext.Layout makes each chunk's row bytes, in
numpy, calling repr() only for the values it is not sure of (subnormals,
nan, inf and a few near-ties). A table whose rows or columns make another
artifact (spectra.csv from rad.csv, the line files from mag.csv) writes
that one too, cut from the same bytes.
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
from pathlib import Path

import numpy as np

from .core import CrossoverRow, LineRole, SurveyLine, TimeSeries, UtmPoint
from .errors import MissingColumnError

CSV_SCHEMA_VERSION = "1"

# cells write_table formats at a time; bounds the writer's extra memory
# and keeps the number kernel's arrays in cache
_CHUNK_CELLS = 1 << 14
# the (delimiter, line terminator) of every table write_table writes
_DIALECTS = ((",", "\r\n"), (" ", "\n"))
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
                raise ValueError(f"{path}: empty file")
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
        raise ValueError(f"{path}: no data rows")
    return header, body


def _check_header(path, header: list[str], required) -> dict[str, int]:
    idx = {name: i for i, name in enumerate(header)}
    for col in required:
        if col not in idx:
            raise MissingColumnError(f"{path}: missing column '{col}'")
    return idx


def _parse_columns(body: list[list[str]], cols: list[int]):
    """(values, failed, ragged) of the cells `cols` of `body`.

    `values` holds them as floats, one row per row of `body`. `ragged`
    marks the rows without every cell of `cols`; `failed` marks those and
    the rows with a cell Python's float() rejects (" 1.5 ", "1_0", "nan"
    and "Infinity" parse).
    """
    n = len(body)
    ragged = np.fromiter(map(len, body), np.intp, count=n) <= max(cols)
    failed = ragged.copy()
    values = np.full((n, len(cols)), np.nan)
    for i in np.flatnonzero(~ragged).tolist():
        try:
            values[i] = [float(body[i][c]) for c in cols]
        except ValueError:
            failed[i] = True
    return values, failed, ragged


def _load_floats(fh, cols: list[int]):
    """The rest of `fh` as floats by numpy's C parser, or None.

    As in _parse_columns. loadtxt converts a cell with
    PyOS_string_to_double, the core of float(), and skips blank lines as
    csv does. Where the two were seen to differ, other than at the bytes
    _CSV_ONLY, it raises ValueError: "1_0", non-ASCII digits, an empty
    cell, a short row, a whitespace-only or NUL line, a NUL in a cell,
    bytes that are not UTF-8. Those, and a file without data rows, give
    None.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data",
                                UserWarning)
        try:
            return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                              usecols=cols, dtype=float)
        except (ValueError, UserWarning):
            return None


def _has_csv_only_bytes(path) -> bool:
    with open(path, "rb") as fh:
        return any(b in block for block in iter(lambda: fh.read(1 << 20), b"")
                   for b in _CSV_ONLY)


def _read_columns(path, select):
    """(header, body, values, failed, ragged) of the cells select names,
    as _parse_columns gives them.

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
        values = (None if cols is None or _has_csv_only_bytes(path)
                  else _load_floats(fh, cols))
    if values is None:
        header, body = _read_rows(path)
        return header, body, *_parse_columns(body, select(header))
    passed = np.zeros(len(values), bool)
    return header, None, values, passed, passed


def _read_floats(path, select) -> np.ndarray:
    """The values of _read_columns for the strict readers: the first bad
    row raises.

    The ValueError names the file and the 1-based data row: the first row
    with too few cells or an unparsable cell, else the first with a nan or
    inf.
    """
    header, body, values, failed, ragged = _read_columns(path, select)
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
    return values


def _read_buzz_trace(path: Path) -> TimeSeries:
    """Buzz traces are mag CSVs (a header with every mag column) or any
    two-column t_s,<value> file."""
    with _open_csv(path) as (_, header, _):
        pass
    if set(_REQUIRED[SchemaKind.MAG]) <= set(header):
        data = ingest_csv(path, SchemaKind.MAG).data
        return TimeSeries(data.t, data.column("tmi_nT"), ("tmi_nT",))

    def value_column(header: list[str]) -> str:
        if "t_s" not in header:
            raise MissingColumnError(f"{path}: no t_s column")
        value_col = [c for c in header if c != "t_s"]
        if not value_col:
            raise MissingColumnError(f"{path}: no value column")
        return value_col[-1]

    values = _read_floats(path, lambda header: [
        header.index(c) for c in ("t_s", value_column(header))])
    return TimeSeries(*values.T, (value_column(header),))


def ingest_csv(path: str | Path, schema: SchemaKind) -> Ingested:
    """Parse a CSV against a declared schema.

    Rows with unparsable or invariant-violating cells are rejected with
    their row index, and so is a row whose timestamp does not exceed every
    one kept before it: the first occurrence stays (field loggers hiccup).
    """
    if schema is SchemaKind.CROSSOVER:
        header, body = _read_rows(path)
        idx = _check_header(path, header, _REQUIRED[schema])
        return _ingest_crossover(path, body, idx)

    def columns(header: list[str]) -> list[int]:
        idx = _check_header(path, header, _REQUIRED[schema])
        return [idx[c] for c in ("t_s", *_value_columns(schema, header))]

    header, _, values, failed, _ = _read_columns(path, columns)
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
    first_fail[kept[late]] = len(reasons)
    kept = kept[~late]

    if not len(kept):
        raise ValueError(f"{path}: no usable data rows")
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
        raise ValueError(f"{path}: no usable crossover rows")
    return Ingested(tuple(rows), tuple(rejected))


def write_table(path: str | Path, head, columns, delimiter: str = ",",
                lineterminator: str = "\r\n", parts=()) -> None:
    """Write `head` rows, then one row per index across `columns`.

    `path` is a file name, or a binary file open for writing: the rows go
    after what it holds, so a table can be written a block of rows at a
    time, its head with the first.

    The dialect is (",", "\r\n") or (" ", "\n"). Each column is a 1-D
    float or int (numpy kind "i") array, or a label column: the pair
    (codes, texts) of a 1-D int array and a sequence of labels, row i
    holding texts[codes[i]]. A label is a non-empty str holding no
    delimiter, '"', "\r" or "\n", which csv writes as it is. Any other
    column or dialect, or a code outside texts, raises ValueError naming
    it. The bytes are those a csv.writer with this dialect writes for the
    same rows, where a float is written as the repr() of its float64
    value; the head goes through one. Each (path, first, rows) of `parts`
    names a further file: the table of rows `rows` (ascending indices,
    None for all) and columns `first` on of this one, head rows included,
    as write_table would write it. Its text is cut from this table's, not
    made again.

    numtext.Layout makes the body's bytes a chunk of about _CHUNK_CELLS
    cells at a time, with the cell byte counts that cut a part's rows.
    """
    # loaded by the first write, so a command that writes no table skips it
    from .numtext import Layout

    if (delimiter, lineterminator) not in _DIALECTS:
        raise ValueError(f"write_table writes the dialects {_DIALECTS}, "
                         f"not {(delimiter, lineterminator)!r}")
    n_cols = len(columns)
    # [first, stop) of each run of adjacent float or int columns; a run
    # stacks without rounding
    runs: list[list[int]] = []
    labels = {}
    run_kind = None
    for ci, col in enumerate(columns):
        if isinstance(col, tuple):
            labels[ci] = _labels(col, ci, delimiter)
            kind = None
        elif (kind := col.dtype.kind) in "fi":
            if kind != run_kind:
                runs.append([ci, ci])
            runs[-1][1] = ci + 1
        else:
            raise ValueError(f"column {ci}: write_table writes float or int "
                             f"arrays, not {col.dtype}")
        run_kind = kind
    n_rows = len(labels[0][0] if 0 in labels else columns[0]) if n_cols else 0
    seps = [delimiter] * (n_cols - 1) + [lineterminator] if n_cols else []
    layout = Layout(runs, labels, seps)
    rows = layout.chunk_rows(_CHUNK_CELLS)
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
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            body, cell = layout.rows(columns, r0, r1)
            outs[0][0].write(body)
            if len(outs) > 1:
                row_end = np.cumsum(cell.sum(axis=1))
            for fh, first, part_rows in outs[1:]:
                if part_rows is None:
                    local = np.arange(r1 - r0)
                else:
                    a, b = np.searchsorted(part_rows, (r0, r1))
                    local = part_rows[a:b] - r0
                if len(local):
                    begin = row_end[local] - cell[local, first:].sum(axis=1)
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


def _labels(column, ci: int, delimiter: str) -> tuple[np.ndarray, list[bytes]]:
    """The label column (codes, texts) as numtext.Layout takes it, each
    text UTF-8; one write_table does not write raises ValueError naming
    column `ci`."""
    codes, texts = column if len(column) == 2 else (None, ())
    if not (isinstance(codes, np.ndarray) and codes.ndim == 1
            and codes.dtype.kind == "i"):
        raise ValueError(f"column {ci}: a label column is a (codes, texts) "
                         "pair of a 1-D int array and the labels")
    quoted = frozenset(delimiter + '"\r\n')     # csv quotes a label holding one
    for label in texts:
        if not (isinstance(label, str) and label and quoted.isdisjoint(label)):
            raise ValueError(f"column {ci}: {label!r} is not a label "
                             "write_table writes")
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(texts):
        raise ValueError(f"column {ci}: a code is outside the {len(texts)} "
                         "texts")
    return codes, [label.encode() for label in texts]


def write_series_csv(path: str | Path, series: TimeSeries, parts=()) -> None:
    """Serialize a TimeSeries using its field names as the header (an
    unnamed scalar series as `value`); `parts` as write_table's, with t_s
    as column 0. A multi-column series must name every column."""
    vals = series.values if series.values.ndim == 2 else series.values[:, None]
    fields = series.fields or ("value",)
    if len(fields) != vals.shape[1]:
        raise ValueError(f"{path}: a series of {vals.shape[1]} columns needs "
                         f"as many field names, got {len(series.fields)}")
    write_table(path, [("t_s",) + tuple(fields)], [series.t, *vals.T],
                parts=parts)


def read_survey_lines(directory: str | Path, schema: SchemaKind,
                      role: LineRole) -> tuple[SurveyLine, ...]:
    """One survey line per CSV file in `directory`; line id = file stem."""
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise ValueError(f"{directory}: no CSV files")
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

    return _read_floats(path, columns)


def write_spectra_csv(path: str | Path, counts: np.ndarray) -> None:
    counts = np.asarray(counts, dtype=float)
    write_table(path, [[f"ch{j}" for j in range(counts.shape[1])]], counts.T)


def _json_text(obj) -> str:
    """The text of every JSON artifact and of the CLI's JSON output; a nan
    or inf raises ValueError, so none holds NaN or Infinity."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_json(path: str | Path, obj) -> None:
    """Write _json_text(obj) to `path`; its ValueError names the path, and
    nothing is written."""
    try:
        text = _json_text(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text)


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
