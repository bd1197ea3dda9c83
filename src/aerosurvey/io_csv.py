"""CSV ingestion and serialization for the declared file schemas.

Schemas (comma-separated, header row, '.' decimal, UTF-8):

    accel:     t_s,ax_ms2,ay_ms2,az_ms2
    mag:       t_s,easting_m,northing_m,alt_m,tmi_nT
    base:      t_s,tmi_nT
    vlf:       t_s,easting_m,northing_m,alt_m,inphase_pct,outphase_pct,
               h1_pct,h2_pct,pT_nT,roll_deg,pitch_deg
    rad:       t_s,easting_m,northing_m,alt_m,k_pct,u_ppm[,th_ppm][,ch0..chN]
    crossover: x_utm,y_utm,flights_k_pct,tie_k_pct,flights_u_ppm,tie_u_ppm

Every artifact the package writes (these CSVs, the attitude track, the
vibration spectrum, ESRI ASCII grids and PGM images) goes through
write_table. Floats are written with repr(), the shortest representation
that round-trips exactly, so serialize(ingest(f)) reproduces numeric
content bit-for-bit and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np

from .core import LineRole, SurveyLine, TimeSeries, UtmPoint
from .errors import EmptyFileError, MissingColumnError, NonMonotoneTimeError
from .qc import CrossoverRow

CSV_SCHEMA_VERSION = "1"

# rows converted to Python objects at a time by write_table; bounds the
# writer's extra memory instead of copying whole arrays into lists
_CHUNK_ROWS = 4096
# characters str() can produce for a Python bool, int or float
_NUMERIC_TEXT = frozenset("0123456789+-.einfaTrueFls")


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


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise EmptyFileError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    if not body:
        raise EmptyFileError(f"{path}: no data rows")
    return header, body


def _check_header(path, header: list[str], required) -> dict[str, int]:
    idx = {name: i for i, name in enumerate(header)}
    for col in required:
        if col not in idx:
            raise MissingColumnError(f"{path}: missing column '{col}'")
    return idx


def ingest_csv(path: str | Path, schema: SchemaKind | str,
               strict: bool = False) -> Ingested:
    """Parse a CSV against a declared schema.

    Rows with unparsable or invariant-violating cells are rejected with
    their row index. Duplicate/non-increasing timestamps: lenient mode
    keeps the first occurrence (field loggers hiccup), strict mode raises
    NonMonotoneTimeError.
    """
    schema = SchemaKind(schema) if not isinstance(schema, SchemaKind) else schema
    header, body = _read_rows(path)
    idx = _check_header(path, header, _REQUIRED[schema])

    if schema is SchemaKind.CROSSOVER:
        return _ingest_crossover(body, idx)

    # value columns: everything required after t_s, plus rad optionals
    value_cols = list(_REQUIRED[schema][1:])
    if schema is SchemaKind.RAD:
        if "th_ppm" in idx:
            value_cols.append("th_ppm")
        value_cols.extend(c for c in header if c.startswith("ch") and c[2:].isdigit())

    t_list: list[float] = []
    rows_out: list[list[float]] = []
    rejected: list[tuple[int, str]] = []
    t_max = -np.inf
    for rownum, row in enumerate(body, start=1):
        try:
            t = float(row[idx["t_s"]])
            vals = [float(row[idx[c]]) for c in value_cols]
        except (ValueError, IndexError):
            rejected.append((rownum, "unparsable field"))
            continue
        if not np.isfinite(t) or not all(np.isfinite(v) for v in vals):
            rejected.append((rownum, "non-finite field"))
            continue
        bad = _invariant_violation(value_cols, vals)
        if bad:
            rejected.append((rownum, bad))
            continue
        if t <= t_max:
            if strict:
                raise NonMonotoneTimeError(
                    f"{path}: non-monotone timestamp at data row {rownum}")
            rejected.append((rownum, "duplicate/non-monotone timestamp"))
            continue
        t_max = t
        t_list.append(t)
        rows_out.append(vals)

    if not rows_out:
        raise EmptyFileError(f"{path}: no usable data rows")
    values = np.array(rows_out)
    if values.shape[1] == 1:
        values = values[:, 0]
    return Ingested(TimeSeries(np.array(t_list), values, tuple(value_cols)),
                    tuple(rejected))


def _invariant_violation(cols: list[str], vals: list[float]) -> str | None:
    for c, v in zip(cols, vals):
        if c in _ANGLE_COLS and not -180.0 <= v <= 180.0:
            return f"{c} out of [-180, 180]"
        if c in _NONNEG_COLS and v < 0:
            return f"{c} negative"
    return None


def _ingest_crossover(body, idx) -> Ingested:
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
        rows.append(CrossoverRow(UtmPoint(x, y), fk, tk, fu, tu))
    if not rows:
        raise EmptyFileError("no usable crossover rows")
    return Ingested(tuple(rows), tuple(rejected))


def write_table(path: str | Path, head, columns, delimiter: str = ",",
                lineterminator: str = "\r\n") -> None:
    """Write `head` rows, then one row per index across `columns`.

    Columns are 1-D arrays or sequences of equal length. The bytes are
    those a csv.writer with this dialect writes for the same rows; the
    head goes through one. The body is built one chunk of _CHUNK_ROWS
    rows at a time with a single `%` operation over a "%s" row format:

    * A numeric array (bool, int or float) is turned into Python objects
      with tolist(), and "%s" applies the str() csv applies, which for a
      float is the round-trip repr(). That text holds no quote, line break
      or (for the usual delimiters) delimiter, so csv never quotes it; a
      dialect whose delimiter or line terminator uses a character of that
      text sends the column down the escaping path below instead.
    * In a float column each distinct value of the chunk is formatted
      once: np.unique over the float64 bits (so 0.0 and -0.0 stay apart)
      gives the distinct values and where each cell takes its text from.
      Gamma-count channels, grid NODATA and headings repeat heavily.
    * Any other column (labels, plain sequences) has each distinct value
      of the chunk escaped once by a csv.writer of the same dialect; the
      memo key keeps the type, so 1, 1.0 and True stay apart. A
      one-column table keeps csv's "" for an empty field.
    """
    n_cols = len(columns)
    n_rows = len(columns[0]) if n_cols else 0
    row_fmt = (delimiter.replace("%", "%%").join(["%s"] * n_cols)
               + lineterminator.replace("%", "%%"))
    numeric_ok = not _NUMERIC_TEXT.intersection(delimiter + lineterminator)
    escape = _escaper(delimiter, lineterminator, n_cols)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=delimiter,
                   lineterminator=lineterminator).writerows(head)
        for start in range(0, n_rows, _CHUNK_ROWS):
            parts = [_cells(c[start:start + _CHUNK_ROWS], numeric_ok, escape)
                     for c in columns]
            fh.write((row_fmt * len(parts[0]))
                     % tuple(chain.from_iterable(zip(*parts))))


def _cells(chunk, numeric_ok: bool, escape) -> list:
    """One chunk of a column as objects whose str() is the cell's text."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "biuf" \
            and numeric_ok:
        if chunk.dtype.kind != "f":
            return chunk.tolist()
        x = chunk.astype(np.float64)
        distinct, inverse = np.unique(x.view(np.int64), return_inverse=True)
        if len(distinct) == len(x):
            return x.tolist()
        texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                         dtype=object)
        return texts[inverse].tolist()
    memo: dict = {}
    out = []
    for v in (chunk.tolist() if isinstance(chunk, np.ndarray) else chunk):
        key = v if type(v) is str else (type(v), str(v))
        text = memo.get(key)
        if text is None:
            text = memo[key] = escape(v)
        out.append(text)
    return out


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


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    """Serialize a TimeSeries using its field names as the header."""
    fields = series.fields if series.fields else ("value",)
    vals = series.values if series.values.ndim == 2 else series.values[:, None]
    write_table(path, [("t_s",) + tuple(fields)], [series.t, *vals.T])


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
    header, body = _read_rows(path)
    cols = [c for c in header if c.startswith("ch") and c[2:].isdigit()]
    if not cols:
        raise MissingColumnError(f"{path}: no ch0..chN columns")
    idx = [header.index(c) for c in cols]
    out = []
    try:
        for rownum, row in enumerate(body, start=1):
            out.append([float(row[i]) for i in idx])
    except IndexError:
        raise ValueError(f"{path}: data row {rownum} has {len(row)} cells, "
                         f"the header has {len(header)}") from None
    counts = np.array(out)
    bad = ~np.isfinite(counts).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: data row {int(np.argmax(bad)) + 1} has a "
                         f"non-finite value")
    return counts


def write_spectra_csv(path: str | Path, counts: np.ndarray) -> None:
    counts = np.asarray(counts, dtype=float)
    write_table(path, [[f"ch{j}" for j in range(counts.shape[1])]], counts.T)


def crossover_fixture_path() -> Path:
    """Bundled 16-row tie-line repeatability sample (radiometric K/U)."""
    return Path(__file__).parent / "data" / "crossover_sample.csv"
