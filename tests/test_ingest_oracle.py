"""The array-wide CSV readers against the per-row readers they replaced.

`_loop_ingest_csv`, `_loop_read_spectra_csv` and `_loop_read_buzz_trace`
are the row-at-a-time readers that `ingest_csv`, `read_spectra_csv` and
the CLI's buzz reader replaced, kept here only as oracles. They follow
the readers' column rules: the gamma channels are ch0..ch<k-1> in index
order, and a buzz trace's file holds t_s and one value column. For every
input the oracle accepts, the new reader must return the same bits, the
same fields and the same rejected rows; where the oracle raises, the new
reader must raise the same exception.

The readers parse with numpy's C parser first and fall back to the row
parser (`_parse_rows`, over csv's rows as they come) for any input the C
parser refuses or might misread. The oracles split a file into rows with
the package's csv reader, all at once (`_read_rows` below). The route
tests at the end hold each input that takes the fallback, and each odd
input that does not, against both the row loops and the row route alone.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import io_csv
from aerosurvey.cli import EXIT_IO, _read_buzz_trace, main
from aerosurvey.core import LineRole, TimeSeries
from aerosurvey.errors import MissingColumnError
from aerosurvey.io_csv import (
    _ANGLE_COLS,
    _NONNEG_COLS,
    _REQUIRED,
    Ingested,
    SchemaKind,
    _check_header,
    _open_csv,
    ingest_csv,
    read_spectra_csv,
    read_survey_lines,
)

# the suite's derandomized profile (conftest.py), this many examples
PROPERTY = settings(max_examples=300)


# ---------------------------------------------------------------------------
# the replaced readers


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    """(header, every data row) of a CSV; one without data rows raises."""
    with _open_csv(path) as (_, header, rows):
        body = list(rows)
    if not body:
        raise ValueError(f"{path}: no data rows")
    return header, body


def _loop_ingest_csv(path, schema: SchemaKind) -> Ingested:
    """ingest_csv as a per-row loop with a per-row invariant check."""
    header, body = _read_rows(path)
    idx = _check_header(path, header, _REQUIRED[schema])
    value_cols = list(_REQUIRED[schema][1:])
    if schema is SchemaKind.RAD:
        if "th_ppm" in idx:
            value_cols.append("th_ppm")
        value_cols.extend(_loop_channels(path, header))

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
            rejected.append((rownum, "duplicate/non-monotone timestamp"))
            continue
        t_max = t
        t_list.append(t)
        rows_out.append(vals)

    if not rows_out:
        raise ValueError(f"{path}: no usable data rows")
    values = np.array(rows_out)
    if values.shape[1] == 1:
        values = values[:, 0]
    return Ingested(TimeSeries(np.array(t_list), values, tuple(value_cols)),
                    tuple(rejected))


def _invariant_violation(cols, vals):
    for c, v in zip(cols, vals):
        if c in _ANGLE_COLS and not -180.0 <= v <= 180.0:
            return f"{c} out of [-180, 180]"
        if c in _NONNEG_COLS and v < 0:
            return f"{c} negative"
    return None


def _loop_channels(path, header) -> list[str]:
    """ch0, ch1, ... for as many ch<digits> cells as `header` holds, each
    of which it must hold."""
    n = sum(c.startswith("ch") and c[2:].isdigit() for c in header)
    cols = [f"ch{j}" for j in range(n)]
    if any(c not in header for c in cols):
        names = [c for c in header if c.startswith("ch") and c[2:].isdigit()]
        raise MissingColumnError(f"{path}: the channel columns {names} are "
                                 f"not ch0..ch{n - 1}")
    return cols


def _loop_read_spectra_csv(path) -> np.ndarray:
    header, body = _read_rows(path)
    cols = _loop_channels(path, header)
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


def _loop_read_buzz_trace(path) -> TimeSeries:
    """The two-column branch of the CLI's buzz reader, with its own
    csv.reader: t_s and exactly one value column."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    value_col = [c for c in header if c != "t_s"]
    if len(header) != 2 or len(value_col) != 1:
        raise ValueError(f"{path}: a pass file is a mag CSV or t_s and one "
                         f"value column, not the columns {header}")
    ti, vi = header.index("t_s"), header.index(value_col[0])
    t, v = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        next(rd)
        try:
            for rownum, row in enumerate((r for r in rd if r), start=1):
                t.append(float(row[ti]))
                v.append(float(row[vi]))
        except IndexError:
            raise ValueError(f"{path}: data row {rownum} has {len(row)} "
                             f"cells, the header has {len(header)}") from None
    return TimeSeries(np.array(t), np.array(v), (value_col[0],))


# ---------------------------------------------------------------------------
# inputs


def _write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _schema_columns(draw, schema: SchemaKind) -> list[str]:
    cols = list(_REQUIRED[schema])
    if schema is SchemaKind.RAD:
        if draw(st.booleans()):
            cols.append("th_ppm")
        cols += [f"ch{j}" for j in range(draw(st.integers(0, 3)))]
    return draw(st.permutations(cols))


UNPARSABLE = ["oops", "", "1.2.3", "0x10", "1e", "--1", "1,5"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-Infinity",
              "1e999"]
ODD_BUT_VALID = [" 1.5 ", "1_0", "\t2\t", "+3", "1E2", ".5", "-0.0"]
ANGLES = ["180", "-180", "180.0000001", "-200", "1e3", "-0.0"]
NEGATIVES = ["-0.5", "-0.0", "-1e-300", "0", "-inf"]
KINDS = ("unparsable", "ragged", "blank", "non_finite", "odd", "angle",
         "negative", "duplicate_t", "decreasing_t", "long")


@st.composite
def schema_files(draw):
    """(schema, header, rows) for a time-stamped schema, rows mutated."""
    schema = draw(st.sampled_from([s for s in SchemaKind
                                   if s is not SchemaKind.CROSSOVER]))
    header = _schema_columns(draw, schema)
    n = draw(st.integers(1, 10))
    rows = [[repr(0.5 * i) if c == "t_s" else repr(1.25 + i + j)
             for j, c in enumerate(header)] for i in range(n)]
    ti = header.index("t_s")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        j = draw(st.integers(0, len(header) - 1))
        if kind == "ragged":
            rows[i] = row[:draw(st.integers(0, max(len(row) - 1, 0)))]
        elif kind == "blank":
            rows.insert(i, [])
        elif kind == "long":
            row.append("9")
        elif j >= len(row):
            continue
        elif kind == "unparsable":
            row[j] = draw(st.sampled_from(UNPARSABLE))
        elif kind == "non_finite":
            row[j] = draw(st.sampled_from(NON_FINITE))
        elif kind == "odd":
            row[j] = draw(st.sampled_from(ODD_BUT_VALID))
        elif kind == "angle":
            cols = [k for k, c in enumerate(header)
                    if c in _ANGLE_COLS and k < len(row)]
            if cols:
                row[draw(st.sampled_from(cols))] = draw(st.sampled_from(ANGLES))
        elif kind == "negative":
            cols = [k for k, c in enumerate(header)
                    if c in _NONNEG_COLS and k < len(row)]
            if cols:
                row[draw(st.sampled_from(cols))] = \
                    draw(st.sampled_from(NEGATIVES))
        elif ti < len(row):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            if kind == "duplicate_t" and ti < len(src):
                row[ti] = src[ti]
            elif kind == "decreasing_t":
                row[ti] = repr(-0.25 * draw(st.integers(0, 3)))
    return schema, header, rows


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the exception itself is compared
        return None, exc


def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# ingest_csv


@PROPERTY
@given(schema_files())
def test_ingest_matches_row_loop(tmp_path_factory, case):
    schema, header, rows = case
    path = tmp_path_factory.mktemp("ingest") / f"{schema.value}.csv"
    _write_rows(path, [header] + rows)
    want, want_exc = _outcome(_loop_ingest_csv, path, schema)
    got, got_exc = _outcome(ingest_csv, path, schema)
    if want_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return
    assert got_exc is None
    assert got.rejected_rows == want.rejected_rows
    assert got.data.fields == want.data.fields
    _assert_same_bits(got.data.t, want.data.t)
    _assert_same_bits(got.data.values, want.data.values)


@pytest.fixture(scope="module")
def survey_dir(tmp_path_factory):
    from aerosurvey.pipeline import write_survey_artifacts
    from aerosurvey.suspension import FlightPlan, SimConfig, _Flight

    out = tmp_path_factory.mktemp("survey")
    write_survey_artifacts(_Flight(
        FlightPlan(n_lines=2, line_length_m=150.0, tie_lines=1), None,
        SimConfig(seed=7)), out)
    return out


@pytest.mark.parametrize("schema", ["mag", "base", "vlf", "rad"])
def test_ingest_matches_row_loop_on_simulated_files(survey_dir, schema):
    path, schema = survey_dir / f"{schema}.csv", SchemaKind(schema)
    want = _loop_ingest_csv(path, schema)
    got = ingest_csv(path, schema)
    assert got.rejected_rows == want.rejected_rows == ()
    assert got.data.fields == want.data.fields
    _assert_same_bits(got.data.t, want.data.t)
    _assert_same_bits(got.data.values, want.data.values)


# ---------------------------------------------------------------------------
# spectra


@st.composite
def spectra_files(draw):
    k = draw(st.integers(1, 4))
    header = draw(st.permutations([f"ch{j}" for j in range(k)]))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, k)), "t_s")
    n = draw(st.integers(1, 8))
    rows = [[repr(float(3 * i + j)) for j in range(len(header))]
            for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("unparsable", "ragged", "blank",
                                     "non_finite", "odd", "long")))
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if kind == "ragged":
            rows[i] = row[:draw(st.integers(0, max(len(row) - 1, 0)))]
        elif kind == "blank":
            rows.insert(i, [])
        elif kind == "long":
            row.append("1")
        elif row:
            j = draw(st.integers(0, len(row) - 1))
            row[j] = draw(st.sampled_from(
                {"unparsable": UNPARSABLE, "non_finite": NON_FINITE,
                 "odd": ODD_BUT_VALID}[kind]))
    return header, rows


def _first_failed_row(header, rows) -> int:
    """1-based data row of the first row with a short or unparsable cell."""
    idx = [header.index(c) for c in header if c.startswith("ch")]
    for rownum, row in enumerate((r for r in rows if r), start=1):
        try:
            [float(row[i]) for i in idx]
        except (ValueError, IndexError):
            return rownum
    raise AssertionError("no failed row")


@PROPERTY
@given(spectra_files())
def test_spectra_match_row_loop(tmp_path_factory, case):
    header, rows = case
    path = tmp_path_factory.mktemp("spectra") / "s.csv"
    _write_rows(path, [header] + rows)
    want, want_exc = _outcome(_loop_read_spectra_csv, path)
    got, got_exc = _outcome(read_spectra_csv, path)
    if want_exc is None:
        assert got_exc is None
        _assert_same_bits(got, want)
        return
    assert type(got_exc) is type(want_exc)
    if str(want_exc).startswith(str(path)):
        assert str(got_exc) == str(want_exc)
    else:
        # float()'s own message: the new reader names the file and the row
        row = _first_failed_row(header, rows)
        assert re.fullmatch(rf"{re.escape(str(path))}: data row {row} has "
                            r"(an unparsable value|\d+ cells, the header "
                            r"has \d+)", str(got_exc))


def test_spectra_unparsable_cell_names_file_and_row(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("ch0,ch1\n1,2\n\n3,4\n5,x\n6,nan\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=r"counts\.csv: data row 3 has an unparsable"):
        read_spectra_csv(path)


def test_spectra_round_trip_keeps_bits(tmp_path):
    counts = np.array([[0.1, -0.0, 1e-300], [5e300, 3.0, 0.30000000000000004]])
    path = tmp_path / "s.csv"
    _write_rows(path, [["ch0", "ch1", "ch2"]]
                + [[repr(v) for v in row] for row in counts.tolist()])
    _assert_same_bits(read_spectra_csv(path), counts)


# the gamma channels are ch0..ch<k-1> taken in index order, and any other
# set of ch<digits> names is refused ("\u00b2" is a superscript two, which
# str.isdigit takes)
@pytest.mark.parametrize("channels", ("ch2,ch0,ch1", "ch0,ch2", "ch1", "ch01",
                                      "ch0,ch\u00b2"))
def test_channel_sets_match_the_row_loops(tmp_path, channels):
    header = "t_s,easting_m,northing_m,alt_m,k_pct,u_ppm," + channels
    width = header.count(",") + 1
    path = tmp_path / "rad.csv"
    path.write_text("\n".join([header] + [
        ",".join(repr(0.5 * i + 0.25 * j) for j in range(width))
        for i in range(3)]) + "\n", encoding="utf-8")
    outcomes = [(_outcome(lambda p: ingest_csv(p, SchemaKind.RAD), path),
                 _outcome(_loop_ingest_csv, path, SchemaKind.RAD)),
                (_outcome(read_spectra_csv, path),
                 _outcome(_loop_read_spectra_csv, path))]
    for got, want in outcomes:
        _assert_same_outcome(got, want)
    (ingested, exc), _ = outcomes[0]
    if channels == "ch2,ch0,ch1":
        assert ingested.data.fields[-3:] == ("ch0", "ch1", "ch2")
    else:
        assert isinstance(exc, MissingColumnError)


# ---------------------------------------------------------------------------
# buzz traces


@PROPERTY
@given(spectra_files())
def test_buzz_trace_matches_row_loop(tmp_path_factory, case):
    header, rows = case
    keep = [k for k, c in enumerate(header) if c != "t_s"]
    header = ["t_s"] + [header[k] for k in keep]
    rows = [[repr(0.1 * i)] + [r[k] for k in keep if k < len(r)] if r else r
            for i, r in enumerate(rows)]
    path = tmp_path_factory.mktemp("buzz") / "pass.csv"
    _write_rows(path, [header] + rows)
    want, want_exc = _outcome(_loop_read_buzz_trace, path)
    got, got_exc = _outcome(_read_buzz_trace, path)
    if want_exc is None and not len(want):
        # a file without data rows now fails here, not in the analysis
        assert repr(got_exc) == repr(ValueError(f"{path}: no data rows"))
    elif want_exc is None and np.isfinite(want.values).all() \
            and np.isfinite(want.t).all():
        assert got_exc is None
        assert got.fields == want.fields
        _assert_same_bits(got.t, want.t)
        _assert_same_bits(got.values, want.values)
    elif want_exc is None:
        # nan and inf were accepted; now they name the file and the row
        assert isinstance(got_exc, ValueError)
        assert re.match(rf"{re.escape(str(path))}: data row \d+ has a "
                        r"non-finite value$", str(got_exc))
    else:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc).startswith(f"{path}: ")
        if str(want_exc).startswith(str(path)):
            assert str(got_exc) == str(want_exc)


def test_buzz_mag_trace_stays_lenient(tmp_path):
    path = tmp_path / "mag_pass.csv"
    _write_rows(path, [["t_s", "easting_m", "northing_m", "alt_m", "tmi_nT"],
                       ["0", "0", "0", "40", "54000"],
                       ["0.1", "0", "0", "40", "nan"],
                       ["0.2", "0", "0", "40", "54001"]])
    trace = _read_buzz_trace(path)
    assert trace.fields == ("tmi_nT",)
    assert trace.values.tolist() == [54000.0, 54001.0]


def test_emi_buzz_non_finite_cell_is_io_error(tmp_path, capsys):
    t = np.arange(0, 6.0, 0.02)
    rows = [[repr(a), repr(b)] for a, b in zip(t.tolist(),
                                               np.sin(t).tolist())]
    rows[3][1] = "nan"
    passes = []
    for sep in (4.0, 6.0, 8.0, 10.0, 12.0, 15.0):
        _write_rows(tmp_path / f"p{sep:g}.csv", [["t_s", "buzz_nT"]] + rows)
        passes.append({"separation_m": sep, "csv_path": f"p{sep:g}.csv"})
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps(passes))
    code = main(["emi", "buzz", "--passes", str(spec),
                 "--out", str(tmp_path / "buzz.json")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "p4.csv: data row 4 has a non-finite value" in err


# ---------------------------------------------------------------------------
# the C parser and the row reader


def _route_rows(n: int = 4) -> list[list[str]]:
    """n rows of cells under ROUTE_HEADER: increasing t_s, every value
    >= 0."""
    return [[repr(0.5 * i + 0.25 * j) for j in range(8)] for i in range(n)]


# the rad schema for ingest_csv, ch0 and ch1 for read_spectra_csv
ROUTE_HEADER = "t_s,easting_m,northing_m,alt_m,k_pct,u_ppm,ch0,ch1"


def _buzz_cells(cells: list[str]) -> list[str]:
    """A row under ROUTE_HEADER as the buzz reader's t_s,ch1 file holds it:
    t_s and ch1 first, the cells that reader skips after them, so an odd
    cell stays in the file wherever it was; a row without ch1 keeps only
    its t_s."""
    if len(cells) < 8:
        return cells[:1]
    return [cells[0], cells[7], *cells[1:7], *cells[8:]]


def _text(rows: list[list[str]], end: str = "\n",
          last: bool = True) -> dict[str, str]:
    """{file name: text} of `rows`: route.csv under ROUTE_HEADER for
    ingest_csv and read_spectra_csv, buzz.csv for the buzz reader."""
    def text(header, cut):
        lines = [header] + [",".join(cut(cells)) for cells in rows]
        return end.join(lines) + (end if last else "")

    return {"route.csv": text(ROUTE_HEADER, list),
            "buzz.csv": text("t_s,ch1", _buzz_cells)}


def _cell(rows: list[list[str]], i: int, value: str,
          j: int = -1) -> list[list[str]]:
    """`rows` with cell j of row i replaced by `value`."""
    cells = list(rows[i])
    cells[j] = value
    return rows[:i] + [cells] + rows[i + 1:]


def _line(rows: list[list[str]], line: str) -> list[list[str]]:
    return rows[:2] + [[line] if line else []] + rows[2:]


# name -> (file texts, route): "rows" where the row reader must read the
# data (loadtxt refuses it, or the file holds a byte of _CSV_ONLY), "fast"
# where numpy's C parser reads it, for both files. "\udcff" stands for a
# 0xff byte; that case puts it after 8 KiB of rows, so the header still
# decodes.
ROUTE_CASES = {
    "underscore in a number": (_text(_cell(_route_rows(), 1, "1_0")), "rows"),
    "full-width digit": (_text(_cell(_route_rows(), 1, "\uff11")), "rows"),
    "Arabic-Indic digit": (_text(_cell(_route_rows(), 1, "\u0661")), "rows"),
    "quoted cell": (_text(_cell(_route_rows(), 1, '"2.5"')), "rows"),
    "quoted comma in a cell the readers skip":
        (_text(_cell(_route_rows(), 1, '"1,5"', j=1)), "rows"),
    "cell padded with a record separator":
        (_text(_cell(_route_rows(), 1, "2.5\x1e")), "rows"),
    "whitespace-only line": (_text(_line(_route_rows(), "   ")), "rows"),
    "form-feed line": (_text(_line(_route_rows(), "\x0c")), "rows"),
    "vertical-tab line": (_text(_line(_route_rows(), "\x0b")), "rows"),
    "no-break-space line": (_text(_line(_route_rows(), "\xa0")), "rows"),
    "NUL line": (_text(_line(_route_rows(), "\x00")), "rows"),
    "NUL in a cell": (_text(_cell(_route_rows(), 1, "2\x005")), "rows"),
    "short row": (_text(_route_rows()[:2] + [["0.75", *"123456"]]
                        + _route_rows()[3:]), "rows"),
    "header only": (_text([]), "rows"),
    "empty cell": (_text(_cell(_route_rows(), 1, "")), "rows"),
    "non-UTF-8 byte": (_text(_cell(_route_rows(300), 299, "2\udcff")), "rows"),
    "CRLF": (_text(_route_rows(), "\r\n"), "fast"),
    "lone CR": (_text(_route_rows(), "\r"), "fast"),
    "CR CR LF": (_text(_route_rows(), "\r\r\n"), "fast"),
    "blank lines": (_text(_line(_line(_route_rows(), ""), "")), "fast"),
    "no final newline": (_text(_route_rows(), last=False), "fast"),
    "extra trailing cells": (_text(_cell(_route_rows(), 1, "2.5,9,x")), "fast"),
    "tab-padded cell": (_text(_cell(_route_rows(), 1, "\t2.5\t")), "fast"),
    "nan, Infinity and 1e400": (_text(_cell(_cell(_cell(
        _route_rows(), 1, "nan"), 2, "Infinity"), 3, "1e400")), "fast"),
    "subnormals": (_text(_cell(_cell(_route_rows(), 1, "5e-324"), 2,
                               "2.2250738585072e-309")), "fast"),
}

# name -> (reader, the file of _text it reads)
ROUTE_READERS = {"ingest_csv": (lambda p: ingest_csv(p, SchemaKind.RAD),
                                "route.csv"),
                 "read_spectra_csv": (read_spectra_csv, "route.csv"),
                 "buzz reader": (_read_buzz_trace, "buzz.csv")}


def _assert_same_outcome(got, want) -> None:
    """Same exception and message, or the same bits, fields and rows."""
    (value, exc), (want_value, want_exc) = got, want
    assert type(exc) is type(want_exc) and str(exc) == str(want_exc)
    if isinstance(want_value, Ingested):
        assert value.rejected_rows == want_value.rejected_rows
        value, want_value = value.data, want_value.data
    if isinstance(want_value, TimeSeries):
        assert value.fields == want_value.fields
        _assert_same_bits(value.t, want_value.t)
        value, want_value = value.values, want_value.values
    if want_value is not None:
        _assert_same_bits(value, want_value)


def _assert_matches_loop(reader: str, path, got) -> None:
    """`got` against the row loop, under the rules of the tests above."""
    if reader == "ingest_csv":
        _assert_same_outcome(got, _outcome(_loop_ingest_csv, path,
                                           SchemaKind.RAD))
        return
    loop = (_loop_read_spectra_csv if reader == "read_spectra_csv"
            else _loop_read_buzz_trace)
    want, want_exc = _outcome(loop, path)
    exc = got[1]
    if want_exc is not None:
        # float()'s own message is replaced by one naming the file and row
        assert type(exc) is type(want_exc)
        assert str(exc) == str(want_exc) \
            or str(exc).startswith(f"{path}: data row ")
    elif isinstance(want, TimeSeries) and not len(want):
        # a trace without data rows fails in the reader
        assert repr(exc) == repr(ValueError(f"{path}: no data rows"))
    elif isinstance(want, TimeSeries) and not (
            np.isfinite(want.t).all() and np.isfinite(want.values).all()):
        # a nan or inf the trace loop accepted names the file and the row
        assert re.fullmatch(rf"{re.escape(str(path))}: data row \d+ has a "
                            r"non-finite value", str(exc))
    else:
        _assert_same_outcome(got, (want, None))


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_both_routes_match_the_row_loops(tmp_path, monkeypatch, case):
    texts, route = ROUTE_CASES[case]
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    parse_rows = io_csv._parse_rows
    fallbacks = []
    monkeypatch.setattr(io_csv, "_parse_rows",
                        lambda *a: fallbacks.append(a) or parse_rows(*a))
    got = {name: _outcome(reader, tmp_path / file)
           for name, (reader, file) in ROUTE_READERS.items()}
    assert len(fallbacks) == (len(ROUTE_READERS) if route == "rows" else 0)
    for name, outcome in got.items():
        _assert_matches_loop(name, tmp_path / ROUTE_READERS[name][1], outcome)
    # the row route alone reads every case as the two routes together do
    monkeypatch.setattr(io_csv, "_load_floats", lambda *args: None)
    for name, (reader, file) in ROUTE_READERS.items():
        _assert_same_outcome(_outcome(reader, tmp_path / file), got[name])


def _no_fallback(*args):
    raise AssertionError("read by the row parser")


@pytest.mark.parametrize("schema", ["mag", "base", "vlf", "rad"])
def test_simulated_files_take_the_c_parser(survey_dir, monkeypatch, schema):
    path, schema = survey_dir / f"{schema}.csv", SchemaKind(schema)
    want = _loop_ingest_csv(path, schema)
    monkeypatch.setattr(io_csv, "_parse_rows", _no_fallback)
    _assert_same_outcome((ingest_csv(path, schema), None), (want, None))


def test_simulated_spectra_lines_and_traces_take_the_c_parser(
        survey_dir, tmp_path, monkeypatch):
    trace = tmp_path / "pass.csv"
    io_csv.write_series_csv(trace, TimeSeries(
        np.arange(0.0, 2.0, 0.02), np.sin(np.arange(100.0)), ("buzz_nT",)))
    spectra, mag = survey_dir / "spectra.csv", survey_dir / "mag.csv"
    rover = _loop_ingest_csv(mag, SchemaKind.MAG).data
    want = (_loop_read_spectra_csv(spectra), _loop_read_buzz_trace(trace),
            TimeSeries(rover.t, rover.column("tmi_nT"), ("tmi_nT",)))
    monkeypatch.setattr(io_csv, "_parse_rows", _no_fallback)
    got = (read_spectra_csv(spectra), _read_buzz_trace(trace),
           _read_buzz_trace(mag))
    for g, w in zip(got, want):
        _assert_same_outcome((g, None), (w, None))
    for sub, role in (("flights", LineRole.FLIGHT), ("ties", LineRole.TIE)):
        lines = read_survey_lines(survey_dir / sub, SchemaKind.MAG, role)
        assert [line.series.values.shape[1] for line in lines] \
            == [4] * len(lines)
