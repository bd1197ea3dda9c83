"""Every artifact writer against a row-at-a-time reference implementation.

The references below are the original per-row writers, kept here only as
oracles: the chunked io_csv.write_table path must reproduce their bytes
exactly, including awkward floats and row counts around a chunk boundary
(the `chunked` fixture sets the writer's cell budget so that a table is
written CHUNK_ROWS rows at a time).
"""

from __future__ import annotations

import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import io_csv
from aerosurvey.core import TimeSeries
from aerosurvey.gridding import NODATA, GrayImage, Grid, write_asc, write_pgm
from aerosurvey.io_csv import write_series_csv, write_spectra_csv, write_table
from aerosurvey.pipeline import write_survey_artifacts
from aerosurvey.suspension import (
    ATTITUDE_COLUMNS,
    AttitudeTrack,
    FlightPlan,
    SimConfig,
    _Flight,
    _write_attitude,
    line_series,
)

CHUNK_ROWS = 4096
ROW_COUNTS = (1, CHUNK_ROWS, CHUNK_ROWS + 1)
AWKWARD = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2, 3.0, -17.0, 1e16,
                    54000.123456789, -2.5e-17,
                    # the bounds of the positional layout
                    1e-4, np.nextafter(1e-4, 0.0), 9999999999999998.0,
                    # exponent form, with and without a '.'
                    1e-05, 1.5e-300, -2.5e-320, 1.7976931348623157e308,
                    # an exact tie at the 17th digit; just below 0.1
                    1480675860000000.25, 0.09999999999999999])


@pytest.fixture
def chunked(monkeypatch):
    """set(n_cols): write a table of n_cols columns CHUNK_ROWS rows a chunk."""
    return lambda n_cols: monkeypatch.setattr(io_csv, "_CHUNK_CELLS",
                                              CHUNK_ROWS * n_cols)


def _awkward(n_rows: int, n_cols: int, seed: int = 0) -> np.ndarray:
    """Random floats with the AWKWARD values cycled into every other cell."""
    vals = np.random.default_rng(seed).normal(0.0, 1e3, (n_rows, n_cols))
    flat = vals.ravel()
    flat[::2] = np.resize(AWKWARD, flat[::2].size)
    return vals


# --- reference writers: one csv.writerow / fh.write per row ---

def ref_series_csv(path, series):
    fields = series.fields if series.fields else ("value",)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("t_s",) + tuple(fields))
        vals = series.values if series.values.ndim == 2 else series.values[:, None]
        for i in range(len(series)):
            w.writerow([repr(float(series.t[i]))]
                       + [repr(float(v)) for v in vals[i]])


def ref_spectra_csv(path, counts):
    counts = np.asarray(counts, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"ch{j}" for j in range(counts.shape[1])])
        for row in counts:
            w.writerow([repr(float(v)) for v in row])


def ref_attitude_csv(track, path):
    codes, texts = track.segment
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ATTITUDE_COLUMNS)
        for i in range(len(track)):
            w.writerow([repr(float(track.t[i])), repr(float(track.roll_deg[i])),
                        repr(float(track.pitch_deg[i])),
                        repr(float(track.heading_deg[i])),
                        repr(float(track.swing_deg[i])),
                        repr(float(track.easting_m[i])),
                        repr(float(track.northing_m[i])),
                        texts[codes[i]]])


def ref_asc(grid, path):
    ny, nx = grid.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {nx}\n")
        fh.write(f"nrows {ny}\n")
        fh.write(f"xllcorner {repr(grid.origin_x)}\n")
        fh.write(f"yllcorner {repr(grid.origin_y)}\n")
        fh.write(f"cellsize {repr(grid.cell_size)}\n")
        fh.write(f"NODATA_value {repr(NODATA)}\n")
        for row in grid.values[::-1]:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def ref_pgm(img, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n")
        fh.write(f"{img.width} {img.height}\n255\n")
        for row in img.pixels[::-1]:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def ref_spectrum_table(path, freqs, amps):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("freq_hz", "amplitude_ms2"))
        for f, a in zip(freqs, amps):
            w.writerow((repr(float(f)), repr(float(a))))


def _same_bytes(tmp_path, write_new, write_ref):
    new, ref = tmp_path / "new", tmp_path / "ref"
    write_new(new)
    write_ref(ref)
    assert new.read_bytes() == ref.read_bytes()


# --- byte identity ---

@pytest.mark.parametrize("n", ROW_COUNTS)
def test_series_csv_matches_reference(tmp_path, chunked, n):
    chunked(6)
    t = np.arange(n) * 0.1
    multi = TimeSeries(t, _awkward(n, 5), ("a", "b", "c", "d", "e"))
    _same_bytes(tmp_path, lambda p: write_series_csv(p, multi),
                lambda p: ref_series_csv(p, multi))
    scalar = TimeSeries(t, _awkward(n, 1, seed=1)[:, 0])   # no field names
    chunked(2)
    _same_bytes(tmp_path, lambda p: write_series_csv(p, scalar),
                lambda p: ref_series_csv(p, scalar))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_spectra_csv_matches_reference(tmp_path, chunked, n):
    chunked(8)
    counts = np.abs(_awkward(n, 8))
    _same_bytes(tmp_path, lambda p: write_spectra_csv(p, counts),
                lambda p: ref_spectra_csv(p, counts))
    ints = np.arange(n * 3).reshape(n, 3)   # integer input is written as float
    chunked(3)
    _same_bytes(tmp_path, lambda p: write_spectra_csv(p, ints),
                lambda p: ref_spectra_csv(p, ints))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_attitude_csv_matches_reference(tmp_path, chunked, n):
    chunked(8)
    cols = _awkward(n, 6, seed=2)
    labels = (np.arange(n) % 5, ("turn", "L1", "transit", "T1", "hover"))
    track = AttitudeTrack(np.arange(n) * 0.01, *cols.T, labels, 8.0)
    _same_bytes(tmp_path, lambda p: _write_attitude(p, (track,)),
                lambda p: ref_attitude_csv(track, p))


@pytest.mark.parametrize("ny", ROW_COUNTS)
def test_asc_matches_reference(tmp_path, chunked, ny):
    chunked(3)                  # a grid row is a table row
    vals = _awkward(ny, 3, seed=3)
    valid = np.random.default_rng(4).random((ny, 3)) > 0.3
    valid[0, 0] = False                                 # at least one NODATA
    grid = Grid(327000.25, 0.1 + 0.2, 10.0, np.where(valid, vals, NODATA),
                valid)
    _same_bytes(tmp_path, lambda p: write_asc(grid, p),
                lambda p: ref_asc(grid, p))


@pytest.mark.parametrize("ny", ROW_COUNTS)
def test_pgm_matches_reference(tmp_path, chunked, ny):
    chunked(4)
    px = np.random.default_rng(5).integers(0, 256, (ny, 4))
    px[0, :2] = (0, 255)
    img = GrayImage(px, px > 0)
    _same_bytes(tmp_path, lambda p: write_pgm(img, p),
                lambda p: ref_pgm(img, p))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_two_column_table_matches_reference(tmp_path, chunked, n):
    chunked(2)
    freqs, amps = _awkward(n, 2, seed=6).T
    amps = amps.astype(np.float32)       # cells hold the exact float64 value
    _same_bytes(tmp_path,
                lambda p: write_table(p, [("freq_hz", "amplitude_ms2")],
                                      [freqs, amps]),
                lambda p: ref_spectrum_table(p, freqs, amps))


# --- write_table against csv.writer, one row at a time ---

def _cells(column):
    """A column's cells: a label column (codes, texts) as its labels."""
    if isinstance(column, tuple):
        codes, texts = column
        return [texts[k] for k in codes]
    return column


def ref_table(path, head, columns, delimiter=",", lineterminator="\r\n"):
    """csv.writer.writerow per row; numpy scalars become Python scalars."""
    columns = [_cells(c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=delimiter, lineterminator=lineterminator)
        w.writerows(head)
        for i in range(len(columns[0]) if len(columns) else 0):
            w.writerow([c[i].item() if isinstance(c[i], np.generic) else c[i]
                        for c in columns])


TABLE_ROWS = (0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
# write_table writes the first two and refuses the others by name
DIALECTS = ((",", "\r\n"), (" ", "\n"), (";", "%\n"), (".", "\n"), ("e", "\n"))
WRITTEN = DIALECTS[:2]
# labels as the attitude track holds them: plain text csv never quotes,
# one text for each path segment, so a label may repeat
LABELS = ("L1", "turn", "transit", "T1", "turn", "hover", "é€")


def _same_bytes_or_refused(tmp_path, head, cols, delimiter, lineterminator):
    """write_table's bytes are csv.writer's in a dialect it writes; any
    other dialect is refused by name before a file is opened."""
    if (delimiter, lineterminator) in WRITTEN:
        _same_bytes(tmp_path,
                    lambda p: write_table(p, head, cols, delimiter,
                                          lineterminator),
                    lambda p: ref_table(p, head, cols, delimiter,
                                        lineterminator))
        return
    with pytest.raises(ValueError, match=re.escape(
            repr((delimiter, lineterminator)))):
        write_table(tmp_path / "t", head, cols, delimiter, lineterminator)
    assert not (tmp_path / "t").exists()


def _mixed_columns(n: int) -> list:
    rng = np.random.default_rng(7)
    repeated = rng.choice([0.0, -0.0, 0.1 + 0.2, 1e22, 5e-324, np.nan,
                           -np.nan, np.inf, -np.inf, -9999.0], n)
    repeated[CHUNK_ROWS - 6:CHUNK_ROWS + 6] = 54000.125  # run across chunks
    distinct = np.arange(n) * 0.01 + 0.005
    f32 = rng.choice(np.float32([0.1, -2.5, 3e-38, 1.0]), n)
    return [repeated, distinct, f32, rng.integers(-2**62, 2**62, n),
            rng.integers(0, 256, n).astype(np.int16),
            (np.arange(n) % len(LABELS), LABELS)]


@pytest.mark.parametrize("delimiter,lineterminator", DIALECTS)
@pytest.mark.parametrize("n", TABLE_ROWS)
def test_table_of_every_column_kind_matches_reference(
        tmp_path, chunked, n, delimiter, lineterminator):
    chunked(6)
    cols = _mixed_columns(n)
    head = [("rep", "distinct", "f32", "i64", "i16", "label"),
            ("a b", 'q"', "")]
    _same_bytes_or_refused(tmp_path, head, cols, delimiter, lineterminator)


@pytest.mark.parametrize("delimiter,lineterminator", DIALECTS[:3])
def test_labels_longer_than_a_number_widen_the_slots(tmp_path, chunked,
                                                     delimiter,
                                                     lineterminator):
    chunked(3)
    n = CHUNK_ROWS + 3
    texts = tuple(("x" * (7 * i % 150 + 1), "long_label_" * (i % 9 + 1),
                   "é€" * (i % 40 + 1))[i % 3] for i in range(n))
    cols = [np.arange(n) * 0.25 - 7.0, (np.arange(n)[::-1], texts),
            np.random.default_rng(8).integers(-9, 9, n)]
    head = [("v", "label", "i")]
    _same_bytes_or_refused(tmp_path, head, cols, delimiter, lineterminator)


def test_default_chunks_match_reference(tmp_path):
    # three and a half chunks of the default cell budget
    n = 7 * io_csv._CHUNK_CELLS // 4
    cols = [_awkward(n, 1, seed=9)[:, 0], np.arange(n) % 7]
    _same_bytes(tmp_path, lambda p: write_table(p, [("v", "i")], cols),
                lambda p: ref_table(p, [("v", "i")], cols))


CODES = np.array([0, 1])


@pytest.mark.parametrize("column", (
    np.array([True, False]), np.array([1, 2], np.uint64),
    np.array(["L1", 1], dtype=object), (CODES, ("L1", "")),
    (CODES, ("L1", b"L2")),
    *((CODES, ("L1", f"a{c}b")) for c in '"\r\n'),
    (np.array([0, 2]), ("L1", "L2")), (np.array([-1, 0]), ("L1", "L2")),
    ("L1", "L2"), (CODES.astype(float), ("L1", "L2")),
), ids=("bool", "uint64", "object", "empty", "not_str", "quote", "cr", "lf",
        "code_past_texts", "negative_code", "labels_uncoded", "float_codes"))
def test_write_table_refuses_a_column_it_does_not_write(tmp_path, column):
    for delimiter, lineterminator in WRITTEN:
        with pytest.raises(ValueError, match="^column 1"):
            write_table(tmp_path / "t", [("f", "c")], [np.zeros(2), column],
                        delimiter, lineterminator)
        assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("delimiter,lineterminator", WRITTEN)
def test_write_table_refuses_a_label_holding_the_delimiter(
        tmp_path, delimiter, lineterminator):
    with pytest.raises(ValueError, match="^column 0: 'a.b'"):
        write_table(tmp_path / "t", [], [(CODES, ("L1", f"a{delimiter}b"))],
                    delimiter, lineterminator)


# --- write_table and its parts against csv.writer, drawn by hypothesis ---

ORACLE = settings(derandomize=True, database=None, max_examples=300,
                  deadline=None)
ORACLE_ROWS = 8         # rows per chunk, so most tables cross chunks
LABEL_CHARS = " ,;.e%é€L1"
CELLS = {
    "float": st.floats(width=64) | st.sampled_from(AWKWARD.tolist()),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
}


@st.composite
def tables(draw):
    """(dialect, columns, part): a table and the part (first column, rows)
    to cut from it."""
    delimiter, lineterminator = draw(st.sampled_from(WRITTEN))
    label = st.text(LABEL_CHARS.replace(delimiter, ""), min_size=1,
                    max_size=5)
    n = draw(st.integers(0, 3 * ORACLE_ROWS + 1))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS) + ["label"]),
                          min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "label":
            texts = tuple(draw(st.lists(label, min_size=1, max_size=6)))
            codes = draw(st.lists(st.integers(0, len(texts) - 1),
                                  min_size=n, max_size=n))
            columns.append((np.array(codes, np.intp), texts))
            continue
        column = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
        columns.append(np.array(column, float if kind == "float"
                                else np.int64))
    first = draw(st.integers(0, len(columns) - 1))
    rows = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    return (delimiter, lineterminator), columns, (first, rows)


@given(tables())
@ORACLE
def test_write_table_and_its_part_match_csv_writer(tmp_path_factory, table):
    (delimiter, lineterminator), columns, (first, rows) = table
    tmp = tmp_path_factory.mktemp("oracle")
    head = [tuple(f"c{i}" for i in range(len(columns)))]
    with mock.patch.object(io_csv, "_CHUNK_CELLS",
                           ORACLE_ROWS * len(columns)):
        write_table(tmp / "t", head, columns, delimiter, lineterminator,
                    [(tmp / "p", first, np.array(rows, np.intp))])
    ref_table(tmp / "rt", head, columns, delimiter, lineterminator)
    ref_table(tmp / "rp", [head[0][first:]],
              [[_cells(c)[i] for i in rows] for c in columns[first:]],
              delimiter, lineterminator)
    assert (tmp / "t").read_bytes() == (tmp / "rt").read_bytes()
    assert (tmp / "p").read_bytes() == (tmp / "rp").read_bytes()


def test_one_column_part_of_a_wider_table(tmp_path):
    n = 2 * CHUNK_ROWS + 5
    floats = _awkward(n, 1)[:, 0]
    rows = np.arange(3, n, 7)
    with mock.patch.object(io_csv, "_CHUNK_CELLS", 3 * CHUNK_ROWS):
        write_table(tmp_path / "t", [("i", "f")], [np.arange(n), floats],
                    parts=[(tmp_path / "p", 1, rows)])
    write_table(tmp_path / "r", [("f",)], [floats[rows]])
    assert (tmp_path / "p").read_bytes() == (tmp_path / "r").read_bytes()


@pytest.mark.parametrize("chunk_cells", (37 * 5, io_csv._CHUNK_CELLS))
def test_survey_parts_are_cells_and_rows_of_their_tables(
        tmp_path, monkeypatch, chunk_cells):
    monkeypatch.setattr(io_csv, "_CHUNK_CELLS", chunk_cells)
    sim = _Flight(FlightPlan(n_lines=3, line_length_m=300.0, tie_lines=2),
                  None, SimConfig(seed=5))
    write_survey_artifacts(sim, tmp_path / "out")
    out = tmp_path / "out"
    # spectra.csv: the gamma channel cells of rad.csv, header included
    ch0 = 1 + sim.rad_full.fields.index("ch0")
    rad = (out / "rad.csv").read_bytes().split(b"\r\n")
    assert (out / "spectra.csv").read_bytes().split(b"\r\n") == [
        row.split(b",", ch0)[-1] for row in rad]
    # each flights/ or ties/ file: the header and its rows of mag.csv
    mag = (out / "mag.csv").read_bytes().split(b"\r\n")
    # sim.lines is what the writer cut by; test_flight_lines_oracle holds
    # it to the per-sample label route
    lines = sim.lines
    assert len(lines) == 5
    for lid, role, rows in lines:
        sub = "flights" if lid.startswith("L") else "ties"
        assert (out / sub / f"{lid}.csv").read_bytes().split(b"\r\n") == [
            mag[0], *(mag[1 + r] for r in rows.tolist()), b""]
    # and both are what the writers give the cut-out tables
    write_spectra_csv(tmp_path / "s.csv", sim.rad_full.values[:, ch0 - 1:])
    assert (tmp_path / "s.csv").read_bytes() == \
        (out / "spectra.csv").read_bytes()
    for line in line_series(sim.mag_full, lines):
        sub = "flights" if line.line_id.startswith("L") else "ties"
        write_series_csv(tmp_path / "l.csv", line.series)
        assert (tmp_path / "l.csv").read_bytes() == \
            (out / sub / f"{line.line_id}.csv").read_bytes()
