"""Every artifact writer against a row-at-a-time reference implementation.

The references below are the original per-row writers, kept here only as
oracles: the chunked io_csv.write_table path must reproduce their bytes
exactly, including awkward floats and row counts around the chunk size.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from aerosurvey.core import TimeSeries
from aerosurvey.gridding import NODATA, GrayImage, Grid, write_asc, write_pgm
from aerosurvey.io_csv import (
    _CHUNK_ROWS,
    write_series_csv,
    write_spectra_csv,
    write_table,
)
from aerosurvey.suspension import (
    ATTITUDE_COLUMNS,
    AttitudeTrack,
    write_attitude_csv,
)

ROW_COUNTS = (1, _CHUNK_ROWS, _CHUNK_ROWS + 1)
AWKWARD = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2, 3.0, -17.0, 1e16,
                    54000.123456789, -2.5e-17])


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
                        track.segment[i]])


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
def test_series_csv_matches_reference(tmp_path, n):
    t = np.arange(n) * 0.1
    multi = TimeSeries(t, _awkward(n, 5), ("a", "b", "c", "d", "e"))
    _same_bytes(tmp_path, lambda p: write_series_csv(p, multi),
                lambda p: ref_series_csv(p, multi))
    scalar = TimeSeries(t, _awkward(n, 1, seed=1)[:, 0])   # no field names
    _same_bytes(tmp_path, lambda p: write_series_csv(p, scalar),
                lambda p: ref_series_csv(p, scalar))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_spectra_csv_matches_reference(tmp_path, n):
    counts = np.abs(_awkward(n, 8))
    _same_bytes(tmp_path, lambda p: write_spectra_csv(p, counts),
                lambda p: ref_spectra_csv(p, counts))
    ints = np.arange(n * 3).reshape(n, 3)   # integer input is written as float
    _same_bytes(tmp_path, lambda p: write_spectra_csv(p, ints),
                lambda p: ref_spectra_csv(p, ints))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_attitude_csv_matches_reference(tmp_path, n):
    cols = _awkward(n, 6, seed=2)
    labels = tuple(("turn", "L1", "transit", "T1", "hover")[i % 5]
                   for i in range(n))
    track = AttitudeTrack(np.arange(n) * 0.01, *cols.T, labels, 8.0)
    _same_bytes(tmp_path, lambda p: write_attitude_csv(track, p),
                lambda p: ref_attitude_csv(track, p))


@pytest.mark.parametrize("ny", ROW_COUNTS)
def test_asc_matches_reference(tmp_path, ny):
    vals = _awkward(ny, 3, seed=3)
    valid = np.random.default_rng(4).random((ny, 3)) > 0.3
    valid[0, 0] = False                                 # at least one NODATA
    grid = Grid(327000.25, 0.1 + 0.2, 10.0, np.where(valid, vals, NODATA),
                valid)
    _same_bytes(tmp_path, lambda p: write_asc(grid, p),
                lambda p: ref_asc(grid, p))


@pytest.mark.parametrize("ny", ROW_COUNTS)
def test_pgm_matches_reference(tmp_path, ny):
    px = np.random.default_rng(5).integers(0, 256, (ny, 4))
    px[0, :2] = (0, 255)
    img = GrayImage(px, px > 0)
    _same_bytes(tmp_path, lambda p: write_pgm(img, p),
                lambda p: ref_pgm(img, p))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_two_column_table_matches_reference(tmp_path, n):
    freqs, amps = _awkward(n, 2, seed=6).T
    amps = amps.astype(np.float32)       # cells hold the exact float64 value
    _same_bytes(tmp_path,
                lambda p: write_table(p, [("freq_hz", "amplitude_ms2")],
                                      [freqs, amps]),
                lambda p: ref_spectrum_table(p, freqs, amps))


# --- write_table against csv.writer, one row at a time ---

def ref_table(path, head, columns, delimiter=",", lineterminator="\r\n"):
    """csv.writer.writerow per row; numpy scalars become Python scalars."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter=delimiter, lineterminator=lineterminator)
        w.writerows(head)
        for i in range(len(columns[0]) if len(columns) else 0):
            w.writerow([c[i].item() if isinstance(c[i], np.generic) else c[i]
                        for c in columns])


TABLE_ROWS = (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1)
# the last two share characters with numeric text, so csv quotes numbers
DIALECTS = ((",", "\r\n"), (" ", "\n"), (";", "%\n"), (".", "\n"), ("e", "\n"))
LABELS = ("L1", "a,b", 'say "hi"', "two\nlines", "", None, "x y", "turn")


def _mixed_columns(n: int) -> list:
    rng = np.random.default_rng(7)
    repeated = rng.choice([0.0, -0.0, 0.1 + 0.2, 1e22, 5e-324, np.nan,
                           -np.nan, np.inf, -np.inf, -9999.0], n)
    repeated[_CHUNK_ROWS - 6:_CHUNK_ROWS + 6] = 54000.125  # run across chunks
    distinct = np.arange(n) * 0.01 + 0.005
    f32 = rng.choice(np.float32([0.1, -2.5, 3e-38, 1.0]), n)
    return [repeated, distinct, f32, rng.integers(-2**62, 2**62, n),
            rng.integers(0, 256, n).astype(np.uint8), rng.random(n) > 0.5,
            tuple(LABELS[i % len(LABELS)] for i in range(n))]


@pytest.mark.parametrize("delimiter,lineterminator", DIALECTS)
@pytest.mark.parametrize("n", TABLE_ROWS)
def test_table_of_every_column_kind_matches_reference(tmp_path, n, delimiter,
                                                      lineterminator):
    cols = _mixed_columns(n)
    head = [("rep", "distinct", "f32", "i64", "u8", "flag", "label"),
            ("a b", 'q"', "")]
    _same_bytes(tmp_path,
                lambda p: write_table(p, head, cols, delimiter, lineterminator),
                lambda p: ref_table(p, head, cols, delimiter, lineterminator))


@pytest.mark.parametrize("n", TABLE_ROWS)
def test_object_column_keeps_types_and_zero_signs_apart(tmp_path, n):
    cycle = [1, 1.0, True, 0.0, -0.0, None, "", "1", np.float64(1.5), 1.5,
             np.int64(1), float("nan")]
    mixed = [cycle[i % len(cycle)] for i in range(n)]
    floats = np.resize(np.array([1.0, -0.0, 0.0]), n)
    for cols in ([mixed, floats], [np.array(mixed, dtype=object), floats]):
        _same_bytes(tmp_path, lambda p: write_table(p, [("v", "f")], cols),
                    lambda p: ref_table(p, [("v", "f")], cols))


@pytest.mark.parametrize("n", TABLE_ROWS)
def test_one_column_table_keeps_quoted_empty_fields(tmp_path, n):
    for delimiter, lineterminator in DIALECTS[:2]:
        for col in ([("", None, "a")[i % 3] for i in range(n)],
                    np.zeros(n), np.ones(n, dtype=bool)):
            _same_bytes(tmp_path,
                        lambda p: write_table(p, [("only",)], [col], delimiter,
                                              lineterminator),
                        lambda p: ref_table(p, [("only",)], [col], delimiter,
                                            lineterminator))


def test_space_delimited_label_with_space_is_quoted(tmp_path):
    labels = ("line 1", "L2", "a  b", " lead")
    vals = np.array([1.5, -0.0, np.inf, 2.0])
    write_table(tmp_path / "t.txt", [("name", "v")], [labels, vals], " ", "\n")
    assert (tmp_path / "t.txt").read_text() == (
        'name v\n"line 1" 1.5\nL2 -0.0\n"a  b" inf\n" lead" 2.0\n')
