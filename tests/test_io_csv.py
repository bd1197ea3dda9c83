from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from aerosurvey import TimeSeries, ingest_csv, read_survey_lines
from aerosurvey.core import LineRole
from aerosurvey.io_csv import (
    SchemaKind,
    _read_buzz_trace,
    crossover_fixture_path,
    read_spectra_csv,
    write_series_csv,
    write_spectra_csv,
)
from aerosurvey.errors import MissingColumnError


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_series_round_trip_is_bit_exact(tmp_path):
    t = np.array([0.0, 0.1, 0.2, 0.30000000000000004])
    vals = np.column_stack([t * 3.1, np.array([0.1, 54000.123456789, -2.5, 1e-17])])
    ts = TimeSeries(t, vals, ("ax_ms2", "ay_ms2"))
    # pad to the accel schema so it can be re-ingested
    full = TimeSeries(t, np.column_stack([vals, np.zeros_like(t)]),
                      ("ax_ms2", "ay_ms2", "az_ms2"))
    p = tmp_path / "a.csv"
    write_series_csv(p, full)
    back = ingest_csv(p, SchemaKind.ACCEL).data
    assert np.array_equal(back.t, full.t)
    assert np.array_equal(back.values, full.values)
    # writing again reproduces the same bytes
    p2 = tmp_path / "b.csv"
    write_series_csv(p2, back)
    assert p.read_bytes() == p2.read_bytes()


# an unnamed 3 x 2 series was once written under the header t_s,value,
# which no reader takes back
def test_series_csv_needs_a_name_for_every_column(tmp_path):
    t = np.arange(3.0)
    p = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="s.csv: a series of 2 columns needs "
                       "as many field names, got 0"):
        write_series_csv(p, TimeSeries(t, np.ones((3, 2))))
    assert not p.exists()
    write_series_csv(p, TimeSeries(t, np.ones(3)))
    assert p.read_text().splitlines()[0] == "t_s,value"


def test_ingest_rejects_bad_rows_keeps_good(tmp_path):
    p = _write(tmp_path / "m.csv", "\n".join([
        "t_s,easting_m,northing_m,alt_m,tmi_nT",
        "0.0,1.0,2.0,40.0,54000.0",
        "0.1,oops,2.0,40.0,54000.0",       # unparsable
        "0.2,1.0,2.0,40.0,nan",            # non-finite
        "0.0,1.0,2.0,40.0,54001.0",        # duplicate timestamp (lenient: drop)
        "0.3,1.0,2.0,40.0,54002.0",
    ]) + "\n")
    out = ingest_csv(p, SchemaKind.MAG)
    assert len(out.data) == 2
    reasons = [r for _, r in out.rejected_rows]
    assert reasons == ["unparsable field", "non-finite field",
                       "duplicate/non-monotone timestamp"]
    assert [i for i, _ in out.rejected_rows] == [2, 3, 4]


def test_ingest_validates_declared_invariants(tmp_path):
    p = _write(tmp_path / "v.csv", "\n".join([
        "t_s,easting_m,northing_m,alt_m,inphase_pct,outphase_pct,"
        "h1_pct,h2_pct,pT_nT,roll_deg,pitch_deg",
        "0.0,1,2,40,0,0,0,0,35,200.0,0",   # roll out of range
        "0.1,1,2,40,0,0,0,0,35,1.0,0",
    ]) + "\n")
    out = ingest_csv(p, SchemaKind.VLF)
    assert len(out.data) == 1
    assert out.rejected_rows[0][1] == "roll_deg out of [-180, 180]"

    q = _write(tmp_path / "r.csv", "\n".join([
        "t_s,easting_m,northing_m,alt_m,k_pct,u_ppm",
        "0.0,1,2,40,-0.5,2.9",             # negative concentration
        "0.1,1,2,40,2.5,2.9",
    ]) + "\n")
    out = ingest_csv(q, SchemaKind.RAD)
    assert len(out.data) == 1
    assert out.rejected_rows[0][1] == "k_pct negative"


def test_ingest_errors_on_missing_column_and_empty(tmp_path):
    p = _write(tmp_path / "m.csv", "t_s,easting_m\n0.0,1.0\n")
    with pytest.raises(MissingColumnError):
        ingest_csv(p, SchemaKind.MAG)
    q = _write(tmp_path / "e.csv", "")
    with pytest.raises(ValueError, match=r"e\.csv: empty file$"):
        ingest_csv(q, SchemaKind.BASE)
    r = _write(tmp_path / "h.csv", "t_s,tmi_nT\n")
    with pytest.raises(ValueError, match=r"h\.csv: no data rows$"):
        ingest_csv(r, SchemaKind.BASE)


def test_rad_optional_columns(tmp_path):
    p = _write(tmp_path / "r.csv", "\n".join([
        "t_s,easting_m,northing_m,alt_m,k_pct,u_ppm,th_ppm,ch0,ch1",
        "0.0,1,2,40,2.5,2.9,8.0,10,20",
        "1.0,1,2,40,2.6,2.8,8.1,11,21",
    ]) + "\n")
    ts = ingest_csv(p, SchemaKind.RAD).data
    assert "th_ppm" in ts.fields
    assert list(ts.column("ch1")) == [20.0, 21.0]


def test_crossover_fixture_parses_exactly():
    out = ingest_csv(crossover_fixture_path(), SchemaKind.CROSSOVER)
    rows = out.data
    assert len(rows) == 16
    assert out.rejected_rows == ()
    # deliverable values are exact two-decimal decimals
    assert rows[0].flights_k == Decimal("2.50")
    assert rows[0].tie_u == Decimal("3.07")
    assert rows[0].diff_u == Decimal("-0.13")


CROSSOVER_HEADER = ("x_utm,y_utm,flights_k_pct,tie_k_pct,flights_u_ppm,"
                    "tie_u_ppm")


@pytest.mark.parametrize("x", ("nan", "inf", "-inf"))
def test_crossover_non_finite_coordinate_rejects_only_its_row(tmp_path, x):
    p = _write(tmp_path / "x.csv", "\n".join([
        CROSSOVER_HEADER,
        "500000.0,7000000.0,2.50,2.47,3.10,3.07",
        f"{x},7000010.0,2.51,2.49,3.11,3.09",
        "500020.0,nan,2.52,2.50,3.12,3.10",
    ]) + "\n")
    out = ingest_csv(p, SchemaKind.CROSSOVER)
    assert len(out.data) == 1
    assert out.data[0].location.easting == 500000.0
    assert out.rejected_rows == ((2, "non-finite field"),
                                 (3, "non-finite field"))


def test_crossover_without_usable_rows_names_the_file(tmp_path):
    p = _write(tmp_path / "bad_crossovers.csv", "\n".join([
        CROSSOVER_HEADER, "nan,7000000.0,2.50,2.47,3.10,3.07",
        "500000.0,7000000.0,x,2.47,3.10,3.07"]) + "\n")
    with pytest.raises(ValueError,
                       match="bad_crossovers.csv: no usable crossover rows"):
        ingest_csv(p, SchemaKind.CROSSOVER)


def test_read_survey_lines_ids_and_roles(tmp_path):
    d = tmp_path / "flights"
    d.mkdir()
    for name in ("L2", "L1"):
        _write(d / f"{name}.csv", "\n".join([
            "t_s,easting_m,northing_m,alt_m,tmi_nT",
            "0.0,0,0,40,54000", "1.0,10,0,40,54001",
        ]) + "\n")
    lines = read_survey_lines(d, SchemaKind.MAG, LineRole.FLIGHT)
    assert [ln.line_id for ln in lines] == ["L1", "L2"]  # sorted by name
    assert all(ln.role is LineRole.FLIGHT for ln in lines)
    empty = tmp_path / "nothing_here"
    empty.mkdir()
    with pytest.raises(ValueError, match="nothing_here: no CSV files$"):
        read_survey_lines(empty, SchemaKind.MAG, LineRole.FLIGHT)


def test_spectra_round_trip(tmp_path):
    counts = np.abs(np.random.default_rng(5).poisson(30.0, (6, 8))).astype(float)
    p = tmp_path / "s.csv"
    write_spectra_csv(p, counts)
    back = read_spectra_csv(p)
    assert np.array_equal(back, counts)
    bad = _write(tmp_path / "bad.csv", "a,b\n1,2\n")
    with pytest.raises(MissingColumnError):
        read_spectra_csv(bad)


def test_spectra_ragged_row_names_file_and_row(tmp_path):
    p = _write(tmp_path / "ragged.csv", "ch0,ch1,ch2\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match=r"ragged\.csv: data row 2 has 2 cells"):
        read_spectra_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_spectra_non_finite_cell_names_file_and_row(tmp_path, cell):
    p = _write(tmp_path / "nonfinite.csv",
               f"ch0,ch1,ch2\n1,2,3\n4,5,6\n7,{cell},9\n1,{cell},2\n")
    with pytest.raises(ValueError,
                       match=r"nonfinite\.csv: data row 3 has a non-finite"):
        read_spectra_csv(p)


# every reader refuses a header that names a column twice, whichever copy
# it would have read: the first (header.index) or the last (a name -> index
# dict)
_REPEATED = {
    "ingest_csv": ("t_s,easting_m,northing_m,alt_m,tmi_nT,tmi_nT\n"
                   "0,1,2,40,54000,1\n1,2,3,40,54001,2\n", "tmi_nT",
                   lambda p: ingest_csv(p, SchemaKind.MAG)),
    "ingest_csv_crossover": (
        "x_utm,y_utm,flights_k_pct,tie_k_pct,flights_u_ppm,tie_u_ppm,y_utm\n"
        "1,2,1.00,1.01,2.00,2.02,3\n", "y_utm",
        lambda p: ingest_csv(p, SchemaKind.CROSSOVER)),
    "read_spectra_csv": ("ch0,ch1,ch0\n1,2,3\n4,5,6\n", "ch0",
                         read_spectra_csv),
    "buzz_trace": ("t_s,buzz_nT,buzz_nT\n0,1,2\n1,3,4\n", "buzz_nT",
                   lambda p: _read_buzz_trace(p)),
}


@pytest.mark.parametrize("reader", sorted(_REPEATED))
def test_repeated_header_name_is_refused_naming_file_and_column(tmp_path,
                                                                reader):
    text, column, read = _REPEATED[reader]
    p = _write(tmp_path / "twice.csv", text)
    with pytest.raises(ValueError, match=rf"twice\.csv: column '{column}' "
                                         rf"appears twice in the header"):
        read(p)
