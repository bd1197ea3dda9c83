import re
import tracemalloc

import numpy as np
import pytest

from aerosurvey import (
    Grid,
    GrayImage,
    NODATA,
    compare_grids,
    grid_idw,
    histogram256,
    intensity_stddev,
    read_asc,
    read_pgm,
    to_grayscale,
    write_asc,
    write_pgm,
)
from aerosurvey.gridding import _MAX_GRID_CELLS


# --- IDW gridding ---

def test_grid_idw_exact_at_sample_nodes():
    # default origin snaps cell centers onto the sample bounding box
    x = np.array([0.0, 10.0, 20.0])
    y = np.array([0.0, 0.0, 0.0])
    v = np.array([5.0, -3.0, 7.5])
    g = grid_idw(x, y, v, cell_size=10.0, search_radius=15.0)
    assert g.shape == (1, 3)
    assert np.array_equal(g.values[0], v)
    xs, ys = g.cell_centers()
    assert np.allclose(xs, [0.0, 10.0, 20.0])
    assert np.allclose(ys, [0.0])


def test_grid_idw_is_a_convex_combination():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 100.0, 200)
    y = rng.uniform(0.0, 100.0, 200)
    v = rng.uniform(-4.0, 9.0, 200)
    g = grid_idw(x, y, v, cell_size=10.0, search_radius=30.0)
    assert np.all(g.values[g.valid] >= v.min() - 1e-12)
    assert np.all(g.values[g.valid] <= v.max() + 1e-12)


def test_grid_idw_inverse_square_weighting():
    # center at (1, 0): distances 1 and 2 to the two near samples
    x = np.array([0.0, 3.0, 100.0])
    y = np.array([0.0, 0.0, 100.0])
    v = np.array([0.0, 1.0, 50.0])
    g = grid_idw(x, y, v, cell_size=1.0, search_radius=5.0,
                 origin=(0.5, -0.5), shape=(1, 1))
    want = (0.0 * 1.0 + 1.0 * 0.25) / 1.25
    assert g.values[0, 0] == pytest.approx(want, rel=1e-12)


def test_grid_idw_nodata_outside_radius():
    x = np.array([0.0, 0.0, 100.0])
    y = np.array([0.0, 1.0, 100.0])
    v = np.array([1.0, 1.0, 1.0])
    g = grid_idw(x, y, v, cell_size=10.0, search_radius=5.0)
    assert g.valid[0, 0]
    assert not g.valid.all()
    assert np.all(g.values[~g.valid] == NODATA)


def test_grid_idw_input_validation():
    with pytest.raises(ValueError, match="^gridding needs >= 3 samples$"):
        grid_idw(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                 np.array([1.0, 2.0]), 1.0, 1.0)
    three = (np.array([0.0, 1.0, 2.0]),) * 2
    with pytest.raises(ValueError):
        grid_idw(*three, np.ones(3), cell_size=0.0, search_radius=1.0)
    with pytest.raises(ValueError):
        grid_idw(*three, np.ones(3), cell_size=1.0, search_radius=-2.0)


@pytest.mark.parametrize("name", ("cell_size", "search_radius", "power"))
@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf"),
                                 0.0, -1.0))
def test_grid_idw_rejects_non_finite_or_non_positive_parameters(name, bad):
    kw = {"cell_size": 1.0, "search_radius": 2.0, "power": 2.0, name: bad}
    three = (np.array([0.0, 1.0, 2.0]),) * 2
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        grid_idw(*three, np.ones(3), **kw)


def test_grid_idw_rejects_non_finite_sample_coordinates():
    x = np.array([0.0, 1.0, np.inf, 3.0])
    with pytest.raises(ValueError, match="coordinates must be finite"):
        grid_idw(x, np.zeros(4), np.ones(4), 1.0, 2.0)


@pytest.mark.parametrize("cell, shape", (
    (1e-9, None),               # 4e10 x 5e9 cells
    (5e-324, None),             # cell counts beyond float range
    (1.0, (1 << 13, (1 << 13) + 1)),
))
def test_grid_idw_refuses_more_than_max_grid_cells(cell, shape):
    x = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cell_size {cell!r} gives more "
                           f"than {_MAX_GRID_CELLS} grid cells"):
            grid_idw(x, y, np.ones(5), cell, 1.0, shape=shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before any array of one value per cell exists
    assert peak < 2 ** 20


@pytest.mark.parametrize("power", (400.0, 1e300))
def test_grid_idw_weights_past_the_float_range_name_power(power):
    # cells 0.05 m from the nearest sample: 0.05 ** -400 overflows, and
    # the weights of samples past 1 m underflow at 1e300
    x = np.arange(0.0, 30.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(
            f"power {power!r} takes the IDW mean past the float64 range")):
        grid_idw(x, np.zeros_like(x), np.full_like(x, 5e4), 0.75, 3.0,
                 power=power)


def test_grid_idw_nan_values_stay_nodata():
    # a non-finite sample value is not the weights' fault: its cells are
    # nodata, as before the weights were checked
    x = np.arange(0.0, 30.0, 0.5)
    v = np.full_like(x, 5e4)
    v[10] = np.nan
    g = grid_idw(x, np.zeros_like(x), v, 0.75, 3.0)
    assert not g.valid.all() and g.valid.any()
    assert np.allclose(g.values[g.valid], 5e4, rtol=1e-12, atol=0)


# --- grayscale conversion ---

def _grid(values, valid=None):
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return Grid(0.0, 0.0, 1.0, values, valid)


def test_grayscale_uniform_grid_is_flat_midgray():
    img = to_grayscale(_grid(np.full((4, 5), 3.7)))
    assert np.all(img.pixels == 128)
    assert intensity_stddev(img) == 0.0


def test_grayscale_two_value_analytic_stddev():
    vals = np.array([[1.0, 9.0], [9.0, 1.0]])
    img = to_grayscale(_grid(vals))
    assert set(img.pixels.ravel().tolist()) == {0, 255}
    # equal counts of 0 and 255: population std is exactly 127.5
    assert intensity_stddev(img) == 127.5


def test_grayscale_rounding_is_half_up():
    # 1/510 of the range maps to exactly 0.5 of a gray level
    img = to_grayscale(_grid(np.array([[0.0, 1.0, 510.0]])))
    assert img.pixels.tolist() == [[0, 1, 255]]


def test_grayscale_nodata_excluded():
    vals = np.array([[1.0, 2.0], [3.0, NODATA]])
    valid = np.array([[True, True], [True, False]])
    img = to_grayscale(Grid(0.0, 0.0, 1.0, vals, valid))
    assert img.pixels[1, 1] == 0
    assert not img.valid[1, 1]
    assert histogram256(img).sum() == 3


def test_intensity_stddev_needs_pixels():
    img = GrayImage(np.array([[5, 7]]), np.array([[True, False]]))
    with pytest.raises(ValueError, match="^need >= 2 valid pixels$"):
        intensity_stddev(img)
    empty = _grid(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="^grid has no valid cells$"):
        to_grayscale(empty)


def test_compare_grids_delta_is_b_minus_a():
    a = _grid(np.full((3, 3), 2.0))                      # flat: std 0
    b = _grid(np.array([[0.0, 4.0, 0.0]] * 3))           # two-valued
    out = compare_grids(a, b)
    assert out["stddev_a"] == 0.0
    assert out["stddev_b"] > 0.0
    assert out["delta"] == out["stddev_b"] - out["stddev_a"]
    assert sum(out["histogram_b"]) == 9


# --- file round trips ---

def test_asc_round_trip_and_row_order(tmp_path):
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])           # row 0 = south
    valid = np.array([[True, False], [True, True]])
    vals = np.where(valid, vals, NODATA)
    g = Grid(327000.25, 5030000.5, 12.5, vals, valid)
    p = tmp_path / "g.asc"
    write_asc(g, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "ncols 2"
    assert lines[5].startswith("NODATA_value")
    assert lines[6] == "3.0 4.0"                         # north row first
    assert lines[7] == "1.0 -9999.0"
    back = read_asc(p)
    assert back.origin_x == g.origin_x
    assert back.origin_y == g.origin_y
    assert back.cell_size == g.cell_size
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.valid, g.valid)


def test_pgm_round_trip_and_row_order(tmp_path):
    px = np.array([[0, 128], [255, 7]])                  # row 0 = south
    img = GrayImage(px, np.ones((2, 2), dtype=bool))
    p = tmp_path / "g.pgm"
    write_pgm(img, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "255 7"                           # north row first
    assert np.array_equal(read_pgm(p), px)


def test_pgm_reader_rejects_other_formats(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_text("P5\n2 2\n255\n")
    with pytest.raises(ValueError):
        read_pgm(p)


def test_pgm_reader_rejects_truncated_pixel_data(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_text("P2\n3 2\n255\n0 1 2\n3 4\n")
    with pytest.raises(ValueError, match="truncated pixel data"):
        read_pgm(p)


# these once raised IndexError
@pytest.mark.parametrize("text", ("", "\n# comment only\n", "P2\n",
                                  "P2\n3 2\n"))
def test_pgm_reader_rejects_an_empty_or_cut_short_header(tmp_path, text):
    p = tmp_path / "cut.pgm"
    p.write_text(text)
    with pytest.raises(ValueError, match=r"cut\.pgm: not a plain PGM"):
        read_pgm(p)


# these once raised a bare "invalid literal for int()" naming no file
@pytest.mark.parametrize("text, fault", (
    ("P2\nx 2\n255\n0 1\n2 3\n", "width must be a whole number, got 'x'"),
    ("P2\n2 2.5\n255\n0 1\n2 3\n",
     "height must be a whole number, got '2.5'"),
    ("P2\n2 2\nmax\n0 1\n2 3\n", "maxval must be a whole number, got 'max'"),
    ("P2\n2 2\n255\n0 1\n2 x\n",
     "pixel row 2, column 2 must be a whole number, got 'x'"),
    ("P2\n-1 -1\n255\n7\n", "width must be finite and >= 1, got -1"),
    ("P2\n3 0\n255\n", "height must be finite and >= 1, got 0"),
), ids=("width", "height", "maxval", "pixel", "negative", "empty"))
def test_pgm_reader_names_the_file_and_the_bad_token(tmp_path, text, fault):
    p = tmp_path / "bad.pgm"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_pgm(p)
    assert str(exc.value) == f"{p}: {fault}"


# these once read as pixel values outside [0, maxval], or an empty range
@pytest.mark.parametrize("text, fault", (
    ("P2\n2 1\n255\n300 -5\n",
     "pixel row 1, column 1 must be finite and >= 0 and <= 255, got 300"),
    ("P2\n2 2\n255\n0 1\n2 -5\n",
     "pixel row 2, column 2 must be finite and >= 0 and <= 255, got -5"),
    ("P2\n3 1\n7\n7 0 8\n",
     "pixel row 1, column 3 must be finite and >= 0 and <= 7, got 8"),
    ("P2\n2 1\n0\n0 0\n", "maxval must be finite and >= 1 and <= 65535, got 0"),
    ("P2\n2 1\n-3\n0 0\n",
     "maxval must be finite and >= 1 and <= 65535, got -3"),
    ("P2\n2 1\n65536\n0 0\n",
     "maxval must be finite and >= 1 and <= 65535, got 65536"),
), ids=("above", "below", "small-maxval", "maxval-0", "maxval-negative",
        "maxval-too-large"))
def test_pgm_reader_checks_maxval_and_pixel_range(tmp_path, text, fault):
    p = tmp_path / "bad.pgm"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_pgm(p)
    assert str(exc.value) == f"{p}: {fault}"


@pytest.mark.parametrize("maxval", (1, 255, 65535))
def test_pgm_reader_takes_pixels_at_both_ends_of_the_range(tmp_path, maxval):
    p = tmp_path / "edge.pgm"
    p.write_text(f"P2\n2 1\n{maxval}\n0 {maxval}\n")
    assert read_pgm(p).tolist() == [[0, maxval]]


# --- container validation ---

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 0.0, 0.0, np.ones((2, 2)), np.ones((2, 2), bool))
    with pytest.raises(ValueError):
        Grid(0.0, 0.0, 1.0, np.full((2, 2), np.nan), np.ones((2, 2), bool))
    with pytest.raises(ValueError):
        Grid(0.0, 0.0, 1.0, np.ones((2, 2)), np.ones((2, 3), bool))


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([[300]]), np.array([[True]]))
    with pytest.raises(ValueError):
        GrayImage(np.array([[-1]]), np.array([[True]]))
