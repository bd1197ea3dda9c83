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
    to_grayscale,
    write_asc,
    write_pgm,
)
from aerosurvey.gridding import _MAX_GRID_CELLS


# --- IDW gridding ---

def test_grid_idw_exact_at_sample_nodes():
    # the extent snaps cell centers onto the sample bounding box: the
    # lower-left center is half a cell from the lower-left corner
    x = np.array([0.0, 10.0, 20.0])
    y = np.array([0.0, 0.0, 0.0])
    v = np.array([5.0, -3.0, 7.5])
    g = grid_idw(x, y, v, cell_size=10.0, search_radius=15.0)
    assert g.shape == (1, 3)
    assert np.array_equal(g.values[0], v)
    assert (g.origin_x, g.origin_y) == (-5.0, -5.0)


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
    g = grid_idw(x, y, v, cell_size=1.0, search_radius=5.0)
    want = (0.0 * 1.0 + 1.0 * 0.25) / 1.25
    assert g.values[0, 1] == pytest.approx(want, rel=1e-12)


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
    (1.0, (1 << 13, (1 << 13) + 1)),    # each side under the limit
))
def test_grid_idw_refuses_more_than_max_grid_cells(cell, shape):
    # `shape`: the (ny, nx) grid whose corners the samples span
    x = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    y = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
    if shape is not None:
        x, y = x / 40.0 * (shape[1] - 1), y / 5.0 * (shape[0] - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cell_size {cell!r} gives more "
                           f"than {_MAX_GRID_CELLS} grid cells"):
            grid_idw(x, y, np.ones(5), cell, 1.0)
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


def test_grayscale_stretches_the_valid_cells_alone():
    # a subnormal span once divided the nodata cells by it too, which
    # overflowed
    vals = np.array([[0.0, 5e-324, NODATA]])
    img = to_grayscale(_grid(vals, np.array([[True, True, False]])))
    assert img.pixels.tolist() == [[0, 255, 0]]


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
    out = compare_grids(to_grayscale(a), to_grayscale(b))
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
    # P2 header (width height, maxval), then the north row first
    assert p.read_text() == "P2\n2 2\n255\n255 7\n0 128\n"


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
