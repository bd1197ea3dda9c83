"""Gridding of line data, grayscale conversion, and image statistics.

Grids are stored south-up internally (row 0 = southernmost row, cell
centers at origin + (i + 0.5) * cell_size); the ESRI ASCII writer flips
to the format's north-first row order. Grayscale conversion and the
intensity statistics follow a pixel-census interpretation: population
standard deviation over valid pixels, nodata excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import TooFewPixelsError, TooFewSamplesError
from .io_csv import write_table

NODATA = -9999.0
# grid centres whose neighbour lists grid_idw holds at a time
_IDW_BLOCK = 1024


@dataclass(frozen=True)
class Stretch:
    """Contrast stretch: 'minmax' or 'percentile' with lo/hi percentiles."""

    mode: str = "minmax"
    p_lo: float = 2.5
    p_hi: float = 97.5

    def __post_init__(self):
        if self.mode not in ("minmax", "percentile"):
            raise ValueError("stretch mode must be 'minmax' or 'percentile'")
        if not 0 <= self.p_lo < self.p_hi <= 100:
            raise ValueError("percentiles must satisfy 0 <= lo < hi <= 100")

    def bounds(self, vals: np.ndarray) -> tuple[float, float]:
        if self.mode == "minmax":
            return float(vals.min()), float(vals.max())
        lo, hi = np.percentile(vals, [self.p_lo, self.p_hi])
        return float(lo), float(hi)


MINMAX = Stretch("minmax")


@dataclass(frozen=True)
class Grid:
    """Regular grid: lower-left corner origin, square cells, validity mask."""

    origin_x: float   # xllcorner, m
    origin_y: float   # yllcorner, m
    cell_size: float  # m
    values: np.ndarray  # (ny, nx), row 0 = south
    valid: np.ndarray   # bool, same shape

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        v = np.array(self.values, dtype=float)
        m = np.array(self.valid, dtype=bool)
        if v.shape != m.shape or v.ndim != 2:
            raise ValueError("values/valid must be matching 2-D arrays")
        if not np.all(np.isfinite(v[m])):
            raise ValueError("valid cells must be finite")
        v.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ny, nx = self.values.shape
        xs = self.origin_x + (np.arange(nx) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(ny) + 0.5) * self.cell_size
        return xs, ys


@dataclass(frozen=True)
class GrayImage:
    """8-bit image plus validity mask (nodata pixels are 0 and invalid)."""

    pixels: np.ndarray  # (ny, nx) ints in [0, 255]
    valid: np.ndarray

    def __post_init__(self):
        p = np.array(self.pixels, dtype=np.int64)
        m = np.array(self.valid, dtype=bool)
        if p.shape != m.shape or p.ndim != 2:
            raise ValueError("pixels/valid must be matching 2-D arrays")
        if p.min() < 0 or p.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        p.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "pixels", p)
        object.__setattr__(self, "valid", m)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def grid_idw(x: np.ndarray, y: np.ndarray, values: np.ndarray,
             cell_size: float, search_radius: float, power: float = 2.0,
             origin: tuple[float, float] | None = None,
             shape: tuple[int, int] | None = None) -> Grid:
    """Inverse-distance-weighted gridding of scattered samples.

    Each cell center takes the IDW mean (weights 1/d**power) of samples
    within `search_radius`; a center within 1e-9 m of a sample takes that
    sample's value exactly; centers with no neighbors are nodata. The
    default extent snaps cell centers onto the sample bounding box, so a
    lone sample sits exactly on its cell center.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(x) < 3:
        raise TooFewSamplesError("gridding needs >= 3 samples")
    if cell_size <= 0 or search_radius <= 0 or power <= 0:
        raise ValueError("cell_size, search_radius, power must be > 0")
    if origin is None:
        origin = (float(x.min()) - cell_size / 2.0,
                  float(y.min()) - cell_size / 2.0)
    if shape is None:
        nx = int(math.floor((x.max() - x.min()) / cell_size * (1 + 1e-12) + 1e-9)) + 1
        ny = int(math.floor((y.max() - y.min()) / cell_size * (1 + 1e-12) + 1e-9)) + 1
        shape = (ny, nx)
    ny, nx = shape

    xs = origin[0] + (np.arange(nx) + 0.5) * cell_size
    ys = origin[1] + (np.arange(ny) + 0.5) * cell_size
    cx, cy = np.meshgrid(xs, ys)
    centers = np.column_stack([cx.ravel(), cy.ravel()])

    tree = cKDTree(np.column_stack([x, y]))
    out = np.full(centers.shape[0], np.nan)
    # neighbour lists are lists of Python ints; asking for one block of
    # centres at a time bounds them instead of holding them for the grid
    for start in range(0, len(centers), _IDW_BLOCK):
        block = centers[start:start + _IDW_BLOCK]
        for i, idx in enumerate(tree.query_ball_point(block, r=search_radius),
                                start):
            if not idx:
                continue
            d = np.hypot(x[idx] - centers[i, 0], y[idx] - centers[i, 1])
            j = int(np.argmin(d))
            if d[j] < 1e-9:  # exactness at nodes
                out[i] = values[idx][j]
                continue
            w = d ** (-power)
            out[i] = float(np.sum(w * values[idx]) / np.sum(w))
    out = out.reshape(ny, nx)
    valid = np.isfinite(out)
    out[~valid] = NODATA
    return Grid(origin[0], origin[1], cell_size, out, valid)


def to_grayscale(grid: Grid, stretch: Stretch = MINMAX) -> GrayImage:
    """Affine map of [lo, hi] onto [0, 255] with clipping.

    Rounding is half-up (not banker's) so results are reproducible across
    languages. A degenerate range (lo == hi) maps every valid cell to
    mid-gray 128. Nodata cells become 0 and stay excluded from statistics
    via the validity mask.
    """
    if not np.any(grid.valid):
        raise TooFewPixelsError("grid has no valid cells")
    vals = grid.values[grid.valid]
    lo, hi = stretch.bounds(vals)
    pixels = np.zeros(grid.shape, dtype=np.int64)
    if hi == lo:
        pixels[grid.valid] = 128  # degenerate range
    else:
        scaled = np.clip((grid.values - lo) / (hi - lo), 0.0, 1.0) * 255.0
        pixels[grid.valid] = np.floor(scaled[grid.valid] + 0.5).astype(np.int64)
    return GrayImage(pixels, grid.valid)


def intensity_stddev(img: GrayImage) -> float:
    """Population standard deviation of valid pixel intensities."""
    px = img.pixels[img.valid]
    if px.size < 2:
        raise TooFewPixelsError("need >= 2 valid pixels")
    return float(np.std(px.astype(float)))


def histogram256(img: GrayImage) -> np.ndarray:
    """256-bin counts of valid pixel intensities (plot on a log scale)."""
    return np.bincount(img.pixels[img.valid].ravel(), minlength=256)


def compare_grids(a: Grid, b: Grid, stretch: Stretch = MINMAX) -> dict:
    """Grayscale intensity-distribution comparison of two grids.

    Each grid is converted to grayscale independently (its own stretch
    bounds), mirroring how separately delivered survey images are
    compared. Returns per-image standard deviations, delta = b - a, and
    the 256-bin histograms.
    """
    img_a = to_grayscale(a, stretch)
    img_b = to_grayscale(b, stretch)
    sd_a = intensity_stddev(img_a)
    sd_b = intensity_stddev(img_b)
    return {
        "stddev_a": sd_a,
        "stddev_b": sd_b,
        "delta": sd_b - sd_a,
        "histogram_a": histogram256(img_a).tolist(),
        "histogram_b": histogram256(img_b).tolist(),
    }


def write_asc(grid: Grid, path: str | Path) -> None:
    """ESRI ASCII grid; rows are written north first, per the format."""
    ny, nx = grid.shape
    head = [("ncols", nx), ("nrows", ny), ("xllcorner", grid.origin_x),
            ("yllcorner", grid.origin_y), ("cellsize", grid.cell_size),
            ("NODATA_value", NODATA)]
    write_table(path, head, grid.values[::-1].T, " ", "\n")


def read_asc(path: str | Path) -> Grid:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    header = {tokens[i].lower(): float(tokens[i + 1]) for i in range(0, 12, 2)}
    nx, ny = int(header["ncols"]), int(header["nrows"])
    nodata = header["nodata_value"]
    data = np.array([float(v) for v in tokens[12:]])
    if data.size != nx * ny:
        raise ValueError(f"{path}: expected {nx * ny} values, got {data.size}")
    values = data.reshape(ny, nx)[::-1]  # back to south-up
    valid = values != nodata
    vals = np.where(valid, values, NODATA)
    return Grid(header["xllcorner"], header["yllcorner"], header["cellsize"],
                vals, valid)


def write_pgm(img: GrayImage, path: str | Path) -> None:
    """Plain PGM (P2, maxval 255); rows north first like the .asc writer."""
    head = [("P2",), (img.width, img.height), (255,)]
    write_table(path, head, img.pixels[::-1].T, " ", "\n")


def read_pgm(path: str | Path) -> np.ndarray:
    """Pixel array of a plain PGM, south-up (inverse of write_pgm)."""
    with open(path, encoding="utf-8") as fh:
        tokens = [t for line in fh
                  for t in line.split("#", 1)[0].split()]
    if tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain PGM")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = tokens[4:4 + w * h]
    if len(data) != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return np.array([int(v) for v in data]).reshape(h, w)[::-1]
