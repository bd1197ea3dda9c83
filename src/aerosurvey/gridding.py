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

from .core import _readonly, check_range
from .errors import TooFewPixelsError, TooFewSamplesError
from .io_csv import write_table

NODATA = -9999.0
# grid centres whose neighbour lists grid_idw holds at a time
_IDW_BLOCK = 1024
# (centre, sample) pairs that grid_idw tests against the radius at a time
_IDW_CANDIDATES = 1 << 15
# (centre, sample) pairs that grid_idw weighs in one array operation
_IDW_PAIRS = 1 << 14
# the most cells grid_idw builds: its centres and output take 40 bytes a
# cell, 2.7 GB here, where 66 line-km of survey at 10 m cells is 30k cells
_MAX_GRID_CELLS = 1 << 26


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
        check_range("cell_size", self.cell_size, 0, above=True)
        v = _readonly(self.values)
        m = _readonly(self.valid, bool)
        if v.shape != m.shape or v.ndim != 2:
            raise ValueError("values/valid must be matching 2-D arrays")
        if not np.all(np.isfinite(v[m])):
            raise ValueError("valid cells must be finite")
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
        p = _readonly(self.pixels, np.int64)
        m = _readonly(self.valid, bool)
        if p.shape != m.shape or p.ndim != 2:
            raise ValueError("pixels/valid must be matching 2-D arrays")
        if p.min() < 0 or p.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
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
    lone sample sits exactly on its cell center. A grid of more than
    _MAX_GRID_CELLS (2**26) cells is refused with a ValueError.

    A sample is a neighbour when dx*dx + dy*dy <= search_radius**2, the
    test of scipy's query_ball_point for p=2, and a center weighs its
    neighbours in ascending sample order. They are found by a cell-bucket
    fixed-radius query (_Bins; Bentley, Stanat & Williams 1977): the
    samples sit in square bins a little wider than the radius, and only
    the 3 x 3 bins around a center are tested.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(x) < 3:
        raise TooFewSamplesError("gridding needs >= 3 samples")
    for name, val in (("cell_size", cell_size),
                      ("search_radius", search_radius), ("power", power)):
        check_range(name, val, 0, above=True)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sample coordinates must be finite")
    if origin is None:
        origin = (float(x.min()) - cell_size / 2.0,
                  float(y.min()) - cell_size / 2.0)
    if shape is None:
        # clamped before int(): a tiny cell_size can make the count inf
        shape = tuple(int(math.floor(min(
            float(v.max() - v.min()) / cell_size * (1 + 1e-12) + 1e-9,
            _MAX_GRID_CELLS))) + 1 for v in (y, x))
    ny, nx = shape
    if ny * nx > _MAX_GRID_CELLS:
        raise ValueError(f"cell_size {cell_size!r} gives more than "
                         f"{_MAX_GRID_CELLS} grid cells")

    xs = origin[0] + (np.arange(nx) + 0.5) * cell_size
    ys = origin[1] + (np.arange(ny) + 0.5) * cell_size
    cx, cy = np.meshgrid(xs, ys)
    centers = np.column_stack([cx.ravel(), cy.ravel()])

    bins = _Bins(x, y, float(search_radius))
    out = np.full(centers.shape[0], np.nan)
    for start in range(0, len(centers), _IDW_BLOCK):
        block = centers[start:start + _IDW_BLOCK]
        counts, flat = bins.neighbours(block)
        firsts = np.cumsum(counts) - counts
        # centres with k neighbours form one C-contiguous (m, k) gather, so
        # each row sum is the same pairwise sum as the 1-D sum per centre
        for k in np.unique(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == k)
            step = max(1, _IDW_PAIRS // k)
            for a in range(0, len(group), step):
                rows = group[a:a + step]
                out[start + rows] = _idw_rows(
                    x, y, values, block[rows],
                    flat[firsts[rows, None] + np.arange(k)], power)
    out = out.reshape(ny, nx)
    valid = np.isfinite(out)
    out[~valid] = NODATA
    return Grid(origin[0], origin[1], cell_size, out, valid)


class _Bins:
    """Fixed-radius neighbour query over samples bucketed in square bins.

    The bins are a little wider than the radius r, so a sample within r
    of a point lies at most one bin row and one bin column from the
    point's bin, despite rounding. Sorted by bin key (row-major), the 3 x 3
    bins around a point are 3 runs of consecutive keys.
    """

    def __init__(self, x, y, r):
        self.x, self.y, self.rr = x, y, r * r
        self.x0, self.y0 = x.min(), y.min()
        # the floor on the side keeps bin numbers below 2**26 + 2, so their
        # rounding (< 2**-25 bins) stays well inside the 1e-6 bin margin
        self.side = max(r * (1 + 1e-6), (x.max() - self.x0) * 2.0 ** -26,
                        (y.max() - self.y0) * 2.0 ** -26)
        self.nbx = int((x.max() - self.x0) / self.side) + 1
        self.nby = int((y.max() - self.y0) / self.side) + 1
        key = self._bin(y, self.y0)
        key *= self.nbx
        key += self._bin(x, self.x0)
        self.order = np.argsort(key, kind="stable")
        self.key = key[self.order]

    def _bin(self, v, v0, nb=0):
        """Bin numbers of v; given nb bins, clipped to [-2, nb + 1]."""
        b = v - v0
        b /= self.side
        if nb:  # the samples' own bins are >= 0 and need no clipping
            np.floor(b, out=b)
            np.clip(b, -2, nb + 1, out=b)
        return b.astype(np.intp)

    def neighbours(self, centres):
        """(counts, flat): centre i's counts[i] neighbours follow those of
        the centres before it in flat, in ascending sample order.

        Candidates are tested at most _IDW_CANDIDATES (centre, sample)
        pairs at a time; a centre with more candidates goes alone.
        """
        nbx = self.nbx
        # centres two bins past the samples' bins get empty runs
        cbx = self._bin(centres[:, 0], self.x0, nbx)
        cby = self._bin(centres[:, 1], self.y0, self.nby)
        rows = (cby[:, None] + np.arange(-1, 2)) * nbx
        lo = np.maximum(cbx - 1, 0)[:, None]
        hi = np.minimum(cbx + 1, nbx - 1)[:, None]
        begin = np.searchsorted(self.key, rows + lo)
        length = np.searchsorted(self.key, rows + hi, "right") - begin
        cands = length.sum(axis=1)
        ends = np.cumsum(cands)
        counts = np.zeros(len(centres), np.intp)
        flats = []
        a = 0
        while a < len(centres):
            z = max(a + 1, int(np.searchsorted(
                ends, ends[a] - cands[a] + _IDW_CANDIDATES, "right")))
            counts[a:z], flat = self._near(centres[a:z], begin[a:z].ravel(),
                                           length[a:z].ravel(), cands[a:z])
            flats.append(flat)
            a = z
        return counts, np.concatenate(flats)

    def _near(self, centres, begin, length, cands):
        """Neighbour counts and lists of centres from their candidate runs."""
        n = len(self.x)
        idx = np.repeat(begin - (np.cumsum(length) - length), length)
        idx += np.arange(len(idx))
        idx = self.order[idx]
        d2 = self.x[idx]
        d2 -= np.repeat(centres[:, 0], cands)
        d2 *= d2
        dy = self.y[idx]
        dy -= np.repeat(centres[:, 1], cands)
        dy *= dy
        d2 += dy  # (0 + dx*dx) + dy*dy: query_ball_point's sum for p=2
        near = d2 <= self.rr
        del d2, dy
        counts = np.zeros(len(centres), np.intp)
        some = cands > 0
        counts[some] = np.add.reduceat(near, (np.cumsum(cands) - cands)[some],
                                       dtype=np.intp)
        # each centre's runs are in bin order: sort its neighbours by index
        offset = np.repeat(np.arange(len(centres)) * n, counts)
        flat = idx[near]
        flat += offset
        flat.sort()
        flat -= offset
        return counts, flat


def _idw_rows(x, y, values, centres, nb, power) -> np.ndarray:
    """IDW means of centres (m, 2) over neighbour indices nb (m, k)."""
    d = np.hypot(x[nb] - centres[:, :1], y[nb] - centres[:, 1:])
    hit = np.arange(len(nb)), d.argmin(axis=1)  # nearest sample per row
    res = values[nb[hit]]  # a centre on a sample takes its value
    far = ~(d[hit] < 1e-9)  # exactness at nodes; a nan distance is far
    if far.any():
        w = d[far] ** (-power)
        res[far] = np.sum(w * values[nb[far]], axis=1) / np.sum(w, axis=1)
    return res


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


# an ESRI ASCII grid's header keys, as write_asc writes them
_ASC_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
             "NODATA_value")


def _number(text: str, where: str, kind=float):
    """`text` as a `kind` (float or int); a bad one raises, named `where`."""
    try:
        return kind(text)
    except ValueError:
        noun = "a number" if kind is float else "a whole number"
        raise ValueError(f"{where} must be {noun}, got {text!r}") from None


def _cells(tokens: list[str], ncols: int, where: str, kind=float):
    """The data cells `tokens`, rows of `ncols` in file order, as an array
    of `kind`; the first bad one raises, named by `where`, row and column."""
    try:
        return np.array([kind(v) for v in tokens])
    except ValueError:
        for i, v in enumerate(tokens):     # raises at the first bad cell
            _number(v, _cell_at(where, i, ncols), kind)


def _cell_at(where: str, i: int, ncols: int) -> str:
    """`where` with the row and column of cell i of rows of `ncols`."""
    return f"{where} row {i // ncols + 1}, column {i % ncols + 1}"


def read_asc(path: str | Path) -> Grid:
    """Grid of an ESRI ASCII file (inverse of write_asc); each error names
    the file and the header key or the data cell at fault."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 12:
        raise ValueError(f"{path}: not an ESRI ASCII grid (header cut short)")
    found = dict(zip(map(str.lower, tokens[0:12:2]), tokens[1:12:2]))
    for key in _ASC_KEYS:
        if key.lower() not in found:
            raise ValueError(f"{path}: {key} missing from the header")
    header = {key: _number(found[key.lower()], f"{path}: {key}")
              for key in _ASC_KEYS}
    for key in ("ncols", "nrows"):
        check_range(f"{path}: {key}", header[key], 1)
        if not header[key].is_integer():
            raise ValueError(f"{path}: {key} must be a whole number, "
                             f"got {header[key]!r}")
    nx, ny = int(header["ncols"]), int(header["nrows"])
    data = _cells(tokens[12:], nx, f"{path}: data")
    if data.size != nx * ny:
        raise ValueError(f"{path}: expected {nx * ny} values, got {data.size}")
    values = data.reshape(ny, nx)[::-1]  # back to south-up
    valid = values != header["NODATA_value"]
    vals = np.where(valid, values, NODATA)
    return Grid(header["xllcorner"], header["yllcorner"], header["cellsize"],
                vals, valid)


def write_pgm(img: GrayImage, path: str | Path) -> None:
    """Plain PGM (P2, maxval 255); rows north first like the .asc writer."""
    head = [("P2",), (img.width, img.height), (255,)]
    write_table(path, head, img.pixels[::-1].T, " ", "\n")


def read_pgm(path: str | Path) -> np.ndarray:
    """Pixel array of a plain PGM, south-up (inverse of write_pgm); each
    error names the file and the header field or the pixel at fault.
    maxval must lie in [1, 65535] and every pixel in [0, maxval]."""
    with open(path, encoding="utf-8") as fh:
        tokens = [t for line in fh
                  for t in line.split("#", 1)[0].split()]
    if len(tokens) < 4 or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain PGM")
    w, h, maxval = (_number(v, f"{path}: {key}", int) for key, v in
                    zip(("width", "height", "maxval"), tokens[1:4]))
    for key, n, hi in (("width", w, math.inf), ("height", h, math.inf),
                       ("maxval", maxval, 65535)):
        check_range(f"{path}: {key}", n, 1, hi)
    data = tokens[4:4 + w * h]
    if len(data) != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = _cells(data, w, f"{path}: pixel", int)
    # the first pixel outside [0, maxval] raises
    for i in np.flatnonzero((pixels < 0) | (pixels > maxval))[:1].tolist():
        check_range(_cell_at(f"{path}: pixel", i, w), int(pixels[i]), 0,
                    maxval)
    return pixels.reshape(h, w)[::-1]
