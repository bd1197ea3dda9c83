"""Core data model: positions, time series, survey lines, config codec.

Units are normalized at the ingestion boundary and never mixed afterwards:
seconds, meters (UTM easting/northing, altitude AGL), nanotesla, percent,
ppm, degrees. Angles are stored in degrees; kernels convert to radians
internally.

All containers are immutable after construction (arrays are marked
read-only), so they are safe to share across threads. Operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields as dc_fields
from decimal import Decimal
from enum import Enum, EnumMeta
from pathlib import PurePath
from typing import get_args, get_origin, get_type_hints

import numpy as np

# the most nodes resample_uniform makes, a 4.6 h trace at 1 kHz: its time
# grid, each resampled column and their stacked copy take 128 MiB apiece
_MAX_RESAMPLE_NODES = 1 << 24


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class UtmPoint:
    """A projected position: easting/northing in meters."""

    easting: float
    northing: float

    def __post_init__(self):
        if not _finite(self.easting, self.northing):
            raise ValueError("UtmPoint coordinates must be finite")


def _readonly(a: np.ndarray, dtype=float, adopt: bool = False) -> np.ndarray:
    """`a` as a read-only `dtype` array: a copy, never the caller's buffer
    frozen, unless `adopt` takes over an array of that dtype whose creator
    drops it, frozen in place."""
    if not adopt:
        a = np.array(a, dtype=dtype)
    elif not (isinstance(a, np.ndarray) and a.dtype == dtype):
        raise TypeError(f"only a {np.dtype(dtype)} array can be adopted")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Timestamps plus one value per timestamp.

    `values` is (n,) for a scalar trace or (n, k) for a multi-channel
    record, with `fields` naming each of the k columns (CSV header names,
    so a magnetometer series has fields ('easting_m', 'northing_m',
    'alt_m', 'tmi_nT')). A scalar trace names its one column or none.
    Timestamps are strictly increasing.
    """

    t: np.ndarray
    values: np.ndarray
    fields: tuple[str, ...] = ()

    def __post_init__(self):
        self._hold(_readonly(self.t), _readonly(self.values))

    @classmethod
    def _adopt(cls, t: np.ndarray, values: np.ndarray,
               fields: tuple[str, ...] = ()) -> "TimeSeries":
        """The series of `t` and `values` without a copy, for float arrays
        whose creator drops them: they become read-only in place. The
        public constructor copies, so it never freezes a caller's buffer;
        both run the same checks."""
        series = object.__new__(cls)
        object.__setattr__(series, "fields", fields)
        series._hold(_readonly(t, adopt=True), _readonly(values, adopt=True))
        return series

    def _hold(self, t: np.ndarray, v: np.ndarray) -> None:
        """Store the read-only `t` and `v` and check them."""
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1:
            raise ValueError("t must be 1-D")
        if len(t) != len(v):
            raise ValueError("t and values length mismatch")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        width = v.shape[1] if v.ndim == 2 else 1
        if len(self.fields) != width and (v.ndim == 2 or self.fields):
            raise ValueError(f"a series of {width} columns needs as many "
                             f"field names, got {len(self.fields)}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0]) if len(self.t) else 0.0

    def column(self, name: str) -> np.ndarray:
        """Named channel of a series (an unnamed scalar trace is any)."""
        if self.fields and name not in self.fields:
            raise KeyError(name)
        return self.values if self.values.ndim == 1 else \
            self.values[:, self.fields.index(name)]

    def with_column(self, name: str, new: np.ndarray) -> "TimeSeries":
        """Copy with one channel replaced."""
        v = np.array(self.values)
        v[:, self.fields.index(name)] = new
        return TimeSeries(self.t, v, self.fields)


class LineRole(Enum):
    FLIGHT = "flight"
    TIE = "tie"


@dataclass(frozen=True)
class SurveyLine:
    """One acquisition line: an id, its role, and a positioned series.

    The series must carry easting_m/northing_m columns; that is what makes
    crossover geometry possible.
    """

    line_id: str
    role: LineRole
    series: TimeSeries

    def __post_init__(self):
        if len(self.series) < 2:
            raise ValueError("survey line needs at least 2 samples")
        for c in ("easting_m", "northing_m"):
            if c not in self.series.fields:
                raise ValueError(f"survey line series lacks {c}")

    def positions(self) -> np.ndarray:
        """(n, 2) easting/northing."""
        return np.column_stack(
            [self.series.column("easting_m"), self.series.column("northing_m")]
        )


@dataclass(frozen=True)
class CrossoverRow:
    """A pre-computed crossover deliverable row carrying K and U pairs.

    Survey deliverables report these values to two decimals; they are kept
    as exact decimals so differences (and their maxima) are exact rather
    than float-approximate.
    """

    location: UtmPoint
    flights_k: Decimal  # percent
    tie_k: Decimal      # percent
    flights_u: Decimal  # ppm
    tie_u: Decimal      # ppm

    @property
    def diff_k(self) -> Decimal:
        return self.flights_k - self.tie_k

    @property
    def diff_u(self) -> Decimal:
        return self.flights_u - self.tie_u


def resample_uniform(series: TimeSeries, rate_hz: float) -> TimeSeries:
    """Linearly interpolate a series onto a uniform grid.

    The grid starts at the first timestamp, has spacing exactly 1/rate_hz,
    and spans the original time range (last node <= last timestamp, up to
    float rounding). Exact on affine inputs.
    """
    check_range("rate_hz", rate_hz, 0, above=True)
    if len(series) < 2:
        raise ValueError("resample needs >= 2 samples")
    t0, t1 = float(series.t[0]), float(series.t[-1])
    span = t1 - t0
    # count nodes with a tolerance so span*rate == integer survives
    # rounding, clamped before int(): a huge rate_hz can make the count inf
    n = int(math.floor(min(span * rate_hz * (1 + 1e-12) + 1e-9,
                           _MAX_RESAMPLE_NODES))) + 1
    if n > _MAX_RESAMPLE_NODES:
        raise ValueError(f"rate_hz {rate_hz!r} gives more than "
                         f"{_MAX_RESAMPLE_NODES} resample nodes")
    new_t = t0 + np.arange(n) / rate_hz
    new_v = np.interp(new_t, series.t, series.values) \
        if series.values.ndim == 1 else np.column_stack(
            [np.interp(new_t, series.t, v) for v in series.values.T])
    return TimeSeries(new_t, new_v, series.fields)


def _median(x) -> float:
    """np.median of a non-empty 1-D float sequence, bit for bit: the same
    partition and mean of the middle slice, and nan when a value is nan.
    np.median's nan check imports numpy.ma, 10-16 ms in a fresh process."""
    a = np.asarray(x, dtype=float)
    h = a.size // 2
    mid = [h - 1, h] if a.size % 2 == 0 else [h]
    part = np.partition(a, mid + [-1])
    return float(part[-1]) if np.isnan(part[-1]) \
        else float(part[mid[0]:h + 1].mean())


def _percentiles(x, q) -> list[float]:
    """np.percentile(x, q) of a non-empty 1-D float sequence with its
    default linear method, bit for bit: the same partition and
    interpolation, and nan when a value is nan. np.percentile orders its
    partition indices with np.unique, which imports numpy.ma."""
    a = np.array(x, dtype=float)   # a copy: partitioned in place
    at = (a.size - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(at)
    above = below + 1
    top = at >= a.size - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    a.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    if np.isnan(a[-1]):
        return [float(a[-1])] * len(at)
    t = at - below
    lo, hi = a[below], a[above]
    step = hi - lo
    out = lo + step * t
    np.subtract(hi, step * (1 - t), out=out, where=t >= 0.5)
    return out.tolist()


# ---------------------------------------------------------------------------
# range check and config dataclass <-> JSON-ready dict


def check_range(name, value, lo, hi=math.inf, above=False):
    """Raise ValueError naming `name` unless `value` is finite and in [lo, hi]
    ((lo, hi] when `above`); lo = -inf asks only for a finite value."""
    # not math.isfinite, which overflows on ints beyond the float range
    if (lo < value if above else lo <= value) and value <= hi \
            and abs(value) <= sys.float_info.max:
        return
    text = f"{name} must be finite"
    if lo > -math.inf:
        text += f" and {'>' if above else '>='} {lo}"
    if hi < math.inf:
        text += f" and <= {hi}"
    raise ValueError(f"{text}, got {value!r}")


def _to_json(v):
    if isinstance(v, (tuple, list)):
        return [_to_json(x) for x in v]
    if isinstance(v, Enum):
        return v.value
    return str(v) if isinstance(v, PurePath) else v


def _decode_at(cls, raw, where):
    """cls.from_dict(raw), with `where` in front of the message of any
    ValueError it raises."""
    try:
        return cls.from_dict(raw)
    except ValueError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _fits(value, hint) -> bool:
    """Whether JSON value `value` fits a field annotated `hint`.

    An int field takes an integer and a float field any finite number
    (JSON's NaN and Infinity parse to floats), neither a bool (values are
    kept as given, so config hashes do not move); an enum field takes one
    of its members' values; a tuple field takes a list of the same shape,
    a union what any member takes.
    """
    if hint is int or hint is float:
        if isinstance(value, float):
            return hint is float and math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(hint, EnumMeta):
        return isinstance(value, str) and value in hint._value2member_map_
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if args:
        return any(_fits(value, a) for a in args)
    return isinstance(value, hint)


def _to_tuple(v):
    return tuple(_to_tuple(x) for x in v) if isinstance(v, list) else v


def _numbers(v) -> list:
    """The numbers in a (nested) tuple, or [v]."""
    return [x for m in v for x in _numbers(m)] if isinstance(v, tuple) else [v]


def ranged(default, lo, hi=math.inf, above=False):
    """A config field (every number of a tuple field) held to [lo, hi], or
    to (lo, hi] when `above`; a `default` of MISSING makes it required."""
    return field(default=default, metadata={"range": (lo, hi, above)})


class _DictCodec:
    """to_dict/from_dict of a config dataclass, and one check of its
    ranged() fields, however it is built."""

    def __post_init__(self):
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if "range" not in f.metadata or v is None and f.default is None:
                continue
            for x in _numbers(v):
                check_range(f.name, x, *f.metadata["range"])

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists, paths strings,
        enum members their values, the rest stays as it is."""
        return {f.name: _to_json(getattr(self, f.name))
                for f in dc_fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """Inverse of to_dict: build `cls` from `d`, lists as tuples.

        Raises ValueError naming the class and key when `d` is not a dict (a
        JSON object), lacks a field without a default, names a key that is
        not a field of `cls`, or holds a value that the field's annotation
        does not take (see _fits); building `cls` then checks the declared
        ranges (__post_init__).
        """
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__}: expected a JSON object, "
                             f"got {type(d).__name__}")
        hints = get_type_hints(cls)
        for f in dc_fields(cls):
            if f.name not in d and f.default is f.default_factory is MISSING:
                raise ValueError(f"{cls.__name__}: missing key {f.name!r}")
        for key, value in d.items():
            if key not in hints:
                raise ValueError(f"{cls.__name__}: unknown option {key!r}")
            if not _fits(value, hints[key]):
                raise ValueError(f"{cls.__name__}: invalid {key!r}: {value!r}")
        return cls(**{k: hints[k](v) if isinstance(hints[k], EnumMeta)
                      else _to_tuple(v)
                      for k, v in d.items()})
