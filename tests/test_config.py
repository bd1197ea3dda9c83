"""The config dataclass <-> dict codec shared by every config class."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import cli, suspension
from aerosurvey.pipeline import PipelineConfig, config_hash
from aerosurvey.suspension import FlightPlan, SimConfig, SuspensionGeometry

CONFIG_CLASSES = (FlightPlan, SuspensionGeometry, SimConfig, PipelineConfig)
# (class, field) of every int, float and float | None field
NUMERIC_FIELDS = tuple((cls, f) for cls in CONFIG_CLASSES for f in fields(cls)
                       if f.type in ("int", "float", "float | None"))
FIELD_IDS = [f"{cls.__name__}.{f.name}" for cls, f in NUMERIC_FIELDS]
TUPLE_FIELDS = tuple((cls, f) for cls in CONFIG_CLASSES for f in fields(cls)
                     if f.type.startswith("tuple["))


def _paths(v) -> list[tuple[int, ...]]:
    """Index paths to the numbers of tuple `v`, through its first member
    where it holds tuples."""
    if isinstance(v[0], tuple):
        return [(0, *p) for p in _paths(v[0])]
    return [(i,) for i in range(len(v))]


# (class, field, index path) of every scalar field (path None) and of each
# number in a tuple field
ELEMENTS = tuple((cls, f, None) for cls, f in NUMERIC_FIELDS) + tuple(
    (cls, f, p) for cls, f in TUPLE_FIELDS for p in _paths(f.default))
ELEMENT_IDS = FIELD_IDS + [
    f"{cls.__name__}.{f.name}" + "".join(f"[{i}]" for i in p)
    for cls, f, p in ELEMENTS[len(NUMERIC_FIELDS):]]

# config_sha256 of the default run; it moves only if a default parameter
# or the dict layout of a config class changes
DEFAULT_CONFIG_SHA256 = \
    "1abfb4ffbac6749db82827c299868e970f397e249ca61cdd3a262e3072ab7794"


def test_default_config_hash_is_pinned():
    digest = config_hash(FlightPlan(), SuspensionGeometry(), SimConfig(),
                         PipelineConfig())
    assert digest == DEFAULT_CONFIG_SHA256


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_unknown_key_names_class_and_key(cls):
    with pytest.raises(ValueError, match=f"{cls.__name__}.*'no_such_key'"):
        cls.from_dict({"no_such_key": 1})


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
@pytest.mark.parametrize("raw", ([1, 2], "plan", 3.0, None))
def test_non_object_input_rejected(cls, raw):
    with pytest.raises(ValueError, match=cls.__name__):
        cls.from_dict(raw)


def test_paths_are_written_as_strings(tmp_path):
    d = PipelineConfig(out_dir=tmp_path).to_dict()
    assert d["out_dir"] == str(tmp_path)
    assert PipelineConfig.from_dict(d) == PipelineConfig(
        out_dir=str(tmp_path))


def test_integer_turn_radius_hashes_like_its_float():
    as_int = SimConfig.from_dict({"turn_radius_m": 30})
    as_float = SimConfig.from_dict({"turn_radius_m": 30.0})
    assert isinstance(as_int.turn_radius_m, float)
    plan, geom = FlightPlan(), SuspensionGeometry()
    assert config_hash(plan, geom, as_int) == config_hash(plan, geom, as_float)


def test_other_ints_are_kept_as_ints():
    # coercing ints to float would move config_sha256 for existing configs
    plan = FlightPlan.from_dict({"n_lines": 3, "line_length_m": 400})
    assert plan.to_dict()["line_length_m"] == 400
    assert isinstance(plan.to_dict()["line_length_m"], int)


@pytest.mark.parametrize("cls, key, value", (
    (FlightPlan, "n_lines", "four"),
    (FlightPlan, "n_lines", 4.5),
    (FlightPlan, "tie_lines", True),
    (FlightPlan, "origin_utm", [327400.0]),
    (SimConfig, "speed", None),
    (SimConfig, "speed", False),
    (SimConfig, "anomalies", [[40.0, 180.0, 12.0]]),
    (SuspensionGeometry, "intermediate_platform", 1),
    (SuspensionGeometry, "platform_offsets", "0.7"),
    (PipelineConfig, "nasvd_k", "4"),
    (PipelineConfig, "plan_path", 3),
))
def test_wrong_typed_value_names_class_and_key(cls, key, value):
    with pytest.raises(ValueError, match=f"{cls.__name__}: invalid '{key}'"):
        cls.from_dict({key: value})


def test_null_only_where_the_default_is_none():
    cfg = SimConfig.from_dict({"turn_radius_m": None, "anomalies": [],
                               "regional_gradient": [0, 0.5]})
    assert cfg.turn_radius_m is None and cfg.regional_gradient == (0, 0.5)
    assert PipelineConfig.from_dict({"d4_threshold": None}).d4_threshold is None
    with pytest.raises(ValueError, match="'nasvd_k'"):
        PipelineConfig.from_dict({"nasvd_k": None})


@pytest.mark.parametrize("cls, key", ((FlightPlan, "spacing_m"),
                                      (SuspensionGeometry, "cable_length"),
                                      (SimConfig, "speed"),
                                      (PipelineConfig, "cell_coarse")))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
def test_non_finite_float_names_class_and_key(cls, key, value):
    # json.loads parses NaN, Infinity and -Infinity to floats
    with pytest.raises(ValueError, match=f"{cls.__name__}: invalid '{key}'"):
        cls.from_dict({key: value})


@pytest.mark.parametrize("key, value, message", (
    ("tie_tolerance", float("nan"), "tie_tolerance must be finite and >= 0"),
    ("tie_tolerance", float("inf"), "tie_tolerance must be finite and >= 0"),
    ("tie_tolerance", -1.0, "tie_tolerance must be finite and >= 0"),
    ("d4_threshold", float("nan"), "d4_threshold must be finite and > 0"),
    ("d4_threshold", 0.0, "d4_threshold must be finite and > 0"),
    ("d4_threshold", -2.0, "d4_threshold must be finite and > 0"),
))
def test_pipeline_gates_are_checked_when_built(key, value, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**{key: value})
    edge = PipelineConfig(tie_tolerance=0.0, d4_threshold=1e-12)
    assert edge.tie_tolerance == 0.0 and edge.d4_threshold == 1e-12


def _flat(v) -> list:
    return [x for m in v for x in _flat(m)] if isinstance(v, tuple) else [v]


@pytest.mark.parametrize("cls, f", NUMERIC_FIELDS + TUPLE_FIELDS,
                         ids=FIELD_IDS + [f"{cls.__name__}.{f.name}"
                                          for cls, f in TUPLE_FIELDS])
def test_every_numeric_field_declares_a_range_holding_its_default(cls, f):
    lo, hi, above = f.metadata["range"]
    for v in _flat(f.default) if f.default is not None else ():
        assert (lo < v if above else lo <= v) and v <= hi


def test_range_message_format_and_huge_integers():
    with pytest.raises(ValueError, match=r"^speed must be finite and >= 0 "
                       r"and <= 100, got -1\.0$"):
        SimConfig(speed=-1.0)
    with pytest.raises(ValueError, match=r"^cell_fine must be finite and > 0"):
        PipelineConfig.from_dict({"cell_fine": 0})
    # huge JSON integers are compared, never converted to float
    with pytest.raises(ValueError, match="n_channels"):
        SimConfig.from_dict({"n_channels": 10 ** 400})
    assert SimConfig(seed=10 ** 40).seed == 10 ** 40


def _past(f, v, way: int):
    """The value of field `f`'s type next to `v`, on side `way` (+1 or -1)."""
    return v + way if f.type == "int" else math.nextafter(v, way * math.inf)


def _probes(f) -> list:
    """JSON values that try field `f`: the fixed set, plus each declared
    bound and the nearest value outside it."""
    values = [0, -1, 1e-300, 1e300, True, "x", None]
    if "range" in f.metadata:
        lo, hi, above = f.metadata["range"]
        values += [lo, lo if above else _past(f, lo, -1)]
        if hi < math.inf:
            values += [hi, _past(f, hi, 1)]
    # each value once, keeping True apart from 1 and 0 from 0.0
    return list({(type(v), v): v for v in values}.values())


def _outside(f, value) -> bool:
    lo, hi, above = f.metadata.get("range", (-math.inf, math.inf, False))
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and not ((lo < value if above else lo <= value) and value <= hi)


SMALL_PLAN = {"n_lines": 2, "line_length_m": 150.0, "tie_lines": 1}
# the config file each class is read from, after --plan <small plan>
COMMANDS = {FlightPlan: ["sim", "survey", "--plan"],
            SuspensionGeometry: ["sim", "survey", "--geom"],
            SimConfig: ["sim", "survey", "--cfg"],
            PipelineConfig: ["pipeline", "--config"]}


def _set(f, path, value):
    """The JSON value of field `f`: `value` itself, or `f`'s default with
    `value` at index `path`."""
    if path is None:
        return value
    out = json.loads(json.dumps(f.default))
    *outer, last = path
    target = out
    for i in outer:
        target = target[i]
    target[last] = value
    return out


@pytest.mark.parametrize("cls, f, path", ELEMENTS, ids=ELEMENT_IDS)
def test_one_field_config_never_ends_in_exit_4(cls, f, path, monkeypatch):
    # a plan refused at this cap allocates nothing; one just under it
    # holds about 40 MB
    monkeypatch.setattr(suspension, "_MAX_SIM_STEPS", 2 ** 18)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=2 * len(_probes(f)))
    @given(st.sampled_from(_probes(f)))
    def one_field(value):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            plan, config = tmp / "plan.json", tmp / "config.json"
            plan.write_text(json.dumps(SMALL_PLAN))
            content = {f.name: _set(f, path, value)}
            if cls is FlightPlan:
                content = {**SMALL_PLAN, **content}
            elif cls is PipelineConfig:
                content["plan_path"] = str(plan)
            config.write_text(json.dumps(content))
            argv = [*COMMANDS[cls], str(config), "--out-dir", str(tmp / "out")]
            if cls in (SuspensionGeometry, SimConfig):
                argv += ["--plan", str(plan)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_QC), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if _outside(f, value):
            assert code == cli.EXIT_IO and f.name in err.getvalue()

    one_field()
