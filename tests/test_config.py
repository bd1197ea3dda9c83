"""The config dataclass <-> dict codec shared by every config class."""

from __future__ import annotations

import pytest

from aerosurvey.core import config_from_dict, config_to_dict
from aerosurvey.pipeline import PipelineConfig, config_hash
from aerosurvey.suspension import FlightPlan, SimConfig, SuspensionGeometry

CONFIG_CLASSES = (FlightPlan, SuspensionGeometry, SimConfig, PipelineConfig)

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
    d = config_to_dict(PipelineConfig(out_dir=tmp_path))
    assert d["out_dir"] == str(tmp_path)
    assert config_from_dict(PipelineConfig, d) == PipelineConfig(
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
