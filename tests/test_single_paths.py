"""One CSV reading path, one JSON reader and one JSON writer in the package.

Every CSV the package reads goes through io_csv (one row splitter, one
column parser, one call of numpy's C parser, and no other module
composing them), every JSON file through io_csv._read_json, every JSON
artifact through io_csv._json_text, which refuses NaN and Infinity, and
every scalar range message through core.check_range. These tests fail
when a module grows its own csv reader, its own json.load(s), its own
indented json.dumps or its own range check, so the paths cannot quietly
split again. The table writer's byte canvas lives in numtext alone,
behind numtext.Layout, the one name io_csv takes from it. Arrays are frozen
only by core._readonly (and numtext's shared tables), the payload EMI
level is worked out only by SimConfig.emi_amplitude, the size of the
diurnal correction only by qc._correction_stats (for the pipeline and the
qc diurnal command alike), which columns are gamma channels only by
io_csv._channel_columns, and every median and percentile only by
core._median and core._percentiles (numpy's import numpy.ma). The last
tests keep scipy out of the package, which runs on numpy alone (scipy is
the tests' oracle, not a dependency), and its k-d tree with it: grid_idw
has its own binned query. Bad input raises ValueError alone: errors.py
holds only the types the CLI or the ingest path tells apart, and no range
check picks its own error type. Each library function has one calling
form: grayscale is min-max, the 4th difference takes an array, the
settling lead-in uses the track's speed, the pendulum is run through
_Swing and configs are coded by _DictCodec alone. A simulated run is set
up by pipeline._load_survey alone, for the pipeline and `sim survey`
alike, and from its config files alone: no module reads the environment
and no flag shadows a config field but --out-dir; run_pipeline writes every
report.json, partial ones too, so the pipeline command handles no
exception; and the simulator's sensor streams take their columns from
io_csv's schemas, naming none of their own. No flow reads a payload pose,
a PGM file or an attitude track, so the package defines none of them,
and no option that only tests set survives: the float readers read
floats, ingest_csv always drops a late timestamp, grid_idw takes its
extent from the samples and write_survey_artifacts flies a _Flight. The
pipeline learns which sensor samples lie on which line from _Flight.lines
alone, worked out from the path before the flight, and the flight keeps
no per-sample segment labels. A flown chunk's segment column is coded
over the path segments' step spans, a label is spelt out per step by
simulate_survey alone, and write_table takes a label column in that one
coded form.
"""

from __future__ import annotations

import ast
import inspect
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import aerosurvey
from aerosurvey import (
    cli,
    core,
    emi,
    gridding,
    io_csv,
    pipeline,
    qc,
    suspension,
)
from aerosurvey.core import check_range
from aerosurvey.io_csv import _REQUIRED, SchemaKind

SRC = Path(aerosurvey.__file__).resolve().parent


class _Finder(ast.NodeVisitor):
    """Innermost enclosing function of every node `match` accepts."""

    def __init__(self, match):
        self.match = match
        self.scope = ["<module>"]
        self.hits: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.match(node):
            self.hits.append(self.scope[-1])
        super().generic_visit(node)


def _where(match) -> set[tuple[str, str]]:
    """{(file, function)} of the package's nodes that `match` accepts."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        finder = _Finder(match)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= {(path.name, scope) for scope in finder.hits}
    return found


def _uses(node, module: str, names: set[str]) -> bool:
    """`module`.<name> for one of `names`, or a from-import of it."""
    if isinstance(node, ast.Attribute):
        return (node.attr in names and isinstance(node.value, ast.Name)
                and node.value.id == module)
    return (isinstance(node, ast.ImportFrom) and node.module == module
            and any(a.name in names for a in node.names))


def test_csv_is_read_only_by_the_row_splitter():
    assert _where(lambda n: _uses(n, "csv", {"reader", "DictReader"})) \
        == {("io_csv.py", "_open_csv")}


# the parts of io_csv's read protocol: the row route and the C parser
_PROTOCOL = {"_open_csv", "_read_rows", "_parse_columns"}


def test_csv_read_protocol_stays_in_io_csv():
    def protocol(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _PROTOCOL
        if isinstance(node, ast.Attribute):
            return node.attr in _PROTOCOL or (
                node.attr == "loadtxt" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        return isinstance(node, ast.ImportFrom) and any(
            a.name in _PROTOCOL | {"loadtxt"} for a in node.names)

    found = _where(protocol)
    assert {f for f, _ in found} == {"io_csv.py"}
    assert ("io_csv.py", "_load_floats") in found


def test_json_is_read_only_by_its_reader():
    assert _where(lambda n: _uses(n, "json", {"load", "loads"})) \
        == {("io_csv.py", "_read_json")}


def test_indented_json_dump_only_in_its_writer():
    def indented_dump(node) -> bool:
        if isinstance(node, ast.Call):
            return (_uses(node.func, "json", {"dumps"})
                    and any(k.arg == "indent" for k in node.keywords))
        return isinstance(node, ast.ImportFrom) \
            and _uses(node, "json", {"dumps"})

    assert _where(indented_dump) == {("io_csv.py", "_json_text")}


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_json_writer_refuses_nan_and_infinity(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="^Out of range float values"):
        io_csv._json_text({"k": [value]})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Out of "
                       "range float values"):
        io_csv._write_json(path, {"k": [value]})
    assert not path.exists()


def _raises_text(node, text: str) -> bool:
    """A raise with a string literal (or f-string part) holding `text`."""
    return isinstance(node, ast.Raise) and any(
        isinstance(c, ast.Constant) and isinstance(c.value, str)
        and text in c.value for c in ast.walk(node))


def test_range_messages_come_only_from_check_range():
    # the array checks (grid_idw's coordinates, UtmPoint) say "must be
    # finite" alone; check_range adds " and <bound>" to that text
    assert ("core.py", "check_range") in _where(
        lambda n: isinstance(n, ast.Raise))
    assert ("gridding.py", "grid_idw") in _where(
        lambda n: _raises_text(n, "must be finite"))
    assert _where(lambda n: _raises_text(n, "must be finite and")) == set()


def test_arrays_are_frozen_only_by_readonly():
    def freeze(node) -> bool:
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Attribute) and t.attr == "writeable"
            and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
            for t in node.targets) and isinstance(node.value, ast.Constant) \
            and node.value.value is False

    assert _where(freeze) == {("core.py", "_readonly"),
                              ("numtext.py", "_tables")}


# the byte canvas of the table writer: its filler byte, its layout columns,
# its slot size and its texts table
_CANVAS = {"FILL", "PLAIN", "TEXT_END", "_SLOT", "_text_table"}


def test_table_canvas_stays_in_numtext():
    def canvas(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _CANVAS
        if isinstance(node, ast.Attribute):
            return node.attr in _CANVAS
        return isinstance(node, ast.ImportFrom) and any(
            a.name in _CANVAS for a in node.names)

    def compaction(node) -> bool:       # `!= FILL`: the bytes that are text
        return isinstance(node, ast.Compare) and any(
            isinstance(op, ast.NotEq) and canvas(c)
            for op, c in zip(node.ops, node.comparators))

    assert {file for file, _ in _where(canvas)} == {"numtext.py"}
    assert _where(compaction) == {("numtext.py", "rows")}
    tree = ast.parse((SRC / "io_csv.py").read_text(encoding="utf-8"))
    assert [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and n.module == "numtext" for a in n.names] == ["Layout"]


def test_emi_level_is_read_only_by_emi_amplitude():
    assert _where(lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "emi_a1") \
        == {("suspension.py", "emi_amplitude")}


def _tmi_column(node) -> bool:
    """A call <series>.column("tmi_nT")."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "column" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "tmi_nT")


def test_diurnal_correction_size_only_in_correction_stats():
    # the correction is one TMI column minus the other; its RMS and max
    # are the pipeline's qc_diurnal stats and the qc diurnal command's output
    assert _where(lambda n: isinstance(n, ast.BinOp)
                  and isinstance(n.op, ast.Sub)
                  and _tmi_column(n.left) and _tmi_column(n.right)) \
        == {("qc.py", "_correction_stats")}


def test_gamma_channel_columns_only_in_channel_columns():
    # a ch<digits> header cell: c.startswith("ch") and c[2:].isdigit()
    def predicate(node) -> bool:
        return isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "isdigit" or (
                    node.func.attr == "startswith" and any(
                        isinstance(a, ast.Constant) and a.value == "ch"
                        for a in node.args)))

    assert _where(predicate) == {("io_csv.py", "_channel_columns")}


def test_medians_and_percentiles_only_from_core():
    # np.median and np.percentile import numpy.ma in the calling process
    names = {"median", "percentile", "nanmedian", "nanpercentile", "quantile"}
    assert _where(lambda n: _uses(n, "np", names)
                  or _uses(n, "numpy", names)) == set()


def test_no_module_imports_scipy():
    def scipy_import(node) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "scipy" for a in node.names)
        return (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "scipy")

    assert _where(scipy_import) == set()


def test_no_kd_tree_in_the_package():
    pattern = re.compile(r"scipy\.spatial|cKDTree")
    found = [f"{path.name}:{i}" for path in sorted(SRC.rglob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_bad_input_raises_value_error_alone():
    # the ingest path catches MissingColumnError and the four outcomes
    # exit 3; every other refusal of bad input is a ValueError (exit 2)
    assert _where(lambda n: isinstance(n, ast.ClassDef) and any(
        isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
        for b in n.bases)) == {("errors.py", "<module>")}
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    assert [n.name for n in tree.body if isinstance(n, ast.ClassDef)] == [
        "AerosurveyError", "MissingColumnError", "NeverBelowFloorError",
        "NoFitAvailableError", "NeverSettlesError", "NoIntersectionsError",
        "PipelineStageError"]
    # so no range check picks an error type of its own
    assert list(inspect.signature(check_range).parameters) == [
        "name", "value", "lo", "hi", "above"]
    assert _where(lambda n: "_range_error" in (
        getattr(n, "id", None), getattr(n, "attr", None))) == set()


def test_one_calling_form_per_function():
    def params(fn) -> list[str]:
        return list(inspect.signature(fn).parameters)

    assert params(gridding.to_grayscale) == ["grid"]
    assert params(gridding.compare_grids) == ["a", "b"]
    assert params(qc.fourth_difference) == ["x", "threshold"]
    assert params(suspension.settling_metrics) == ["track", "threshold_deg"]
    for module, name in ((gridding, "Stretch"), (gridding, "MINMAX"),
                         (gridding, "_percentiles"),
                         (core, "config_to_dict"), (core, "config_from_dict"),
                         (core.SurveyLine, "field_values"),
                         (suspension, "_integrate_pendulum")):
        assert not hasattr(module, name), name
    assert "speed_mps" not in emi.BuzzPass.__dataclass_fields__
    assert "Stretch" not in aerosurvey.__all__


def test_one_set_up_and_one_report_writer_for_a_simulated_run():
    assert not hasattr(pipeline, "apply_seed_override")
    assert "_load_survey(" in inspect.getsource(cli._cmd_sim_survey)
    tree = ast.parse(inspect.getsource(cli._cmd_pipeline))
    assert not any(isinstance(n, (ast.Try, ast.ExceptHandler))
                   for n in ast.walk(tree))


def test_no_module_reads_the_environment():
    # so no variable shadows a config field, as AEROSURVEY_SEED did the seed
    assert _where(lambda n: _uses(n, "os", {"environ", "getenv"})) == set()
    assert not hasattr(pipeline, "SEED_ENV_VAR")


def test_no_flag_shadows_the_tie_tolerance(tmp_path, capsys):
    # the tie tolerance is the config file's tie_tolerance alone
    assert cli.main(["pipeline", "--out-dir", str(tmp_path / "run"),
                     "--tie-tolerance", "1"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --tie-tolerance" in capsys.readouterr().err


def test_no_payload_pose_and_no_pgm_reader():
    for name in ("payload_pose", "PayloadPose", "read_pgm"):
        assert name not in aerosurvey.__all__, name
    for module, name in ((suspension, "payload_pose"),
                         (suspension, "PayloadPose"), (suspension, "_rot_x"),
                         (suspension.SuspensionGeometry, "platform_points"),
                         (gridding, "read_pgm")):
        assert not hasattr(module, name), name


def test_no_attitude_reader_and_no_option_only_tests_set():
    def params(fn) -> list[str]:
        return list(inspect.signature(fn).parameters)

    for name in ("read_attitude_csv", "write_attitude_csv"):
        assert name not in aerosurvey.__all__, name
        assert not hasattr(suspension, name), name
    assert params(io_csv.ingest_csv) == ["path", "schema"]
    assert params(gridding.grid_idw) == ["x", "y", "values", "cell_size",
                                         "search_radius", "power"]
    for fn in (io_csv._parse_columns, io_csv._load_floats,
               io_csv._read_columns, io_csv._read_floats):
        assert "labelled" not in params(fn), fn.__name__
    assert not hasattr(core.TimeSeries, "scalar")
    assert not hasattr(gridding.Grid, "cell_centers")
    tree = ast.parse(inspect.getsource(pipeline.write_survey_artifacts))
    assert not any(isinstance(n, ast.Name) and n.id == "isinstance"
                   for n in ast.walk(tree))


# the columns that only the mag, VLF or rad streams have
_SENSOR_ONLY = {"tmi_nT", "alt_m", "inphase_pct", "outphase_pct", "h1_pct",
                "h2_pct", "pT_nT", "k_pct", "u_ppm"}


def test_simulator_streams_take_io_csv_schemas():
    tree = ast.parse((SRC / "suspension.py").read_text(encoding="utf-8"))
    assert {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str)} & _SENSOR_ONLY == set()
    flight = suspension._Flight(suspension.FlightPlan(
        n_lines=1, line_length_m=100.0, tie_lines=0))
    for _ in flight.blocks():
        pass
    for series, kind in ((flight.mag_full, SchemaKind.MAG),
                         (flight.vlf_full, SchemaKind.VLF),
                         (flight.base, SchemaKind.BASE)):
        assert series.fields == _REQUIRED[kind][1:]
    assert flight.rad_full.fields[:5] == _REQUIRED[SchemaKind.RAD][1:]


def test_pipeline_lines_come_from_the_flight_path():
    pipe = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(pipe):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
    assert named & {"line_rows", "split_lines", "_on_line",
                    "segment_at_sensor"} == set()
    flight = next(node for node in ast.walk(ast.parse(
        (SRC / "suspension.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "_Flight")
    assigned = set()
    for node in ast.walk(flight):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        assigned |= {t.attr for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Attribute)}
    assert "lines" in assigned
    assert assigned & {"_labels", "segment_at_sensor"} == set()


def test_segments_are_spans_not_per_step_labels(tmp_path):
    tree = ast.parse((SRC / "suspension.py").read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    assert defined & {"_labelled", "_OFF_LINE", "_TURN", "straight_mask",
                      "split_lines", "pendulum_ring_down"} == set()
    assert "pendulum_ring_down" not in aerosurvey.__all__

    # an object array, a label a cell, is made by simulate_survey alone
    def object_array(node) -> bool:
        return isinstance(node, ast.Call) and any(
            isinstance(a, ast.Name) and a.id == "object"
            for a in [*node.args, *(k.value for k in node.keywords)])

    assert _where(object_array) == {("suspension.py", "simulate_survey")}
    # nor does the path build a label tuple, ("hover",) * n or tuple(...)
    for fn in (suspension._sample_path, suspension._Flight._path):
        body = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(
            (isinstance(n, ast.Name) and n.id == "tuple")
            or (isinstance(n, ast.BinOp) and isinstance(n.left, ast.Tuple))
            for n in ast.walk(body)), fn.__name__

    # write_table codes no label a cell at a time: a column of labels is
    # refused, its (codes, texts) pair taken
    writer = ast.parse((SRC / "io_csv.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, ast.Attribute) and n.attr == "setdefault"
                   for n in ast.walk(writer))
    with pytest.raises(ValueError, match="^column 1"):
        io_csv.write_table(tmp_path / "t", [], [np.zeros(3),
                                                ("L1", "L1", "T1")])
    io_csv.write_table(tmp_path / "t", [], [np.zeros(3), (
        np.array([0, 0, 1]), ("L1", "T1"))])
    assert (tmp_path / "t").read_bytes() == b"0.0,L1\r\n0.0,L1\r\n0.0,T1\r\n"
