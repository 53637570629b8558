"""Property checks of scenario and report I/O against json and the full schema walk.

The report writer must give ``json.dumps(value, indent=2)``'s bytes for any
tree of JSON values, and a report written from its checks' columns the
bytes of ``json.dumps`` of its dict tree.  ``load_scenario`` checks a well-formed
``samples.points`` as one array, outside the schema walk; for any document
it must give the problems of the full walk over the whole document, and for
an accepted one the same points and digest.
"""

import hashlib
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcheck.errors import ScenarioValidationError
from cliffcheck.fieldcheck import Layout, ResidualReport
from cliffcheck.runner import Report, _scenario_schema, json_text, load_scenario

# -- the report writer --------------------------------------------------------------

edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-7,
])
json_strings = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from([
    "", '"', "\\", '"quoted" \\ back', "\x00\x1f\x7f", "\n\t\r\b\f", "é ß 日本 \U0001f600",
    "\ud800", "\udfff lone", "😀",
])
json_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=True, allow_infinity=True) | edge_floats | json_strings
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(edge_floats | st.floats(), max_size=5)
    | st.dictionaries(json_strings, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_trees)
@example({"point": [0.0, -0.0, math.nan, -math.inf], "residuals": {}, "info": {"k": []}})
@example([[math.inf, 1.0], [1.0, math.nan], ["nan", "inf"]])
def test_writer_gives_json_dumps_bytes(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_writer_writes_a_tuple_as_a_list():
    assert json_text({"point": (1.0, -0.0)}) == json.dumps({"point": [1.0, -0.0]}, indent=2)


@pytest.mark.parametrize("value", [
    np.float64(1.5), np.int64(2), {1: "int key"}, {None: 1}, {"a": {1.5}}, b"bytes",
    [object()], {"x": np.arange(3)},
])
def test_writer_raises_type_error_rather_than_write_other_bytes(value):
    with pytest.raises(TypeError):
        json_text(value)


# -- reports written from columns ------------------------------------------------------

column_floats = edge_floats | st.sampled_from([1e308, -1e308]) | st.floats()
column_keys = json_strings | st.sampled_from(["quadratic_root_0", "100%", "%s", "%%"])
ROOT_KEYS = ("c", "discriminant", "outcome", "roots", "current", "B", "self_consistency_residual")


def floats_column(draw, shape):
    return np.array(draw(st.lists(column_floats, min_size=math.prod(shape), max_size=math.prod(shape))),
                    dtype=float).reshape(shape)


@st.composite
def layout_columns(draw, count):
    """Residual and info columns of ``count`` points: floats, vectors of 0-4 floats and text."""
    residuals = {key: floats_column(draw, (count,))
                 for key in draw(st.lists(column_keys, max_size=3, unique=True))}
    info = {}
    for key in draw(st.lists(column_keys, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["float", "vector", "text"]))
        if kind == "text":
            info[key] = np.array(draw(st.lists(st.sampled_from(["two-roots", "linear", "é\"x"]),
                                               min_size=count, max_size=count)), dtype=str)
        else:
            info[key] = floats_column(draw, (count,) + ((draw(st.sampled_from([0, 1, 2, 4])),)
                                                        if kind == "vector" else ()))
    return residuals, info


def root_columns(draw, count, roots):
    """structure_current's columns at ``count`` points with ``roots`` roots each."""
    residuals = {"sandwich_grade": floats_column(draw, (count,))}
    info = {key: floats_column(draw, (count,)) for key in ROOT_KEYS}
    info["outcome"] = np.full(count, ("no-real-f", "linear", "two-roots")[roots])
    info["roots"] = floats_column(draw, (count, roots))
    info["current"], info["B"] = floats_column(draw, (count, 4)), floats_column(draw, (count, 4))
    for k in range(roots):
        residuals[f"quadratic_root_{k}"] = floats_column(draw, (count,))
        info[f"current_match_minus_fB_{k}"] = floats_column(draw, (count,))
        info[f"current_match_plus_fB_{k}"] = floats_column(draw, (count,))
    return residuals, info


@st.composite
def check_reports(draw, points):
    """A ResidualReport at ``points``: each point an error or in one of up to three layouts."""
    roots = draw(st.booleans())  # the three layouts are structure_current's 0, 1 and 2 roots
    owner = draw(st.lists(st.integers(-1, 2), min_size=len(points), max_size=len(points)))
    errors = {i: draw(json_strings) for i, o in enumerate(owner) if o < 0}
    layouts = []
    for layout in range(3):
        index = np.array([i for i, o in enumerate(owner) if o == layout], dtype=int)
        if len(index):
            count = len(index)
            columns = root_columns(draw, count, layout) if roots else draw(layout_columns(count))
            layouts.append(Layout(index, *columns))
    own = draw(st.booleans())  # run_checks shares one points array; a report may hold its own
    return ResidualReport(draw(column_keys), draw(column_floats), points.copy() if own else points,
                          layouts, errors, tuple(draw(st.lists(json_strings, max_size=2))))


@st.composite
def reports(draw):
    count = draw(st.integers(0, 6))
    points = floats_column(draw, (count, 4))
    checks = draw(st.lists(check_reports(points), max_size=4))
    return Report(draw(json_strings), draw(json_strings), checks, all(c.passed for c in checks), 0.0)


@settings(max_examples=300, deadline=None)
@given(reports())
def test_report_from_columns_gives_json_dumps_bytes_of_its_dict_tree(report):
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


# -- samples.points outside the schema walk -------------------------------------------

VALIDATOR = jsonschema.Draft202012Validator(_scenario_schema())
MINKOWSKI_BOX = {c: (-3.0, 3.0) for c in ("t", "x", "y", "z")}


def schema_problems(raw) -> list:
    """The problems of the schema walk over the whole document."""
    errors = sorted(VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path))
    return [f"{'.'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
            for e in errors]


def sample_problems(points) -> list:
    """The problems of a point list the schema accepts, tested one value at a time."""
    problems = [] if points else ["samples: no sample points resolved"]
    for idx, pt in enumerate(points):
        pt = tuple(float(v) for v in pt)
        if not all(lo <= v <= hi for (lo, hi), v in zip(MINKOWSKI_BOX.values(), pt)):
            problems.append(f"samples.points[{idx}]: {pt} outside the domain box {MINKOWSKI_BOX}")
    return problems


numbers = (
    st.floats(-4.0, 4.0) | st.integers(-4, 4) | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 3.0, -3.0, 5e-324])
)
good_rows = st.lists(numbers, min_size=4, max_size=4)
inside_rows = st.lists(st.floats(-3.0, 3.0) | st.integers(-3, 3), min_size=4, max_size=4)
bad_values = st.booleans() | st.none() | st.text(max_size=3) | st.lists(numbers, max_size=2)
bad_rows = (
    st.lists(numbers, max_size=6).filter(lambda row: len(row) != 4)
    | st.lists(numbers | bad_values, min_size=4, max_size=4)
    | numbers | bad_values | st.dictionaries(st.text(max_size=2), numbers, max_size=2)
)
point_arrays = (
    st.lists(inside_rows, min_size=1, max_size=8)
    | st.lists(good_rows, max_size=8)
    | st.lists(good_rows | bad_rows, max_size=8)
    | numbers | st.text(max_size=3) | st.none() | st.booleans()
    | st.dictionaries(st.text(max_size=2), good_rows, max_size=2)
)
other_faults = st.lists(st.sampled_from([
    ("samples", "extra", 1), ("<root>", "extra", True), ("<root>", "checks", []),
    ("<root>", "description", 7), ("samples", "random", {"count": 0}),
    ("metric", "params", {"c": [1]}),
]), max_size=2, unique_by=lambda fault: fault[:2])


@settings(max_examples=300, deadline=None)
@given(point_arrays, other_faults, st.booleans())
@example([[0, 1, 2, 3], [0.5, True, 0, 0]], [], True)
@example([[0, 1, 2, 3], [0.5, 1.0, 0, 0, 0]], [("samples", "extra", 1)], True)
@example([[0, 1, 2, 3], [math.nan, 0, 0, 0], [9, 0, 0, 0]], [], True)
@example([[0.0, 0.0, 0.0, 0.0]], [("<root>", "checks", [])], True)
@example(None, [], False)
def test_load_scenario_gives_the_full_schema_walk(tmp_path_factory, points, faults, with_points):
    raw = {
        "metric": {"builtin": "minkowski"},
        "fields": {"K": {"t": "1"}},
        "samples": {"points": points} if with_points else {"grid": {
            c: {"min": 0.0, "max": 1.0, "count": 1} for c in MINKOWSKI_BOX}},
        "checks": ["killing"],
    }
    for where, key, value in faults:
        (raw if where == "<root>" else raw[where])[key] = value
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    text = json.dumps(raw)
    path.write_text(text)
    raw = json.loads(text)  # the document as the loader reads it

    expected = schema_problems(raw)
    if not expected and with_points:
        expected = sample_problems(points)
    if expected:
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert err.value.problems == expected
        return
    scenario = load_scenario(path)
    want = [tuple(float(v) for v in pt) for pt in points] if with_points else [(0.0,) * 4]
    assert [tuple(map(float.hex, pt)) for pt in scenario.points] == [
        tuple(map(float.hex, pt)) for pt in want]
    body = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    assert scenario.digest == "sha256:" + hashlib.sha256(body).hexdigest()
