"""Property checks of scenario and report I/O against json and jsonschema.

The report writer must give ``json.dumps(value, indent=2)``'s bytes for any
tree of JSON values, and a report written from its checks' columns the
bytes of ``json.dumps`` of its dict tree.  ``load_scenario`` checks a well-formed
``samples.points`` as one array, outside the schema walk; for any document
it must give the problems of the full walk over the whole document, and for
an accepted one the same points and digest.  The in-package schema walk
(:mod:`cliffcheck.schema`) must give ``jsonschema``'s problem lists for
whole scenario documents.  Any expression source, in an inline metric entry
and a field component, and any whole document must end ``verify`` in exit
code 0, 1 or 2, with a report that validates against its schema.
"""

import contextlib
import hashlib
import io
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcheck import cli, schema
from cliffcheck.errors import ScenarioValidationError
from cliffcheck.fieldcheck import CHECKS, Layout, ResidualReport
from cliffcheck.runner import (
    Report,
    _check_structure,
    _scenario_schema,
    json_text,
    load_scenario,
    report_schema,
)

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


def schema_problems(raw, validator=VALIDATOR) -> list:
    """The problems of jsonschema's walk over the whole document."""
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
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


# -- expression sources in an inline metric and a field --------------------------------

source_tokens = st.sampled_from([
    "t", "x", "y", "z", "M", "w", "0", "1", "2.5", ".5", "3e", "1e308", "+", "-", "*", "/",
    "^", "(", ")", ",", " ", "sin(", "sqrt(", "log(", "pow(", "exp(", "foo(",
])
expression_sources = st.lists(source_tokens, max_size=16).map("".join) | st.text(max_size=8)


def inline_scenario(src: str) -> dict:
    """Flat space in an inline chart with ``src`` as g_xx, and as the x component of K."""
    rows = [["1", "0", "0", "0"], ["0", src, "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    return {
        "metric": {"coords": list(MINKOWSKI_BOX), "components": rows, "params": {"M": 1.0},
                   "domain": {c: [0.5, 1.5] for c in MINKOWSKI_BOX}},
        "fields": {"K": {"t": "1", "x": src}},
        "samples": {"points": [[1.0, 1.0, 1.0, 1.0], [0.5, 1.5, 0.75, 1.25]]},
        "checks": ["killing", "killing_identities"],
    }


def load_problems(path) -> list:
    try:
        load_scenario(path)
    except ScenarioValidationError as err:
        return err.problems
    return []


@settings(max_examples=200, deadline=None)
@given(expression_sources)
@example("-1")  # flat space: both checks pass
@example("-(1+x")  # a ParseError with its column
@example("-w")  # an unknown identifier
@example("1/(x-1)")  # a point error at x = 1
@example("-x^2")  # not Killing
@example("(" * 400 + "x" + ")" * 400)  # nested past the recursion limit: a ParseError
@example("-" * 1000 + "1")
def test_expression_sources_end_in_an_exit_code_and_load_alike(tmp_path_factory, src):
    path = tmp_path_factory.mktemp("source") / "scenario.json"
    path.write_text(json.dumps(inline_scenario(src)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", str(path)]) in (0, 1, 2)
    assert load_problems(path) == load_problems(path)


# -- whole scenario documents ------------------------------------------------------------

json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
    | st.sampled_from([0, -1, 0.0, -0.0, 1e-9, -1e-9, 2.0, 2.5, 1e-300, "1", "t"])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
key_names = st.sampled_from(["t", "x", "y", "z", "r", "points", "builtin", "coords", "extra"]) | st.text(max_size=3)
counts = st.sampled_from([0, 1, 2, 2.0, 2.5, -1, True, "2", None, 1e300]) | json_scalars
tolerance_values = st.sampled_from([0, 0.0, -0.0, -1e-9, -1, 1e-8, 1, True, False]) | json_scalars
component_sources = st.sampled_from(["1", "t", "x", "1-2*M/r", "sin(", ""]) | json_scalars


@st.composite
def objects(draw, fields: dict):
    """Most of ``fields`` (key -> strategy of its value), maybe extra keys; now and then any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    out = {key: draw(value) for key, value in fields.items() if draw(st.integers(0, 3))}
    for key in draw(st.lists(key_names, max_size=2)):
        out[key] = draw(json_values)
    return out


def merged(pair):
    """Two metric blocks as one: a document under both ``oneOf`` branches, or neither."""
    first, second = pair
    return {**first, **second} if type(first) is dict and type(second) is dict else first


components = st.dictionaries(st.sampled_from(["t", "x", "1", "t^x"]) | st.text(max_size=2),
                             component_sources, max_size=3) | json_values
builtin_metrics = objects({
    "builtin": st.sampled_from(["minkowski", "schwarzschild", "kerr"]) | json_scalars,
    "params": st.dictionaries(key_names, component_sources, max_size=2) | json_values,
})
inline_metrics = objects({
    "coords": st.lists(key_names, min_size=3, max_size=5) | json_values,
    "components": st.lists(st.lists(component_sources, min_size=3, max_size=5), min_size=3, max_size=5)
    | json_values,
    "params": st.dictionaries(key_names, json_scalars, max_size=2) | json_values,
    "domain": st.dictionaries(key_names, st.lists(json_scalars, min_size=1, max_size=3), max_size=3)
    | json_values,
})
grid_axes = objects({"min": json_scalars, "max": json_scalars, "count": counts})
scenario_documents = objects({
    "description": st.text(max_size=4) | json_scalars,
    "metric": builtin_metrics | inline_metrics | st.tuples(builtin_metrics, inline_metrics).map(merged),
    "constants": objects({"e": json_scalars, "m": json_scalars, "coupling": json_scalars}),
    "fields": objects({"K": components, "A": components, "S": components, "V": components}),
    "samples": objects({
        "points": point_arrays,
        "grid": st.dictionaries(key_names, grid_axes, max_size=2) | json_values,
        "random": objects({"count": counts, "seed": counts}),
    }),
    "checks": st.lists(st.sampled_from(sorted(CHECKS)) | json_scalars, max_size=3) | json_values,
    "tolerances": st.dictionaries(st.sampled_from(["default", "killing"]) | st.text(max_size=2),
                                  tolerance_values, max_size=3) | json_values,
})

DEEP_SOURCE = "+".join(["1"] * 2000)  # a tree of 2000 levels: a ParseError, not a RecursionError
field_sources = expression_sources | st.just(DEEP_SOURCE)
good_sources = st.sampled_from(["1", "x", "-t", "2*t", "x*t", "sin(x)", "1/(x-1)", "exp(700)*exp(700)*t"]) | st.floats(-2, 2)
FIELD_KEYS = {"A": ["t", "x"], "S": ["1"], "V": ["t", "x"]}


@st.composite
def runnable_documents(draw):
    """Documents the schema accepts, on the minkowski builtin or an inline flat chart; most of them run."""
    inline = draw(st.booleans())
    raw = inline_scenario("-1") if inline else {
        "metric": {"builtin": "minkowski"}, "samples": {"points": [[0.0, 0.5, -1.0, 2.0]]}}
    fields = {"K": {"t": draw(good_sources)}}
    for name in draw(st.lists(st.sampled_from(sorted(FIELD_KEYS)), unique=True)):
        fields[name] = {draw(st.sampled_from(FIELD_KEYS[name])): draw(good_sources)}
    if draw(st.booleans()):  # one source, in the metric or in K, is any text or the deep tree
        src = draw(field_sources)
        if inline and draw(st.booleans()):
            raw["metric"]["components"][1][1] = src
        else:
            fields["K"]["x"] = src
    raw["fields"] = fields
    raw["samples"] = draw(st.sampled_from([
        raw["samples"],
        {"grid": {c: {"min": 0.5, "max": 1.5, "count": n} for c, n in zip(MINKOWSKI_BOX, (2, 1, 1, 2.0))}},
        {"random": {"count": 3, "seed": 5}},
    ]))
    raw["checks"] = draw(st.lists(st.sampled_from(sorted(CHECKS)), min_size=1, max_size=3))
    raw["tolerances"] = draw(st.dictionaries(
        st.sampled_from(["default", *sorted(CHECKS)]), st.sampled_from([1e-8, 1e-12, 1.0, 1e300, math.inf]),
        max_size=2))
    raw["constants"] = draw(st.fixed_dictionaries({}, optional={"coupling": st.floats(-2, 2), "e": st.just(0.5)}))
    return raw


@settings(max_examples=400, deadline=None)
@given(scenario_documents | runnable_documents())
@example({"metric": {"builtin": "minkowski", "coords": ["t"] * 4, "components": [["1"] * 4] * 4},
          "samples": {}, "checks": []})
@example({"metric": {}, "fields": {"K": {}}, "samples": {"random": {"count": 2.5, "seed": -1}},
          "checks": ["killing"], "tolerances": {"default": 0, "killing": -1e-9}, "x": 1, "y": True})
@example({"metric": {"builtin": True}, "constants": {"e": True, "q": 1},
          "samples": {"grid": {"t": {"min": 0, "max": 1, "count": 0}}}, "checks": "killing"})
@example({"metric": [], "samples": {"points": [[1, 2, 3, 4, 5], [1], []]}, "checks": ["killing"]})
@example([])
def test_schema_walk_gives_the_problems_of_jsonschema(raw):
    expected = schema_problems(raw)
    assert schema.problems(raw, _scenario_schema()) == expected
    if expected:  # the structural pass, with its points fast path, reports them as they are
        with pytest.raises(ScenarioValidationError) as err:
            _check_structure(raw)
        assert err.value.problems == expected


OVERLAPPING_SCHEMA = {
    "type": "object",
    "properties": {
        "one": {"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]},
        "ref": {"$ref": "#/$defs/a~1b"},
    },
    "additionalProperties": {"type": "array", "items": {"$ref": "#/$defs/a~1b"}, "maxItems": 1},
    "minProperties": 2,
    "$defs": {"a/b": {"type": ["integer", "string"], "exclusiveMinimum": 0}},
}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["one", "ref", "x", "y"]), json_values, max_size=4) | json_values)
@example({"one": 1, "ref": 2.0})  # valid under each of the three
@example({"one": "x", "x": [0, "a", True]})
def test_schema_walk_gives_jsonschema_texts_beyond_the_scenario_schema(raw):
    validator = jsonschema.Draft202012Validator(OVERLAPPING_SCHEMA)
    assert schema.problems(raw, OVERLAPPING_SCHEMA) == schema_problems(raw, validator)


def test_schema_walk_rejects_a_keyword_it_does_not_know():
    with pytest.raises(ValueError, match="'pattern' is not supported"):
        schema.problems("x", {"type": "string", "pattern": "^x$"})


REPORT_VALIDATOR = jsonschema.Draft202012Validator(report_schema())


@settings(max_examples=200, deadline=None)
@given(runnable_documents() | scenario_documents)
@example(dict(inline_scenario("1"), fields={"K": {"t": DEEP_SOURCE}}))
@example(dict(inline_scenario("-1"), fields={"K": {"x": "1/(x-1)"}}, checks=["killing", "einstein"]))
def test_whole_documents_end_in_an_exit_code_with_a_valid_report(tmp_path_factory, raw):
    folder = tmp_path_factory.mktemp("document")
    path, out = folder / "scenario.json", folder / "report.json"
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["verify", str(path), "--report", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.exists():
        assert code in (0, 1)
        REPORT_VALIDATOR.validate(json.loads(out.read_text()))
