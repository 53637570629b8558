"""Scenario ingestion, check orchestration, and deterministic report emission.

Scenarios are JSON documents validated in two stages: a structural pass, the
in-package walk of ``scenario.schema.json`` (:mod:`cliffcheck.schema`, the
problems ``jsonschema`` would give, without importing it), then a semantic
pass that collects *every* problem (unknown metrics or checks, numbers that
are not finite, unparseable component expressions with their JSON path and
column, missing required fields, out-of-domain sample points) before failing.
A scenario that passes is a read-only :class:`Scenario`.

Reports are fully deterministic: the same scenario and tool version produce
byte-identical report files.  Wall time is kept on the in-memory
:class:`Report` and printed to the console, never serialized.  A report is
written straight from each check's columns (:meth:`Report.to_json`), with
the bytes ``json.dumps(..., indent=2)`` gives for its tree of JSON values;
a caller reads it back with ``json.loads(report.to_json())``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from functools import cache
from importlib import resources
from itertools import chain
from typing import Mapping

import numpy as np

from . import __version__
from . import expr as ex
from . import schema
from .algebra import ReadOnly
from .diffops import MultivectorField
from .errors import (
    CliffcheckError,
    ExprError,
    GeometryError,
    ScenarioValidationError,
)
from .fieldcheck import CHECKS, Constants, ScenarioFields, requirement_problems, run_checks
from .geometry import CATALOG, MetricSpec, build_metric

REPORT_SCHEMA = "cliffcheck-report/v1"
DEFAULT_TOLERANCE = 1e-8
MAX_POINTS = 1_000_000  # sample points a scenario, or --points, may resolve to


class Scenario(ReadOnly):
    """A validated scenario; read-only.

    ``points`` are the resolved sample points, a read-only (n, 4) float
    array, and ``digest`` is the sha256 over the canonical raw document.
    """

    __slots__ = ("description", "spec", "fields", "checks", "points", "tolerances", "seed", "digest")

    def __init__(self, description: str, spec: MetricSpec, fields: ScenarioFields, checks: tuple,
                 points: np.ndarray, tolerances: Mapping[str, float], seed: int, digest: str):
        self._set(description=description, spec=spec, fields=fields, checks=checks, points=points,
                  tolerances=tolerances, seed=seed, digest=digest)

    def tolerance_for(self, check: str, default_override: float | None = None) -> float:
        if check in self.tolerances:
            return float(self.tolerances[check])
        if default_override is not None:
            return float(default_override)
        return float(self.tolerances.get("default", DEFAULT_TOLERANCE))


class Report:
    __slots__ = ("scenario_digest", "description", "checks", "passed", "wall_time_s")

    def __init__(self, scenario_digest: str, description: str, checks: list, passed: bool, wall_time_s: float):
        self.scenario_digest = scenario_digest
        self.description = description
        self.checks = checks
        self.passed = passed
        self.wall_time_s = wall_time_s  # console diagnostics only; never serialized

    def to_json(self) -> str:
        """The report file: ``json.dumps(tree, indent=2)`` and a newline, written from the checks' columns."""
        points = {}  # id of a points array -> its points' texts; run_checks' reports share one
        checks = [_check_text(c, "    ", points) for c in self.checks]
        tree = {
            "schema": REPORT_SCHEMA,
            "tool": {"name": "cliffcheck", "version": __version__},
            "scenario_digest": self.scenario_digest,
            "description": self.description,
            "passed": self.passed,
            "checks": [_SLOT] * len(checks),
        }
        return _template(tree, "") % tuple(checks) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a tree of JSON values.

    With an indent, CPython's json leaves its C encoder for a pure-Python
    generator one; this writer joins strings instead.  It dispatches on the
    exact type, so a value of any other type (a subclass of float, int or
    str too) or a key that is not a str raises TypeError; :data:`_SLOT` is
    written as a NUL, which no other value's text holds.  ``indent`` is the
    indentation of the line ``value`` starts on.
    """
    kind = type(value)
    if kind is float:
        text = _float_repr(value)
        return _NONFINITE.get(text, text)
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        body = sep.join([json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        body = sep.join([f"{_encode_str(key)}: {json_text(item, inner)}" for key, item in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if value is _SLOT:
        return "\0"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_SLOT = object()  # the place of a value in a template (:func:`_template`)


def _template(tree, indent: str) -> str:
    """``json_text(tree, indent)`` as a %-format, a ``%s`` in place of each :data:`_SLOT`."""
    return json_text(tree, indent).replace("%", "%%").replace("\0", "%s")


def _texts(column: np.ndarray) -> list:
    """The JSON text of each value of a 1-D column."""
    values = column.tolist()
    if column.dtype.kind != "f":
        return list(map(json_text, values))
    texts = list(map(_float_repr, values))
    if not np.isfinite(column).all():
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _point_texts(points: np.ndarray, indent: str) -> list:
    """The JSON text of each point, a list whose closing line is indented by ``indent``."""
    template = _template([_SLOT] * 4, indent)
    return [template % values for values in zip(*map(_texts, points.T))]


def _check_text(report, indent: str, written: dict) -> str:
    """The JSON text of ``report``'s dict, each point written from the template of its layout.

    A layout's template is made once; each of its columns becomes text with
    one ``tolist()``, a column of shape (M, ...) as one column per entry.
    ``written`` keeps the texts of each points array, by id, for the next
    report at the same points.
    """
    inner = indent + "    "  # a point's dict, inside the "points" array
    if id(report.points) not in written:
        written[id(report.points)] = _point_texts(report.points, inner + "  ")
    points = written[id(report.points)]
    texts = [None] * len(points)
    for lay, ok in zip(report.layouts, report.verdicts):
        info = {key: np.full(v.shape[1:], _SLOT, dtype=object).tolist() for key, v in lay.info.items()}
        template = _template({"point": _SLOT, "residuals": dict.fromkeys(lay.residuals, _SLOT),
                              "info": info, "error": None, "passed": _SLOT}, inner)
        slots = [points if len(lay.index) == len(points) else [points[i] for i in lay.index.tolist()]]
        slots += [_texts(entry) for column in (*lay.residuals.values(), *lay.info.values(), ok)
                  for entry in column.reshape(len(column), math.prod(column.shape[1:])).T]
        for i, values in zip(lay.index.tolist(), zip(*slots)):
            texts[i] = template % values
    template = _template({"point": _SLOT, "residuals": {}, "info": {}, "error": _SLOT,
                          "passed": False}, inner)
    for i, error in report.errors.items():
        texts[i] = template % (points[i], _encode_str(error))
    return _template({
        "check": report.check,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "max_residual": report.max_residual,
        "notes": list(report.notes),
        "points": [_SLOT] * len(texts),
    }, indent) % tuple(texts)


@cache
def _scenario_schema() -> dict:
    """The scenario schema, read once per process; callers must not change it."""
    with resources.files("cliffcheck.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


def report_schema() -> dict:
    with resources.files("cliffcheck.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def canonical_digest(raw: dict) -> str:
    body = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(body).hexdigest()


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file, reporting every problem found."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioValidationError([f"cannot read scenario: {err}"]) from err
    except UnicodeDecodeError as err:
        raise ScenarioValidationError([f"cannot read scenario: not UTF-8 text ({err})"]) from err
    except json.JSONDecodeError as err:
        raise ScenarioValidationError(
            [f"malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"]
        ) from err
    except ValueError as err:  # the int-to-str digit limit of json's int() call
        raise ScenarioValidationError(
            [f"malformed JSON: an integer literal has more than "
             f"{sys.get_int_max_str_digits()} digits"]
        ) from err
    except RecursionError as err:
        raise ScenarioValidationError(
            ["malformed JSON: arrays or objects nested deeper than the parser's recursion limit"]
        ) from err

    sample_points = _check_structure(raw)
    problems = []
    spec = _resolve_metric(raw["metric"], problems)
    problems += _nonfinite((f"constants.{k}", v) for k, v in raw.get("constants", {}).items())
    constants = Constants(**raw.get("constants", {}))
    fields = _resolve_fields(raw.get("fields", {}), spec, constants, problems)
    checks = tuple(raw["checks"])
    # a field given but not built has its problems already; no check repeats them
    unparsed = {n for n in raw.get("fields", {}) if fields is not None and getattr(fields, n) is None}
    for name in checks:
        if name not in CHECKS:
            problems.append(
                f"checks: unknown check '{name}' (known: {', '.join(sorted(CHECKS))})"
            )
        elif fields is not None:
            problems.extend(requirement_problems(name, fields, unparsed))

    tolerances = dict(raw.get("tolerances", {}))
    for name, value in tolerances.items():
        if name != "default" and name not in CHECKS:
            problems.append(f"tolerances: unknown check '{name}'")
        problems += _nonfinite([(f"tolerances.{name}", value)])

    samples = raw["samples"]
    seed = int(samples.get("random", {}).get("seed", 0))
    count = _sample_count(samples)
    points = np.empty((0, 4))
    if count > MAX_POINTS:  # found before any point of the grid or random block is made
        problems.append(f"samples: {count} sample points, more than the limit of {MAX_POINTS}")
    elif spec:
        points = _resolve_samples(samples, sample_points, spec, problems)
    if problems:
        raise ScenarioValidationError(problems)

    return Scenario(
        description=raw.get("description", ""),
        spec=spec,
        fields=fields,
        checks=checks,
        points=points,
        tolerances=tolerances,
        seed=seed,
        digest=canonical_digest(raw),
    )


def _check_structure(raw) -> np.ndarray:
    """Check ``raw`` against the scenario schema; return ``samples.points`` as an (n, 4) array.

    The schema walks a document one value at a time, so a well-formed points
    array (a list of 4-element lists of int and float; the schema's "number"
    excludes bool) is checked here as one array and left out of the walk.
    Any other points array goes through the schema with the rest, so the
    problems are the schema's either way.  An integer too large for a float
    is a problem too, as is a string or key that is not valid Unicode.
    Raises ScenarioValidationError listing every problem.
    """
    samples = raw.get("samples") if type(raw) is dict else None
    points = samples.get("points") if type(samples) is dict else None
    document = raw
    if _is_point_array(points):
        document = {**raw, "samples": {**samples, "points": []}}
    problems = schema.problems(document, _scenario_schema())
    if not problems:
        try:
            array = np.array(points or [], dtype=float).reshape(-1, 4)
        except OverflowError:
            document = raw  # name the point values that overflow too
        problems = _unrepresentable(document)
    if problems:
        raise ScenarioValidationError(problems)
    return array


def _is_point_array(points) -> bool:
    """Whether ``points`` is a list of rows of four values, each an int or a float."""
    return (type(points) is list and set(map(type, points)) <= {list}
            and set(map(len, points)) <= {4}
            and set(map(type, chain.from_iterable(points))) <= {int, float})


_SURROGATE = re.compile("[\ud800-\udfff]")


def _unrepresentable(value, path=()) -> list:
    """A problem for each integer in ``value`` too large for a float, and for each string
    or key with a lone surrogate (JSON's ``\\ud800``), which no UTF-8 output can hold."""
    kind = type(value)
    if kind is int:
        try:
            float(value)
        except OverflowError:
            return [f"{schema.where(path)}: integer too large for a float"]
        return []
    if kind is str:
        return [f"{schema.where(path)}: string is not valid Unicode"] if _SURROGATE.search(value) else []
    problems = [f"{schema.where(path)}: key {ascii(key)} is not valid Unicode"
                for key in (value if kind is dict else ()) if _SURROGATE.search(key)]
    items = value.items() if kind is dict else enumerate(value) if kind is list else ()
    return problems + [problem for key, item in items for problem in _unrepresentable(item, (*path, key))]


def _nonfinite(items) -> list:
    """A problem for each ``(path, value)`` whose value is a float that is not finite."""
    return [f"{path}: {value} is not a finite number" for path, value in items
            if type(value) is float and not math.isfinite(value)]


def _resolve_metric(block: dict, problems: list) -> MetricSpec | None:
    found = len(problems)
    problems += _nonfinite((f"metric.params.{k}", v) for k, v in block.get("params", {}).items())
    if "builtin" in block:
        try:
            spec = build_metric(block["builtin"], block.get("params"))
        except (GeometryError, ExprError) as err:
            if len(problems) == found:  # else a parameter is not finite, and the error may name it again
                problems.append(f"metric: {err}")
            return None
        return spec if len(problems) == found else None
    rows = block["components"]
    problems += _nonfinite((f"metric.components[{i}][{j}]", src)
                           for i, row in enumerate(rows) for j, src in enumerate(row))
    for i, row in enumerate(rows):
        for j, src in enumerate(row):
            try:
                ex.tree(src)
            except ExprError as err:
                problems.append(f"metric.components[{i}][{j}]: {err}")
    if len(problems) > found:
        return None
    domain = {k: tuple(v) for k, v in block.get("domain", {}).items()}
    if not domain:
        problems.append("metric: inline metrics must declare a domain box")
        return None
    found = len(problems)
    missing = set(block["coords"]) - set(domain)
    extra = set(domain) - set(block["coords"])
    if missing:
        problems.append(f"metric.domain: missing coordinates {sorted(missing)}")
    if extra:
        problems.append(f"metric.domain: unknown coordinates {sorted(extra)}")
    for c, (lo, hi) in domain.items():  # random points need a finite lo <= hi and a finite hi - lo
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems.append(f"metric.domain.{c}: [{lo}, {hi}] has a bound that is not a finite number")
        elif lo > hi:
            problems.append(f"metric.domain.{c}: lower bound {lo} is above upper bound {hi}")
        elif not math.isfinite(float(hi) - float(lo)):
            problems.append(f"metric.domain.{c}: the width of [{lo}, {hi}] overflows a float")
    if len(problems) > found:
        return None
    try:
        return MetricSpec.from_strings(block["coords"], rows, block.get("params"), "inline", domain)
    except GeometryError as err:
        problems.append(f"metric: {err}")
        return None


def _resolve_fields(block: dict, spec, constants, problems: list):
    if spec is None:
        return None
    parsed = {}
    for name in ("K", "A", "S", "V"):
        if name not in block:
            continue
        found = len(problems)
        problems += _nonfinite((f"fields.{name}.components[{key}]", src) for key, src in block[name].items())
        for key, src in block[name].items():
            try:
                unknown = ex.free_names(ex.tree(src)) - set(spec.coords) - set(spec.params)
            except ExprError as err:
                problems.append(f"fields.{name}.components[{key}]: {err}")
                continue
            if unknown:
                problems.append(
                    f"fields.{name}.components[{key}]: unknown identifiers {sorted(unknown)}"
                )
        if len(problems) > found:
            continue
        try:
            parsed[name] = MultivectorField.from_components(block[name], spec.coords)
        except CliffcheckError as err:
            problems.append(f"fields.{name}: {err}")
    try:
        return ScenarioFields(
            K=parsed.get("K"),
            A=parsed.get("A"),
            S=parsed.get("S"),
            V=parsed.get("V"),
            constants=constants,
        )
    except CliffcheckError as err:
        problems.append(f"fields: {err}")
        return None


def _sample_count(block: dict) -> int:
    """The sample points ``block`` asks for: its points, its grid's and its random ones."""
    grid = block.get("grid")
    return (len(block.get("points", ()))
            + (math.prod(axis["count"] for axis in grid.values()) if grid else 0)
            + block.get("random", {}).get("count", 0))


def random_points(spec: MetricSpec, count: int, seed: int) -> np.ndarray:
    """``count`` points drawn uniformly from ``spec``'s domain box, as a (count, 4) float array.

    One draw of (count, 4) values: point after point, coordinate after
    coordinate, the same values as one ``rng.uniform(lo, hi)`` call each.
    """
    box = spec.domain_box()
    bounds = np.array([box[c] for c in spec.coords], dtype=float)
    return np.random.default_rng(seed).uniform(bounds[:, 0], bounds[:, 1], size=(count, len(bounds)))


def _resolve_samples(block: dict, points: np.ndarray, spec, problems: list) -> np.ndarray:
    """``block``'s points (``points``), grid and random draw, checked and joined in one read-only array."""
    box = spec.domain_box()
    finite = np.isfinite(points)
    problems += _nonfinite((f"samples.points[{i}][{j}]", points[i, j].item())
                           for i, j in np.argwhere(~finite).tolist())
    lo, hi = zip(*(_float_bounds(*box[c]) for c in spec.coords))
    outside = finite.all(axis=1) & ~((points >= lo) & (points <= hi)).all(axis=1)
    for idx in np.flatnonzero(outside).tolist():
        problems.append(f"samples.points[{idx}]: {tuple(points[idx].tolist())} outside the domain box {box}")
    parts = [points]

    grid = block.get("grid")
    if grid:
        missing = set(spec.coords) - set(grid)
        extra = set(grid) - set(spec.coords)
        if missing or extra:
            if missing:
                problems.append(f"samples.grid: missing coordinates {sorted(missing)}")
            if extra:
                problems.append(f"samples.grid: unknown coordinates {sorted(extra)}")
        else:
            axes = []
            for c in spec.coords:
                lo, hi, count = grid[c]["min"], grid[c]["max"], grid[c]["count"]
                nonfinite = _nonfinite([(f"samples.grid.{c}.min", lo), (f"samples.grid.{c}.max", hi)])
                if nonfinite:
                    problems += nonfinite
                elif lo > hi:
                    problems.append(f"samples.grid.{c}: lower bound {lo} is above upper bound {hi}")
                elif not box[c][0] <= lo <= hi <= box[c][1]:
                    problems.append(f"samples.grid.{c}: range [{lo}, {hi}] outside the domain box {box[c]}")
                else:
                    axes.append(np.linspace(lo, hi, int(count)))  # the schema's integer may be 2.0
            if len(axes) == len(spec.coords):
                mesh = np.meshgrid(*axes, indexing="ij")
                parts.append(np.stack([m.ravel() for m in mesh], axis=-1))

    rnd = block.get("random")
    if rnd:
        parts.append(random_points(spec, int(rnd["count"]), int(rnd.get("seed", 0))))

    resolved = np.concatenate(parts)
    if not len(resolved):
        problems.append("samples: no sample points resolved")
    resolved.flags.writeable = False
    return resolved


def _float_bounds(lo, hi) -> tuple:
    """Float bounds that a float lies within exactly when it lies within ``[lo, hi]``.

    An int bound no float holds is rounded inward, so the test keeps
    Python's exact comparison of a float with an int.
    """
    flo, fhi = float(lo), float(hi)
    return (flo if flo >= lo else math.nextafter(flo, math.inf),
            fhi if fhi <= hi else math.nextafter(fhi, -math.inf))


def run(
    scenario: Scenario,
    tol_override: float | None = None,
    points_override: int | None = None,
    seed_override: int | None = None,
) -> Report:
    """Execute the scenario's checks in order and assemble the report."""
    points = scenario.points
    if points_override is not None:
        seed = seed_override if seed_override is not None else scenario.seed
        points = random_points(scenario.spec, points_override, seed)

    start = time.perf_counter()
    tols = [scenario.tolerance_for(name, tol_override) for name in scenario.checks]
    reports = run_checks(
        scenario.spec, scenario.fields, scenario.checks, points, tols, scenario.seed
    )
    wall = time.perf_counter() - start
    passed = all(r.passed for r in reports)
    return Report(scenario.digest, scenario.description, reports, passed, wall)


def list_builtins() -> str:
    """Stable human-readable catalog of builtin metrics and their Killing forms."""
    lines = []
    for key in sorted(CATALOG):
        entry = CATALOG[key]
        params = ",".join(sorted(entry.param_doc)) or "-"
        names = [kf.name for kf in entry.killing]
        killing = f"{len(names)} generators ({', '.join(names)})" if len(names) > 2 else ", ".join(names)
        lines.append(
            f"{key} params: {params}; coords: {','.join(entry.coords)}; killing: {killing}"
        )
        lines.append(f"  {entry.description}")
        for pname, doc in sorted(entry.param_doc.items()):
            lines.append(f"  param {pname}: {doc}")
        box = ", ".join(f"{c} in [{lo}, {hi}]" for c, (lo, hi) in entry.domain.items())
        lines.append(f"  domain: {box}")
        for kf in entry.killing:
            comps = ", ".join(f"{c}: {src}" for c, src in kf.components.items())
            lines.append(f"  killing {kf.name}: {{{comps}}}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
