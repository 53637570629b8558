"""Scenario ingestion, check orchestration, and deterministic report emission.

Scenarios are JSON documents validated in two stages: a JSON-schema pass for
structure, then a semantic pass that collects *every* problem (unknown
metrics or checks, unparseable component expressions with their JSON path and
column, missing required fields, out-of-domain sample points) before failing.

Reports are fully deterministic: the same scenario and tool version produce
byte-identical report files.  Wall time is kept on the in-memory
:class:`Report` and printed to the console, never serialized.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import jsonschema
import numpy as np

from . import __version__
from . import expr as ex
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


@dataclass(frozen=True)
class Scenario:
    description: str
    spec: MetricSpec
    fields: ScenarioFields
    checks: tuple
    points: tuple  # resolved sample points, each a 4-tuple
    tolerances: Mapping[str, float]
    seed: int
    digest: str  # sha256 over the canonical raw document

    def tolerance_for(self, check: str, default_override: float | None = None) -> float:
        if check in self.tolerances:
            return float(self.tolerances[check])
        if default_override is not None:
            return float(default_override)
        return float(self.tolerances.get("default", DEFAULT_TOLERANCE))


@dataclass
class Report:
    scenario_digest: str
    description: str
    checks: list
    passed: bool
    wall_time_s: float  # console diagnostics only; never serialized

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "tool": {"name": "cliffcheck", "version": __version__},
            "scenario_digest": self.scenario_digest,
            "description": self.description,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _scenario_schema() -> dict:
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
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioValidationError([f"cannot read scenario: {err}"]) from err
    except json.JSONDecodeError as err:
        raise ScenarioValidationError(
            [f"malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"]
        ) from err

    problems = []
    validator = jsonschema.Draft202012Validator(_scenario_schema())
    for error in sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        where = ".".join(str(p) for p in error.absolute_path) or "<root>"
        problems.append(f"{where}: {error.message}")
    if problems:
        raise ScenarioValidationError(problems)

    spec = _resolve_metric(raw["metric"], problems)
    constants = Constants(**raw.get("constants", {}))
    fields = _resolve_fields(raw.get("fields", {}), spec, constants, problems)
    checks = tuple(raw["checks"])
    for name in checks:
        if name not in CHECKS:
            problems.append(
                f"checks: unknown check '{name}' (known: {', '.join(sorted(CHECKS))})"
            )
        elif fields is not None:
            problems.extend(requirement_problems(name, fields))

    tolerances = dict(raw.get("tolerances", {}))
    for name in tolerances:
        if name != "default" and name not in CHECKS:
            problems.append(f"tolerances: unknown check '{name}'")

    seed = int(raw.get("samples", {}).get("random", {}).get("seed", 0))
    points = _resolve_samples(raw.get("samples", {}), spec, problems) if spec else ()
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


def _resolve_metric(block: dict, problems: list) -> MetricSpec | None:
    if "builtin" in block:
        try:
            return build_metric(block["builtin"], block.get("params"))
        except (GeometryError, ExprError) as err:
            problems.append(f"metric: {err}")
            return None
    coords = tuple(block["coords"])
    rows = block["components"]
    parsed = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            src = rows[i][j]
            try:
                parsed[i][j] = ex.parse(src) if isinstance(src, str) else ex.const(src)
            except ExprError as err:
                problems.append(f"metric.components[{i}][{j}]: {err}")
    if any(e is None for row in parsed for e in row):
        return None
    domain = {k: tuple(v) for k, v in block.get("domain", {}).items()}
    if not domain:
        problems.append("metric: inline metrics must declare a domain box")
        return None
    missing = set(coords) - set(domain)
    if missing:
        problems.append(f"metric.domain: missing coordinates {sorted(missing)}")
        return None
    try:
        return MetricSpec(
            coords,
            tuple(tuple(row) for row in parsed),
            dict(block.get("params", {})),
            "inline",
            domain,
        )
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
        comps = {}
        broken = False
        for key, src in block[name].items():
            try:
                e = ex.parse(src) if isinstance(src, str) else ex.const(src)
            except ExprError as err:
                problems.append(f"fields.{name}.components[{key}]: {err}")
                broken = True
                continue
            unknown = ex.free_names(e) - set(spec.coords) - set(spec.params)
            if unknown:
                problems.append(
                    f"fields.{name}.components[{key}]: unknown identifiers {sorted(unknown)}"
                )
                broken = True
                continue
            comps[key] = e
        if broken:
            continue
        try:
            parsed[name] = MultivectorField.from_components(comps, spec.coords)
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


def _resolve_samples(block: dict, spec, problems: list) -> tuple:
    box = spec.domain_box()
    points = []

    def in_box(pt) -> bool:
        return all(box[c][0] <= v <= box[c][1] for c, v in zip(spec.coords, pt))

    for idx, pt in enumerate(block.get("points", [])):
        pt = tuple(float(v) for v in pt)
        if not in_box(pt):
            problems.append(f"samples.points[{idx}]: {pt} outside the domain box {box}")
        points.append(pt)

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
                if not (box[c][0] <= lo <= hi <= box[c][1]):
                    problems.append(
                        f"samples.grid.{c}: range [{lo}, {hi}] outside the domain box {box[c]}"
                    )
                    axes = None
                    break
                axes.append(np.linspace(lo, hi, count))
            if axes is not None:
                mesh = np.meshgrid(*axes, indexing="ij")
                for pt in np.stack([m.ravel() for m in mesh], axis=-1):
                    points.append(tuple(float(v) for v in pt))

    rnd = block.get("random")
    if rnd:
        rng = np.random.default_rng(int(rnd.get("seed", 0)))
        for _ in range(int(rnd["count"])):
            points.append(
                tuple(float(rng.uniform(*box[c])) for c in spec.coords)
            )

    if not points:
        problems.append("samples: no sample points resolved")
    return tuple(points)


def run(
    scenario: Scenario,
    tol_override: float | None = None,
    points_override: int | None = None,
    seed_override: int | None = None,
) -> Report:
    """Execute the scenario's checks in order and assemble the report."""
    points = list(scenario.points)
    if points_override is not None:
        box = scenario.spec.domain_box()
        rng = np.random.default_rng(
            seed_override if seed_override is not None else scenario.seed
        )
        points = [
            tuple(float(rng.uniform(*box[c])) for c in scenario.spec.coords)
            for _ in range(points_override)
        ]

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
