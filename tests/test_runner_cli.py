import contextlib
import ctypes
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cliffcheck import cli, fieldcheck
from cliffcheck import expr as ex
from cliffcheck.errors import ScenarioValidationError
from cliffcheck.fieldcheck import CHECKS
from cliffcheck.geometry import build_metric
from cliffcheck.runner import (
    MAX_POINTS,
    canonical_digest,
    list_builtins,
    load_scenario,
    random_points,
    report_schema,
    run,
)
from cliffcheck.selftest import ALGEBRA_LAWS, TRIALS_PER_BLOCK

import oracles
from test_selftest import DIFFOPS_MAXIMA

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

POSITIVE = sorted(p for p in SCENARIOS.glob("*.json"))
NEGATIVE = sorted(p for p in (SCENARIOS / "negative").glob("*.json"))


def write_scenario(tmp_path, body) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(body))
    return path


BASE = {
    "metric": {"builtin": "minkowski"},
    "fields": {"K": {"t": "1"}},
    "samples": {"points": [[0.0, 0.0, 0.0, 0.0]]},
    "checks": ["killing"],
}


# -- loading and validation -----------------------------------------------------


def test_load_bundled_scenario():
    scenario = load_scenario(SCENARIOS / "schwarzschild_killing.json")
    assert scenario.spec.name == "schwarzschild"
    assert scenario.checks == ("killing", "killing_identities", "superconducting_current")
    assert len(scenario.points) == 8
    assert scenario.digest.startswith("sha256:")


def test_unknown_check_and_missing_field_collected_together(tmp_path):
    body = dict(BASE)
    body["fields"] = {"V": {"t": "1"}}
    body["checks"] = ["killing_identities", "no_such_check"]
    path = write_scenario(tmp_path, body)
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    text = str(err.value)
    assert "check killing_identities requires field K" in text
    assert "unknown check 'no_such_check'" in text


def test_malformed_expression_reports_path_and_column(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "2*"}}
    path = write_scenario(tmp_path, body)
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "fields.K.components[t]" in str(err.value)
    assert "column 3" in str(err.value)


def test_unknown_metric_rejected(tmp_path):
    body = dict(BASE)
    body["metric"] = {"builtin": "kerr"}
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert "unknown builtin metric" in str(err.value)


def test_out_of_domain_point_rejected(tmp_path):
    body = dict(BASE)
    body["metric"] = {"builtin": "schwarzschild", "params": {"M": 1.0}}
    body["fields"] = {"K": {"t": "1-2*M/r"}}
    body["samples"] = {"points": [[0.0, 1.0, 1.0, 1.0]]}  # inside the horizon
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert "outside the domain box" in str(err.value)


def test_unknown_field_identifier_rejected(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "1+Q"}}
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert "unknown identifiers" in str(err.value)


def test_structural_schema_errors_have_paths(tmp_path):
    body = {"metric": {"builtin": "minkowski"}, "samples": {}, "checks": []}
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    text = str(err.value)
    assert "samples" in text
    assert "checks" in text


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"metric": ')
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "malformed JSON" in str(err.value)


def test_inline_metric_requires_domain(tmp_path):
    body = dict(BASE)
    body["metric"] = {
        "coords": ["t", "x", "y", "z"],
        "components": [
            ["1", "0", "0", "0"],
            ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"],
        ],
    }
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert "domain" in str(err.value)


def test_inline_metric_happy_path(tmp_path):
    body = dict(BASE)
    body["metric"] = {
        "coords": ["t", "x", "y", "z"],
        "components": [
            ["1", "0", "0", "0"],
            ["0", "-1", "0", "0"],
            ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"],
        ],
        "domain": {"t": [-1, 1], "x": [-1, 1], "y": [-1, 1], "z": [-1, 1]},
    }
    scenario = load_scenario(write_scenario(tmp_path, body))
    report = run(scenario)
    assert report.passed


FLAT_ROWS = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]


@pytest.mark.parametrize("box, problem", [
    ({"t": [-3, 1e400]}, "metric.domain.t: [-3, inf] has a bound that is not a finite number"),
    ({"x": [1, -1]}, "metric.domain.x: lower bound 1 is above upper bound -1"),
    ({"t": [-1e308, 1e308]}, "metric.domain.t: the width of [-1e+308, 1e+308] overflows a float"),
    ({"w": [-1, 1]}, "metric.domain: unknown coordinates ['w']"),
])
def test_cli_an_unusable_domain_box_exits_two(tmp_path, box, problem):
    # --points draws from the box: it names chart coordinates only, and each range is finite and ordered
    domain = {c: [-1, 1] for c in ("t", "x", "y", "z")} | box
    body = dict(BASE, metric={"coords": ["t", "x", "y", "z"], "components": FLAT_ROWS, "domain": domain})
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--points", "3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("  - ")] == [f"  - {problem}"]


def test_grid_expansion_and_count(tmp_path):
    body = dict(BASE)
    body["samples"] = {
        "grid": {
            "t": {"min": 0, "max": 1, "count": 3},
            "x": {"min": 0, "max": 1, "count": 2},
            "y": {"min": 0, "max": 0, "count": 1},
            "z": {"min": 0, "max": 0, "count": 1},
        }
    }
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert len(scenario.points) == 6
    assert scenario.points[0].tolist() == [0.0, 0.0, 0.0, 0.0]


def per_coordinate_draws(spec, count, seed) -> list:
    """Random points as one ``rng.uniform`` call per coordinate draws them."""
    box = spec.domain_box()
    rng = np.random.default_rng(seed)
    return [tuple(float(rng.uniform(*box[c])) for c in spec.coords) for _ in range(count)]


def hexes(points) -> list:
    return [tuple(map(float.hex, p)) for p in points]


def test_random_points_equal_per_coordinate_draws(tmp_path):
    spec = build_metric("schwarzschild", {"M": 1.0})
    want = hexes(per_coordinate_draws(spec, 5000, 17))
    assert hexes(random_points(spec, 5000, 17)) == want
    body = dict(BASE, metric={"builtin": "schwarzschild", "params": {"M": 1.0}},
                samples={"random": {"count": 5000, "seed": 17}})
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert hexes(scenario.points) == want
    report = run(scenario, points_override=5000, seed_override=17)
    assert hexes(record["point"] for record in oracles.records(report.checks[0])) == want


@pytest.mark.parametrize("samples", [
    {"points": [[0.0, 0.0, 0.0, 0.0]], "random": {"count": MAX_POINTS}},
    {"points": [[0.0, 0.0, 0.0, 0.0]],
     "grid": {c: {"min": 0, "max": 0, "count": n} for c, n in zip("txyz", (100, 100, 100, 1))}},
], ids=["random", "grid"])
def test_more_sample_points_than_the_limit_is_a_problem(tmp_path, samples):
    # each block alone is within the limit; the points, grid and draws together are not
    path = write_scenario(tmp_path, dict(BASE, samples=samples))
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.problems == [
        f"samples: {MAX_POINTS + 1} sample points, more than the limit of {MAX_POINTS}"]
    assert peak < 8 * 2**20  # no grid or random point was made


def test_loaded_points_are_one_read_only_array(tmp_path):
    path = write_scenario(tmp_path, dict(BASE, samples={"random": {"count": 20_000, "seed": 3}}))
    load_scenario(path)  # the schema and the metric's caches are made here, not measured below
    tracemalloc.start()
    try:
        scenario = load_scenario(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert type(scenario.points) is np.ndarray and scenario.points.dtype == np.float64
    assert scenario.points.shape == (20_000, 4) and not scenario.points.flags.writeable
    assert held <= 2**20  # the 640 kB array; 20 000 tuples of floats held 3.5 MB


def test_digest_is_format_insensitive(tmp_path):
    a = write_scenario(tmp_path, BASE)
    b = tmp_path / "spaced.json"
    b.write_text(json.dumps(BASE, indent=4))
    assert load_scenario(a).digest == load_scenario(b).digest
    assert canonical_digest(BASE) == load_scenario(a).digest


def test_point_test_keeps_exact_comparison_with_int_bounds(tmp_path):
    # 2**53 + 1 is no float: the bounds must not round outward to 2**53
    lo, hi = 2**53 + 1, 2**53 + 3
    body = dict(BASE)
    body["metric"] = {
        "coords": ["t", "x", "y", "z"],
        "components": [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
                       ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
        "domain": {"t": [lo, hi], "x": [-1, 1], "y": [-1, 1], "z": [-1, 1]},
    }
    body["samples"] = {"points": [[2.0**53 + 2, 0, 0, 0], [2.0**53, 0, 0, 0]]}
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    box = {"t": (lo, hi), "x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}
    assert err.value.problems == [
        f"samples.points[1]: {(2.0**53, 0.0, 0.0, 0.0)} outside the domain box {box}"
    ]


HUGE = 10**400  # an integer no float holds


@pytest.mark.parametrize("where, edit", [
    ("samples.points.1.2", lambda b: b.update(samples={"points": [[0, 0, 0, 0], [0, 0, -HUGE, 0]]})),
    ("metric.params.M", lambda b: b.update(metric={"builtin": "schwarzschild", "params": {"M": HUGE}},
                                           fields={"K": {"t": "1-2*M/r"}})),
    ("constants.coupling", lambda b: b.update(constants={"coupling": HUGE})),
    ("tolerances.killing", lambda b: b.update(tolerances={"killing": HUGE})),
])
def test_integer_too_large_for_a_float_is_a_problem(tmp_path, where, edit):
    body = json.loads(json.dumps(BASE))
    edit(body)
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert err.value.problems == [f"{where}: integer too large for a float"]


@pytest.mark.parametrize("edit, problem", [
    (lambda b: b.update(description="a\ud800"), "description: string is not valid Unicode"),
    (lambda b: b["fields"]["K"].update({"\udc00": "1"}), "fields.K: key '\\udc00' is not valid Unicode"),
], ids=["string", "key"])
def test_a_string_or_key_that_is_not_unicode_is_a_problem(tmp_path, edit, problem):
    # JSON's \ud800 escape reads as a lone surrogate, which printing it as UTF-8 would fail on
    body = json.loads(json.dumps(BASE))
    edit(body)
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert err.value.problems == [problem]


def test_integer_literal_over_the_digit_limit_is_a_problem(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(BASE).replace("[[0.0, 0.0, 0.0, 0.0]]", f"[[{'1' * 5000}, 0, 0, 0]]"))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.problems == [
        f"malformed JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits"
    ]


def test_integers_stay_integers_in_the_digest(tmp_path):
    body = dict(BASE, samples={"points": [[0, 1, -2, 2]]}, tolerances={"default": 1})
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert scenario.digest == canonical_digest(body)
    assert scenario.digest != canonical_digest(dict(body, samples={"points": [[0.0, 1.0, -2.0, 2.0]]}))
    assert scenario.points.tolist() == [[0.0, 1.0, -2.0, 2.0]]


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_nonfinite_scenario_tolerance_is_a_problem(tmp_path, value):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(BASE)[:-1] + f', "tolerances": {{"default": 1e-9, "killing": {value}}}}}')
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.problems == [f"tolerances.killing: {float(value.lower())} is not a finite number"]


def t_grid(lo, hi) -> dict:
    """BASE's samples and a grid whose t axis runs from ``lo`` to ``hi``, the other axes pinned at 0."""
    return {**BASE["samples"], "grid": {c: {"min": lo, "max": hi, "count": 1} if c == "t"
                                        else {"min": 0, "max": 0, "count": 1} for c in "txyz"}}


INLINE = {"coords": list("txyz"), "params": {"k": 1.0}, "domain": {c: [-1, 1] for c in "txyz"},
          "components": [["k", 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}


@pytest.mark.parametrize("body, problem", [
    (dict(BASE, metric={"builtin": "schwarzschild", "params": {"M": math.nan}}),
     "metric.params.M: nan is not a finite number"),
    (dict(BASE, constants={"coupling": math.nan}, checks=["lorenz_gauge"]),
     "constants.coupling: nan is not a finite number"),
    (dict(BASE, metric=dict(INLINE, params={"k": math.inf})), "metric.params.k: inf is not a finite number"),
    (dict(BASE, metric=dict(INLINE, components=[*INLINE["components"][:3], [0, 0, 0, -math.inf]])),
     "metric.components[3][3]: -inf is not a finite number"),
    (dict(BASE, fields={"K": {"t": math.inf}}), "fields.K.components[t]: inf is not a finite number"),
    (dict(BASE, fields={"K": {"t": "x/1e999"}}), "fields.K.components[t]: number '1e999' overflows a float (column 3)"),
    (dict(BASE, metric={"builtin": "schwarzschild", "params": {"M": "inf"}}),
     "metric: schwarzschild mass M must be a finite number, got 'inf'"),
    (dict(BASE, samples={"points": [[math.nan, 0, 0, 0]]}), "samples.points[0][0]: nan is not a finite number"),
    (dict(BASE, samples={"points": [[0, 0, 0, 0], [0, 0, -math.inf, 0]]}),
     "samples.points[1][2]: -inf is not a finite number"),
    (dict(BASE, samples=t_grid(math.nan, 0)), "samples.grid.t.min: nan is not a finite number"),
    (dict(BASE, samples=t_grid(0, math.inf)), "samples.grid.t.max: inf is not a finite number"),
], ids=["builtin-param", "constant", "inline-param", "inline-component", "field-component", "field-literal",
        "builtin-param-text", "point", "point-infinity", "grid-min", "grid-max"])
def test_nonfinite_scenario_number_exits_2(tmp_path, body, problem):
    # a NaN or an infinity here would fail every point at run time; it is a problem at load
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(["verify", str(write_scenario(tmp_path, body))]) == 2
    assert stderr.getvalue() == f"scenario validation failed:\n  - {problem}\n"


def test_metric_parameter_named_like_a_coordinate_exits_2(tmp_path):
    metric = dict(INLINE, params={}, components=[["1", 0, 0, 0], [0, "-(1+x^2)", 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    body = dict(BASE, metric=metric, fields={"K": {"x": "-(1+x^2)"}}, samples={"points": [[0.1, 0.5, 0.2, 0.3]]})
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(["verify", str(write_scenario(tmp_path, body))]) == 1  # K is not Killing here
        # a parameter x would hold x constant in every jet, and the check would pass
        body["metric"] = dict(metric, params={"x": 0.0})
        assert cli.main(["verify", str(write_scenario(tmp_path, body))]) == 2
    assert stderr.getvalue() == ("scenario validation failed:\n"
                                 "  - metric: parameter names must differ from coordinate names, got ['x']\n")


# -- running ----------------------------------------------------------------------


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.stem)
def test_bundled_positive_scenarios_pass(path):
    report = run(load_scenario(path))
    assert report.passed, oracles.report_dict(report)


@pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.stem)
def test_bundled_negative_scenarios_fail(path):
    report = run(load_scenario(path))
    assert not report.passed


def test_negative_witness_names_failing_subcheck():
    report = run(load_scenario(SCENARIOS / "negative" / "lorenz_not_killing.json"))
    by_name = {c.check: c for c in report.checks}
    assert by_name["lorenz_gauge"].passed
    assert not by_name["killing"].passed
    failing = [
        name
        for rec in oracles.records(by_name["killing"])
        for name, value in rec["residuals"].items()
        if value > by_name["killing"].tolerance
    ]
    assert "killing_eq" in failing


def test_report_deterministic_and_schema_valid():
    scenario = load_scenario(SCENARIOS / "flrw_superconducting.json")
    r1, r2 = run(scenario), run(scenario)
    assert r1.to_json() == r2.to_json()
    jsonschema.validate(json.loads(r1.to_json()), report_schema())
    assert "wall_time" not in r1.to_json()


# sha256 of Report.to_json() per bundled scenario (numpy 2.4.6); the point-major
# check loop must reproduce these bytes exactly
BUNDLED_REPORT_SHA256 = {
    "flrw_superconducting": "b893023cebf7f7e7997425a2fa64148d3702ed24651644cf3772218798cb3acc",
    "minkowski_boost": "f542268223437779c25cf0c1d6b3359c4d06afed90d5720c824d813ff9c04488",
    "minkowski_charged_dust": "9e111066e604480ed5030419f248be87feeeee0080c85c3a3e04cf7460497793",
    "schwarzschild_killing": "5e369cceaebc9d2ceee18e6f7367fd5ed825ea84bc231b254160d144673f0ef9",
    "schwarzschild_vacuum_einstein": "81bbc800cbe9cd7945b7d6373329ac5ec43d0f703c133e6df4a63086580e3d01",
    "flrw_empty_einstein": "206eaab86774831ddf5862da68a128dbfcae6602ac9789e636df7da6f23efe0f",
    "lorenz_not_killing": "23c4bee894f196f759d0b858214b9234cc7d5a659deed8ada34843c60118a53a",
    "non_killing": "73eb4ee03d33db624796cc55e25e2aaa8d38ae787dca4abdf8f005eb1baaebb2",
}


@pytest.mark.parametrize("path", POSITIVE + NEGATIVE, ids=lambda p: p.stem)
def test_bundled_report_bytes_pinned(path):
    body = run(load_scenario(path)).to_json().encode()
    assert hashlib.sha256(body).hexdigest() == BUNDLED_REPORT_SHA256[path.stem]


def test_readme_checks_table_matches_registry():
    text = (REPO / "README.md").read_text()
    table = text.split("### Checks", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, flags=re.M)
    labels = {"potential": "A or K"}
    want = [
        (c.name, ", ".join(labels.get(n, n) for n in c.needs) or "none")
        for c in CHECKS.values()
    ]
    assert [(name, needs.strip()) for name, needs in rows] == want


def test_run_with_point_override():
    scenario = load_scenario(SCENARIOS / "minkowski_boost.json")
    report = run(scenario, points_override=3, seed_override=5)
    assert report.passed
    assert all(len(oracles.records(c)) == 3 for c in report.checks)


def test_tolerance_override_loosens_default():
    scenario = load_scenario(SCENARIOS / "negative" / "non_killing.json")
    strict = run(scenario)
    loose = run(scenario, tol_override=10.0)
    assert not strict.passed
    assert loose.passed  # residual is exactly 2, below the huge override


def test_list_builtins_contains_required_lines():
    text = list_builtins()
    assert "schwarzschild params: M; coords: t,r,theta,phi; killing: dt-dual, dphi-dual" in text
    assert "minkowski" in text
    assert "killing: 10 generators" in text
    assert text == list_builtins()  # stable across calls


# -- CLI ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cliffcheck", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_grid_points_equal_per_point_construction(tmp_path):
    spec = build_metric("schwarzschild", {"M": 1.0})
    grid = {"t": (-2.9, 2.7, 7), "r": (2.6, 19.3, 5), "theta": (0.4, 2.75, 3), "phi": (0.1, 6.1, 4)}
    mesh = np.meshgrid(*(np.linspace(*grid[c]) for c in spec.coords), indexing="ij")
    want = hexes(tuple(float(v) for v in pt) for pt in np.stack([m.ravel() for m in mesh], axis=-1))
    body = dict(BASE, metric={"builtin": "schwarzschild", "params": {"M": 1.0}},
                samples={"grid": {c: {"min": lo, "max": hi, "count": n} for c, (lo, hi, n) in grid.items()}})
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert len(want) == 7 * 5 * 3 * 4
    assert hexes(scenario.points) == want


def test_cli_verify_pass_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(SCENARIOS / "minkowski_boost.json"), "--report", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] killing" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    jsonschema.validate(payload, report_schema())


def test_cli_verify_fail_exit_one():
    proc = run_cli("verify", str(SCENARIOS / "negative" / "non_killing.json"))
    assert proc.returncode == 1
    assert "[FAIL] killing" in proc.stdout
    assert "killing_eq" in proc.stdout


def test_cli_prints_each_checks_worst_point_and_not_in_the_report(tmp_path):
    # K = x y dx: killing_eq is max(2|y|, |x|), largest at (0, 1, 2, 0) and,
    # tied, at the later (0, -1, -2, 0); lorenz_gauge is |y|, and passes
    body = dict(BASE, fields={"K": {"x": "x*y"}}, checks=["killing", "lorenz_gauge"],
                samples={"points": [[0, 0, 0, 0], [0, 3, 1, 0], [0, 1, 2, 0], [0, -1, -2, 0]]},
                tolerances={"lorenz_gauge": 10})
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("[")]
    assert lines[at[0]].startswith("[FAIL] killing") and lines[at[1]].startswith("[PASS] lorenz_gauge")
    assert lines[at[0] + 1] == "         worst point (0.0, 1.0, 2.0, 0.0): killing_eq=4.000e+00"
    assert lines[at[1] + 1] == "         worst point (0.0, 1.0, 2.0, 0.0): lorenz_gauge=2.000e+00"
    assert "worst" not in out.read_text()


def test_cli_float_grid_count_is_its_integer(tmp_path):
    # JSON Schema's "integer" accepts 2.0: the grid has the points of count 2
    points = []
    for count in (2.0, 2):
        grid = {c: {"min": -1, "max": 1, "count": count if c == "x" else 1} for c in "txyz"}
        path = tmp_path / f"grid_{count!r}.json"
        path.write_text(json.dumps(dict(BASE, samples={"grid": grid})))
        out = tmp_path / f"report_{count!r}.json"
        proc = run_cli("verify", str(path), "--report", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        points.append([p["point"] for p in json.loads(out.read_text())["checks"][0]["points"]])
    assert '"count": 2.0' in (tmp_path / "grid_2.0.json").read_text()
    assert points[0] == points[1] == [[-1.0, -1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, -1.0]]


def test_cli_validation_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"metric": {"builtin": "nope"}, "samples": {"points": [[0, 0, 0, 0]]}, "checks": ["killing"], "fields": {"K": {"t": "1"}}}))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert "unknown builtin metric" in proc.stderr


def test_cli_missing_file_exit_two():
    proc = run_cli("verify", "/no/such/file.json")
    assert proc.returncode == 2


def test_cli_usage_error_exit_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_cli_reports_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        proc = run_cli(
            "verify", str(SCENARIOS / "schwarzschild_killing.json"), "--report", str(out)
        )
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_catalog():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    assert "schwarzschild params: M; coords: t,r,theta,phi; killing: dt-dual, dphi-dual" in proc.stdout
    proc2 = run_cli("catalog")
    assert proc.stdout == proc2.stdout


# -- the allocator policy of the CLI -------------------------------------------------


class _RecordingLibc:
    """A C library whose ``mallopt`` records each call in ``calls``."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class _LibcWithoutMallopt:
    """A C library without ``mallopt``, as a libc other than glibc may be."""


def test_cli_sets_glibc_thresholds_before_it_loads_the_scenario(monkeypatch, capsys):
    # M_TRIM_THRESHOLD (-1) to 256 MiB and M_MMAP_THRESHOLD (-3) to 32 MiB
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(("CDLL", name)) or _RecordingLibc(calls))
    load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda path: calls.append("load") or load(path))
    assert cli.main(["verify", str(SCENARIOS / "minkowski_boost.json")]) == 0
    assert calls == [("CDLL", None), (-1, 256 * 2**20), (-3, 32 * 2**20), "load"]


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


def _no_handle(name):
    raise TypeError("a handle of None is not supported here")


@pytest.mark.parametrize("cdll", [_no_library, _no_handle, lambda name: _LibcWithoutMallopt()],
                         ids=["OSError", "TypeError", "no-mallopt"])
def test_cli_runs_the_same_where_mallopt_is_missing(monkeypatch, capsys, cdll):
    assert cli.main(["catalog"]) == 0
    want = capsys.readouterr()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.main(["catalog"]) == 0
    assert capsys.readouterr() == want


def _verify_argv(tmp_path) -> tuple:
    """A 200-point Schwarzschild run of every check; three fail, the fields solve nothing."""
    body = {
        "metric": {"builtin": "schwarzschild", "params": {"M": 1.0}},
        "constants": {"coupling": 1.0},
        "fields": {"K": {"t": "1-2*M/r"}, "S": {"1": "t"}, "V": {"t": "sqrt(1-2*M/r)"}},
        "samples": {"random": {"count": 200, "seed": 1}},
        "checks": list(CHECKS),
    }
    return ["verify", str(write_scenario(tmp_path, body))], 1


def _selftest_argv(tmp_path) -> tuple:
    """Three full blocks of algebra trials and a short one, and the operator suite."""
    return ["algebra-selftest", "--iterations", str(3 * TRIALS_PER_BLOCK + 5), "--seed", "7"], 0


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the CLI sets allocator thresholds on glibc only")
@pytest.mark.parametrize("command", [_verify_argv, _selftest_argv], ids=["verify", "algebra-selftest"])
def test_a_second_verify_in_one_process_faults_in_almost_no_memory(tmp_path, capsys, command):
    # each block makes and frees the same arrays, many above glibc's default
    # mmap threshold; with the CLI's thresholds the next block reuses them.
    # With glibc's defaults the verify run faults about 4 000 pages in again
    import resource  # Unix only

    argv, code = command(tmp_path)
    assert cli.main(argv) == code  # warm-up
    capsys.readouterr()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == code
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_cli_selftest_quick():
    # three full chunks of trials and a partial one
    iterations = 3 * TRIALS_PER_BLOCK + 5
    runs = [run_cli("algebra-selftest", "--iterations", str(iterations), "--seed", "7") for _ in range(2)]
    laws = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "overall: PASS" in proc.stdout
        laws.append([line for line in proc.stdout.splitlines() if line.startswith("[")])
    assert laws[0] == laws[1]
    assert sum(f", {iterations} trials)" in line for line in laws[0]) == len(ALGEBRA_LAWS)


@pytest.mark.parametrize("argv", [
    ("algebra-selftest", "--iterations", "-3"),
    ("algebra-selftest", "--iterations", "0"),
    ("verify", str(SCENARIOS / "minkowski_boost.json"), "--points", "-2"),
    ("verify", str(SCENARIOS / "minkowski_boost.json"), "--points", "0"),
])
def test_cli_nonpositive_count_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"must be at least 1, got {argv[-1]}" in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("catalog",),
    ("verify", str(SCENARIOS / "minkowski_boost.json")),
    ("algebra-selftest", "--iterations", "1"),
], ids=lambda argv: argv[0])
def test_cli_console_output_that_cannot_be_written_exits_2(argv):
    # verify's exit 1 means a check failed, so a failed write must not end in it
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cliffcheck", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, cwd=REPO)
    assert proc.returncode == 2, proc.stderr
    # one line: no traceback, and no "Exception ignored" from flushing stdout at exit
    assert re.fullmatch(r"error: cannot write output: \[Errno 28\] .*\n", proc.stderr), proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("catalog",), ("verify", str(SCENARIOS / "no_such_file.json"))],
                         ids=lambda argv: argv[0])
def test_cli_exits_2_when_neither_console_stream_can_be_written(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cliffcheck", *argv], stdout=full, stderr=full, cwd=REPO)
    assert proc.returncode == 2


def test_cli_more_points_than_the_limit_is_a_usage_error():
    proc = run_cli("verify", str(SCENARIOS / "minkowski_boost.json"), "--points", str(MAX_POINTS + 1))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"argument --points: must be at most {MAX_POINTS}, got {MAX_POINTS + 1}" in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ("algebra-selftest", "--seed", "-1"),
    ("verify", str(SCENARIOS / "minkowski_boost.json"), "--points", "3", "--seed", "-1"),
])
def test_cli_negative_seed_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --seed: must be at least 0, got -1" in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout


def test_cli_seed_without_points_is_a_usage_error():
    # --seed seeds only the random points of --points; alone it would change nothing
    proc = run_cli("verify", str(SCENARIOS / "minkowski_boost.json"), "--seed", "3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --seed: seeds the random points of --points N, which is not given" in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "0.0"])
def test_cli_tolerance_must_be_finite_and_positive(tol):
    proc = run_cli("verify", str(SCENARIOS / "minkowski_boost.json"), f"--tol={tol}")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"argument --tol: must be a finite number > 0, got {tol}" in proc.stderr
    assert "PASS" not in proc.stdout and "FAIL" not in proc.stdout


def with_coords(coords) -> dict:
    return dict(BASE, metric=dict(INLINE, coords=coords, domain=dict.fromkeys(coords, [-1, 1])))


@pytest.mark.parametrize("body, message", [
    (b"\xff\xfe{}", "cannot read scenario: not UTF-8 text"),
    (json.dumps(dict(BASE, tolerances={"default": HUGE})).encode(),
     "tolerances.default: integer too large for a float"),
    (json.dumps(dict(BASE, description="\ud800")).encode(), "description: string is not valid Unicode"),
    (json.dumps(dict(BASE, samples={"grid": {c: {"min": 0, "max": 0, "count": 1} for c in "txy"}})).encode(),
     "samples.grid: missing coordinates ['z']"),
    (json.dumps(dict(BASE, samples={"grid": {c: {"min": 0, "max": 0, "count": 1} for c in "txyzw"}})).encode(),
     "samples.grid: unknown coordinates ['w']"),
    (json.dumps(dict(BASE, samples={"grid": {c: {"min": -1.0, "max": 9.0 if c == "t" else 0, "count": 1}
                                             for c in "txyz"}})).encode(),
     "samples.grid.t: range [-1.0, 9.0] outside the domain box (-3.0, 3.0)"),
    (json.dumps(dict(BASE, samples=t_grid(1, 0))).encode(), "samples.grid.t: lower bound 1 is above upper bound 0"),
    (json.dumps(dict(BASE, samples={"points": [[0, math.nan, 0, 0]]})).encode(),
     "samples.points[0][1]: nan is not a finite number"),
    (json.dumps(dict(BASE, samples=t_grid(-math.inf, 0))).encode(),
     "samples.grid.t.min: -inf is not a finite number"),
    (json.dumps(dict(BASE, metric=dict(INLINE, domain={c: [-1, 1] for c in "txy"}))).encode(),
     "metric.domain: missing coordinates ['z']"),
    (json.dumps(dict(BASE, tolerances={"nope": 1e-9})).encode(), "tolerances: unknown check 'nope'"),
    (json.dumps(dict(BASE, fields={"K": {"t^x": "1", "x^t": "1"}})).encode(),
     "fields.K: duplicate component for blade g0^g1"),
    (json.dumps(dict(BASE, fields={"K": {"1": "1", "t": "1"}})).encode(),
     "fields: field K must be a 1-form, has grades [0, 1]"),
    (json.dumps(dict(BASE, fields={"S": {"1": "t"}}, checks=["lorenz_gauge"])).encode(),
     "check lorenz_gauge requires field A (or K with coupling)"),
    (json.dumps(with_coords(list("txyt"))).encode(),
     "metric: metric needs 4 distinct coordinate names"),
    (json.dumps(with_coords(["t", "x y", "y", "z"])).encode(),
     "metric: coordinate name 'x y' is not a letter or _ followed by letters, digits or _"),
    (json.dumps(with_coords(["t", "1", "y", "z"])).encode(),
     "metric: coordinate name '1' is not a letter or _ followed by letters, digits or _"),
])
def test_cli_unreadable_scenario_values_exit_two(tmp_path, body, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(body)
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("option, message", [
    (("--points", "x"), "argument --points: invalid int value: 'x'"),
    (("--tol", "x"), "argument --tol: invalid float value: 'x'"),
    (("--report", "{tmp}/missing/report.json"), "error: cannot write report: "),
    (("--report", ""), "error: cannot write report: "),
])
def test_cli_unusable_option_value_exits_two(tmp_path, option, message):
    option = [text.format(tmp=tmp_path) for text in option]
    proc = run_cli("verify", str(SCENARIOS / "minkowski_boost.json"), *option)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("depth", [990, 100_000])
def test_cli_nesting_deeper_than_the_recursion_limit_exits_two(tmp_path, depth):
    text = json.dumps(dict(BASE, description="HERE")).replace('"HERE"', "[" * depth + "]" * depth)
    path = tmp_path / "deep.json"
    path.write_text(text)
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed JSON: arrays or objects nested deeper than the parser's recursion limit" in proc.stderr


@pytest.mark.parametrize("terms", [901, 2000, 100_000])
def test_cli_a_long_sum_verifies_from_deep_in_the_callers_recursion(tmp_path, capsys, terms):
    # a sum of n terms is a tree n levels deep, and nothing walks it by recursion;
    # each run has its own spelling, so neither reuses the other's parsed tree
    for frames, plus in ((0, "+"), (800, " + ")):
        path = write_scenario(tmp_path, dict(BASE, fields={"K": {"t": plus.join(["1"] * terms)}}))
        assert oracles.nested(frames, cli.main, ["verify", str(path)]) == 0
        assert "[PASS] killing" in capsys.readouterr().out


@pytest.mark.parametrize("checks", [["killing"], ["killing", "lorenz_gauge", "killing_identities"]])
def test_cli_a_field_that_fails_to_parse_is_reported_once(tmp_path, checks):
    # the checks that need K (or the potential it gives) add no "requires field K"
    body = dict(BASE, fields={"K": {"t": "1+"}}, checks=checks)
    proc = run_cli("verify", str(write_scenario(tmp_path, body)))
    assert proc.returncode == 2
    problems = [line for line in proc.stderr.splitlines() if line.startswith("  - ")]
    assert problems == ["  - fields.K.components[t]: expected a value (column 3)"]


def test_a_field_not_given_is_still_required_beside_one_that_fails_to_parse(tmp_path):
    body = dict(BASE, fields={"K": {"t": "x^"}, "S": {"1": "t"}}, checks=["killing", "hamilton_jacobi"])
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert err.value.problems[1:] == ["check hamilton_jacobi requires field V"]
    assert err.value.problems[0].startswith("fields.K.components[t]: ")


def test_cli_verify_imports_no_jsonschema():
    # nor numpy.ma, which np.unique imports: about 1.7 MB of resident memory
    probe = ("import sys; from cliffcheck import cli; "
             "code = cli.main(['verify', 'scenarios/minkowski_boost.json']); "
             "print('jsonschema' in sys.modules, 'numpy.ma' in sys.modules); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite constant {token} in report")

    return json.loads(text, parse_constant=reject)


def test_cli_nonfinite_residual_is_a_point_error(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "exp(700)*exp(700)*t - exp(700)*exp(700)*t"}}
    body["samples"] = {"points": [[1.0, 0.0, 0.0, 0.0]]}
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    assert "error: non-finite residual 'killing_eq'" in proc.stdout
    payload = strict_json(out.read_text())
    jsonschema.validate(payload, report_schema())
    (check,) = payload["checks"]
    assert check["max_residual"] == 0.0
    (point,) = check["points"]
    assert point["residuals"] == {} and point["info"] == {} and point["passed"] is False
    assert point["error"] == "non-finite residual 'killing_eq'"


def test_cli_overflow_is_a_point_error(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "exp(2000*t)"}}
    body["samples"] = {"points": [[1.0, 0.0, 0.0, 0.0]]}
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: overflow in 'exp(" in proc.stdout
    payload = strict_json(out.read_text())
    jsonschema.validate(payload, report_schema())
    assert payload["checks"][0]["points"][0]["error"].startswith("overflow in 'exp(")


def test_cli_infinite_trig_argument_is_a_point_error(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "sin(exp(700)*exp(700)*(t+2))"}}
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: infinite argument in 'sin(" in proc.stdout
    payload = strict_json(out.read_text())
    jsonschema.validate(payload, report_schema())
    assert payload["checks"][0]["points"][0]["error"].startswith("infinite argument in 'sin(")


def test_cli_underflow_is_a_point_error(tmp_path):
    body = dict(BASE)
    body["fields"] = {"K": {"t": "log(1e-200*(t+2))"}}
    body["samples"] = {"points": [[0.0, 0.0, 0.0, 0.0]]}
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: underflow in 'log(" in proc.stdout
    payload = strict_json(out.read_text())
    jsonschema.validate(payload, report_schema())
    assert payload["checks"][0]["points"][0]["error"].startswith("underflow in 'log(")


def test_cli_metric_error_prints_the_point_as_floats(tmp_path):
    body = dict(BASE)
    body["metric"] = {
        "coords": ["t", "x", "y", "z"],
        "components": [["t", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"],
                       ["0", "0", "0", "-1"]],
        "domain": {"t": [-1, 1], "x": [-1, 1], "y": [-1, 1], "z": [-1, 1]},
    }
    body["samples"] = {"points": [[0.0, 0.0, 1.0, 0.5], [0.5, 0.0, 1.0, 0.5]]}
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    (check,) = strict_json(out.read_text())["checks"]
    error = check["points"][0]["error"]
    assert error.startswith("metric of 'inline' is singular at (0.0, 0.0, 1.0, 0.5) (det=")
    assert check["points"][1]["error"] is None


def test_cli_overflowing_products_are_point_errors_without_warnings(tmp_path):
    # finite jets whose products overflow: the residuals are non-finite, so
    # every point is an error, and numpy prints no RuntimeWarning
    body = dict(BASE)
    body["fields"] = {"A": {"t": "1e200*x"}}
    body["samples"] = {"points": [[0.0, 0.5, 0.0, 0.0], [0.1, 1.0, 0.2, 0.3]]}
    body["checks"] = ["einstein", "structure_current", "sandwich_identities"]
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(write_scenario(tmp_path, body)), "--report", str(out))
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    payload = strict_json(out.read_text())
    einstein = payload["checks"][0]
    assert [p["error"] for p in einstein["points"]] == ["non-finite residual 'einstein_eq'"] * 2
    for check in payload["checks"]:
        assert all(p["error"] and p["error"].startswith("non-finite ") for p in check["points"])


# -- the benchmark's tracer ------------------------------------------------------------


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["kerr_identities", "schw_10check"],
                         ids=["kerr-identities", "schw-10check"])
def test_traced_verify_records_every_required_span(tmp_path, workload):
    # the benchmark's --trace 1 wraps these entry points from outside and
    # fails when one records no call; a refactor must keep calling each,
    # algebra.product included on schw-10check
    tracing = _perfbench_module("tracing")
    workloads = _perfbench_module("workloads")
    wl = getattr(workloads, workload)(REPO, tmp_path, seed=1, points=3)
    (op,) = wl.ops
    tracer = tracing.Tracer()
    tracer.install(op=0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(op.argv))
    finally:
        tracer.uninstall()
    assert code == op.expected_exit
    assert set(wl.required_spans) <= tracer.present
    tracing.check_required(tracer, wl.required_spans)


def test_traced_point_counters_match_the_report_file(tmp_path):
    # fieldcheck.point_evals counts each check at each point and point_errors the
    # points with an error in the report file: here a metric error (sqrt of
    # y < 0), a field error (log of t < 0) and non-finite residuals (10^(150 t) squared)
    tracing = _perfbench_module("tracing")
    points = [[0.1 * k, 0.5, 0.3, 0.2] for k in range(1, 21)]
    points[3], points[17] = [0.5, 0.5, -0.3, 0.2], [-0.5, 0.5, 0.3, 0.2]
    metric = {"coords": list("txyz"), "domain": {c: [-3, 3] for c in "txyz"},
              "components": [["1", 0, 0, 0], [0, "-1-0*sqrt(y)", 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}
    body = dict(BASE, metric=metric, fields={"K": {"t": "1+1e-3*log(t)"}, "A": {"t": "10^(150*t)*x"}},
                samples={"points": points}, checks=["killing", "lorenz_gauge", "einstein"])
    out = tmp_path / "report.json"
    tracer = tracing.Tracer()
    tracer.install(op=0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(write_scenario(tmp_path, body)), "--report", str(out)]) == 1
    finally:
        tracer.uninstall()
    checks = json.loads(out.read_text())["checks"]
    errors = [p["error"] for c in checks for p in c["points"] if p["error"] is not None]
    assert any(e.startswith("non-finite residual") for e in errors) and len(errors) < 3 * len(points)
    counters = tracer.per_op()[0]["counter"]
    assert counters["fieldcheck.point_evals"] == len(checks) * len(points)
    assert counters["fieldcheck.point_errors"] == len(errors)


def test_every_traced_target_exists():
    # the tracer reports a target it cannot find as absent and leaves its
    # per-layer metrics out; a renamed method or function would drop them
    # without a failure, so every target must resolve
    tracing = _perfbench_module("tracing")
    for _, module_name, path in tracing.TARGETS:
        importlib.import_module(module_name)
        assert tracing._resolve(module_name, path) is not None, f"{module_name}.{path}"
    # the tracer patches curvature where fieldcheck binds it by name
    from cliffcheck import fieldcheck, geometry
    assert fieldcheck.curvature is geometry.curvature


# sha256 of the report file of each verify workload of perfbench at seed 1,
# at its default number of points; computed before checks kept their
# results as columns
WORKLOAD_REPORT_SHA256 = {
    "schw_10check": "0144a43a335a69069e977d0181826cd91fc83fbb336f213cf13844797c09bde5",
    "kerr_identities": "dcd732ce5212d6e9096f13dfff4805f1c385c2f3c35808b2ecf647094e4284f1",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_REPORT_SHA256))
def test_workload_report_bytes_pinned(tmp_path, workload):
    workloads = _perfbench_module("workloads")
    (op,) = getattr(workloads, workload)(REPO, tmp_path, seed=1).ops
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(op.argv)) == op.expected_exit
    assert hashlib.sha256(op.report.read_bytes()).hexdigest() == WORKLOAD_REPORT_SHA256[workload]


def test_pinned_digests_hold_at_numpy_baseline_dispatch():
    # numpy picks SIMD kernels per host at import, and some of its elementwise
    # functions change bits with them; the pinned report bytes and law lines
    # must not, so the pins are re-checked in a child with every dispatched
    # feature this host has disabled; the operator maxima too, as the
    # operator suite's jets run sin over lanes; and the products from partly
    # filled tables, which must keep the full tables' bits at every dispatch,
    # the operators on the rows a field's grades reach, which must keep
    # the bits of every row, and the products of a stack of right operands,
    # which must keep each operand's bits
    import test_algebra
    import test_rows

    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches no CPU feature beyond its baseline on this host")
    pins = [f"tests/test_runner_cli.py::{test_bundled_report_bytes_pinned.__name__}",
            f"tests/test_runner_cli.py::{test_workload_report_bytes_pinned.__name__}",
            "tests/test_selftest.py::test_law_lines_are_pinned",
            "tests/test_selftest.py::test_diffops_law_maxima_are_pinned",
            "tests/test_tables.py::test_products_from_partly_filled_tables_equal_the_full_tables_bitwise",
            "tests/test_algebra.py::test_a_stack_of_right_operands_equals_each_operand_alone_bitwise",
            *(f"tests/test_rows.py::{test.__name__}"
              for test in (test_rows.test_operators_on_the_rows_of_a_grade_set_equal_every_row_bitwise,
                           test_rows.test_operators_on_the_rows_of_a_grade_set_equal_every_row_on_random_entries))]
    probe = ("import sys, pytest; from numpy._core import _multiarray_umath as m; "
             f"assert not any(m.__cpu_features__[f] for f in {features!r}); "
             f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{pins!r}]))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = len(test_rows.GRADE_SETS) * (len(test_rows.ROW_METRICS) + 1) * len(test_rows.COUNTS)
    stacks = len(test_algebra.STACKED_OPERANDS) * len(test_algebra.STACK_COUNTS)
    passed = len(BUNDLED_REPORT_SHA256) + len(WORKLOAD_REPORT_SHA256) + 1 + len(DIFFOPS_MAXIMA) + 1 + rows + stacks
    assert f"{passed} passed" in proc.stdout, proc.stdout


@pytest.mark.parametrize("workload, per_chunk", [("kerr_identities", 6), ("schw_10check", 7)])
def test_equal_sources_are_evaluated_once_per_chunk(tmp_path, monkeypatch, workload, per_chunk):
    # kerr_identities' K is the t-row of its inline metric and schw_10check's K
    # the catalog's g_tt: each distinct source is one tree, evaluated once per chunk
    workloads = _perfbench_module("workloads")
    (op,) = getattr(workloads, workload)(REPO, tmp_path, seed=1, points=fieldcheck.CHUNK + 1).ops
    evaluated = []
    evaluate = ex.evaluate_jet2

    def counting(e, *args):
        evaluated.append(e)
        return evaluate(e, *args)

    monkeypatch.setattr(ex, "evaluate_jet2", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(op.argv)) == op.expected_exit
    assert len(evaluated) == 2 * per_chunk  # two chunks
    assert len(set(map(id, evaluated))) == per_chunk


def test_each_distinct_subtree_is_evaluated_once_per_chunk(tmp_path, monkeypatch):
    # kerr_identities' six distinct sources hold 127 nodes, of which 35 subtrees
    # are distinct (the metric's 0 entry among them): a chunk evaluates each once
    workloads = _perfbench_module("workloads")
    (op,) = workloads.kerr_identities(REPO, tmp_path, seed=1, points=fieldcheck.CHUNK + 1).ops
    asked, steps = [], []
    evaluate, step = ex.evaluate_jet2, ex._Walk.step

    def evaluating(e, *args):
        asked.append(e)
        return evaluate(e, *args)

    def stepping(self, e, *args):
        steps.append(e)
        return step(self, e, *args)

    monkeypatch.setattr(ex, "evaluate_jet2", evaluating)
    monkeypatch.setattr(ex._Walk, "step", stepping)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(op.argv)) == op.expected_exit
    sources = list({id(e): e for e in asked}.values())
    assert len(sources) == 6 and sum(len(ex._postorder(e)[0]) for e in sources) == 127
    distinct = {node for e in sources for node in ex._postorder(e)[0]}  # equal by structure
    assert len(distinct) == 35
    assert len(steps) == 2 * len(distinct)  # two chunks
    assert set(steps[:len(distinct)]) == set(steps[len(distinct):]) == distinct
