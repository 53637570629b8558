import contextlib
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from cliffcheck import cli
from cliffcheck.errors import ScenarioValidationError
from cliffcheck.fieldcheck import CHECKS
from cliffcheck.runner import (
    canonical_digest,
    list_builtins,
    load_scenario,
    report_schema,
    run,
)
from cliffcheck.selftest import ALGEBRA_LAWS, CHUNK

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
    assert scenario.points[0] == (0.0, 0.0, 0.0, 0.0)


def test_digest_is_format_insensitive(tmp_path):
    a = write_scenario(tmp_path, BASE)
    b = tmp_path / "spaced.json"
    b.write_text(json.dumps(BASE, indent=4))
    assert load_scenario(a).digest == load_scenario(b).digest
    assert canonical_digest(BASE) == load_scenario(a).digest


# -- running ----------------------------------------------------------------------


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.stem)
def test_bundled_positive_scenarios_pass(path):
    report = run(load_scenario(path))
    assert report.passed, report.to_dict()


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
        for rec in by_name["killing"].records
        for name, value in rec.residuals.items()
        if value > by_name["killing"].tolerance
    ]
    assert "killing_eq" in failing


def test_report_deterministic_and_schema_valid():
    scenario = load_scenario(SCENARIOS / "flrw_superconducting.json")
    r1, r2 = run(scenario), run(scenario)
    assert r1.to_json() == r2.to_json()
    jsonschema.validate(r1.to_dict(), report_schema())
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
    assert all(len(c.records) == 3 for c in report.checks)


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


def test_cli_selftest_quick():
    # three full chunks of trials and a partial one
    iterations = 3 * CHUNK + 5
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


# -- the benchmark's tracer ------------------------------------------------------------


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_records_every_required_span(tmp_path):
    # the benchmark's --trace 1 wraps these entry points from outside and
    # fails when one records no call; a refactor must keep calling each
    tracing = _perfbench_module("tracing")
    workloads = _perfbench_module("workloads")
    (op,) = workloads.kerr_identities(REPO, tmp_path, seed=1, points=3).ops
    tracer = tracing.Tracer()
    tracer.install(op=0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(op.argv))
    finally:
        tracer.uninstall()
    assert code == 0
    assert set(workloads.VERIFY_SPANS) <= tracer.present
    tracing.check_required(tracer, workloads.VERIFY_SPANS)
