"""The benchmark's own test: every workload at a tiny size, traced, with the gate on.

    python -m pytest perfbench -q

It also pins the exact per-point counts the trace must read on the two
verify workloads that share no work between checks and the one that does.
"""

import json

import pytest

import run
from gate import Gate
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

TINY = {
    "schw-10check": {"points": 3},
    "kerr-identities": {"points": 3},
    "algebra-selftest": {"iterations": 10},
    "bundled-cold": {},
}

# workload -> (geometry.curvature_per_point, table builds per point, jet calls per point)
EXACT_PER_POINT = {
    "schw-10check": (10, 9, 115),
    "kerr-identities": (1, 1, 12),
}


@pytest.fixture(scope="module")
def cli():
    run.pin_environment()
    return run.load_program()


@pytest.fixture(scope="module")
def traced(cli, tmp_path_factory):
    """Traced tiny run of every workload, shared by the tests below."""
    results = {}
    for name, size in TINY.items():
        out = tmp_path_factory.mktemp(name)
        wl = WORKLOADS[name](run.ROOT, out, 7, **size)
        results[name] = (wl, run.measure(wl, cli, seconds=0, trace=True, out=out))
    return results


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_gate_and_traces_every_layer(traced, name):
    wl, res = traced[name]
    assert res["failures"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["per_layer"]) == set(LAYER_METRICS) | {"trace.overhead_s"}
    assert res["end_to_end"]["setup_s"]["value"] > 0
    assert res["end_to_end"]["work_per_s"]["value"] > 0
    assert res["end_to_end"]["peak_rss_mb"]["value"] > 0
    assert len(res["report_sha256"]) == len(wl.ops)


@pytest.mark.parametrize("name", sorted(EXACT_PER_POINT))
def test_exact_per_point_counts(traced, name):
    _, res = traced[name]
    layers = res["per_layer"]
    points = res["points_per_round"]
    curvature, tables, jets = EXACT_PER_POINT[name]
    assert points == TINY[name]["points"]
    assert layers["geometry.curvature_per_point"]["value"] == curvature
    assert layers["algebra.table_builds"]["value"] == tables * points
    assert layers["expr.jet_calls"]["value"] == jets * points
    assert layers["fieldcheck.point_errors"]["value"] == 0


def test_names_are_patched_where_they_are_looked_up(cli):
    from cliffcheck import fieldcheck, geometry, runner

    originals = (cli.load_scenario, fieldcheck.curvature, runner.load_scenario)
    tracer = Tracer()
    tracer.install(op=0)
    try:
        # cli and fieldcheck bind these by name; both bindings must be traced
        assert cli.load_scenario is runner.load_scenario
        assert cli.load_scenario.__wrapped__ is originals[0]
        assert fieldcheck.curvature is geometry.curvature
        assert fieldcheck.curvature.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (cli.load_scenario, fieldcheck.curvature, runner.load_scenario) == originals


def test_missing_target_is_absent_not_zero(cli, monkeypatch):
    from cliffcheck.algebra import PointMetric

    monkeypatch.delattr(PointMetric, "_build_tables")
    tracer = Tracer()
    tracer.install(op=0)
    tracer.uninstall()
    metrics = layer_metrics(tracer, [[0]], points_per_round=1)
    assert "algebra.table_builds" not in metrics
    assert "algebra.table_build_s" not in metrics
    assert metrics["geometry.curvature_calls"]["value"] == 0


def test_gate_rejects_nonfinite_schema_and_verdict_misses(traced, tmp_path):
    wl, _ = traced["kerr-identities"]
    op = wl.ops[0]
    good = op.report.read_text()
    doc = json.loads(good)
    cases = {
        "nan": good.replace('"max_residual": ', '"max_residual": NaN, "x": ', 1),
        "schema": json.dumps(dict(doc, extra=1)),
        "verdict": json.dumps(dict(doc, checks=[dict(doc["checks"][0], passed=False)])),
    }
    for what, text in cases.items():
        gate = Gate(run.SRC / "cliffcheck" / "schemas" / "report.schema.json")
        op.report.write_text(text)
        assert gate.record_verify(op, op.expected_exit)
        assert gate.finish() == 1, what
    gate = Gate(run.SRC / "cliffcheck" / "schemas" / "report.schema.json")
    assert not gate.record_verify(op, 2)


def test_benchmark_json_names_every_metric_the_run_prints(traced):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for name in TINY:
        _, res = traced[name]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in doc[section]}
            assert declared == {k: v["unit"] for k, v in res[section].items()}


def test_interval_samples_speed_and_excludes_probe_time():
    import time

    from speed import Interval

    with Interval() as iv:
        time.sleep(0.3)
    assert len(iv.samples) >= 4  # one at the start, then one every 50 ms
    assert 0.29 <= iv.raw < 0.35
    assert iv.factor > 0 and iv.seconds == iv.raw * iv.factor
