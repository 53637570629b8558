"""Smoke tests of the benchmark at a tiny size: scripts/bench.py runs and writes
every key, and the tracer finds a call in every span it requires.

Timings are never checked here; they belong to the benchmark itself.
"""

import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def test_bench_script_writes_every_key(tmp_path):
    argv = [sys.executable, str(REPO / "scripts" / "bench.py"), "--pr", "0", "--seed", "97",
            "--seconds", "1", "--workloads", "kerr-identities", "--out", str(tmp_path)]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert {"pr", "seed", "seconds", "workloads"} <= set(bench)
    assert (bench["pr"], bench["seed"]) == (0, 97)
    (entry,) = bench["workloads"].values()
    assert entry["correct"] is True and entry["failed"] == 0
    assert set(entry["end_to_end"]) == {"setup_s", "op_s.p50", "work_per_s", "peak_rss_mb"}
    assert {"op_s.p25", "op_s.p75", "speed"} <= set(entry["detail"])
    assert set(entry["report_sha256"]) == {"kerr-identities"}
    assert {"git_sha", "src_sha256", "numpy", "python", "nproc"} <= set(entry["provenance"])
    assert entry["traced_correct"] is True
    assert {"fieldcheck.point_evals", "diffops.operator_calls", "algebra.product_calls",
            "runner.serialize_s", "trace.overhead_s"} <= set(entry["per_layer"])


def test_the_benchmark_tracer_finds_every_required_span():
    # the tracer's required spans name functions under src/ on every workload;
    # a change that leaves one without calls breaks scripts/bench.py, and only
    # the benchmark's own tiny-workload test runs all four workloads traced
    argv = [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider",
            "-k", "test_tiny_workload_passes_gate_and_traces_every_layer"]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert re.search(r"\b4 passed\b", summary) and "failed" not in summary, proc.stdout


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_script", REPO / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_runs_alternate_the_revision_and_the_checkout_and_remove_the_revision(tmp_path, monkeypatch):
    # a stubbed run: no workload runs, but the revision is unpacked from git
    # archive, and each run records the checkout it ran from
    if subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    bench = _bench_module()
    calls = []

    def run_workload(name, seed, seconds, trace, root=bench.REPO):
        assert (root / "perfbench" / "run.py").is_file() and (root / "src" / "cliffcheck").is_dir()
        calls.append((name, trace, root))
        e2e = {key: {"value": float(len(calls))} for key in ("setup_s", "op_s.p50", "work_per_s", "peak_rss_mb")}
        return {"correct": True, "attempted": 1, "failed": 0, "end_to_end": e2e, "detail": {},
                "report_sha256": {}, "provenance": {}, "per_layer": {}}

    monkeypatch.setattr(bench, "run_workload", run_workload)
    argv = ["--pr", "0", "--seconds", "1", "--workloads", "kerr-identities", "schw-10check", "--out", str(tmp_path),
            "--against", "HEAD", "--pairs", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench.main(argv) == 0
    # an untraced and a traced run of the checkout per workload, then the pairs
    assert [(name, trace, root) for name, trace, root in calls[:4]] == [
        ("kerr-identities", False, REPO), ("kerr-identities", True, REPO),
        ("schw-10check", False, REPO), ("schw-10check", True, REPO)]
    paired = calls[4:]
    assert len(paired) == 2 * 2 * 2 and not any(trace for _, trace, _ in paired)
    against = paired[0][2]
    assert against != REPO
    assert [(name, root) for name, _, root in paired] == [  # the revision first, then the checkout first
        (name, root) for order in ((against, REPO), (REPO, against))
        for name in ("kerr-identities", "schw-10check") for root in order]
    assert not against.exists()  # removed when the runs end
    written = json.loads((tmp_path / "BENCH_0.json").read_text())["paired"]
    assert (written["against"], written["pairs"]) == ("HEAD", 2)
    series = written["workloads"]["schw-10check"]
    assert [run["end_to_end"]["work_per_s"]["value"] for run in series["against"]] == [7.0, 12.0]
    assert [run["end_to_end"]["work_per_s"]["value"] for run in series["checkout"]] == [8.0, 11.0]


def test_paired_runs_remove_the_revision_when_a_run_fails(monkeypatch):
    if subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    bench = _bench_module()
    roots = []

    def failing(name, seed, seconds, trace, root=bench.REPO):
        roots.append(root)
        raise RuntimeError(f"{name}: the benchmark gave no result")

    monkeypatch.setattr(bench, "run_workload", failing)
    with pytest.raises(RuntimeError, match="gave no result"):
        bench.paired_runs("HEAD", 1, ["kerr-identities"], seed=1, seconds=1.0)
    assert roots and not roots[0].exists()
