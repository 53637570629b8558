"""Smoke tests of the benchmark at a tiny size: scripts/bench.py runs and writes
every key, and the tracer finds a call in every span it requires.

Timings are never checked here; they belong to the benchmark itself.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

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
