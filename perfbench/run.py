"""Run one cliffcheck benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics: set-up
time in fresh interpreters, then a closed loop of operations for ``--seconds``
seconds.  With ``--trace 1`` traced and untraced rounds alternate, and the run
prints the per-layer metrics and the tracing overhead.  Every operation's
output is checked.  The last line of standard output is one JSON object;
the full results, with provenance and report digests, go to
``perfbench/out/<workload>/``.  See perfbench/README.md.
"""

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> None:
    """One thread everywhere; call before numpy is imported.  Children inherit it."""
    os.environ.pop("CLIFFCHECK_THREADS", None)
    for var in PINNED:
        os.environ[var] = "1"


def load_program():
    """Byte-compile and import cliffcheck from this checkout's ``src/``; return ``cli``."""
    if not (SRC / "cliffcheck" / "__init__.py").is_file():
        raise BenchError(f"no cliffcheck sources under {SRC}")
    # The build: byte-compile once, as an install leaves the package, so the
    # first set-up probe does not pay for compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cliffcheck
    from cliffcheck import cli

    if Path(cliffcheck.__file__).resolve().parent != SRC / "cliffcheck":
        raise BenchError(f"imported cliffcheck from {cliffcheck.__file__}, not {SRC}")
    return cli


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup(paths: list, env: dict) -> tuple:
    """Median (normalized, raw) seconds for a fresh interpreter to import the CLI
    and load the scenarios.

    Each child times itself, then times the speed probe right after, in the
    same process, for its speed reading.
    """
    from speed import PROBE_REFERENCE_S

    raw, normalized = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", *map(str, paths)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()[-500:]}")
        reading = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(reading["setup_s"])
        normalized.append(reading["setup_s"] * PROBE_REFERENCE_S / reading["probe_s"])
    return statistics.median(normalized), statistics.median(raw)


class InProcess:
    """Runs each operation as ``cli.main(argv)`` in this process."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer

    def run(self, op, traced: bool, op_id: int) -> tuple:
        from speed import Interval

        buf = io.StringIO()
        if traced:
            self.tracer.install(op_id)
        try:
            with contextlib.redirect_stdout(buf), Interval() as iv:
                code = self.cli.main(list(op.argv))
        finally:
            if traced:
                self.tracer.uninstall()
        return code, iv, buf.getvalue()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Children:
    """Runs each operation as a fresh ``python -m cliffcheck`` child process."""

    def __init__(self, env: dict, out: Path, tracer):
        self.env = env
        self.out = out
        self.tracer = tracer
        self._peak_kb = 0

    def run(self, op, traced: bool, op_id: int) -> tuple:
        from speed import Interval

        spans = self.out / "child-spans.json"
        log_path = self.out / "child.log"
        spans.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans), *op.argv]
        else:
            cmd = [sys.executable, "-m", "cliffcheck", *op.argv]
        with open(log_path, "w") as log, Interval() as iv:
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if traced:
            self.tracer.merge(json.loads(spans.read_text()), op_id)
        else:
            # only untraced children count: a traced one also holds its spans
            self._peak_kb = max(self._peak_kb, usage.ru_maxrss)
        return code, iv, log_path.read_text()

    def peak_rss_kb(self) -> int:
        return self._peak_kb


def measure(wl, cli, seconds: float, trace: bool, out: Path) -> dict:
    """Set up, run ``wl`` for ``seconds`` in a closed loop, gate every output.

    With ``trace``, untraced and traced rounds alternate until both have run
    and the time is up.  A round runs each of the workload's operations once.
    """
    from gate import Gate
    from tracing import Tracer, check_required, layer_metrics

    env = child_env()
    setup_s, setup_raw_s = measure_setup(wl.setup_scenarios, env)
    gate = Gate(SRC / "cliffcheck" / "schemas" / "report.schema.json")
    tracer = Tracer()
    runner = InProcess(cli, tracer) if wl.in_process else Children(env, out, tracer)

    attempted = failed = 0
    times = {False: [], True: []}  # traced? -> normalized op seconds of timed rounds
    raw_times = []  # untraced raw op seconds
    factors = []  # machine speed during each operation, relative to the reference
    round_s = {False: [], True: []}  # traced? -> normalized seconds of each timed round
    traced_rounds = []  # op ids of each traced round

    def one_round(traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        ids = []
        spent = 0.0
        for op in wl.ops:
            if op.report is not None:
                op.report.unlink(missing_ok=True)
            code, iv, stdout = runner.run(op, traced, attempted)
            ids.append(attempted)
            attempted += 1
            if op.report is not None:
                ok = gate.record_verify(op, code)
            else:
                ok = gate.record_selftest(op, code, stdout)
            failed += not ok
            spent += iv.seconds
            if timed:
                times[traced].append(iv.seconds)
                if not traced:
                    raw_times.append(iv.raw)
                    factors.append(iv.factor)
        if timed:
            round_s[traced].append(spent)
        if traced:
            traced_rounds.append(ids)

    if wl.in_process:
        one_round(traced=False, timed=False)  # warm-up: lazy imports and caches
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        one_round(traced, timed=True)
        if time.perf_counter() >= deadline and (not trace or round_s[True]):
            break
        traced = trace and not traced
    peak_kb = runner.peak_rss_kb()
    failed += gate.finish()

    # work per round: point checks from the reports, or selftest iterations
    if wl.work_unit == "iters":
        work_per_round = sum(op.iterations for op in wl.ops)
        points_per_round = 0
    else:
        work_per_round = sum(gate.work.get(op.label, (0, 0))[1] for op in wl.ops)
        points_per_round = sum(gate.work.get(op.label, (0, 0))[0] for op in wl.ops)
    q1, p50, q3 = quartiles(times[False])
    work_per_s = work_per_round / statistics.median(round_s[False])
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s.p50": {"value": p50, "unit": "s"},
        "work_per_s": {"value": work_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    detail = {
        "setup_s.raw": {"value": setup_raw_s, "unit": "s"},
        "op_s.p50.raw": {"value": statistics.median(raw_times), "unit": "s"},
        "speed": {"value": statistics.median(factors), "unit": "ratio"},
        "op_s.p25": {"value": q1, "unit": "s"},
        "op_s.p75": {"value": q3, "unit": "s"},
        "ops_timed": {"value": len(times[False]), "unit": "count"},
        f"{wl.work_unit}_per_s": {"value": work_per_s, "unit": "1/s"},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
    }
    layers = {}
    if trace:
        check_required(tracer, wl.required_spans)
        layers = layer_metrics(tracer, traced_rounds, points_per_round)
        layers["trace.overhead_s"] = {"value": statistics.median(times[True]) - p50, "unit": "s"}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": gate.failures[:20],
        "end_to_end": e2e,
        "detail": detail,
        "per_layer": layers,
        "report_sha256": gate.digests,
        "work_per_round": work_per_round,
        "points_per_round": points_per_round,
        "tracer": tracer,
    }


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "env": {k: os.environ.get(k) for k in ("CLIFFCHECK_THREADS", *PINNED)},
    }


def print_results(name: str, seed: int, results: dict) -> None:
    print(f"workload {name}  seed {seed}  attempted {results['attempted']}  "
          f"failed {results['failed']}")
    for label, message in results["failures"]:
        print(f"  FAILED {label}: {message}")
    rows = dict(results["end_to_end"], **results["detail"], **results["per_layer"])
    rows.pop("work_per_s")  # printed under its workload's own name
    for metric, entry in rows.items():
        print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    for label, sha in results["report_sha256"].items():
        print(f"  sha256 {sha}  {label}")


def main(argv=None) -> int:
    pin_environment()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = HERE / "out" / args.workload
    try:
        cli = load_program()
        out.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[args.workload](ROOT, out, args.seed)
        results = measure(wl, cli, args.seconds, bool(args.trace), out)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - a trace or harness fault: no result is printed
        traceback.print_exc()
        return 2

    tracer = results.pop("tracer")
    if args.trace:
        tracer.write(out / f"spans-seed{args.seed}.json")
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, provenance=provenance(), **results)
    (out / f"results-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_results(args.workload, args.seed, results)
    metrics = results["per_layer"] if args.trace else results["end_to_end"]
    print(json.dumps({
        "correct": results["correct"],
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": metrics,
    }))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
