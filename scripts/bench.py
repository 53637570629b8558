#!/usr/bin/env python3
"""Run the benchmark's workloads and write their results to one BENCH_<pr>.json.

    python3 scripts/bench.py --pr 6 --seed 1 --seconds 20 [--workloads ...] [--out DIR]
                             [--against REV --pairs N]

Each workload runs twice through ``perfbench/run.py``: untraced for the
timings, then traced for the per-layer split.  The results they leave in
``perfbench/out/<workload>/results-seed<N>-trace<0|1>.json`` are gathered
into ``<out>/BENCH_<pr>.json``: per workload the end-to-end metrics, the
quartiles and raw times, the report sha256 digests, the provenance (host,
Python and numpy versions, git sha, source sha256) and the per-layer split
of the traced run.  The
file records one run on one host; compare runs from the same host only.

With ``--against REV`` the script also unpacks ``git archive REV`` into a
temporary directory, removed when it is done, and runs each workload
``--pairs`` times more there and in this checkout, untraced and
alternately, REV first in the odd pairs and last in the even ones.  The
two series of end-to-end metrics go under ``paired``, so that a change is
compared with its parent on the same host at the same time, as the host's
speed drifts.  For each workload and each end-to-end metric of
``BENCHMARK.json`` it then prints the median and quartiles of both sides and
in how many pairs the checkout was better, in the direction that file gives
the metric; the raw runs are in the JSON.  ``--pairs`` must be at least 1.
A SIGTERM ends the script as an exit does: the temporary directory is
removed and a running ``perfbench/run.py`` child is killed.
Exit code 0 when every run is correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("schw-10check", "kerr-identities", "algebra-selftest", "bundled-cold")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path = REPO) -> dict:
    """One ``perfbench/run.py`` run of the checkout at ``root``; returns the results file it writes.

    The file of an earlier run is removed first, so a run that fails (exit
    code other than 0, correct, or 1, incorrect) cannot leave old numbers.
    """
    path = root / "perfbench" / "out" / name / f"results-seed{seed}-trace{int(trace)}.json"
    path.unlink(missing_ok=True)
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not path.exists():
        raise RuntimeError(f"{name}: the benchmark gave no result "
                           f"(exit code {proc.returncode})\n{proc.stderr}")
    return json.loads(path.read_text())


def workload_entry(untraced: dict, traced: dict) -> dict:
    entry = {key: untraced[key] for key in ("correct", "attempted", "failed", "end_to_end",
                                            "detail", "report_sha256", "provenance")}
    entry["per_layer"] = traced["per_layer"]
    entry["traced_correct"] = traced["correct"]
    return entry


def unpack(rev: str, into: Path) -> None:
    """The files of commit ``rev`` of this repository, from ``git archive``, written under ``into``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def paired_runs(rev: str, pairs: int, names, seed: int, seconds: float) -> dict:
    """Per workload, the end-to-end metrics of ``pairs`` untraced runs of ``rev`` and of this checkout.

    The runs alternate, ``rev`` first in the first pair, the checkout first
    in the next, and so on, so that a drift of the host's speed weighs on
    both sides alike.  ``rev`` runs from a temporary directory, which is
    removed when the runs end or fail.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-against-"))
    try:
        unpack(rev, tmp)
        series = {name: {"against": [], "checkout": []} for name in names}
        sides = (("against", tmp), ("checkout", REPO))
        for pair in range(pairs):
            for name in names:
                for side, root in sides[::-1] if pair % 2 else sides:
                    result = run_workload(name, seed, seconds, False, root)
                    series[name][side].append({"correct": result["correct"], "end_to_end": result["end_to_end"]})
        return series
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def quartiles(values: list) -> tuple:
    """The first quartile, median and third quartile of ``values``, as ``perfbench/run.py`` takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def paired_summary(against: str, series: dict, metrics: list) -> list:
    """One line per workload of ``series`` (as ``paired_runs`` returns it) and metric of ``metrics``
    (``BENCHMARK.json``'s ``end_to_end``): each side's median [quartiles], and in how many
    pairs the checkout was better than ``against`` in the metric's direction; a tie is not."""
    lines = []
    for name, sides in series.items():
        for metric in metrics:
            key, higher = metric["name"], metric["better"] == "higher"
            values = {side: [run["end_to_end"][key]["value"] for run in runs] for side, runs in sides.items()}
            won = sum((new > old) if higher else (new < old)
                      for old, new in zip(values["against"], values["checkout"]))
            text = {side: "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(v)) for side, v in values.items()}
            lines.append(f"{name:<18} {key:<12} {metric['better']:<6} {against}: {text['against']}  "
                         f"checkout: {text['checkout']}  checkout better in {won}/{len(values['checkout'])}")
    return lines


def at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def exit_on_sigterm(signum, frame):
    # a SystemExit unwinds through the finally blocks: paired_runs removes its
    # directory, and subprocess.run kills the child it waits for
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=REPO)
    parser.add_argument("--against", metavar="REV", help="a commit to run alternately with this checkout")
    parser.add_argument("--pairs", type=at_least_one, default=3, help="alternate runs of each side with --against")
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        return write_bench(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def write_bench(args) -> int:
    """The runs ``main``'s parsed arguments ask for; writes BENCH_<pr>.json and returns the exit code."""
    results = {}
    for name in args.workloads:
        untraced = run_workload(name, args.seed, args.seconds, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        results[name] = workload_entry(untraced, traced)
    bench = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": results,
    }
    if args.against:
        bench["paired"] = {"against": args.against, "pairs": args.pairs,
                           "workloads": paired_runs(args.against, args.pairs, args.workloads, args.seed,
                                                    args.seconds)}
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    ok = all(r["correct"] and r["traced_correct"] for r in results.values())
    if args.against:
        series = bench["paired"]["workloads"]
        ok = ok and all(run["correct"] for sides in series.values() for runs in sides.values() for run in runs)
        metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
        for line in paired_summary(args.against, series, metrics):
            print(line)
    for name, entry in results.items():
        e2e = entry["end_to_end"]
        print(f"{name:<18} work_per_s {e2e['work_per_s']['value']:10.1f}  "
              f"op_s.p50 {e2e['op_s.p50']['value']:.4f} s  "
              f"peak_rss_mb {e2e['peak_rss_mb']['value']:.1f}  "
              f"{'ok' if entry['correct'] else 'INCORRECT'}")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
