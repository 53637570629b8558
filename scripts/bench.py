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
speed drifts.
Exit code 0 when every run is correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=REPO)
    parser.add_argument("--against", metavar="REV", help="a commit to run alternately with this checkout")
    parser.add_argument("--pairs", type=int, default=3, help="alternate runs of each side with --against")
    args = parser.parse_args(argv)

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
    for name, sides in bench.get("paired", {}).get("workloads", {}).items():
        ok = ok and all(run["correct"] for side in sides.values() for run in side)
        rates = {side: " / ".join(f"{run['end_to_end']['work_per_s']['value']:.1f}" for run in runs)
                 for side, runs in sides.items()}
        print(f"{name:<18} paired work_per_s {args.against}: {rates['against']}  checkout: {rates['checkout']}")
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
