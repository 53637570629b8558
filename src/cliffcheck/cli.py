"""Command-line interface: verify scenarios, list builtins, run the selftest.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage,
validation or runtime errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from .errors import CliffcheckError, ScenarioValidationError
from .runner import MAX_POINTS, list_builtins, load_scenario, run
from .selftest import run_algebra_suite, run_diffops_suite


def _int_between(low: int, high: float, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    if value > high:
        raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
    return value


_positive_int = partial(_int_between, 1, math.inf)
_point_count = partial(_int_between, 1, MAX_POINTS)
_seed = partial(_int_between, 0, math.inf)  # numpy's default_rng takes no negative seed


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffcheck",
        description="Pointwise Clifford-calculus identity checker for 4-D Lorentzian spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a scenario file and report residuals")
    verify.add_argument("scenario", help="path to a scenario JSON file")
    verify.add_argument("--report", metavar="OUT", help="write the JSON report here")
    verify.add_argument(
        "--tol", type=_tolerance, metavar="X",
        help="override the default tolerance (per-check overrides still apply)",
    )
    verify.add_argument(
        "--points", type=_point_count, metavar="N",
        help="replace the scenario samples with N random in-domain points",
    )
    verify.add_argument(
        "--seed", type=_seed, metavar="S", help="seed for --points sampling (needs --points)"
    )

    sub.add_parser("catalog", help="list builtin metrics and their Killing forms")

    selftest = sub.add_parser(
        "algebra-selftest", help="run the randomized algebra/operator property suites"
    )
    selftest.add_argument("--iterations", type=_positive_int, default=2000, metavar="N")
    selftest.add_argument("--seed", type=_seed, default=20240811, metavar="S")
    return parser


def _print_check_lines(report) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f", {len(check.errors)} point error(s)" if check.errors else ""
        print(
            f"[{status}] {check.check:<24} max_residual={check.max_residual:.3e} "
            f"(tol {check.tolerance:.0e}, {len(check.points)} points{suffix})"
        )
        worst = check.worst()
        if worst is not None:
            point, key, value = worst
            print(f"         worst point {point}: {key}={value:.3e}")
        if not check.passed:
            for point, error, failing in check.failures():
                if error:
                    print(f"         point {point}: error: {error}")
                else:
                    print(f"         point {point}: failing {failing}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed is not None and args.points is None:
        parser.error("argument --seed: seeds the random points of --points N, which is not given")

    if args.command == "catalog":
        print(list_builtins(), end="")
        return 0

    if args.command == "algebra-selftest":
        algebra = run_algebra_suite(iterations=args.iterations, seed=args.seed)
        ops = run_diffops_suite(seed=args.seed + 1)
        for suite in (algebra, ops):
            print(f"== {suite.name} suite ({suite.elapsed_s:.2f}s) ==")
            for line in suite.lines():
                print(line)
        ok = algebra.passed and ops.passed
        print("overall:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    # verify
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioValidationError as err:
        print(str(err), file=sys.stderr)
        return 2
    try:
        report = run(
            scenario,
            tol_override=args.tol,
            points_override=args.points,
            seed_override=args.seed,
        )
    except CliffcheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if scenario.description:
        print(f"scenario: {scenario.description}")
    print(f"digest:   {scenario.digest}")
    _print_check_lines(report)
    print(f"overall:  {'PASS' if report.passed else 'FAIL'} ({report.wall_time_s:.2f}s)")

    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(report.to_json())
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            return 2
        print(f"report:   {args.report}")
    return 0 if report.passed else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
