"""Command-line interface: verify scenarios, list builtins, run the selftest.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage,
validation or runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .errors import CliffcheckError, ScenarioValidationError
from .runner import list_builtins, load_scenario, run
from .selftest import run_algebra_suite, run_diffops_suite


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


_positive_int = partial(_int_at_least, 1)
_seed = partial(_int_at_least, 0)  # numpy's default_rng takes no negative seed


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
        "--tol", type=float, metavar="X",
        help="override the default tolerance (per-check overrides still apply)",
    )
    verify.add_argument(
        "--points", type=_positive_int, metavar="N",
        help="replace the scenario samples with N random in-domain points",
    )
    verify.add_argument(
        "--seed", type=_seed, metavar="S", help="seed for --points sampling"
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
        npts = len(check.records)
        errors = sum(1 for r in check.records if r.error)
        suffix = f", {errors} point error(s)" if errors else ""
        print(
            f"[{status}] {check.check:<24} max_residual={check.max_residual:.3e} "
            f"(tol {check.tolerance:.0e}, {npts} points{suffix})"
        )
        if not check.passed:
            for rec in check.records:
                if rec.error:
                    print(f"         point {rec.point}: error: {rec.error}")
                elif not rec.passed:
                    failing = {k: v for k, v in rec.residuals.items() if v > check.tolerance}
                    print(f"         point {rec.point}: failing {failing}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

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
