"""The benchmark's four workloads: inputs made from a seed, and what each must output.

Every workload is a closed loop with one client: an operation starts only
when the previous one has ended.  The program never sees the benchmark seed;
verify workloads receive explicit ``samples.points`` and the selftest receives
its own ``--seed`` derived from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL_CHECKS = (
    "killing",
    "killing_identities",
    "lorenz_gauge",
    "superconducting_current",
    "maxwell_current",
    "lorentz_force",
    "hamilton_jacobi",
    "einstein",
    "structure_current",
    "sandwich_identities",
)
# The 10-check fields are hand-built, not solutions of the coupled system, so
# the three solution detectors fail on them.
SCHW_FAILING = ("lorentz_force", "hamilton_jacobi", "einstein")

# The catalog's Schwarzschild domain box; the Kerr chart reuses it (r >= 2.5
# stays outside the ergosphere for a = 0.6).
BL_COORDS = ("t", "r", "theta", "phi")
BL_BOX = {"t": (-3.0, 3.0), "r": (2.5, 20.0), "theta": (0.35, 2.8), "phi": (0.0, 6.2)}

# Bundled scenarios and the verdict each of their checks must reach.
BUNDLED = (
    ("scenarios/flrw_superconducting.json", 0, {}),
    ("scenarios/minkowski_boost.json", 0, {}),
    ("scenarios/minkowski_charged_dust.json", 0, {}),
    ("scenarios/schwarzschild_killing.json", 0, {}),
    ("scenarios/schwarzschild_vacuum_einstein.json", 0, {}),
    ("scenarios/negative/flrw_empty_einstein.json", 1, {"einstein": False}),
    ("scenarios/negative/lorenz_not_killing.json", 1, {"lorenz_gauge": True, "killing": False}),
    ("scenarios/negative/non_killing.json", 1, {"killing": False}),
)

VERIFY_SPANS = (
    "cli.main", "runner.load_scenario", "runner.run", "runner.to_json", "expr.parse",
    "expr.jet", "geometry.curvature", "geometry.metric_at", "algebra.metric_build",
    "algebra.table_build", "diffops.field_jets", "diffops.operator", "fieldcheck.pointwise",
)


@dataclass(frozen=True)
class Op:
    """One operation: a ``cliffcheck`` command line and the output it must give."""

    label: str
    argv: tuple
    expected_exit: int
    expected_checks: dict | None = None  # check -> passed; None for the selftest
    report: Path | None = None
    iterations: int = 0  # selftest iterations, the unit of work of algebra-selftest


@dataclass
class Workload:
    name: str
    in_process: bool
    ops: list  # one round, in order
    setup_scenarios: list  # scenario paths a setup probe loads
    required_spans: tuple
    work_unit: str  # "point_checks" or "iters"


def _points(rng: np.random.Generator, count: int) -> list:
    return [[float(rng.uniform(*BL_BOX[c])) for c in BL_COORDS] for _ in range(count)]


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def schw_10check(root: Path, out: Path, seed: int, points: int = 200) -> Workload:
    rng = np.random.default_rng([seed, 1])
    doc = {
        "description": "benchmark: Schwarzschild, ten checks over shared points",
        "metric": {"builtin": "schwarzschild", "params": {"M": 1.0}},
        "constants": {"coupling": 1.0},
        "fields": {
            "K": {"t": "1-2*M/r"},
            "S": {"1": "t"},
            "V": {"t": "sqrt(1-2*M/r)"},
        },
        "samples": {"points": _points(rng, points)},
        "checks": list(ALL_CHECKS),
        "tolerances": {"default": 1e-8},
    }
    scenario = _write(out / "scenario.json", doc)
    report = out / "report.json"
    expected = {c: c not in SCHW_FAILING for c in ALL_CHECKS}
    op = Op("schw-10check", ("verify", str(scenario), "--report", str(report)), 1, expected, report)
    return Workload("schw-10check", True, [op], [scenario],
                    VERIFY_SPANS + ("algebra.product",), "point_checks")


def kerr_metric_rows() -> tuple:
    """Boyer-Lindquist Kerr g_{mu nu} (signature +---) and the Killing form g_{t mu}."""
    sigma = "(r^2+a^2*cos(theta)^2)"
    delta = "(r^2-2*M*r+a^2)"
    g_tt = f"1-2*M*r/{sigma}"
    g_tphi = f"2*M*a*r*sin(theta)^2/{sigma}"
    g_phiphi = f"-(r^2+a^2+2*M*a^2*r*sin(theta)^2/{sigma})*sin(theta)^2"
    rows = [
        [g_tt, "0", "0", g_tphi],
        ["0", f"-{sigma}/{delta}", "0", "0"],
        ["0", "0", f"-{sigma}", "0"],
        [g_tphi, "0", "0", g_phiphi],
    ]
    return rows, {"t": g_tt, "phi": g_tphi}


def kerr_identities(root: Path, out: Path, seed: int, points: int = 1000) -> Workload:
    rng = np.random.default_rng([seed, 2])
    rows, killing = kerr_metric_rows()
    doc = {
        "description": "benchmark: Kerr (M=1, a=0.6), stationary Killing form identities",
        "metric": {
            "coords": list(BL_COORDS),
            "components": rows,
            "params": {"M": 1.0, "a": 0.6},
            "domain": {c: list(BL_BOX[c]) for c in BL_COORDS},
        },
        "fields": {"K": killing},
        "samples": {"points": _points(rng, points)},
        "checks": ["killing_identities"],
        "tolerances": {"default": 1e-8},
    }
    scenario = _write(out / "scenario.json", doc)
    report = out / "report.json"
    op = Op("kerr-identities", ("verify", str(scenario), "--report", str(report)), 0,
            {"killing_identities": True}, report)
    return Workload("kerr-identities", True, [op], [scenario], VERIFY_SPANS, "point_checks")


def algebra_selftest(root: Path, out: Path, seed: int, iterations: int = 1000) -> Workload:
    argv = ("algebra-selftest", "--iterations", str(iterations), "--seed", str(20240811 + seed))
    op = Op("algebra-selftest", argv, 0, iterations=iterations)
    required = ("cli.main", "selftest.suite", "algebra.metric_build", "algebra.table_build",
                "algebra.product")
    return Workload("algebra-selftest", True, [op], [], required, "iters")


def bundled_cold(root: Path, out: Path, seed: int) -> Workload:
    ops = []
    for rel, code, verdicts in BUNDLED:
        scenario = root / rel
        checks = json.loads(scenario.read_text())["checks"]
        expected = {c: verdicts.get(c, code == 0) for c in checks}
        report = out / (Path(rel).stem + ".report.json")
        argv = ("verify", str(scenario), "--report", str(report))
        ops.append(Op(rel, argv, code, expected, report))
    # the seed only rotates where the cycle starts; every round runs all eight
    start = seed % len(ops)
    ops = ops[start:] + ops[:start]
    return Workload("bundled-cold", False, ops, [root / rel for rel, _, _ in BUNDLED],
                    VERIFY_SPANS + ("algebra.product",), "point_checks")


WORKLOADS = {
    "schw-10check": schw_10check,
    "kerr-identities": kerr_identities,
    "algebra-selftest": algebra_selftest,
    "bundled-cold": bundled_cold,
}
