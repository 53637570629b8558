"""The ``einstein`` check with a field: Reissner-Nordstrom and Kerr-Newman.

Every other passing ``einstein`` case has F = 0 (flat or vacuum, A = 0), so
these pin the normalization and the signs of the stress forms.  The check's
stress forms carry a factor 2 against geometrized Gaussian units: the
potential that solves it is sqrt(2) times the textbook one, A = sqrt(2) Q/r dt
on Reissner-Nordstrom, and the textbook A = Q/r dt fails.  On Kerr-Newman
(Boyer-Lindquist, g_t phi off the diagonal) A = sqrt(2) Q r / Sigma
(dt - a sin^2 theta dphi) passes, and the opposite sign of its dphi term
fails.  Each potential is divergence free and dA is closed, so
``lorenz_gauge`` and ``maxwell_current`` pass in every case.
"""

import numpy as np
import pytest

from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck.diffops import MultivectorField

from oracles import records

COORDS = ("t", "r", "theta", "phi")
PARAMS = {"M": 1.0, "Q": 0.5, "a": 0.6}
_F = "(1-2*M/r+Q^2/r^2)"
REISSNER_NORDSTROM = geo.MetricSpec.from_strings(
    COORDS,
    [[_F, "0", "0", "0"], ["0", f"-1/{_F}", "0", "0"], ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]],
    {"M": 1.0, "Q": 0.5},
    "reissner-nordstrom",
)
_SIGMA = "(r^2+a^2*cos(theta)^2)"
_W = "(2*M*r-Q^2)"  # Kerr's 2 M r, less Q^2
_G_TPHI = f"a*{_W}*sin(theta)^2/{_SIGMA}"
KERR_NEWMAN = geo.MetricSpec.from_strings(
    COORDS,
    [
        [f"1-{_W}/{_SIGMA}", "0", "0", _G_TPHI],
        ["0", f"-{_SIGMA}/(r^2-2*M*r+a^2+Q^2)", "0", "0"],
        ["0", "0", f"-{_SIGMA}", "0"],
        [_G_TPHI, "0", "0", f"-(r^2+a^2+a^2*{_W}*sin(theta)^2/{_SIGMA})*sin(theta)^2"],
    ],
    PARAMS,
    "kerr-newman",
)
_KN_T = f"sqrt(2)*Q*r/{_SIGMA}"
_KN_PHI = f"sqrt(2)*Q*r*a*sin(theta)^2/{_SIGMA}"
# case -> (metric, potential, whether einstein passes, sample points)
CASES = {
    "reissner-nordstrom": (REISSNER_NORDSTROM, {"t": "sqrt(2)*Q/r"}, True, 16),
    "reissner-nordstrom-gaussian": (REISSNER_NORDSTROM, {"t": "Q/r"}, False, 16),
    "kerr-newman": (KERR_NEWMAN, {"t": _KN_T, "phi": f"-{_KN_PHI}"}, True, 64),
    "kerr-newman-flipped": (KERR_NEWMAN, {"t": _KN_T, "phi": _KN_PHI}, False, 64),
}
CHECKS = ["einstein", "lorenz_gauge", "maxwell_current"]
TOLERANCE = 1e-10


@pytest.mark.parametrize("case", sorted(CASES))
def test_electrovacuum_einstein_passes_with_the_solving_potential_alone(case):
    spec, potential, solves, count = CASES[case]
    rng = np.random.default_rng(67)
    points = rng.uniform([-3.0, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2], size=(count, 4))  # outside the horizons
    fields = fch.ScenarioFields(A=MultivectorField.from_components(potential, spec.coords))
    reports = fch.run_checks(spec, fields, CHECKS, points, [TOLERANCE] * len(CHECKS))
    assert {r.check: r.passed for r in reports} == {"einstein": solves, "lorenz_gauge": True,
                                                    "maxwell_current": True}
    einstein, lorenz, maxwell = ({p["error"] for p in records(r)} for r in reports)
    assert einstein == lorenz == maxwell == {None}
    worst = reports[0].max_residual
    if solves:
        assert worst <= 1e-14
    else:
        assert worst >= 1e-4  # measured: 7.7e-3 for Reissner-Nordstrom, 2.0e-3 for Kerr-Newman
    for p in records(reports[0]):
        # an electrovacuum: the trace of the field's stress vanishes, and the
        # solving potential carries no current (the flipped one does)
        assert abs(p["info"]["scalar_curvature"]) <= 1e-14
        if solves:
            assert max(abs(c) for c in p["info"]["current"]) <= 1e-14
            assert p["residuals"]["trace_equation"] <= 1e-14
