import gc
import hashlib
import json
import math
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffcheck import blades, diffops, selftest
from cliffcheck import expr as ex
from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck import runner
from cliffcheck.algebra import PointMetric, grade_project, grades, linear_combination, oneform, sup
from cliffcheck.diffops import FieldCalculus, MultivectorField
from cliffcheck.errors import CliffcheckError, FieldError

from oracles import check_dict, records
from test_diffops import dense_dgop, dense_gop
from test_geometry import BLOCK_CASES, KERR, MIXED, MIXED_ERRORS, OVERFLOW, OVERFLOW_POINT, mixed_points

MINK = geo.build_metric("minkowski")
SCHW = geo.build_metric("schwarzschild", {"M": 1.0})
FLRW = geo.build_metric("flrw", {"a": "t"})

MINK_PTS = [(0.1, 0.4, -0.7, 1.2), (1.0, -1.0, 0.5, 0.0), (-0.3, 2.0, 1.5, -2.0)]
SCHW_PTS = [(0.0, 3.0, 1.2, 0.4), (0.5, 4.0, 2.0, 3.0), (-1.0, 10.0, 0.9, 5.5)]
FLRW_PTS = [(0.6, 0.2, -0.4, 1.0), (1.0, 0.0, 0.0, 0.0), (1.9, -1.2, 0.8, 0.3)]


def field(components, spec):
    return MultivectorField.from_components(components, spec.coords)


def run_check(name, spec, fields, points, tol, seed=0):
    (report,) = fch.run_checks(spec, fields, [name], points, [tol], seed)
    return report


def test_readme_checks_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Checks", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| `")]
    assert [name.strip("`") for name, *_ in rows] == list(fch.CHECKS)
    for (name, requires, _), check in zip(rows, fch.CHECKS.values()):
        derived = ", ".join("A or K" if need == "potential" else need for need in check.needs)
        assert requires == (derived or "none"), name


def test_run_checks_evaluates_each_expression_it_reads_once_per_chunk(monkeypatch):
    K, S = field({"t": "x", "x": "-t"}, MINK), field({"1": "t*x"}, MINK)  # no check reads S
    evaluated = []
    evaluate = ex.evaluate_jet2
    monkeypatch.setattr(ex, "evaluate_jet2", lambda e, *args: evaluated.append(id(e)) or evaluate(e, *args))
    points = [tuple(p) for p in np.random.default_rng(2).uniform(-1, 1, size=(fch.CHUNK + 40, 4))]
    fch.run_checks(MINK, fch.ScenarioFields(K=K, S=S), ["killing", "killing_identities"], points,
                   [1e-10, 1e-10])
    read = [MINK.g_lower[i][j] for i in range(4) for j in range(i, 4)]
    read += [e for e in K.comps if not ex.is_zero(e)]
    assert Counter(evaluated) == {id(e): 2 for e in read}  # two chunks


# -- killing ---------------------------------------------------------------------


def test_killing_minkowski_translation():
    K = field({"t": "1"}, MINK)
    report = run_check("killing", MINK, fch.ScenarioFields(K=K), MINK_PTS, 1e-10)
    assert report.passed
    assert report.max_residual == 0.0


def test_killing_schwarzschild_static():
    K = field({"t": "1-2*M/r"}, SCHW)
    report = run_check("killing", SCHW, fch.ScenarioFields(K=K), SCHW_PTS, 1e-10)
    assert report.passed, check_dict(report)


def test_killing_negative_witness():
    K = field({"x": "x"}, MINK)
    report = run_check("killing", MINK, fch.ScenarioFields(K=K), MINK_PTS, 1e-10)
    assert not report.passed
    assert report.max_residual > 1.0


def test_killing_boost_form_sign():
    # the metric dual of the boost vector is x dt - t dx; the + version fails
    good = fch.ScenarioFields(K=field({"t": "x", "x": "-t"}, MINK))
    bad = fch.ScenarioFields(K=field({"t": "x", "x": "t"}, MINK))
    good = run_check("killing", MINK, good, MINK_PTS, 1e-12)
    bad = run_check("killing", MINK, bad, MINK_PTS, 1e-12)
    assert good.passed
    assert not bad.passed


def test_lorenz_gauge_but_not_killing_witness():
    L = field({"x": "y"}, MINK)
    gauge = run_check("lorenz_gauge", MINK, fch.ScenarioFields(A=L), MINK_PTS, 1e-12)
    killing = run_check("killing", MINK, fch.ScenarioFields(K=L), MINK_PTS, 1e-10)
    assert gauge.passed
    assert not killing.passed


def test_point_errors_recorded_not_raised():
    K = field({"t": "1-2*M/r"}, SCHW)
    pts = [(0.0, 4.0, 1.0, 0.0), (0.0, 2.0, 1.0, 0.0)]  # second on the horizon
    report = run_check("killing", SCHW, fch.ScenarioFields(K=K), pts, 1e-10)
    assert not report.passed
    assert records(report)[0]["passed"]
    assert records(report)[1]["error"] is not None


# -- killing identity bundle ------------------------------------------------------------------


def test_killing_identities_minkowski_boost():
    K = field({"t": "x", "x": "-t"}, MINK)
    report = run_check("killing_identities", MINK, fch.ScenarioFields(K=K), MINK_PTS, 1e-10)
    assert report.passed, check_dict(report)


def test_killing_identities_flrw_translation_nontrivial():
    K = field({"x": "-t^2"}, FLRW)
    report = run_check("killing_identities", FLRW, fch.ScenarioFields(K=K), FLRW_PTS, 1e-8)
    assert report.passed, check_dict(report)
    assert any(
        max(abs(v) for v in rec["info"]["curvature_coupling"]) > 1e-3 for rec in records(report)
    )


def test_killing_identities_schwarzschild_axial():
    K = field({"phi": "-r^2*sin(theta)^2"}, SCHW)
    report = run_check("killing_identities", SCHW, fch.ScenarioFields(K=K), SCHW_PTS, 1e-8)
    assert report.passed, check_dict(report)


def test_killing_identities_all_catalog_forms():
    rng = np.random.default_rng(77)
    for key, spec, pts in (
        ("minkowski", MINK, MINK_PTS),
        ("schwarzschild", SCHW, SCHW_PTS),
        ("flrw", FLRW, FLRW_PTS),
    ):
        for kf in geo.killing_forms(key, {"a": "t"} if key == "flrw" else None):
            K = field(dict(kf.components), spec)
            fields = fch.ScenarioFields(K=K)
            assert run_check("killing", spec, fields, pts, 1e-9).passed, kf.name
            assert run_check("killing_identities", spec, fields, pts, 1e-8).passed, kf.name


# -- maxwell / superconducting current ------------------------------------------------


def test_current_vacuum_is_null():
    A = field({"t": "1-2*M/r"}, SCHW)
    report = run_check("superconducting_current", SCHW, fch.ScenarioFields(A=A), SCHW_PTS, 1e-9)
    assert report.passed
    for rec in records(report):
        assert rec["info"]["current_sup"] < 1e-9
        assert rec["info"]["proportional_rhs_sup"] < 1e-9


def test_current_flrw_nonzero_and_proportional():
    A = field({"x": "-t^2"}, FLRW)
    report = run_check("superconducting_current", FLRW, fch.ScenarioFields(A=A), FLRW_PTS, 1e-8)
    assert report.passed, check_dict(report)
    assert all(rec["info"]["current_sup"] > 1e-3 for rec in records(report))


def test_current_uniform_field_strength():
    A = field({"t": "x"}, MINK)
    report = run_check("superconducting_current", MINK, fch.ScenarioFields(A=A), MINK_PTS, 1e-12)
    assert report.passed
    assert all(rec["info"]["current_sup"] == 0.0 for rec in records(report))


def test_current_scaled_potential():
    # J is linear in the coupling: A = coupling * K doubles the current
    K = field({"x": "-t^2"}, FLRW)
    r1 = run_check("superconducting_current", FLRW, fch.ScenarioFields(A=K), [FLRW_PTS[0]], 1e-8)
    doubled = fch.ScenarioFields(A=K.scaled(2.0))
    r2 = run_check("superconducting_current", FLRW, doubled, [FLRW_PTS[0]], 1e-8)
    j1 = np.array(records(r1)[0]["info"]["current"])
    j2 = np.array(records(r2)[0]["info"]["current"])
    assert np.max(np.abs(j2 - 2.0 * j1)) < 1e-12


# -- charged fluid ---------------------------------------------------------------------


def test_lorentz_force_static_dust():
    fields = fch.ScenarioFields(
        V=field({"t": "1"}, MINK), A=MultivectorField.zero()
    )
    report = run_check("lorentz_force", MINK, fields, MINK_PTS, 1e-12)
    assert report.passed


def test_lorentz_force_gradient_velocity():
    # V = dS/m with (dS)^2 = m^2: S = sqrt(2) t + x, m = 1
    fields = fch.ScenarioFields(
        V=field({"t": "sqrt(2)", "x": "-1"}, MINK), A=MultivectorField.zero()
    )
    report = run_check("lorentz_force", MINK, fields, MINK_PTS, 1e-12)
    assert report.passed, check_dict(report)


def test_lorentz_force_fail_witness():
    fields = fch.ScenarioFields(V=field({"t": "1"}, MINK), A=field({"t": "x"}, MINK))
    report = run_check("lorentz_force", MINK, fields, MINK_PTS, 1e-10)
    assert not report.passed
    assert report.max_residual > 0.5


def test_hamilton_jacobi_free_particle():
    fields = fch.ScenarioFields(
        S=field({"1": "t"}, MINK), V=field({"t": "1"}, MINK), A=MultivectorField.zero()
    )
    report = run_check("hamilton_jacobi", MINK, fields, MINK_PTS, 1e-12)
    assert report.passed, check_dict(report)


def test_hamilton_jacobi_lorenz_gauge_wave():
    # potential in the Lorenz gauge: the action wave residual is exactly zero
    fields = fch.ScenarioFields(
        S=field({"1": "t"}, MINK), V=field({"t": "1"}, MINK), A=field({"t": "x"}, MINK)
    )
    report = run_check("hamilton_jacobi", MINK, fields, MINK_PTS, 1e-12)
    assert not report.passed  # momentum no longer matches mV
    for rec in records(report):
        assert rec["residuals"]["action_wave"] == 0.0
        assert rec["info"]["delta_potential"] == 0.0


def test_hamilton_jacobi_mass_mismatch():
    fields = fch.ScenarioFields(
        S=field({"1": "2*t"}, MINK), V=field({"t": "2"}, MINK), A=MultivectorField.zero()
    )
    report = run_check("hamilton_jacobi", MINK, fields, MINK_PTS, 1e-10)
    assert not report.passed
    assert abs(records(report)[0]["residuals"]["mass_shell"] - 3.0) < 1e-12


# -- energy momentum ---------------------------------------------------------------------


def test_energy_momentum_em_zero_field():
    gd = geo.curvature(MINK, MINK_PTS[0])
    em = fch.energy_momentum_em(gd, np.zeros(16), 0)
    assert sup(em.oneform) == 0.0
    assert sup(em.threeform) == 0.0


def test_energy_momentum_em_electric_density():
    gd = geo.curvature(MINK, MINK_PTS[0])
    E = 1.75
    F = E * np.eye(16)[0b0011]
    em = fch.energy_momentum_em(gd, F, 0)
    expected = 0.5 * E * E
    assert abs(gd.metric.scalar_product(em.oneform, np.eye(16)[1 << 0]) - expected) < 1e-12
    assert em.closure_residual < 1e-14


def test_energy_momentum_em_rejects_wrong_grade():
    gd = geo.curvature(MINK, MINK_PTS[0])
    with pytest.raises(FieldError):
        fch.energy_momentum_em(gd, np.eye(16)[1 << 0], 0)


def test_energy_momentum_fluid_rest_density():
    gd = geo.curvature(MINK, MINK_PTS[0])
    rho = 0.8
    J = rho * np.eye(16)[1 << 0]
    fl = fch.energy_momentum_fluid(gd, J, 0)
    want = 0.5 * rho * rho * np.eye(16)[1 << 0]
    assert sup(fl.oneform - want) < 1e-14
    assert fl.form_mismatch < 1e-13


def test_energy_momentum_fluid_two_forms_agree_random():
    rng = np.random.default_rng(5)
    for spec, pts in ((MINK, MINK_PTS), (SCHW, SCHW_PTS)):
        gd = geo.curvature(spec, pts[0])
        for _ in range(20):
            J = grade_project(rng.uniform(-1, 1, 16), 1)
            for alpha in range(4):
                fl = fch.energy_momentum_fluid(gd, J, alpha)
                assert fl.form_mismatch < 1e-12
                assert fl.closure_residual < 1e-12


@pytest.mark.parametrize("value", [-1, 4, 1.5])
def test_an_index_or_grade_out_of_range_raises_a_value_error_naming_it(value):
    gd = geo.curvature(MINK, MINK_PTS[0])
    fc = FieldCalculus(field({"t": "x", "x": "t*y"}, MINK), gd)
    F, J = fc.exterior_d(), fc.value()

    def raises(name, stop, call, *args):
        message = rf"^{name} must be an integer in 0\.\.{stop - 1}, got {re.escape(repr(args[-1]))}$"
        with pytest.raises(ValueError, match=message):
            call(*args)

    raises("alpha", 4, fc.covariant_derivative, value)
    raises("beta", 4, fch.energy_momentum_em, gd, F, value)
    raises("alpha", 4, fch.energy_momentum_fluid, gd, J, value)
    raises("i", 4, MultivectorField.basis_covector, value)
    raises("grade k", 5, grade_project, J, 5 if value == 4 else value)  # grades run to 4
    raises("grade k", 5, grade_project, np.stack([J, J]), np.array([1, 5 if value == 4 else value]))


# -- einstein residual ---------------------------------------------------------------------


def test_einstein_trivial_vacuum():
    fields = fch.ScenarioFields(A=MultivectorField.zero())
    report = run_check("einstein", MINK, fields, MINK_PTS, 1e-10)
    assert report.passed


def test_einstein_schwarzschild_vacuum():
    fields = fch.ScenarioFields(A=MultivectorField.zero())
    report = run_check("einstein", SCHW, fields, SCHW_PTS, 1e-8)
    assert report.passed, check_dict(report)


def test_einstein_nan_for_one_index_is_a_point_error(monkeypatch):
    # the worst structure-equation residual over the four indices keeps a NaN
    # (here in the electromagnetic stress 1-form of index 2)
    real = fch._sandwich

    def nan_at_index_2(gd, x, beta):
        sandwich = real(gd, x, beta)
        if beta != 2 or grades(x) != {2}:
            return sandwich
        return sandwich * np.nan

    monkeypatch.setattr(fch, "_sandwich", nan_at_index_2)
    A = field({"x": "t*y"}, MINK)
    report = run_check("einstein", MINK, fch.ScenarioFields(A=A), MINK_PTS, 1e-8)
    assert [r["error"] for r in records(report)] == ["non-finite residual 'einstein_eq'"] * 3


def test_einstein_flrw_without_sources_fails():
    fields = fch.ScenarioFields(A=MultivectorField.zero())
    report = run_check("einstein", FLRW, fields, FLRW_PTS, 1e-8)
    assert not report.passed
    assert report.max_residual > 0.5


# -- structure current and the quadratic ------------------------------------------------------


def test_quadratic_degenerate_linear():
    sol = fch.solve_structure_quadratic(0.0)
    assert sol.outcome == "linear"
    assert sol.roots == (-1.0,)


def test_quadratic_two_roots_example():
    sol = fch.solve_structure_quadratic(-1.0)
    assert sol.outcome == "two-roots"
    assert sorted(sol.roots) == [-0.5, 1.0]


def test_quadratic_double_root():
    sol = fch.solve_structure_quadratic(0.125)
    assert sol.outcome == "double-root"
    assert sol.roots == (-2.0,)


def test_quadratic_no_real_roots():
    sol = fch.solve_structure_quadratic(0.2)
    assert sol.outcome == "no-real-f"
    assert sol.roots == ()


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 0.125))
def test_quadratic_roots_satisfy_equation(c):
    # evaluating the polynomial at a root costs ~eps*|f| in float64, and the
    # large root grows like 1/(2|c|); scale the bound accordingly so denormal
    # c values test root quality rather than evaluation noise
    sol = fch.solve_structure_quadratic(c)
    assert sol.roots, f"expected real roots for c={c}"
    for f in sol.roots:
        assert abs(2.0 * c * f * f + f + 1.0) < 1e-12 * max(1.0, abs(f))


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 0.125).filter(lambda c: c == 0.0 or abs(c) > 1e-3))
def test_quadratic_roots_absolute_tolerance_in_working_range(c):
    sol = fch.solve_structure_quadratic(c)
    for f in sol.roots:
        assert abs(2.0 * c * f * f + f + 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1251, 50.0))
def test_quadratic_above_threshold_no_roots(c):
    assert fch.solve_structure_quadratic(c).outcome == "no-real-f"


def test_quadratic_small_c_limit():
    # the surviving root tends to -1 as c -> 0
    for c in (-1e-3, -1e-6, 1e-6, 1e-3):
        sol = fch.solve_structure_quadratic(c)
        assert any(abs(f + 1.0) < 10.0 * abs(c) + 1e-9 for f in sol.roots)


def test_structure_current_flrw():
    A = field({"x": "-t^2"}, FLRW)
    report = run_check("structure_current", FLRW, fch.ScenarioFields(A=A), FLRW_PTS, 1e-10)
    assert report.passed, check_dict(report)
    for rec in records(report):
        # c = A.B = -4 t^4 * g^xx-weighted: negative and nontrivial here
        assert rec["info"]["c"] < -0.1
        assert rec["info"]["outcome"] == "two-roots"
        assert len(rec["info"]["roots"]) == 2
        assert "self_consistency_residual" in rec["info"]


def test_structure_current_reports_both_orientations():
    A = field({"x": "-t^2"}, FLRW)
    report = run_check("structure_current", FLRW, fch.ScenarioFields(A=A), [FLRW_PTS[1]], 1e-10)
    rec = records(report)[0]
    assert "current_match_minus_fB_0" in rec["info"]
    assert "current_match_plus_fB_0" in rec["info"]


def test_structure_current_c_value_flrw():
    # F = -2t dt^dx, B = F A rev(F) -> c = A.B = -4 t^2 at a(t) = t
    A = field({"x": "-t^2"}, FLRW)
    fields = fch.ScenarioFields(A=A)
    report = run_check("structure_current", FLRW, fields, [(1.0, 0.0, 0.0, 0.0)], 1e-10)
    assert abs(records(report)[0]["info"]["c"] + 4.0) < 1e-12


def scalar_structure_roots(c: float) -> tuple:
    """The quadratic's (outcome, roots, discriminant) at ``c``, one Python float at a time.

    The reference for the columns of ``_structure_roots``: the scalar code
    ``solve_structure_quadratic`` ran before the check kept its results as
    columns.
    """
    if c == 0.0:
        return "linear", (-1.0,), 1.0
    disc = 1.0 - 8.0 * c
    if disc < 0.0:
        return "no-real-f", (), disc
    if disc == 0.0:
        return "double-root", (-1.0 / (4.0 * c),), disc
    q = -0.5 * (1.0 + math.sqrt(disc))
    polished = []
    for f in (q / (2.0 * c), 1.0 / q):
        if not math.isfinite(f):
            continue
        for _ in range(2):
            deriv = 4.0 * c * f + 1.0
            if deriv != 0.0:
                f = f - (2.0 * c * f * f + f + 1.0) / deriv
        polished.append(f)
    return "two-roots", tuple(sorted(polished)), disc


QUADRATIC_EDGES = [0.0, -0.0, 0.125, 0.12500000000000003, 0.12499999999999999, 5e-324, -5e-324,
                   1e-320, -1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan, -1.0, 0.2]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(QUADRATIC_EDGES),
                min_size=1, max_size=20))
@example([math.nan, math.inf, -math.inf, 0.1])
def test_structure_roots_columns_equal_the_scalar_solution_bitwise(cs):
    outcome, disc, roots, count = fch._structure_roots(np.array(cs))
    for k, c in enumerate(cs):
        want = scalar_structure_roots(c)
        got = (str(fch._OUTCOMES[outcome[k]]), tuple(roots[k, :count[k]].tolist()), float(disc[k]))
        assert repr(got) == repr(want), c
        if not math.isfinite(c):  # the columns keep such a c; the public function refuses it
            with pytest.raises(ValueError, match=rf"^solve_structure_quadratic needs a finite c, got c={c}$"):
                fch.solve_structure_quadratic(c)
            continue
        sol = fch.solve_structure_quadratic(c)
        assert repr((sol.outcome, sol.roots, sol.discriminant)) == repr(want), c


# sha256 of the JSON of structure_current and lorenz_gauge on MIXED_ROOT_POINTS,
# computed with the per-point records the checks had before they kept columns
MIXED_ROOTS_SHA256 = "79a24713b49a716bb562d6bf38dd88052a988080f387d197fb3a3291fba6e04e"
MIXED_ROOT_POINTS = [(0.3, 0.0, 0.5, 0.2), (0.5, 1.0, 1.0, 0.5), (0.1, 0.3, -0.2, 0.4),
                     (1.0, -1.0, 2.0, 1.0), (0.2, 0.6, 0.1, -0.3), (0.1, -0.3, 0.2, 0.0)]


def test_structure_current_keys_follow_the_number_of_roots_point_by_point():
    # A = x^2 y dt: c = 0 at x = 0 (one root), c > 1/8 at two points (none),
    # small c elsewhere (two): three key layouts in one check
    A = field({"t": "x^2*y"}, MINK)
    reports = fch.run_checks(MINK, fch.ScenarioFields(A=A, K=A), ["structure_current", "lorenz_gauge"],
                             MIXED_ROOT_POINTS, [1e-8, 1e-8])
    points = records(reports[0])
    assert [len(r["info"]["roots"]) for r in points] == [1, 0, 2, 0, 2, 2]
    for record in points:
        n = len(record["info"]["roots"])
        assert list(record["residuals"]) == ["sandwich_grade"] + [f"quadratic_root_{k}" for k in range(n)]
        assert list(record["info"])[7:] == [f"current_match_{sign}_fB_{k}" for k in range(n)
                                          for sign in ("minus", "plus")]
    assert len(reports[0].layouts) == 3
    digest = hashlib.sha256(json.dumps([check_dict(r) for r in reports]).encode()).hexdigest()
    assert digest == MIXED_ROOTS_SHA256


# -- sandwich algebraic links ------------------------------------------------------------------


def test_sandwich_identities_random_inputs():
    fields = fch.ScenarioFields()
    report = run_check("sandwich_identities", FLRW, fields, FLRW_PTS, 1e-12, seed=3)
    assert report.passed, check_dict(report)


def dict_draws(points, seed):
    """One (3, 16) draw per point into a dict keyed by the point's tuple: the reference."""
    keys = [tuple(pt) for pt in np.asarray(points).tolist()]
    rng = np.random.default_rng(seed)
    draws = {key: rng.uniform(-1.0, 1.0, size=(3, 16)) for key in keys}
    return np.stack([draws[key] for key in keys])


def test_sandwich_draws_are_one_draw_per_point_and_one_per_repeated_point():
    rng = np.random.default_rng(6)
    points = rng.integers(-1, 2, size=(300, 4)) * 0.5  # few distinct points, each repeated
    points[rng.random(points.shape) < 0.5] *= -1.0  # and 0.0 as -0.0 in places
    zeros = points[points == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert fch._sandwich_draws(points, 3).tobytes() == dict_draws(points, 3).tobytes()
    distinct = rng.uniform(-1.0, 1.0, size=(40, 4))
    assert fch._sandwich_draws(distinct, 3).tobytes() == dict_draws(distinct, 3).tobytes()


def test_sandwich_draws_take_about_the_memory_of_the_draw():
    # the (200000, 3, 16) draw is 76.8 MB; the dict of per-point draws peaked at
    # 3.4 times that under tracemalloc, and these bulk draws at 1.27 times
    points = np.random.default_rng(8).uniform(-1.0, 1.0, size=(200_000, 4))
    tracemalloc.start()
    try:
        draws = fch._sandwich_draws(points, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * draws.nbytes


def test_sandwich_identities_with_supplied_potential():
    fields = fch.ScenarioFields(K=field({"x": "-t^2"}, FLRW))
    report = run_check("sandwich_identities", FLRW, fields, FLRW_PTS, 1e-10)
    assert report.passed, check_dict(report)


def test_sandwich_identities_zero_potential_trivial():
    gd = geo.curvature(MINK, MINK_PTS[0])
    res = fch.sandwich_link_identities(gd, np.zeros(16), np.zeros(16), np.zeros(16))
    assert all(v == 0.0 for v in res.values())


# -- scenario fields validation ----------------------------------------------------------------


def test_scenario_fields_grade_validation():
    with pytest.raises(FieldError):
        fch.ScenarioFields(K=field({"t^r": "1"}, SCHW))
    with pytest.raises(FieldError):
        fch.ScenarioFields(S=field({"t": "1"}, MINK))


def test_potential_derived_from_killing():
    fields = fch.ScenarioFields(
        K=field({"x": "-t^2"}, FLRW), constants=fch.Constants(coupling=2.5)
    )
    A = fields.potential()
    gd = geo.curvature(FLRW, (1.0, 0.0, 0.0, 0.0))
    got = FieldCalculus(A, gd).value()
    assert abs(got[0b0010] + 2.5) < 1e-15


def test_checks_run_together_match_each_alone():
    # the ten checks share one geometry, one calculator per field and the
    # products of the block context; a check that changed what another reads,
    # or read what only another computes, would show here.  Two blocks; K,
    # which is also the potential, cannot be evaluated at the point with t < 0.
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r+0*log(t)"}, SCHW),
        S=field({"1": "t"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    points = np.random.default_rng(12).uniform([0.1, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2], size=(40, 4))
    points[17, 0] = -1.0
    assert len(points) > fch.BLOCK

    def texts(names):
        reports = fch.run_checks(SCHW, fields, names, points, [1e-8] * len(names))
        assert [r.check for r in reports] == names
        return {r.check: runner._check_text(r, "", {}) for r in reports}

    names = list(fch.CHECKS)
    alone = {name: texts([name])[name] for name in names}
    assert '"error": "log of non-positive value' in alone["killing"]
    for order in (names, names[::-1]):
        assert texts(order) == alone


OPERATORS = ("value", "dirac", "exterior_d", "codifferential", "codifferential_hodge_route",
             "exterior_d_squared", "maxwell_current", "codifferential_squared",
             "covariant_dalembertian", "ricci_operator", "hodge_dalembertian")  # FieldCalculus's, without argument


def schwarzschild_block_context() -> fch.BlockContext:
    """One block of 16 Schwarzschild points, with K, S and V, and K the potential."""
    fields = {"K": field({"t": "1-2*M/r"}, SCHW), "S": field({"1": "t"}, SCHW),
              "V": field({"t": "sqrt(1-2*M/r)"}, SCHW)}
    fields["potential"] = fields["K"]
    points = np.random.default_rng(4).uniform([-3.0, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2], size=(16, 4))
    return fch.BlockContext(geo.curvature(SCHW, points), fields, fch.Constants(), None)


def test_one_block_computes_each_operator_and_shared_product_once(monkeypatch):
    # all ten checks on one Schwarzschild block of 16 points
    body_runs = Counter()  # (operator, calculator) -> runs of the operator's body
    bodies = {getattr(FieldCalculus, name).__wrapped__.__code__: name for name in OPERATORS}

    def count_bodies(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            body_runs[bodies[frame.f_code], id(frame.f_locals["self"])] += 1

    products = []
    clifford = PointMetric.clifford
    monkeypatch.setattr(PointMetric, "clifford", lambda pm, a, b: products.append(1) or clifford(pm, a, b))
    ctx = schwarzschild_block_context()
    sys.setprofile(count_bodies)
    try:
        for check in fch.CHECKS.values():
            fch.check_columns(ctx, check)
    finally:
        sys.setprofile(None)

    assert body_runs and max(body_runs.values()) == 1
    # 2 products per sandwich x gamma_beta x, for x = dA and J and beta = 0..3, read by
    # einstein and sandwich_identities; 2 each for F A F and J A J (sandwich_identities)
    # and for B = F A rev(F) (structure_current)
    assert len(products) == 2 * 2 * 4 + 2 * 2 + 2

    calcs = {id(fc): fc for fc in ctx._calcs.values()}
    assert len(calcs) == 3  # K is the potential
    assert len(body_runs) == 7 + 3 + 3  # the operators that K, S and V are read by

    shared = [getattr(calcs[fc], name)() for name, fc in body_runs]
    assert all(getattr(calcs[fc], name)() is out for (name, fc), out in zip(body_runs, shared))


def test_the_shared_results_of_a_block_are_read_only():
    # every check on the block reads these rows; none can change one under another
    ctx = schwarzschild_block_context()
    for check in fch.CHECKS.values():
        fch.check_columns(ctx, check)
    terms = ctx.maxwell()
    calcs = list(ctx._calcs.values())
    shared = [getattr(fc, name)() for fc in calcs for name in OPERATORS]
    shared += [fc.covariant_derivative(alpha) for fc in calcs for alpha in range(4)]
    shared += [ctx.coupling("K"), *terms.em_sandwiches, *terms.fluid_sandwiches, terms.j_sq, terms.a_dot_j]
    shared += [*ctx.gd.ricci_oneforms, ctx.gd.einstein_lower]
    assert len(shared) == 3 * 11 + 3 * 4 + 11 + 5
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_worst_point_is_an_argmax_over_every_layout_and_key():
    points = np.arange(20.0).reshape(5, 4)
    layouts = [fch.Layout(np.array([0, 3]), {"a": np.array([1.0, 7.0]), "b": np.array([7.0, 2.0])}, {}),
               fch.Layout(np.array([1, 4]), {"a": np.array([7.0, 9.0])}, {})]
    report = fch.ResidualReport("fake", 1.0, points, layouts, {2: "an error"})
    assert report.worst() == ((16.0, 17.0, 18.0, 19.0), "a", 9.0)
    layouts[1].residuals["a"][1] = 7.0  # three points tie at 7: the first, and its first key
    assert report.worst() == ((0.0, 1.0, 2.0, 3.0), "b", 7.0)
    assert fch.ResidualReport("fake", 1.0, points[:1], [], {0: "an error"}).worst() is None


@pytest.mark.parametrize("residuals, errors", [
    ([-0.0, -0.0], {}), ([], {0: "e", 1: "e"}), ([-1.0, -0.0], {}), ([0.0, -0.0], {}), ([-0.0], {1: "e"}),
])
def test_max_residual_keeps_the_bits_of_max_from_zero(residuals, errors):
    # max([0.0, *values]) over the points' residuals: +0.0 unless one is larger
    index = np.array([i for i in range(2) if i not in errors])
    layouts = [fch.Layout(index, {"a": np.array(residuals)}, {})] if len(index) else []
    report = fch.ResidualReport("fake", 1e-8, np.zeros((2, 4)), layouts, errors)
    want = max([0.0, *residuals])
    assert math.copysign(1.0, report.max_residual) == 1.0 and report.max_residual == want == 0.0
    assert report.passed is (not errors)


def test_missing_field_raises_before_any_point():
    with pytest.raises(FieldError, match="check lorentz_force requires field V"):
        fields = fch.ScenarioFields(A=MultivectorField.zero())
        run_check("lorentz_force", MINK, fields, MINK_PTS, 1e-8)


def test_chunked_points_match_each_point_alone(monkeypatch):
    # three chunks of four points; the second holds a field error (log of
    # t <= 0) and a metric error (r = 2M), the third a short tail
    monkeypatch.setattr(fch, "CHUNK", 4)
    fields = fch.ScenarioFields(K=field({"t": "1-2*M/r+1e-3*log(t)"}, SCHW))
    points = [(0.5 + 0.1 * k, 3.0 + k, 1.2, 0.4) for k in range(10)]
    points[5] = (-0.5, 4.0, 1.0, 0.3)
    points[6] = (0.5, 2.0, 1.0, 0.3)
    names = ["killing", "killing_identities"]
    tols = [1e-3, 1e-3]
    together = fch.run_checks(SCHW, fields, names, points, tols)
    errors = [r["error"] for r in records(together[0])]
    assert errors[5].startswith("log of non-positive value in 'log(t)'")
    assert errors[6].startswith("metric of 'schwarzschild' not evaluable")
    assert errors[:5] == [None] * 5 and errors[7:] == [None] * 3
    for k, pt in enumerate(points):
        alone = fch.run_checks(SCHW, fields, names, [pt], tols)
        for report, one in zip(together, alone):
            assert records(report)[k] == records(one)[0], (report.check, k)


# -- blocks of points ----------------------------------------------------------------

# sha256 of the JSON of the mixed scenario's reports, computed with the one-point
# geometry path (before blocks) and with the point of a metric error printed as
# float reprs; the three bad points raise in metric_at
MIXED_REPORTS_SHA256 = "0c134cb1521bfe7ac3b42c261f05047e6971c55d2c76ffa1a4c9812566d48ed2"


@pytest.mark.parametrize("block", [32, 16, 4, 3, 1])
def test_block_with_bad_points_reports_what_each_point_gives_alone(monkeypatch, block):
    # one block of 32 or 16 holds a singular, a non-Lorentzian and a not
    # evaluable point among good ones; smaller blocks split them up
    monkeypatch.setattr(fch, "BLOCK", block)
    fields = fch.ScenarioFields(K=field({"t": "t", "x": "x*y"}, MIXED))
    names = ["killing", "killing_identities", "maxwell_current"]
    reports = fch.run_checks(MIXED, fields, names, mixed_points(), [1e-8] * 3)
    for report in reports:
        assert {k: r["error"] for k, r in enumerate(records(report)) if r["error"]} == MIXED_ERRORS
    digest = hashlib.sha256(json.dumps([check_dict(r) for r in reports]).encode()).hexdigest()
    assert digest == MIXED_REPORTS_SHA256


def test_block_size_does_not_change_reports(monkeypatch):
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        S=field({"1": "t"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    names = list(fch.CHECKS)
    rng = np.random.default_rng(8)
    points = [tuple(p) for p in rng.uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2], size=(37, 4))]
    points[20] = (0.5, 2.0, 1.0, 0.3)  # on the horizon: a point error
    tols = [1e-8] * len(names)
    default = [check_dict(r) for r in fch.run_checks(SCHW, fields, names, points, tols)]
    monkeypatch.setattr(fch, "BLOCK", 3)
    monkeypatch.setattr(fch, "CHUNK", 16)
    assert [check_dict(r) for r in fch.run_checks(SCHW, fields, names, points, tols)] == default


def test_point_loop_memory_does_not_grow_with_blocks():
    # a block's tables and operators take about 1 MB per 16 points (the
    # traced peak of a one-block run is 1.0 MB at 16 points, 2.0 MB at 32);
    # a block kept after its points would add about 2 MB for every 32 points.
    # What does grow is the chunk's geometry and jets (256 points, not 100)
    # and the result columns: 1.2 MB from 100 to 1000 points.
    K = field({"t": "1-2*M/r"}, SCHW)
    rng = np.random.default_rng(9)

    def peak(count):
        points = [tuple(p) for p in rng.uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2], size=(count, 4))]
        tracemalloc.start()
        try:
            fch.run_checks(SCHW, fch.ScenarioFields(K=K), ["killing_identities"], points, [1e-8])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # warm caches
    assert peak(1000) - peak(100) < 2_000_000


def test_a_chunk_s_geometry_and_jets_are_freed_when_the_loop_moves_on(monkeypatch):
    # with the garbage collector off, only reference counts free a chunk: each
    # chunk's geometry and jets must be gone before the next chunk's are made
    monkeypatch.setattr(fch, "CHUNK", 32)
    made = []  # weak references to each chunk's jets and geometry
    curvature, chunk_jets = fch.curvature, ex.ChunkJets

    def kept(obj):
        made.append(weakref.ref(obj))
        return obj

    def next_chunk(*args):
        assert [ref() for ref in made] == [None] * len(made)
        return kept(chunk_jets(*args))

    monkeypatch.setattr(ex, "ChunkJets", next_chunk)
    monkeypatch.setattr(fch, "curvature", lambda *args, **kwargs: kept(curvature(*args, **kwargs)))
    points = np.random.default_rng(9).uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2], size=(100, 4))
    gc.disable()
    try:
        fch.run_checks(SCHW, fch.ScenarioFields(K=field({"t": "1-2*M/r"}, SCHW)), list(fch.CHECKS)[:3],
                       points, [1e-8] * 3)
        assert len(made) == 8 and [ref() for ref in made] == [None] * 8  # two per chunk
    finally:
        gc.enable()


# -- checks over a block of points ---------------------------------------------------


def block_fields(spec, potential=True) -> dict:
    """K = g_{t mu} dx^mu (Killing but for FLRW), S and V, in the chart's coordinate names."""
    t, a, b, c = spec.coords
    K = MultivectorField.from_components({t: spec.g_lower[0][0], c: spec.g_lower[0][3]}, spec.coords)
    S = field({"1": f"{t}*{a}"}, spec)
    V = field({t: f"1+0.01*{a}^2", b: f"0.1*sin({c})"}, spec)
    return {"K": K, "S": S, "V": V, "potential": K if potential else None}


def plain_results(ctx, check) -> list:
    """The check's per-point records as report JSON: equal text is equal bits."""
    layouts = fch.check_columns(ctx, check)
    report = fch._report(check, 1e-8, np.reshape(ctx.gd.point, (-1, 4)), layouts, {})
    return list(map(json.dumps, records(report)))


@pytest.mark.parametrize("potential", [True, False], ids=["potential", "random-draws"])
@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_block_checks_equal_each_point_alone_bitwise(key, potential):
    # every check runs once on the block; each point's residuals and info must
    # be bitwise those of the same check at that point alone (the case without N)
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(31).uniform(lo, hi, size=(16, 4))
    draws = np.random.default_rng(32).uniform(-1.0, 1.0, size=(16, 3, 16))
    fields = block_fields(spec, potential)
    constants = fch.Constants(e=0.7, m=1.3)
    block = fch.BlockContext(geo.curvature(spec, points), fields, constants, draws)
    assert block.gd.errors == {}
    alone = [fch.BlockContext(geo.curvature(spec, pt), fields, constants, draws[i])
             for i, pt in enumerate(points)]
    checks = list(fch.CHECKS.values()) if potential else [fch.CHECKS["sandwich_identities"]]
    for check in checks:
        lanes = plain_results(block, check)  # raises if the block path fails
        assert len(lanes) == len(points)
        for i, ctx in enumerate(alone):
            assert lanes[i] == plain_results(ctx, check)[0], (check.name, i)


def test_nonfinite_values_are_point_errors_lane_by_lane(monkeypatch):
    # one lane with a NaN residual, one with an inf info entry, one with both;
    # each gets the message of its first non-finite value, residuals before
    # info and keys in order, and the other lanes keep their values
    def fake(ctx):
        x = ctx.gd.point[:, 1]
        a, b, y = np.abs(x) * 1e-9, x * x, x + 1.0
        current = np.stack([x, 2.0 * x, 3.0 * x, 4.0 * x], axis=1)
        b[1] = np.nan
        current[3, 2] = np.inf
        a[5] = y[5] = np.nan
        current[7, 0], y[7] = -np.inf, np.nan
        a[11], b[11], current[11, 1] = np.inf, np.nan, np.nan
        return {"a": a, "b": b}, {"current": current, "y": y}

    monkeypatch.setitem(fch.CHECKS, "killing", fch.Check("killing", ("K",), (), fake))
    points = [tuple(p) for p in np.random.default_rng(35).uniform(-2.0, 2.0, size=(16, 4))]
    (report,) = fch.run_checks(MINK, fch.ScenarioFields(K=field({"t": "1"}, MINK)), ["killing"],
                               points, [1.0])
    errors = {k: r["error"] for k, r in enumerate(records(report)) if r["error"] is not None}
    assert errors == {1: "non-finite residual 'b'", 3: "non-finite info 'current'",
                      5: "non-finite residual 'a'", 7: "non-finite info 'current'",
                      11: "non-finite residual 'a'"}
    assert {r["passed"] for r in records(report) if r["error"] is None} == {True, False}
    # the records of the value-by-value test these replaced
    digest = hashlib.sha256(json.dumps(check_dict(report)).encode()).hexdigest()
    assert digest == "79ab7d13b29ca272e581b8d43e8cc2b164da2cd10852fa68d472663be3095c70"


def schwarzschild_mixed_points(count: int) -> list:
    """Random Schwarzschild points, one on the horizon (r = 2M) and one with t < -3."""
    rng = np.random.default_rng(33)
    points = [tuple(p) for p in rng.uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2], size=(count, 4))]
    points[4] = (0.5, 2.0, 1.0, 0.3)  # the metric is not evaluable
    points[9] = (-3.5, 6.0, 1.0, 0.3)  # S = t + 1e-3*log(t+3) is not
    return points


@pytest.mark.parametrize("block", [16, 32, 3, 1, 64, 256])
def test_block_size_does_not_change_report_bytes(monkeypatch, block):
    # 300 points: at every size the run crosses a block boundary and the chunk
    # boundary (fieldcheck.CHUNK)
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        S=field({"1": "t+1e-3*log(t+3)"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    no_potential = fch.ScenarioFields(S=fields.S)
    points = schwarzschild_mixed_points(300)
    assert len(points) > fch.CHUNK
    names = list(fch.CHECKS)

    def report_json():
        reports = fch.run_checks(SCHW, fields, names, points, [1e-8] * len(names))
        reports += fch.run_checks(SCHW, no_potential, ["sandwich_identities"], points, [1e-8], seed=5)
        return json.dumps([check_dict(r) for r in reports])

    default = report_json()
    monkeypatch.setattr(fch, "BLOCK", block)
    assert report_json() == default
    assert "metric of 'schwarzschild' not evaluable" in default
    assert "log of non-positive value" in default


def records_alone(spec, fields, names, tols, pt) -> list:
    """The records of checks ``names`` at ``pt`` from the one-point code (no block axis).

    An error the geometry raises is every record's; an error a check raises
    is that check's record.
    """
    by_name = {"K": fields.K, "S": fields.S, "V": fields.V, "potential": fields.potential()}
    point = list(pt)

    def failed(err) -> dict:
        return {"point": point, "residuals": {}, "info": {}, "error": str(err), "passed": False}

    try:
        ctx = fch.BlockContext(geo.curvature(spec, pt), by_name, fields.constants, None)
    except CliffcheckError as err:
        return [failed(err) for _ in names]
    out = []
    for name, tol in zip(names, tols):
        check = fch.CHECKS[name]
        try:
            layouts = fch.check_columns(ctx, check)
        except CliffcheckError as err:
            out.append(failed(err))
        else:
            out += records(fch._report(check, tol, np.array([point]), layouts, {}))
    return out


def test_field_error_at_one_point_leaves_the_others_bitwise():
    # sqrt(x+1) fails at point 5 only: that point gets the error it raises
    # alone, and the other points keep the results they get without it
    K = field({"t": "sqrt(x+1)", "x": "t*y"}, MINK)
    fields = fch.ScenarioFields(K=K)
    names = [n for n, c in fch.CHECKS.items() if set(c.needs) <= {"K", "potential"}]
    tols = [1e-8] * len(names)
    points = [tuple(p) for p in np.random.default_rng(34).uniform([-3, -0.9, -3, -3], [3, 3, 3, 3], (16, 4))]
    points[5] = (0.1, -2.0, 0.3, 0.4)
    reports = fch.run_checks(MINK, fields, names, points, tols)
    good = fch.run_checks(MINK, fields, names, points[:5] + points[6:], tols)
    alone = records_alone(MINK, fields, names, tols, points[5])
    for report, clean, record in zip(reports, good, alone):
        got = records(report)
        assert got[5]["error"].startswith("sqrt of negative value in 'sqrt(x + 1.0)'")
        assert json.dumps(got[5]) == json.dumps(record)
        rest = got[:5] + got[6:]
        assert [json.dumps(r) for r in rest] == [json.dumps(r) for r in records(clean)]


STRESS_POINTS = {
    "schwarzschild": (SCHW, [(0.3, 3.5, 1.1, 0.7), (-1.2, 7.0, 2.2, 4.0)]),
    "flrw": (FLRW, [(0.7, 0.4, -1.1, 2.0), (2.6, 1.0, 1.0, 1.0)]),
}


def stress_outputs(gd) -> list:
    """energy_momentum_em/_fluid for every index and sandwich_link_identities at ``gd``."""
    t, a, b, c = gd.spec.coords
    fa = FieldCalculus(field({t: f"{a}*{b}", a: f"sin({t})", c: f"{b}^2"}, gd.spec), gd)
    A, F, J = fa.value(), fa.exterior_d(), fa.maxwell_current()
    out = []
    for beta in range(4):
        em = fch.energy_momentum_em(gd, F, beta)
        fluid = fch.energy_momentum_fluid(gd, J, beta)
        out += [em.oneform, em.threeform, em.closure_residual,
                fluid.oneform, fluid.threeform, fluid.closure_residual,
                fluid.form_mismatch]
    links = fch.sandwich_link_identities(gd, A, F, J)
    return [np.asarray(x, dtype=float) for x in out + [links[k] for k in sorted(links)]]


# sha256 over stress_outputs at every STRESS_POINTS point, computed with the
# one-point code.  Re-pinned when exterior_d() came to read the partials alone:
# F = dA moved in its last bits at FLRW (0.7, 0.4, -1.1, 2.0), and with it the
# stress forms and links built on F there.  Reading A^beta R_beta from the one
# matmul of _ricci_coupling moved no bit of these outputs.
ONE_POINT_STRESS_SHA256 = "d2c8867446d3195ef340f42516aea43576113c79d0b25a7e7fb50ab23de0d81b"


def test_one_point_stress_forms_and_sandwich_links_are_unchanged():
    digest = hashlib.sha256()
    for key in sorted(STRESS_POINTS):
        spec, points = STRESS_POINTS[key]
        for pt in points:
            for value in stress_outputs(geo.curvature(spec, pt)):
                digest.update(value.tobytes())
    assert digest.hexdigest() == ONE_POINT_STRESS_SHA256


@pytest.mark.parametrize("key", sorted(STRESS_POINTS))
def test_block_stress_forms_and_sandwich_links_equal_each_point_alone(key):
    spec, points = STRESS_POINTS[key]
    lanes = stress_outputs(geo.curvature(spec, np.array(points)))
    for i, pt in enumerate(points):
        for got, want in zip(lanes, stress_outputs(geo.curvature(spec, pt))):
            assert got[i].tobytes() == want.tobytes()


# -- the same spacetime in other charts -------------------------------------------------

# Schwarzschild (M = 1) in the isotropic chart, r = rho (1 + M/2rho)^2, and in
# the ingoing Eddington-Finkelstein chart, v = t + r + 2M log(r/2M - 1), whose
# g_vr = -1 lies off the diagonal.  In each, K is d/dt lowered: g_tt dt in the
# areal and isotropic charts, (1-2M/r) dv - dr in the EF one.
_PSI = "(1+M/(2*rho))"
ISOTROPIC = geo.MetricSpec.from_strings(
    ("t", "rho", "theta", "phi"),
    [
        [f"((1-M/(2*rho))/{_PSI})^2", "0", "0", "0"],
        ["0", f"-{_PSI}^4", "0", "0"],
        ["0", "0", f"-{_PSI}^4*rho^2", "0"],
        ["0", "0", "0", f"-{_PSI}^4*rho^2*sin(theta)^2"],
    ],
    {"M": 1.0},
    "schwarzschild-isotropic",
)
INGOING_EF = geo.MetricSpec.from_strings(
    ("v", "r", "theta", "phi"),
    [["1-2*M/r", "-1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "-r^2", "0"],
     ["0", "0", "0", "-r^2*sin(theta)^2"]],
    {"M": 1.0},
    "schwarzschild-ingoing-ef",
)
CHART_CHECKS = ["killing", "killing_identities", "lorenz_gauge", "superconducting_current", "maxwell_current",
                "structure_current", "sandwich_identities", "einstein"]


def schwarzschild_charts(count: int) -> dict:
    """Chart name -> (spec, K, its coordinates of the same ``count`` physical points)."""
    rng = np.random.default_rng(41)
    areal = rng.uniform([-3.0, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2], size=(count, 4))
    t, r, theta, phi = areal.T
    rho = 0.5 * (r - 1.0 + np.sqrt(r * r - 2.0 * r))
    v = t + r + 2.0 * np.log(r / 2.0 - 1.0)
    return {
        "areal": (SCHW, field({"t": "1-2*M/r"}, SCHW), areal),
        "isotropic": (ISOTROPIC, field({"t": f"((1-M/(2*rho))/{_PSI})^2"}, ISOTROPIC),
                      np.stack([t, rho, theta, phi], axis=1)),
        "ingoing-ef": (INGOING_EF, field({"v": "1-2*M/r", "r": "-1"}, INGOING_EF),
                       np.stack([v, r, theta, phi], axis=1)),
    }


def test_schwarzschild_gives_the_same_verdicts_and_scalars_in_every_chart():
    # A = K: every check passes in every chart but einstein, which fails in
    # every chart (the fields are not a solution); the scalar columns are
    # invariants, so they agree across the charts
    scalars = {}
    for chart, (spec, K, points) in schwarzschild_charts(64).items():
        reports = fch.run_checks(spec, fch.ScenarioFields(K=K), CHART_CHECKS, points, [1e-8] * len(CHART_CHECKS))
        verdicts = {r.check: r.passed for r in reports}
        assert verdicts == {name: name != "einstein" for name in CHART_CHECKS}, chart
        by_check = {r.check: records(r) for r in reports}
        columns = {key: [p["info"][key] for p in by_check["structure_current"]] for key in ("c", "discriminant")}
        columns["scalar_curvature"] = [p["info"]["scalar_curvature"] for p in by_check["einstein"]]
        scalars[chart] = {key: np.array(values) for key, values in columns.items()}
    for chart, columns in scalars.items():
        for key, got in columns.items():
            want = scalars["areal"][key]
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (chart, key)


# Minkowski in spherical (t, r, theta, phi) and in boosted coordinates, t = g (t' + v x'),
# x = g (x' + v t') with v = 0.6 and g = 1.25.  The fields are pulled back from
# the Cartesian chart: K = dt + 0.3 (y dx - x dy) + 0.2 (x dt - t dx), a Killing
# form with a constant F = dK; S = t; V = dt.  Both charts keep the orientation.
MINK_SPHERICAL = geo.MetricSpec.from_strings(
    ("t", "r", "theta", "phi"),
    [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]],
    name="minkowski-spherical",
)
MINK_BOOSTED = geo.MetricSpec.from_strings(
    ("tb", "xb", "y", "z"),
    [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
    name="minkowski-boosted",
)
MINK_CHART_FIELDS = {
    "cartesian": (MINK, {"t": "1+0.2*x", "x": "0.3*y-0.2*t", "y": "-0.3*x"}, "t", {"t": "1"}),
    "spherical": (MINK_SPHERICAL,
                  {"t": "1+0.2*r*sin(theta)*cos(phi)", "r": "-0.2*t*sin(theta)*cos(phi)",
                   "theta": "-0.2*t*r*cos(theta)*cos(phi)",
                   "phi": "-0.3*r^2*sin(theta)^2+0.2*t*r*sin(theta)*sin(phi)"},
                  "t", {"t": "1"}),
    "boosted": (MINK_BOOSTED, {"tb": "1.25+0.225*y+0.2*xb", "xb": "0.75+0.375*y-0.2*tb", "y": "-0.375*xb-0.225*tb"},
                "1.25*tb+0.75*xb", {"tb": "1.25", "xb": "0.75"}),
}
# the scalar columns: invariants, so each chart must give the Cartesian values
MINK_SCALARS = {
    "killing_identities": ("lorenz",),
    "lorenz_gauge": ("lorenz_gauge",),
    "lorentz_force": ("unit_velocity",),
    "hamilton_jacobi": ("mass_shell", "action_wave", "incompressible", "delta_potential"),
    "einstein": ("trace_equation", "scalar_curvature"),
    "structure_current": ("c", "discriminant"),
}


def minkowski_charts(count: int) -> dict:
    """Chart name -> (spec, fields, its coordinates of the same ``count`` physical points)."""
    rng = np.random.default_rng(43)
    cart = rng.uniform(-2.0, 2.0, size=(4 * count, 4))
    cart = cart[np.hypot(cart[:, 1], cart[:, 2]) > 0.2][:count]  # off the polar axis
    t, x, y, z = cart.T
    r = np.sqrt(x * x + y * y + z * z)
    coords = {
        "cartesian": cart,
        "spherical": np.stack([t, r, np.arccos(z / r), np.arctan2(y, x)], axis=1),
        "boosted": np.stack([1.25 * (t - 0.6 * x), 1.25 * (x - 0.6 * t), y, z], axis=1),
    }
    out = {}
    for chart, (spec, K, S, V) in MINK_CHART_FIELDS.items():
        fields = fch.ScenarioFields(K=field(K, spec), S=field({"1": S}, spec), V=field(V, spec))
        out[chart] = (spec, fields, coords[chart])
    return out


def test_minkowski_gives_the_same_verdicts_and_scalars_in_spherical_and_boosted_charts():
    names = list(fch.CHECKS)
    verdicts, scalars = {}, {}
    for chart, (spec, fields, points) in minkowski_charts(64).items():
        assert len(points) == 64
        reports = fch.run_checks(spec, fields, names, points, [1e-8] * len(names))
        verdicts[chart] = {r.check: r.passed for r in reports}
        by_check = {r.check: records(r) for r in reports}
        assert not any(p["error"] for r in by_check.values() for p in r), chart
        scalars[chart] = {(name, key): np.array([{**p["residuals"], **p["info"]}[key] for p in by_check[name]])
                          for name, keys in MINK_SCALARS.items() for key in keys}
    # K is a Killing form of a flat metric and A = K: only the checks that need
    # a solution of the coupled system, or V = dS + eA, fail
    failing = {"lorentz_force", "hamilton_jacobi", "einstein"}
    assert verdicts["cartesian"] == {name: name not in failing for name in names}
    for chart in ("spherical", "boosted"):
        assert verdicts[chart] == verdicts["cartesian"], chart
        for column, got in scalars[chart].items():
            want = scalars["cartesian"][column]
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (chart, column)


# FLRW with a = t in conformal time eta = ln t: a = e^eta and the metric is
# a(eta)^2 (deta^2 - dx^2 - dy^2 - dz^2).  The fields are pulled back from the
# catalog chart: K = -t^2 dx (the catalog's dx-dual), A = K, S = t, V = dt.
FLRW = geo.build_metric("flrw")
FLRW_CONFORMAL = geo.MetricSpec.from_strings(
    ("eta", "x", "y", "z"),
    [["exp(eta)^2", "0", "0", "0"], ["0", "-exp(eta)^2", "0", "0"], ["0", "0", "-exp(eta)^2", "0"],
     ["0", "0", "0", "-exp(eta)^2"]],
    name="flrw-conformal",
)
FLRW_CHART_FIELDS = {
    "cosmic": (FLRW, {kf.name: kf.components for kf in geo.killing_forms("flrw")}["dx-dual"], "t", {"t": "1"}),
    "conformal": (FLRW_CONFORMAL, {"x": "-exp(eta)^2"}, "exp(eta)", {"eta": "exp(eta)"}),
}


def test_flrw_gives_the_same_verdicts_and_scalars_in_cosmic_and_conformal_time():
    rng = np.random.default_rng(45)
    cosmic = np.column_stack([rng.uniform(0.4, 3.0, 64), rng.uniform(-3.0, 3.0, (64, 3))])
    coords = {"cosmic": cosmic, "conformal": np.column_stack([np.log(cosmic[:, 0]), cosmic[:, 1:]])}
    names = list(fch.CHECKS)
    verdicts, scalars = {}, {}
    for chart, (spec, K, S, V) in FLRW_CHART_FIELDS.items():
        killing = field(K, spec)
        fields = fch.ScenarioFields(K=killing, A=killing, S=field({"1": S}, spec), V=field(V, spec))
        reports = fch.run_checks(spec, fields, names, coords[chart], [1e-8] * len(names))
        verdicts[chart] = {r.check: r.passed for r in reports}
        by_check = {r.check: records(r) for r in reports}
        assert not any(p["error"] for r in by_check.values() for p in r), chart
        scalars[chart] = {(name, key): np.array([{**p["residuals"], **p["info"]}[key] for p in by_check[name]])
                          for name, keys in MINK_SCALARS.items() for key in keys}
    # K is a Killing form and A = K: as for Minkowski, only the checks that need
    # a solution of the coupled system, or V = dS + eA, fail
    failing = {"lorentz_force", "hamilton_jacobi", "einstein"}
    assert verdicts["cosmic"] == {name: name not in failing for name in names}
    assert verdicts["conformal"] == verdicts["cosmic"]
    for column, got in scalars["conformal"].items():
        want = scalars["cosmic"][column]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), column


def test_permuting_the_points_permutes_each_check_s_point_texts():
    # 300 points with a potential given: a permutation moves points across
    # block and chunk boundaries, and each point's text in the report must
    # move with it, byte for byte
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        A=field({"t": "1-2*M/r", "r": "0.1*sin(theta)", "phi": "0.05*r"}, SCHW),
        S=field({"1": "t+1e-3*log(t+3)"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    names = list(fch.CHECKS)
    points = np.array(schwarzschild_mixed_points(300))
    order = np.random.default_rng(44).permutation(len(points))
    assert len(points) > fch.CHUNK

    def point_texts(pts) -> list:
        reports = fch.run_checks(SCHW, fields, names, pts, [1e-8] * len(names))
        doc = json.loads(runner.Report("", "", reports, False, 0.0).to_json())
        return [[json.dumps(p, indent=2) for p in check["points"]] for check in doc["checks"]]

    default, permuted = point_texts(points), point_texts(points[order])
    for name, want, got in zip(names, default, permuted):
        assert got == [want[i] for i in order], name
    assert any("not evaluable" in text for text in default[0])


# -- one route per quantity: dF and A^beta R_beta -------------------------------------

# a generic metric: every component varies, and every pair of coordinates is
# coupled off the diagonal; Lorentzian on its box
GENERIC = geo.MetricSpec.from_strings(
    ("t", "x", "y", "z"),
    [
        ["1+0.2*sin(x)", "0.1*y", "0.05*t*z", "0.1*x"],
        ["0.1*y", "-1-0.1*t^2", "0.1*sin(z)", "0.05*t"],
        ["0.05*t*z", "0.1*sin(z)", "-1.2+0.1*cos(x)", "0.1*x*y"],
        ["0.1*x", "0.05*t", "0.1*x*y", "-0.9-0.1*y^2"],
    ],
    name="generic",
    domain={c: (-1.0, 1.0) for c in ("t", "x", "y", "z")},
)
ROUTE_METRICS = {"minkowski": MINK, "schwarzschild": SCHW, "flrw": FLRW, "kerr": KERR, "generic": GENERIC}
EPS = 2.0 ** -52


@pytest.mark.parametrize("key", sorted(ROUTE_METRICS))
def test_one_route_values_stay_within_four_ulps_of_the_other(key):
    # dF is WEDGE_OP . dF, from the partials alone; the route it replaced read
    # the covariant derivatives, WEDGE_OP . cov1, whose Christoffel terms cancel
    # (the connection is torsion free).  A^beta R_beta is _ricci_coupling's one
    # matmul; the route it replaced summed A^beta times the Ricci rows.  Each
    # shipped value must lie within 4 eps of the scale of the terms it sums.
    spec = ROUTE_METRICS[key]
    rng = np.random.default_rng(31)
    points = np.array([selftest.catalog_sample_point(rng, spec) for _ in range(16)])
    gd = geo.curvature(spec, points)
    assert gd.errors == {}
    fields = [selftest.random_field(rng, spec.coords, list(blades.MASKS_BY_GRADE[p])) for p in range(5)]
    fields += [selftest.random_field(rng, spec.coords, selftest.random_mixed_masks(rng)) for _ in range(3)]
    oneforms = [selftest.random_field(rng, spec.coords, [1, 2, 4, 8]) for _ in range(2)]
    oneforms = [f.scaled(10.0 ** k) for f in oneforms for k in range(-8, 9)]
    wedge = np.abs(blades.WEDGE_OP)
    for f in fields + oneforms:
        fc = FieldCalculus(f, gd)
        shipped = fc.exterior_d()
        reference = np.einsum("amn,...an->...m", blades.WEDGE_OP, fc.cov1)
        connection = np.einsum("...amn,...n->...am", np.abs(gd.gop), np.abs(fc.jets.val))
        scale = np.einsum("amn,...an->...m", wedge, np.abs(np.swapaxes(fc.jets.grad, -1, -2)) + connection)
        assert np.all(np.abs(shipped - reference) <= 4.0 * EPS * scale), f.grades
    for f in oneforms:
        a = FieldCalculus(f, gd).value()
        up = fch._raise_index(gd, a[..., blades.COVECTOR_MASKS])
        shipped = fch._ricci_coupling(gd, a)[..., blades.COVECTOR_MASKS]
        reference = linear_combination(up, (oneform(gd.ricci[..., b, :]) for b in range(4)))
        scale = np.einsum("...b,...bn->...n", np.abs(up), np.abs(gd.ricci))
        assert np.all(np.abs(shipped - reference[..., blades.COVECTOR_MASKS]) <= 4.0 * EPS * scale)


# -- points with two failures, and no point computed twice ------------------------------


def two_failure_reports() -> list:
    """Reports of small Minkowski blocks in which one point fails twice, per case.

    Fields S = log(t), A = 1/x dx and V = sqrt(y) dt + log(y+0.9) dz: at the
    second point S and A fail, at the third A and both components of V.
    The metric has g_tz = 0*log(z) and g_xx = -1 - 0*sqrt(y): at its second
    point both fail.
    """
    S = field({"1": "log(t)"}, MINK)
    A = field({"x": "1/x"}, MINK)
    V = field({"t": "sqrt(y)", "z": "log(y+0.9)"}, MINK)
    points = [(1.0, 0.5, 0.5, 0.0), (-1.0, 0.0, 0.5, 0.0), (1.0, 0.0, -1.0, 0.0), (1.2, 0.5, 0.5, 0.3)]
    names = ["hamilton_jacobi", "lorentz_force"]
    reports = fch.run_checks(MINK, fch.ScenarioFields(A=A, S=S, V=V), names, points, [1e-8] * 2)
    rows = [["1", "0", "0", "0*log(z)"], ["0", "-1-0*sqrt(y)", "0", "0"], ["0", "0", "-1", "0"],
            ["0*log(z)", "0", "0", "-1"]]
    spec = geo.MetricSpec.from_strings(MINK.coords, rows, name="two-bad")
    points = [(0.1, 0.2, 0.3, 0.4), (0.1, 0.2, -0.3, -0.4), (0.2, 0.1, 0.5, 0.6)]
    return reports + fch.run_checks(spec, fch.ScenarioFields(K=field({"t": "1"}, spec)), ["killing"],
                                    points, [1e-8])


# sha256 of the JSON of two_failure_reports, computed with the one-point fallback
# (each failing point recomputed alone) before rejections became per-point data
TWO_FAILURE_REPORTS_SHA256 = "5c194d234b0e860420f7ce7f8a0349a881f46f7c8efd06638850456d95842547"


def test_a_point_failing_twice_gets_the_error_it_gets_alone():
    reports = two_failure_reports()
    errors = [[r["error"] for r in records(report)] for report in reports]
    assert errors[0][1:3] == ["log of non-positive value in 'log(t)'", "division by zero in '1.0/x'"]
    assert errors[1][1:3] == ["division by zero in '1.0/x'", "sqrt of negative value in 'sqrt(y)'"]
    assert errors[2][1] == ("metric of 'two-bad' not evaluable at (0.1, 0.2, -0.3, -0.4): "
                            "log of non-positive value in 'log(z)'")
    digest = hashlib.sha256(json.dumps([check_dict(r) for r in reports]).encode()).hexdigest()
    assert digest == TWO_FAILURE_REPORTS_SHA256


def test_bad_points_are_not_computed_again_alone(monkeypatch):
    # 48 points, ten checks, blocks of 16; each block holds one point where
    # S leaves its domain (log(t+q), q = 3) and one where the metric does
    # (log(r-p), p = 5).  With p = 0 and q = 10 the same points are clean.
    # Both runs must make the same number of geometry, field-jet and
    # expression-jet calls: a point that fails is not computed again alone.
    monkeypatch.setattr(fch, "BLOCK", 16)
    rows = [["1-2*M/r+0*log(r-p)", "0", "0", "0"], ["0", "-1/(1-2*M/r)", "0", "0"],
            ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]]
    coords = SCHW.coords
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        S=field({"1": "t+1e-3*log(t+q)"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    rng = np.random.default_rng(35)
    points = [tuple(p) for p in rng.uniform([-2.5, 6.0, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2], (48, 4))]
    for first in (0, 16, 32):
        points[first + 3] = (-3.5, 8.0, 1.0, 0.3)  # t + 3 < 0
        points[first + 11] = (0.5, 4.0, 1.0, 0.3)  # r - 5 < 0
    names = list(fch.CHECKS)
    calls = {}
    for module, name in ((fch, "curvature"), (diffops, "field_jets"), (ex, "evaluate_jet2")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def run(p, q):
        calls.clear()
        spec = geo.MetricSpec.from_strings(coords, rows, {"M": 1.0, "p": p, "q": q}, "schwarzschild")
        reports = fch.run_checks(spec, fields, names, points, [1e-8] * len(names))
        return dict(calls), sum(r["error"] is not None for report in reports for r in records(report))

    bad_calls, bad_errors = run(5.0, 3.0)
    clean_calls, clean_errors = run(0.0, 10.0)
    assert (bad_errors, clean_errors) == (3 * len(names) + 3, 0)
    assert bad_calls == clean_calls
    # one chunk: its geometry once, the field jets once per block and field,
    # and the metric's five distinct sources (its zeros share one tree) and K, S and V
    assert len(points) <= fch.CHUNK
    assert clean_calls == {"curvature": 1, "field_jets": 9, "evaluate_jet2": 5 + 3}


def test_a_point_whose_connection_overflows_gets_a_geometry_error_in_every_check():
    # the metric is finite at OVERFLOW_POINT but its connection is not: each
    # check gives the point the geometry error, whether alone or in a block
    fields = fch.ScenarioFields(K=field({"t": "1", "x": "y"}, OVERFLOW), S=field({"1": "t"}, OVERFLOW),
                                V=field({"t": "1"}, OVERFLOW))
    names = list(fch.CHECKS)
    points = [OVERFLOW_POINT, (1.5, 0.0, -2.0, 0.7)]
    error = "Riemann antisymmetry violated (nan)"
    for pts in (points, points[:1]):
        reports = fch.run_checks(OVERFLOW, fields, names, pts, [1e-8] * len(names))
        for report in reports:
            assert [r["error"] for r in records(report)] == [error] * len(pts), report.check
            assert not report.passed


def dense_pd_cov1(fc):
    """d_s (D_a F) as the dense operators gave it, the oracle of the gathers."""
    return (np.einsum("...mas->...sam", fc.jets.hess)
            - np.einsum("...samn,...n->...sam", dense_dgop(fc.gd.dgamma), fc.jets.val)
            - np.einsum("...amn,...ns->...sam", dense_gop(fc.gd.gamma), fc.jets.grad))


# exp(700 u) overflows at u > 1.0140 and its partials a little before: the
# second ones from u = 1.0033 on and the first ones from 1.0047 on
OVERFLOWING_JETS = {
    "minkowski": (MINK, "exp(700*x)", [(0.3, u, 1.2, 0.1) for u in np.linspace(0.995, 1.02, 12)]),
    "schwarzschild": (SCHW, "exp(700*(r-3))", [(0.3, 3 + u, 1.2, 0.1) for u in np.linspace(0.995, 1.02, 12)]),
}


@pytest.mark.parametrize("key", sorted(OVERFLOWING_JETS))
def test_points_with_non_finite_jets_get_the_reports_of_the_dense_operators(monkeypatch, key):
    # where a jet is not finite, 0 * inf is NaN in a dense contraction but
    # not in a gather; the points with errors, and their errors, must not change
    spec, source, points = OVERFLOWING_JETS[key]
    t, a, b, _ = spec.coords
    fields = fch.ScenarioFields(K=field({t: source, b: f"{a}*{t}"}, spec), S=field({"1": t}, spec),
                                V=field({t: "1"}, spec))
    names = list(fch.CHECKS)
    tols = [1e-8] * len(names)
    gathered = [check_dict(r) for r in fch.run_checks(spec, fields, names, points, tols)]
    monkeypatch.setattr(FieldCalculus, "_pd_cov1", property(dense_pd_cov1))
    dense = [check_dict(r) for r in fch.run_checks(spec, fields, names, points, tols)]
    assert any(p["error"] and "non-finite" in p["error"] for r in dense for p in r["points"])
    for got, want in zip(gathered, dense):
        assert [p["error"] for p in got["points"]] == [p["error"] for p in want["points"]], got["check"]
        assert got == want
