import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck.algebra import Multivector, grade_project
from cliffcheck.diffops import FieldCalculus, MultivectorField
from cliffcheck.errors import FieldError

from test_geometry import MIXED, MIXED_ERRORS, mixed_points

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


# -- killing ---------------------------------------------------------------------


def test_killing_minkowski_translation():
    K = field({"t": "1"}, MINK)
    report = run_check("killing", MINK, fch.ScenarioFields(K=K), MINK_PTS, 1e-10)
    assert report.passed
    assert report.max_residual == 0.0


def test_killing_schwarzschild_static():
    K = field({"t": "1-2*M/r"}, SCHW)
    report = run_check("killing", SCHW, fch.ScenarioFields(K=K), SCHW_PTS, 1e-10)
    assert report.passed, report.to_dict()


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
    assert report.records[0].passed
    assert report.records[1].error is not None


# -- killing identity bundle ------------------------------------------------------------------


def test_killing_identities_minkowski_boost():
    K = field({"t": "x", "x": "-t"}, MINK)
    report = run_check("killing_identities", MINK, fch.ScenarioFields(K=K), MINK_PTS, 1e-10)
    assert report.passed, report.to_dict()


def test_killing_identities_flrw_translation_nontrivial():
    K = field({"x": "-t^2"}, FLRW)
    report = run_check("killing_identities", FLRW, fch.ScenarioFields(K=K), FLRW_PTS, 1e-8)
    assert report.passed, report.to_dict()
    assert any(
        max(abs(v) for v in rec.info["curvature_coupling"]) > 1e-3 for rec in report.records
    )


def test_killing_identities_schwarzschild_axial():
    K = field({"phi": "-r^2*sin(theta)^2"}, SCHW)
    report = run_check("killing_identities", SCHW, fch.ScenarioFields(K=K), SCHW_PTS, 1e-8)
    assert report.passed, report.to_dict()


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
    for rec in report.records:
        assert rec.info["current_sup"] < 1e-9
        assert rec.info["proportional_rhs_sup"] < 1e-9


def test_current_flrw_nonzero_and_proportional():
    A = field({"x": "-t^2"}, FLRW)
    report = run_check("superconducting_current", FLRW, fch.ScenarioFields(A=A), FLRW_PTS, 1e-8)
    assert report.passed, report.to_dict()
    assert all(rec.info["current_sup"] > 1e-3 for rec in report.records)


def test_current_uniform_field_strength():
    A = field({"t": "x"}, MINK)
    report = run_check("superconducting_current", MINK, fch.ScenarioFields(A=A), MINK_PTS, 1e-12)
    assert report.passed
    assert all(rec.info["current_sup"] == 0.0 for rec in report.records)


def test_current_scaled_potential():
    # J is linear in the coupling: A = coupling * K doubles the current
    K = field({"x": "-t^2"}, FLRW)
    r1 = run_check("superconducting_current", FLRW, fch.ScenarioFields(A=K), [FLRW_PTS[0]], 1e-8)
    doubled = fch.ScenarioFields(A=K.scaled(2.0))
    r2 = run_check("superconducting_current", FLRW, doubled, [FLRW_PTS[0]], 1e-8)
    j1 = np.array(r1.records[0].info["current"])
    j2 = np.array(r2.records[0].info["current"])
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
    assert report.passed, report.to_dict()


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
    assert report.passed, report.to_dict()


def test_hamilton_jacobi_lorenz_gauge_wave():
    # potential in the Lorenz gauge: the action wave residual is exactly zero
    fields = fch.ScenarioFields(
        S=field({"1": "t"}, MINK), V=field({"t": "1"}, MINK), A=field({"t": "x"}, MINK)
    )
    report = run_check("hamilton_jacobi", MINK, fields, MINK_PTS, 1e-12)
    assert not report.passed  # momentum no longer matches mV
    for rec in report.records:
        assert rec.residuals["action_wave"] == 0.0
        assert rec.info["delta_potential"] == 0.0


def test_hamilton_jacobi_mass_mismatch():
    fields = fch.ScenarioFields(
        S=field({"1": "2*t"}, MINK), V=field({"t": "2"}, MINK), A=MultivectorField.zero()
    )
    report = run_check("hamilton_jacobi", MINK, fields, MINK_PTS, 1e-10)
    assert not report.passed
    assert abs(report.records[0].residuals["mass_shell"] - 3.0) < 1e-12


# -- energy momentum ---------------------------------------------------------------------


def test_energy_momentum_em_zero_field():
    gd = geo.curvature(MINK, MINK_PTS[0])
    em = fch.energy_momentum_em(gd, Multivector.zero(), 0)
    assert em.oneform.sup() == 0.0
    assert em.threeform.sup() == 0.0


def test_energy_momentum_em_electric_density():
    gd = geo.curvature(MINK, MINK_PTS[0])
    E = 1.75
    F = E * Multivector.blade((0, 1))
    em = fch.energy_momentum_em(gd, F, 0)
    expected = 0.5 * E * E
    assert abs(gd.metric.scalar_product(em.oneform, Multivector.covector(0)) - expected) < 1e-12
    assert em.closure_residual < 1e-14


def test_energy_momentum_em_rejects_wrong_grade():
    gd = geo.curvature(MINK, MINK_PTS[0])
    with pytest.raises(FieldError):
        fch.energy_momentum_em(gd, Multivector.covector(0), 0)


def test_energy_momentum_fluid_rest_density():
    gd = geo.curvature(MINK, MINK_PTS[0])
    rho = 0.8
    J = rho * Multivector.covector(0)
    fl = fch.energy_momentum_fluid(gd, J, 0)
    want = 0.5 * rho * rho * Multivector.covector(0)
    assert (fl.oneform - want).sup() < 1e-14
    assert fl.form_mismatch < 1e-13


def test_energy_momentum_fluid_two_forms_agree_random():
    rng = np.random.default_rng(5)
    for spec, pts in ((MINK, MINK_PTS), (SCHW, SCHW_PTS)):
        gd = geo.curvature(spec, pts[0])
        for _ in range(20):
            J = grade_project(Multivector(rng.uniform(-1, 1, 16)), 1)
            for alpha in range(4):
                fl = fch.energy_momentum_fluid(gd, J, alpha)
                assert fl.form_mismatch < 1e-12
                assert fl.closure_residual < 1e-12


# -- einstein residual ---------------------------------------------------------------------


def test_einstein_trivial_vacuum():
    fields = fch.ScenarioFields(A=MultivectorField.zero())
    report = run_check("einstein", MINK, fields, MINK_PTS, 1e-10)
    assert report.passed


def test_einstein_schwarzschild_vacuum():
    fields = fch.ScenarioFields(A=MultivectorField.zero())
    report = run_check("einstein", SCHW, fields, SCHW_PTS, 1e-8)
    assert report.passed, report.to_dict()


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
    assert report.passed, report.to_dict()
    for rec in report.records:
        # c = A.B = -4 t^4 * g^xx-weighted: negative and nontrivial here
        assert rec.info["c"] < -0.1
        assert rec.info["outcome"] == "two-roots"
        assert len(rec.info["roots"]) == 2
        assert "self_consistency_residual" in rec.info


def test_structure_current_reports_both_orientations():
    A = field({"x": "-t^2"}, FLRW)
    report = run_check("structure_current", FLRW, fch.ScenarioFields(A=A), [FLRW_PTS[1]], 1e-10)
    rec = report.records[0]
    assert "current_match_minus_fB_0" in rec.info
    assert "current_match_plus_fB_0" in rec.info


def test_structure_current_c_value_flrw():
    # F = -2t dt^dx, B = F A rev(F) -> c = A.B = -4 t^2 at a(t) = t
    A = field({"x": "-t^2"}, FLRW)
    fields = fch.ScenarioFields(A=A)
    report = run_check("structure_current", FLRW, fields, [(1.0, 0.0, 0.0, 0.0)], 1e-10)
    assert abs(report.records[0].info["c"] + 4.0) < 1e-12


# -- sandwich algebraic links ------------------------------------------------------------------


def test_sandwich_identities_random_inputs():
    fields = fch.ScenarioFields()
    report = run_check("sandwich_identities", FLRW, fields, FLRW_PTS, 1e-12, seed=3)
    assert report.passed, report.to_dict()


def test_sandwich_identities_with_supplied_potential():
    fields = fch.ScenarioFields(K=field({"x": "-t^2"}, FLRW))
    report = run_check("sandwich_identities", FLRW, fields, FLRW_PTS, 1e-10)
    assert report.passed, report.to_dict()


def test_sandwich_identities_zero_potential_trivial():
    gd = geo.curvature(MINK, MINK_PTS[0])
    res = fch.sandwich_link_identities(gd, Multivector.zero(), Multivector.zero(), Multivector.zero())
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
    assert abs(got.coeffs[0b0010] + 2.5) < 1e-15


def test_checks_run_together_match_each_alone():
    # the ten checks share one geometry and one calculator per field at each
    # point; a check that mutated a shared cached array would show up here
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        S=field({"1": "t"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    names = list(fch.CHECKS)
    alone = {name: run_check(name, SCHW, fields, SCHW_PTS, 1e-8).to_dict() for name in names}
    for order in (names, names[::-1]):
        together = fch.run_checks(SCHW, fields, order, SCHW_PTS, [1e-8] * len(order))
        assert [r.check for r in together] == order
        for report in together:
            assert report.to_dict() == alone[report.check], report.check


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
    errors = [r.error for r in together[0].records]
    assert errors[5].startswith("log of non-positive value in 'log(t)'")
    assert errors[6].startswith("metric of 'schwarzschild' not evaluable")
    assert errors[:5] == [None] * 5 and errors[7:] == [None] * 3
    for k, pt in enumerate(points):
        alone = fch.run_checks(SCHW, fields, names, [pt], tols)
        for report, one in zip(together, alone):
            assert report.records[k] == one.records[0], (report.check, k)


# -- blocks of points ----------------------------------------------------------------

# sha256 of the JSON of the mixed scenario's reports, computed with the one-point
# geometry path (before blocks); the three bad points raise in metric_at
MIXED_REPORTS_SHA256 = "ef9a77a98e96b52331ec646b2f4441741ed2e219f6efb79e48bed5f34a8bdb30"


@pytest.mark.parametrize("block", [16, 4, 3, 1])
def test_block_with_bad_points_reports_what_each_point_gives_alone(monkeypatch, block):
    # one block of 16 holds a singular, a non-Lorentzian and a not evaluable
    # point among good ones; smaller blocks split them up
    monkeypatch.setattr(fch, "BLOCK", block)
    fields = fch.ScenarioFields(K=field({"t": "t", "x": "x*y"}, MIXED))
    names = ["killing", "killing_identities", "maxwell_current"]
    reports = fch.run_checks(MIXED, fields, names, mixed_points(), [1e-8] * 3)
    for report in reports:
        assert {k: r.error for k, r in enumerate(report.records) if r.error} == MIXED_ERRORS
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
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
    default = [r.to_dict() for r in fch.run_checks(SCHW, fields, names, points, tols)]
    monkeypatch.setattr(fch, "BLOCK", 3)
    monkeypatch.setattr(fch, "CHUNK", 16)
    assert [r.to_dict() for r in fch.run_checks(SCHW, fields, names, points, tols)] == default


def test_point_loop_memory_does_not_grow_with_blocks():
    # one block's geometry and tables take about 2 MB; a block kept after its
    # points would add that for every 16 points.  What does grow is the
    # records, about 1.1 kB per point here (1.0 MB from 100 to 1000 points).
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
