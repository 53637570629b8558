import hashlib
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcheck import diffops
from cliffcheck import expr as ex
from cliffcheck import fieldcheck as fch
from cliffcheck import geometry as geo
from cliffcheck.algebra import Multivector, grade_project
from cliffcheck.diffops import FieldCalculus, MultivectorField
from cliffcheck.errors import CliffcheckError, FieldError

from test_diffops import dense_dgop, dense_gop
from test_geometry import BLOCK_CASES, MIXED, MIXED_ERRORS, OVERFLOW, OVERFLOW_POINT, mixed_points

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


def test_einstein_nan_for_one_index_is_a_point_error(monkeypatch):
    # the worst structure-equation residual over the four indices keeps a NaN
    # (here in the electromagnetic stress 1-form of index 2)
    real = fch._sandwich_oneform

    def nan_at_index_2(gd, x, beta, half):
        sandwich, t_form = real(gd, x, beta, half)
        if (beta, half) != (2, -0.5):
            return sandwich, t_form
        return sandwich, t_form * np.nan

    monkeypatch.setattr(fch, "_sandwich_oneform", nan_at_index_2)
    A = field({"x": "t*y"}, MINK)
    report = run_check("einstein", MINK, fch.ScenarioFields(A=A), MINK_PTS, 1e-8)
    assert [r.error for r in report.records] == ["non-finite residual 'einstein_eq'"] * 3


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
def test_structure_roots_columns_equal_the_scalar_solution_bitwise(cs):
    outcome, disc, roots, count = fch._structure_roots(np.array(cs))
    for k, c in enumerate(cs):
        want = scalar_structure_roots(c)
        got = (str(fch._OUTCOMES[outcome[k]]), tuple(roots[k, :count[k]].tolist()), float(disc[k]))
        assert repr(got) == repr(want), c
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
    records = reports[0].records
    assert [len(r.info["roots"]) for r in records] == [1, 0, 2, 0, 2, 2]
    for record in records:
        n = len(record.info["roots"])
        assert list(record.residuals) == ["sandwich_grade"] + [f"quadratic_root_{k}" for k in range(n)]
        assert list(record.info)[7:] == [f"current_match_{sign}_fB_{k}" for k in range(n)
                                          for sign in ("minus", "plus")]
    assert len(reports[0].layouts) == 3
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == MIXED_ROOTS_SHA256


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
# geometry path (before blocks) and with the point of a metric error printed as
# float reprs; the three bad points raise in metric_at
MIXED_REPORTS_SHA256 = "0c134cb1521bfe7ac3b42c261f05047e6971c55d2c76ffa1a4c9812566d48ed2"


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
    # result columns, about 0.3 kB per point here (0.28 MB from 100 to 1000
    # points; 0.93 MB when each point's results were dicts).
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
    return [record_json(record) for record in report.records]


def record_json(record) -> str:
    return json.dumps([record.point, record.residuals, record.info, record.error, record.passed])


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
    errors = {k: r.error for k, r in enumerate(report.records) if r.error is not None}
    assert errors == {1: "non-finite residual 'b'", 3: "non-finite info 'current'",
                      5: "non-finite residual 'a'", 7: "non-finite info 'current'",
                      11: "non-finite residual 'a'"}
    assert {r.passed for r in report.records if r.error is None} == {True, False}
    # the records of the value-by-value test these replaced
    digest = hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()
    assert digest == "79ab7d13b29ca272e581b8d43e8cc2b164da2cd10852fa68d472663be3095c70"


def schwarzschild_mixed_points(count: int) -> list:
    """Random Schwarzschild points, one on the horizon (r = 2M) and one with t < -3."""
    rng = np.random.default_rng(33)
    points = [tuple(p) for p in rng.uniform([-3, 2.5, 0.35, 0], [3, 20, 2.8, 6.2], size=(count, 4))]
    points[4] = (0.5, 2.0, 1.0, 0.3)  # the metric is not evaluable
    points[9] = (-3.5, 6.0, 1.0, 0.3)  # S = t + 1e-3*log(t+3) is not
    return points


@pytest.mark.parametrize("block", [3, 1])
def test_block_size_does_not_change_report_bytes(monkeypatch, block):
    fields = fch.ScenarioFields(
        K=field({"t": "1-2*M/r"}, SCHW),
        S=field({"1": "t+1e-3*log(t+3)"}, SCHW),
        V=field({"t": "sqrt(1-2*M/r)"}, SCHW),
    )
    no_potential = fch.ScenarioFields(S=fields.S)
    points = schwarzschild_mixed_points(21)
    names = list(fch.CHECKS)

    def report_json():
        reports = fch.run_checks(SCHW, fields, names, points, [1e-8] * len(names))
        reports += fch.run_checks(SCHW, no_potential, ["sandwich_identities"], points, [1e-8], seed=5)
        return json.dumps([r.to_dict() for r in reports])

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
    point = tuple(pt)
    try:
        ctx = fch.BlockContext(geo.curvature(spec, pt), by_name, fields.constants, None)
    except CliffcheckError as err:
        return [fch.PointRecord(point, {}, {}, str(err), False) for _ in names]
    records = []
    for name, tol in zip(names, tols):
        check = fch.CHECKS[name]
        try:
            layouts = fch.check_columns(ctx, check)
        except CliffcheckError as err:
            records.append(fch.PointRecord(point, {}, {}, str(err), False))
        else:
            records += fch._report(check, tol, np.array([point]), layouts, {}).records
    return records


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
        assert report.records[5].error.startswith("sqrt of negative value in 'sqrt(x + 1.0)'")
        assert record_json(report.records[5]) == record_json(record)
        rest = report.records[:5] + report.records[6:]
        assert [record_json(r) for r in rest] == [record_json(r) for r in clean.records]


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
        out += [em.oneform.coeffs, em.threeform.coeffs, em.closure_residual,
                fluid.oneform.coeffs, fluid.threeform.coeffs, fluid.closure_residual,
                fluid.form_mismatch]
    links = fch.sandwich_link_identities(gd, A, F, J)
    return [np.asarray(x, dtype=float) for x in out + [links[k] for k in sorted(links)]]


# sha256 over stress_outputs at every STRESS_POINTS point, computed with the
# one-point code before the checks took a block axis
ONE_POINT_STRESS_SHA256 = "8842c5e40af873fc826f6506483545f6a60e4524457016fee1e00b47351f77dd"


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
    errors = [[r.error for r in report.records] for report in reports]
    assert errors[0][1:3] == ["log of non-positive value in 'log(t)'", "division by zero in '1.0/x'"]
    assert errors[1][1:3] == ["division by zero in '1.0/x'", "sqrt of negative value in 'sqrt(y)'"]
    assert errors[2][1] == ("metric of 'two-bad' not evaluable at (0.1, 0.2, -0.3, -0.4): "
                            "log of non-positive value in 'log(z)'")
    digest = hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()
    assert digest == TWO_FAILURE_REPORTS_SHA256


def test_bad_points_are_not_computed_again_alone(monkeypatch):
    # 48 points, ten checks; each block of 16 holds one point where S leaves
    # its domain (log(t+q), q = 3) and one where the metric does (log(r-p),
    # p = 5).  With p = 0 and q = 10 the same points are clean.  Both runs
    # must make the same number of geometry, field-jet and expression-jet
    # calls: a point that fails is not computed again alone.
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
        return dict(calls), sum(r.error is not None for report in reports for r in report.records)

    bad_calls, bad_errors = run(5.0, 3.0)
    clean_calls, clean_errors = run(0.0, 10.0)
    assert (bad_errors, clean_errors) == (3 * len(names) + 3, 0)
    assert bad_calls == clean_calls
    # the metric's five distinct sources (its zeros share one tree) and K, S and V
    assert clean_calls == {"curvature": 3, "field_jets": 9, "evaluate_jet2": 5 + 3}


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
            assert [r.error for r in report.records] == [error] * len(pts), report.check
            assert not report.passed


def dense_pd_cov1(fc):
    """d_s (D_a F) as the dense operators gave it, the oracle of the gathers."""
    return (np.einsum("...mas->...sam", fc.jets.hess)
            - np.einsum("...samn,...n->...sam", dense_dgop(fc.gd.dgamma), fc.jets.vals)
            - np.einsum("...amn,...ns->...sam", dense_gop(fc.gd.gamma), fc.jets.grads))


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
    gathered = [r.to_dict() for r in fch.run_checks(spec, fields, names, points, tols)]
    monkeypatch.setattr(FieldCalculus, "_pd_cov1", property(dense_pd_cov1))
    dense = [r.to_dict() for r in fch.run_checks(spec, fields, names, points, tols)]
    assert any(p["error"] and "non-finite" in p["error"] for r in dense for p in r["points"])
    for got, want in zip(gathered, dense):
        assert [p["error"] for p in got["points"]] == [p["error"] for p in want["points"]], got["check"]
        assert got == want
