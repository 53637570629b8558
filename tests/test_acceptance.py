"""Release acceptance suite.

One test per criterion, each printing a single PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -rA``.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cliffcheck import geometry as geo
from cliffcheck.algebra import PointMetric, grade_project, sup
from cliffcheck.diffops import FieldCalculus, MultivectorField
from cliffcheck.fieldcheck import solve_structure_quadratic
from cliffcheck.selftest import (
    catalog_sample_point,
    random_field,
    random_lorentzian_metric,
    random_mixed_masks,
    run_algebra_suite,
)

import test_geometry as geom_oracles

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

PARAMS = {"minkowski": None, "schwarzschild": {"M": 1.0}, "flrw": {"a": "t"}}


def _announce(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.mark.acceptance
def test_criterion_1_algebra_laws():
    result = run_algebra_suite(iterations=10_000, seed=20240811)
    ok = result.passed and result.elapsed_s < 30.0
    _announce(
        1,
        ok,
        f"10000 trials, max relative residual {result.max_residual:.3e} < 1e-10, "
        f"runtime {result.elapsed_s:.1f}s < 30s",
    )
    assert result.passed, "\n".join(result.lines())
    assert result.elapsed_s < 30.0


def _killing_suite_points(rng, key):
    if key == "minkowski":
        return [rng.uniform(-2.0, 2.0, size=4) for _ in range(20)]
    if key == "schwarzschild":
        return [
            np.array(
                [
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(3.0, 10.0),
                    rng.uniform(0.5, 2.6),
                    rng.uniform(0.0, 6.2),
                ]
            )
            for _ in range(20)
        ]
    return [
        np.array(
            [
                rng.uniform(0.5, 2.0),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
            ]
        )
        for _ in range(20)
    ]


@pytest.mark.acceptance
def test_criterion_2_killing_identity_bundle():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for key in ("minkowski", "schwarzschild", "flrw"):
        spec = geo.build_metric(key, PARAMS[key])
        forms = geo.killing_forms(key, PARAMS[key])
        if key == "minkowski":
            assert len(forms) == 10
        for kf in forms:
            K = MultivectorField.from_components(dict(kf.components), spec.coords)
            for point in _killing_suite_points(rng, key):
                gd = geo.curvature(spec, point)
                fc = FieldCalculus(K, gd)
                rhs = np.zeros(16)
                for a in range(4):
                    rhs = rhs + fc.jets.val[1 << a] * gd.ricci_oneforms[a]
                res = max(
                    abs(fc.codifferential()[..., 0]),
                    sup(fc.ricci_operator() - rhs),
                    sup(fc.covariant_dalembertian() - rhs),
                )
                worst = max(worst, res)
                count += 1
                assert res < 1e-8, (key, kf.name, tuple(point), res)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _announce(
        2,
        ok,
        f"15 Killing forms x 20 points ({count} evaluations), max residual "
        f"{worst:.3e} < 1e-8, runtime {elapsed:.1f}s < 60s",
    )
    assert elapsed < 60.0


@pytest.mark.acceptance
def test_criterion_3_superconducting_current():
    rng = np.random.default_rng(777)
    # FLRW a(t)=t with A = the dx-dual Killing form: nontrivial current
    spec = geo.build_metric("flrw", {"a": "t"})
    A = MultivectorField.from_components({"x": "-t^2"}, spec.coords)
    worst = 0.0
    largest_rhs = 0.0
    for _ in range(20):
        point = np.array(
            [rng.uniform(0.5, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)]
        )
        gd = geo.curvature(spec, point)
        fc = FieldCalculus(A, gd)
        rhs = np.zeros(16)
        for a in range(4):
            rhs = rhs + fc.jets.val[1 << a] * gd.ricci_oneforms[a]
        rhs = 2.0 * rhs
        worst = max(worst, sup(fc.maxwell_current() - rhs))
        largest_rhs = max(largest_rhs, sup(rhs))
    flrw_ok = worst < 1e-8 and largest_rhs > 1e-3

    # vacuum: both the current and the curvature coupling vanish
    sspec = geo.build_metric("schwarzschild", {"M": 1.0})
    K = MultivectorField.from_components({"t": "1-2*M/r"}, sspec.coords)
    vac_worst = 0.0
    for _ in range(20):
        point = np.array(
            [rng.uniform(-1, 1), rng.uniform(3.0, 10.0), rng.uniform(0.5, 2.6), rng.uniform(0, 6.2)]
        )
        gd = geo.curvature(sspec, point)
        fc = FieldCalculus(K, gd)
        rhs = np.zeros(16)
        for a in range(4):
            rhs = rhs + fc.jets.val[1 << a] * gd.ricci_oneforms[a]
        current = fc.maxwell_current()
        vac_worst = max(vac_worst, sup(current), sup(2.0 * rhs), sup(current - 2.0 * rhs))
    vac_ok = vac_worst < 1e-9

    ok = flrw_ok and vac_ok
    _announce(
        3,
        ok,
        f"FLRW residual {worst:.3e} < 1e-8 with coupling magnitude {largest_rhs:.3e} > 1e-3; "
        f"vacuum current and coupling {vac_worst:.3e} < 1e-9",
    )
    assert flrw_ok
    assert vac_ok


@pytest.mark.acceptance
def test_criterion_4_operator_square_consistency():
    rng = np.random.default_rng(8888)
    worst = 0.0
    for key in ("minkowski", "schwarzschild", "flrw"):
        spec = geo.build_metric(key, PARAMS[key])
        for _ in range(100):
            F = random_field(rng, spec.coords, random_mixed_masks(rng))
            gd = geo.curvature(spec, catalog_sample_point(rng, spec))
            fc = FieldCalculus(F, gd)
            second = fc.covariant_dalembertian() + fc.ricci_operator()
            disagreement = sup(fc.hodge_dalembertian() - second)
            worst = max(worst, disagreement)
            assert disagreement < 1e-8, (key, disagreement)
    _announce(4, worst < 1e-8, f"100 mixed-grade fields per metric, max route disagreement {worst:.3e} < 1e-8")


@pytest.mark.acceptance
def test_criterion_5_extensoriality():
    rng = np.random.default_rng(9999)
    worst = 0.0
    for key in ("schwarzschild", "flrw"):
        spec = geo.build_metric(key, PARAMS[key])
        for _ in range(100):
            A = random_field(rng, spec.coords, [1, 2, 4, 8])
            gd = geo.curvature(spec, catalog_sample_point(rng, spec))
            fc = FieldCalculus(A, gd)
            rhs = np.zeros(16)
            for mu in range(4):
                rhs = rhs + fc.jets.val[1 << mu] * gd.ricci_oneforms[mu]
            res = sup(fc.ricci_operator() - rhs)
            worst = max(worst, res)
            assert res < 1e-8, (key, res)
        # basis 1-forms reproduce the Ricci 1-forms exactly
        gd = geo.curvature(spec, catalog_sample_point(rng, spec))
        for mu in range(4):
            got = FieldCalculus(MultivectorField.basis_covector(mu), gd).ricci_operator()
            res = sup(got - gd.ricci_oneforms[mu])
            worst = max(worst, res)
            assert res < 1e-8
    _announce(5, worst < 1e-8, f"100 random 1-form fields on two curved metrics, max residual {worst:.3e} < 1e-8")


@pytest.mark.acceptance
def test_criterion_6_sandwich_identities():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(10_000):
        m = PointMetric(random_lorentzian_metric(rng))
        a = grade_project(rng.uniform(-1, 1, 16), 1)
        f2 = grade_project(rng.uniform(-1, 1, 16), 2)
        j = grade_project(rng.uniform(-1, 1, 16), 1)

        faf = m.clifford(f2, m.clifford(a, f2))
        contracted = np.zeros(16)
        a_up = m.g @ np.array([a[1 << i] for i in range(4)])
        for beta in range(4):
            low = np.zeros(16)
            for nu in range(4):
                low[1 << nu] = m.ginv[beta, nu]
            contracted = contracted + a_up[beta] * m.clifford(f2, m.clifford(low, f2))
        res1 = sup(contracted - faf) / max(1.0, sup(faf), sup(contracted))

        jaj = m.clifford(j, m.clifford(a, j))
        expansion = jaj - 2.0 * m.scalar_product(a, j) * j + m.scalar_product(j, j) * a
        res2 = sup(expansion) / max(1.0, sup(jaj))

        # <F A rev(F)>_3 = -<FAF>_3 = 0
        res3 = sup(grade_project(faf, 3)) / max(1.0, sup(faf))

        worst = max(worst, res1, res2, res3)
        assert res1 < 1e-12 and res2 < 1e-12 and res3 < 1e-12
    _announce(6, worst < 1e-12, f"10000 point-algebra trials, max relative residual {worst:.3e} < 1e-12")


@pytest.mark.acceptance
def test_criterion_7_structure_quadratic():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(-10.0, 0.125))
        sol = solve_structure_quadratic(c)
        assert sol.roots, f"no roots returned for c={c}"
        for f in sol.roots:
            res = abs(2.0 * c * f * f + f + 1.0)
            worst = max(worst, res)
            assert res < 1e-12, (c, f, res)
    for _ in range(100):
        c = float(rng.uniform(0.1251, 10.0))
        assert solve_structure_quadratic(c).outcome == "no-real-f"
    assert solve_structure_quadratic(0.0).roots == (-1.0,)
    double = solve_structure_quadratic(0.125)
    assert double.outcome == "double-root" and double.roots == (-2.0,)
    _announce(
        7,
        worst < 1e-12,
        f"1000 random coefficients, max root residual {worst:.3e} < 1e-12; "
        "no-real-f beyond 1/8; exact -1 at 0 and double root -2 at 1/8",
    )


@pytest.mark.acceptance
def test_criterion_8_geometry_oracles():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for key in ("minkowski", "schwarzschild", "flrw"):
        spec = geo.build_metric(key, PARAMS[key])
        for _ in range(20):
            x = geom_oracles.SEED_POINTS[key](rng)
            gd = geo.curvature(spec, x)
            gamma_fd = geom_oracles.christoffel_fd(spec, x)
            riem_fd = geom_oracles.riemann_fd(spec, x)
            ricci_fd = np.einsum("mnsm->ns", riem_fd)
            gscale = max(1.0, np.max(np.abs(gd.gamma)))
            rscale = max(1.0, np.max(np.abs(gd.riemann)))
            res = max(
                np.max(np.abs(gd.gamma - gamma_fd)) / gscale,
                np.max(np.abs(gd.riemann - riem_fd)) / rscale,
                np.max(np.abs(gd.ricci - ricci_fd)) / max(1.0, np.max(np.abs(gd.ricci))),
            )
            worst = max(worst, res)
            assert res < 1e-6, (key, tuple(x), res)
            if key == "schwarzschild":
                assert np.max(np.abs(gd.ricci)) < 1e-10
    gamma, _ = geo.christoffels(
        geo.build_metric("schwarzschild", {"M": 1.0}), (0.0, 4.0, np.pi / 2, 0.0)
    )
    assert abs(gamma[1, 0, 0] - 0.03125) < 1e-10
    _announce(
        8,
        worst < 1e-6,
        f"jets vs finite differences at 20 points per metric, max relative deviation "
        f"{worst:.3e} < 1e-6; vacuum Ricci < 1e-10; radial-static coefficient exact",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cliffcheck", *args], capture_output=True, text=True, cwd=REPO
    )


@pytest.mark.acceptance
def test_criterion_9_cli_determinism_and_exits(tmp_path):
    positive = sorted(SCENARIOS.glob("*.json"))
    negative = sorted((SCENARIOS / "negative").glob("*.json"))
    assert positive and negative
    for path in positive:
        r1 = tmp_path / f"{path.stem}.1.json"
        r2 = tmp_path / f"{path.stem}.2.json"
        p1 = _run_cli("verify", str(path), "--report", str(r1))
        p2 = _run_cli("verify", str(path), "--report", str(r2))
        assert p1.returncode == 0, (path.name, p1.stdout, p1.stderr)
        assert p2.returncode == 0
        assert r1.read_bytes() == r2.read_bytes(), f"report for {path.name} not byte-identical"

    for path in negative:
        proc = _run_cli("verify", str(path))
        assert proc.returncode == 1, (path.name, proc.stdout)

    # the designed witnesses name their failing sub-checks
    proc = _run_cli("verify", str(SCENARIOS / "negative" / "non_killing.json"))
    assert "killing_eq" in proc.stdout
    proc = _run_cli("verify", str(SCENARIOS / "negative" / "lorenz_not_killing.json"))
    assert "[PASS] lorenz_gauge" in proc.stdout
    assert "[FAIL] killing" in proc.stdout
    _announce(
        9,
        True,
        f"{len(positive)} positive scenarios exit 0 with byte-identical reports; "
        f"{len(negative)} negative witnesses exit 1 naming the failing sub-checks",
    )
