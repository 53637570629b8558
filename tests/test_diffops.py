import dataclasses
import hashlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cliffcheck import blades, selftest
from cliffcheck import expr as ex
from cliffcheck import geometry as geo
from cliffcheck.algebra import Multivector, PointMetric, grade_project, wedge
from cliffcheck.diffops import FieldCalculus, FieldJets, MultivectorField, field_jets, grad_scalar_product
from cliffcheck.errors import DomainEvalError, FieldError

import oracles
from test_geometry import BLOCK_CASES

MINK = geo.build_metric("minkowski")
SCHW = geo.build_metric("schwarzschild", {"M": 1.0})
FLRW = geo.build_metric("flrw", {"a": "t"})


def geometry_point(spec, rng):
    box = spec.domain_box()
    x = np.array([rng.uniform(lo, hi) for lo, hi in (box[c] for c in spec.coords)])
    return geo.curvature(spec, x)


def random_poly_field(rng, coords, masks):
    comps = {}
    for mask in masks:
        terms = []
        for _ in range(rng.integers(1, 3)):
            c = round(float(rng.uniform(-1.5, 1.5)), 3)
            names = list(rng.choice(coords, size=rng.integers(0, 3), replace=True))
            term = str(c)
            for n in names:
                term += f"*{n}"
            terms.append(term)
        comps[int(mask)] = " + ".join(terms)
    return MultivectorField.from_components(comps, tuple(coords))


# -- field construction ------------------------------------------------------------


def test_field_from_blade_keys():
    f = MultivectorField.from_components({"t^r": "r", "1": "2"}, SCHW.coords)
    assert f.grades == frozenset((0, 2))
    assert f.comps[0b0011] == ex.Var("r")
    # out-of-order key picks up the permutation sign
    g = MultivectorField.from_components({"r^t": "r"}, SCHW.coords)
    assert g.comps[0b0011] == ex.Neg(ex.Var("r"))


def test_field_grade_declaration_enforced():
    with pytest.raises(FieldError):
        MultivectorField.from_components({"t": "1"}, MINK.coords, grades=(0,))
    with pytest.raises(FieldError):
        MultivectorField.from_components({"t^t": "1"}, MINK.coords)


# -- covariant derivative -----------------------------------------------------------


def test_covariant_derivative_constant_scalar():
    rng = np.random.default_rng(0)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        f = MultivectorField.from_components({"1": "3.5"}, spec.coords)
        for alpha in range(4):
            assert FieldCalculus(f, gd).covariant_derivative(alpha).sup() == 0.0


def test_covariant_derivative_flat_is_plain_partials():
    gd = geo.curvature(MINK, (0.5, 0.25, -1.0, 2.0))
    f = MultivectorField.from_components({"x": "t*t", "y^z": "x*y"}, MINK.coords)
    out = FieldCalculus(f, gd).covariant_derivative(0)
    assert out.coeffs[0b0010] == 1.0  # d_t (t^2) = 2t = 1.0 at t=0.5
    assert out.coeffs[0b1100] == 0.0
    out1 = FieldCalculus(f, gd).covariant_derivative(1)
    assert out1.coeffs[0b1100] == -1.0  # d_x (x*y) = y = -1.0


def test_covariant_derivative_metric_compatibility():
    # D_a (K.K) = 2 (D_a K).K on a curved metric
    rng = np.random.default_rng(3)
    for spec in (SCHW, FLRW):
        for _ in range(5):
            gd = geometry_point(spec, rng)
            K = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
            fc = FieldCalculus(K, gd)
            kval = fc.value()
            lhs = grad_scalar_product(fc.jets, fc.jets, gd)
            for alpha in range(4):
                rhs = 2.0 * gd.metric.scalar_product(Multivector(fc.cov1[alpha]), kval)
                assert abs(lhs.coeffs[1 << alpha] - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_covariant_derivative_matches_fd_oracle():
    rng = np.random.default_rng(9)
    spec = SCHW
    gd = geometry_point(spec, rng)
    F = random_poly_field(rng, spec.coords, [1, 2, 3, 5, 12])

    def comps_at(p):
        gdp = geo.curvature(spec, p)
        return field_jets(F, gdp).vals

    fc = FieldCalculus(F, gd)
    vals = fc.jets.vals
    for alpha in range(4):
        fd_partial = oracles.richardson_diff(comps_at, gd.point, alpha, 1e-3)
        # assemble the covariant correction from Gamma directly
        want = fd_partial.copy()
        for mask in range(16):
            for pos, i in enumerate(blades.indices(mask)):
                for rho in range(4):
                    column = blades.INDEX_SUB[i, rho, mask]
                    src = np.nonzero(column)[0]
                    for s in src:
                        want[mask] -= gd.gamma[rho, alpha, i] * column[s] * vals[s]
        got = FieldCalculus(F, gd).covariant_derivative(alpha).coeffs
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


# -- dirac and its grade split --------------------------------------------------------


def test_dirac_gradient_of_coordinate():
    gd = geo.curvature(MINK, (0.1, 0.2, 0.3, 0.4))
    f = MultivectorField.from_components({"1": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).dirac()
    assert np.array_equal(out.coeffs, Multivector.covector(1).coeffs)


def test_dirac_constant_scalar_vanishes():
    gd = geo.curvature(FLRW, (1.0, 0.0, 0.0, 0.0))
    f = MultivectorField.from_components({"1": "4"}, FLRW.coords)
    assert FieldCalculus(f, gd).dirac().sup() == 0.0


def test_dirac_grade_split():
    # <dirac F>_{p+1} = dF and <dirac F>_{p-1} = -delta F for homogeneous F
    rng = np.random.default_rng(21)
    for spec in (MINK, SCHW, FLRW):
        for p, masks in ((0, [0]), (1, [1, 2, 4]), (2, [3, 5, 12]), (3, [7, 14])):
            gd = geometry_point(spec, rng)
            F = random_poly_field(rng, spec.coords, masks)
            fc = FieldCalculus(F, gd)
            full = fc.dirac()
            d_part = fc.exterior_d()
            delta_part = fc.codifferential()
            assert (grade_project(full, p + 1) - d_part).sup() < 1e-12 if p < 4 else True
            if p > 0:
                assert (grade_project(full, p - 1) + delta_part).sup() < 1e-12


def test_dirac_on_schwarzschild_killing():
    gd = geo.curvature(SCHW, (0.0, 4.0, 1.0, 0.5))
    K = MultivectorField.from_components({"t": "1-2*M/r"}, SCHW.coords)
    fc = FieldCalculus(K, gd)
    out = fc.dirac()
    assert (grade_project(out, 2) - fc.exterior_d()).sup() < 1e-12
    assert grade_project(out, 0).sup() < 1e-12  # delta K = 0


# -- exterior derivative ----------------------------------------------------------------


def test_exterior_d_hand_case():
    gd = geo.curvature(MINK, (0.0, 0.7, 0.0, 0.0))
    f = MultivectorField.from_components({"t": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).exterior_d()
    want = -wedge(Multivector.covector(0), Multivector.covector(1))
    assert np.array_equal(out.coeffs, -want.coeffs * -1.0)
    assert out.coeffs[0b0011] == -1.0


def test_exterior_d_metric_independent():
    rng = np.random.default_rng(17)
    # same components, two different metrics on the same chart
    curved = geo.MetricSpec.from_strings(
        ("t", "x", "y", "z"),
        [["1+x*x", "0", "0", "0"], ["0", "-1-t*t", "0", "0"], ["0", "0", "-2", "0"], ["0", "0", "0", "-1-y*y"]],
        name="bumpy",
    )
    F = random_poly_field(rng, MINK.coords, [0, 1, 6, 11])
    x = (0.4, -0.2, 0.8, 0.1)
    d_flat = FieldCalculus(F, geo.curvature(MINK, x)).exterior_d()
    d_curved = FieldCalculus(F, geo.curvature(curved, x)).exterior_d()
    assert (d_flat - d_curved).sup() < 1e-12


def test_d_squared_zero():
    rng = np.random.default_rng(31)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        for _ in range(5):
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            assert FieldCalculus(F, gd).exterior_d_squared().sup() < 1e-12


def test_d_of_scalar_gradient_vanishes():
    rng = np.random.default_rng(13)
    gd = geometry_point(SCHW, rng)
    S = MultivectorField.from_components({"1": "t*r + sin(theta)*phi"}, SCHW.coords)
    fc = FieldCalculus(S, gd)
    # d(dS) via the exact jet of dS
    assert fc.exterior_d_squared().sup() < 1e-12


def test_d_of_top_grade_vanishes():
    gd = geo.curvature(SCHW, (0.0, 5.0, 1.2, 0.3))
    tau_field = MultivectorField.from_components({15: "r^2*sin(theta)"}, SCHW.coords)
    assert FieldCalculus(tau_field, gd).exterior_d().sup() == 0.0


# -- codifferential ---------------------------------------------------------------------


def test_codifferential_of_scalar_is_zero():
    gd = geo.curvature(SCHW, (0.0, 4.0, 1.0, 0.0))
    S = MultivectorField.from_components({"1": "t*r"}, SCHW.coords)
    assert FieldCalculus(S, gd).codifferential().sup() == 0.0


def test_codifferential_fixed_case():
    gd = geo.curvature(MINK, (0.0, 1.3, 0.0, 0.0))
    f = MultivectorField.from_components({"x": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).codifferential()
    assert abs(out.scalar_part - 1.0) < 1e-15


def test_codifferential_routes_agree():
    rng = np.random.default_rng(23)
    for spec in (MINK, SCHW, FLRW):
        for _ in range(6):
            gd = geometry_point(spec, rng)
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            fc = FieldCalculus(F, gd)
            a = fc.codifferential()
            b = fc.codifferential_hodge_route()
            assert (a - b).sup() < 1e-8 * max(1.0, a.sup())


def test_codifferential_squared_zero():
    rng = np.random.default_rng(29)
    for spec in (SCHW, FLRW):
        gd = geometry_point(spec, rng)
        for _ in range(4):
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            out = FieldCalculus(F, gd).codifferential_squared()
            assert out.sup() < 1e-9


def test_trace_identity_for_lorenz_gauge():
    # delta L = -g^{km} D_k L_m for any 1-form L
    rng = np.random.default_rng(37)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        L = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
        fc = FieldCalculus(L, gd)
        delta = fc.codifferential().scalar_part
        trace = -sum(
            gd.g_upper[k, m] * fc.cov1[k][1 << m] for k in range(4) for m in range(4)
        )
        assert abs(delta - trace) < 1e-11 * max(1.0, abs(trace))


# -- second order operators -----------------------------------------------------------


def test_wave_operator_flat_scalar():
    gd = geo.curvature(MINK, (3.0, 0.0, 0.0, 0.0))
    S = MultivectorField.from_components({"1": "t^2"}, MINK.coords)
    out = FieldCalculus(S, gd).covariant_dalembertian()
    assert abs(out.scalar_part - 2.0) < 1e-14


def test_killing_wave_equation_flrw():
    # box K = K_a R^a with nonzero right-hand side
    rng = np.random.default_rng(41)
    for _ in range(5):
        gd = geometry_point(FLRW, rng)
        K = MultivectorField.from_components({"x": "-t^2"}, FLRW.coords)
        fc = FieldCalculus(K, gd)
        rhs = Multivector.zero()
        for a in range(4):
            rhs = rhs + fc.jets.vals[1 << a] * gd.ricci_oneforms[a]
        assert rhs.sup() > 1e-3
        assert (fc.covariant_dalembertian() - rhs).sup() < 1e-10
        assert (fc.ricci_operator() - rhs).sup() < 1e-10
        assert fc.codifferential().sup() < 1e-12


def test_killing_wave_equation_schwarzschild_vacuum():
    rng = np.random.default_rng(43)
    gd = geometry_point(SCHW, rng)
    K = MultivectorField.from_components({"t": "1-2*M/r"}, SCHW.coords)
    fc = FieldCalculus(K, gd)
    assert fc.covariant_dalembertian().sup() < 1e-10
    assert fc.ricci_operator().sup() < 1e-10


def test_ricci_operator_extensoriality():
    rng = np.random.default_rng(47)
    for spec in (SCHW, FLRW):
        for _ in range(5):
            gd = geometry_point(spec, rng)
            A = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
            fc = FieldCalculus(A, gd)
            lhs = fc.ricci_operator()
            rhs = Multivector.zero()
            for mu in range(4):
                rhs = rhs + fc.jets.vals[1 << mu] * gd.ricci_oneforms[mu]
            assert (lhs - rhs).sup() < 1e-10 * max(1.0, rhs.sup())


def test_ricci_operator_on_basis_oneforms():
    rng = np.random.default_rng(53)
    gd = geometry_point(FLRW, rng)
    for mu in range(4):
        got = FieldCalculus(MultivectorField.basis_covector(mu), gd).ricci_operator()
        assert (got - gd.ricci_oneforms[mu]).sup() < 1e-12


def test_ricci_operator_flat_constant_field():
    gd = geo.curvature(MINK, (0.1, 0.2, 0.3, 0.4))
    F = MultivectorField.from_components({"t": "1", "x^y": "2"}, MINK.coords)
    assert FieldCalculus(F, gd).ricci_operator().sup() == 0.0


def dense_ricci_operator(G2: np.ndarray, comm: np.ndarray) -> np.ndarray:
    """1/2 (gamma^a ^ gamma^b) comm[a, b] through the dense (4, 4, 16, 16) bivector table."""
    B2 = np.zeros(G2.shape[:-3] + (4, 4, 16, 16))  # zero for a = b
    for k, mask in enumerate(blades.MASKS_BY_GRADE[2]):
        a, b = blades.indices(mask)  # gamma^a ^ gamma^b = blade, gamma^b ^ gamma^a = -blade
        B2[..., a, b, :, :] = G2[..., k, :, :]
        B2[..., b, a, :, :] = -G2[..., k, :, :]
    return 0.5 * np.einsum("...abmn,...abn->...m", B2, comm)


@pytest.mark.parametrize("count", [None, 1, 2, 5, 16])
def test_ricci_operator_equals_the_dense_bivector_table_bitwise(count):
    rng = np.random.default_rng(61 + (count or 0))
    lanes = () if count is None else (count,)
    for trial in range(30):
        gs = [selftest.random_lorentzian_metric(rng) for _ in range(count or 1)]
        gd = SimpleNamespace(metric=PointMetric(np.reshape(gs, lanes + (4, 4))))  # all it reads
        scale = 10.0 ** rng.integers(-8, 9, size=lanes + (4, 4, 1))
        cov2 = rng.normal(size=lanes + (4, 4, 16)) * scale
        cov2[rng.random(cov2.shape) < 0.2] = 0.0
        cov2[rng.random(cov2.shape) < 0.1] = -0.0
        if trial % 3 == 0:  # a commutator of exact zeros of either sign
            cov2 = np.where(rng.random(cov2.shape) < 0.5, 0.0, -0.0)
        fc = FieldCalculus(MultivectorField.zero(), gd)
        fc.__dict__["cov2"] = cov2  # the cached second covariant derivatives
        comm = cov2 - np.swapaxes(cov2, -2, -3)
        want = dense_ricci_operator(gd.metric.tables["G2"], comm)
        got = fc.ricci_operator().coeffs
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), trial


def test_commutator_curvature_identity():
    # [D_s, D_m] K_n = -R^r_{n s m} K_r for arbitrary 1-forms
    rng = np.random.default_rng(59)
    for spec in (SCHW, FLRW):
        gd = geometry_point(spec, rng)
        K = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
        fc = FieldCalculus(K, gd)
        comm = fc.cov2 - np.einsum("abm->bam", fc.cov2)
        kvals = np.array([fc.jets.vals[1 << n] for n in range(4)])
        for s in range(4):
            for m in range(4):
                for n in range(4):
                    lhs = comm[s, m, 1 << n]
                    rhs = -np.dot(gd.riemann[:, n, s, m], kvals)
                    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_hodge_dalembertian_routes_agree():
    rng = np.random.default_rng(61)
    for spec in (MINK, SCHW, FLRW):
        for _ in range(6):
            gd = geometry_point(spec, rng)
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=4, replace=False)))
            fc = FieldCalculus(F, gd)
            second = fc.covariant_dalembertian() + fc.ricci_operator()
            assert (fc.hodge_dalembertian() - second).sup() < 1e-8 * max(1.0, second.sup())


def test_squared_dirac_doubles_killing_coupling():
    # dirac^2 K = 2 K^b R_b for Killing K
    rng = np.random.default_rng(67)
    gd = geometry_point(FLRW, rng)
    K = MultivectorField.from_components({"x": "-t^2"}, FLRW.coords)
    fc = FieldCalculus(K, gd)
    rhs = Multivector.zero()
    for a in range(4):
        rhs = rhs + fc.jets.vals[1 << a] * gd.ricci_oneforms[a]
    assert (fc.covariant_dalembertian() + fc.ricci_operator() - 2.0 * rhs).sup() < 1e-10
    assert (fc.hodge_dalembertian() - 2.0 * rhs).sup() < 1e-10


def test_flat_scalar_routes_equal_wave_operator():
    gd = geo.curvature(MINK, (0.5, 1.0, -0.5, 0.2))
    S = MultivectorField.from_components({"1": "t^2 - x^2 + t*x*y"}, MINK.coords)
    fc = FieldCalculus(S, gd)
    box = FieldCalculus(S, gd).covariant_dalembertian()
    assert (fc.hodge_dalembertian() - box).sup() < 1e-12
    assert (fc.covariant_dalembertian() + fc.ricci_operator() - box).sup() < 1e-12


def test_gradient_of_scalar_product_identity():
    # dirac(A.B) = (A.dirac)B + (B.dirac)A - A _| (d B) - B _| (d A).
    # The printed identity carries + signs on the contraction terms, but the
    # componentwise expansion (and the classical grad(a.b) identity it mirrors,
    # where a x curl b = -a _| db) forces the minus signs; verified numerically
    # either way.
    rng = np.random.default_rng(71)
    for spec in (MINK, SCHW, FLRW):
        for _ in range(4):
            gd = geometry_point(spec, rng)
            A = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
            B = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
            fa, fb = FieldCalculus(A, gd), FieldCalculus(B, gd)
            aval, bval = fa.value(), fb.value()
            gu = gd.g_upper
            a_up = gu @ np.array([fa.jets.vals[1 << i] for i in range(4)])
            b_up = gu @ np.array([fb.jets.vals[1 << i] for i in range(4)])
            lhs = grad_scalar_product(fa.jets, fb.jets, gd)
            rhs = Multivector.zero()
            for mu in range(4):
                rhs = rhs + a_up[mu] * Multivector(fb.cov1[mu]) + b_up[mu] * Multivector(fa.cov1[mu])
            rhs = rhs - gd.metric.left_contract(aval, fb.exterior_d())
            rhs = rhs - gd.metric.left_contract(bval, fa.exterior_d())
            assert (lhs - rhs).sup() < 1e-8 * max(1.0, rhs.sup())


# -- one point, and blocks of points -------------------------------------------------

OPERATOR_POINTS = {
    "schwarzschild": (SCHW, [(0.3, 3.5, 1.1, 0.7), (-1.2, 7.0, 2.2, 4.0), (2.0, 15.0, 0.5, 5.9)]),
    "flrw": (FLRW, [(0.7, 0.4, -1.1, 2.0), (1.5, -2.0, 0.3, -0.6), (2.6, 1.0, 1.0, 1.0)]),
}


def operator_fields(spec) -> tuple:
    """A mixed-grade field and a 1-form, in the chart's own coordinate names."""
    t, a, b, c = spec.coords
    mixed = MultivectorField.from_components(
        {"1": f"{t}*{a}", t: f"sin({b})", f"{a}^{b}": f"{a}*{t}^2", f"{t}^{a}^{b}": f"0.5*{c}",
         f"{t}^{a}^{b}^{c}": a},
        spec.coords,
    )
    oneform = MultivectorField.from_components({t: f"{a}^2", c: f"{t}*{b}", b: f"cos({a})"}, spec.coords)
    return mixed, oneform


def operator_outputs(gd) -> list:
    """Every FieldCalculus operator of both fields at ``gd``, and grad_scalar_product."""
    out = []
    for f in operator_fields(gd.spec):
        fc = FieldCalculus(f, gd)
        out += [fc.value(), *(fc.covariant_derivative(a) for a in range(4)), fc.dirac(),
                fc.exterior_d(), fc.codifferential(), fc.codifferential_hodge_route(),
                fc.exterior_d_squared(), fc.maxwell_current(), fc.codifferential_squared(),
                fc.covariant_dalembertian(), fc.ricci_operator(), fc.hodge_dalembertian(),
                fc.covariant_dalembertian() + fc.ricci_operator()]
    jets = field_jets(operator_fields(gd.spec)[1], gd)
    out.append(grad_scalar_product(jets, jets, gd))
    return [mv.coeffs for mv in out]


# sha256 over operator_outputs at every OPERATOR_POINTS point, computed with the
# one-point operators before they took a block axis
ONE_POINT_OPERATORS_SHA256 = "b109c519ada04ba6d0098c69c2fe89a63621329a4fc493a6a00f5007ba2209dd"


def test_one_point_operators_are_unchanged():
    digest = hashlib.sha256()
    for key in sorted(OPERATOR_POINTS):
        spec, points = OPERATOR_POINTS[key]
        for pt in points:
            for coeffs in operator_outputs(geo.curvature(spec, pt)):
                assert coeffs.shape == (16,)
                digest.update(coeffs.tobytes())
    assert digest.hexdigest() == ONE_POINT_OPERATORS_SHA256


@pytest.mark.parametrize("key", sorted(OPERATOR_POINTS))
def test_block_operator_lanes_equal_each_point_alone_bitwise(key):
    spec, _ = OPERATOR_POINTS[key]
    box = spec.domain_box()
    rng = np.random.default_rng(29)
    points = np.array([[rng.uniform(*box[c]) for c in spec.coords] for _ in range(7)])
    block = geo.curvature(spec, points)
    assert block.errors == {}
    lanes = operator_outputs(block)
    for i, pt in enumerate(points):
        for got, want in zip(lanes, operator_outputs(geo.curvature(spec, pt))):
            assert got.shape == (7, 16)
            assert got[i].tobytes() == want.tobytes()


def test_block_field_error_is_kept_for_its_point():
    # one point of the block is outside the field's domain: the block keeps
    # that point's error and zero jets there, and the other point is bitwise
    # the point alone
    points = np.array([(0.1, 0.5, 0.2, 0.3), (0.2, -0.5, 0.1, 0.0)])
    field = MultivectorField.from_components({"t": "sqrt(x)"}, MINK.coords)
    fc = FieldCalculus(field, geo.curvature(MINK, points))
    assert {k: str(err) for k, err in fc.jets.errors.items()} == {1: "sqrt of negative value in 'sqrt(x)'"}
    assert not (fc.jets.vals[1].any() or fc.jets.grads[1].any() or fc.jets.hess[1].any())
    with pytest.raises(DomainEvalError, match="sqrt of negative value in 'sqrt\\(x\\)'"):
        FieldCalculus(field, geo.curvature(MINK, points[1])).value()
    alone = FieldCalculus(field, geo.curvature(MINK, points[0])).value()
    assert alone.sup() > 0.0 and fc.value().coeffs[0].tobytes() == alone.coeffs.tobytes()


# -- the covariant correction, gathered from INDEX_SUB's non-zeros --------------------
#
# The dense einsums against INDEX_SUB below are the oracle: each gather must
# give their bits.  numpy picks its einsum kernels by host, so these tests
# check on each machine that the gathers sum in the order those kernels do.


def test_index_sub_nonzeros_and_their_gather_tables():
    nonzero = blades.INDEX_SUB != 0
    per_position = nonzero.sum(axis=(0, 1)).ravel()  # flat (m, n): its number of (i, r) terms
    assert nonzero.sum() == 80
    assert Counter(per_position[per_position > 0].tolist()) == {1: 52, 2: 6, 3: 4, 4: 1}
    # the 63 positions ascending, each with its terms in (i, r) order, then
    # the zero column 32 up to 4 terms
    positions = blades.SUB_POSITIONS.tolist()
    assert positions == np.flatnonzero(per_position).tolist()
    assert blades.SUB_TAKE.shape == (4, 63)
    rebuilt = np.zeros_like(blades.INDEX_SUB)
    for p, flat in enumerate(positions):
        columns = blades.SUB_TAKE[:per_position[flat], p].tolist()
        assert blades.SUB_TAKE[per_position[flat]:, p].tolist() == [32] * (4 - per_position[flat])
        assert [c % 16 for c in columns] == sorted(set(c % 16 for c in columns))  # (i, r) order
        for c in columns:
            i, r = divmod(c % 16, 4)
            rebuilt[(i, r) + divmod(flat, 16)] = -1.0 if c >= 16 else 1.0
    assert rebuilt.tobytes() == blades.INDEX_SUB.tobytes()
    # each row's non-zero n ascending, then n where the row is zero
    assert not blades.INDEX_SUB[..., 0].any()
    per_row = (per_position > 0).reshape(16, 16)
    assert per_row.sum(axis=1).max() == 5 == blades.SUB_ROW_N.shape[1]
    for m in range(16):
        count = per_row[m].sum()
        assert blades.SUB_ROW_N[m, :count].tolist() == np.flatnonzero(per_row[m]).tolist()
        assert not per_row[m, blades.SUB_ROW_N[m, count:]].any()


def dense_gop(gamma):
    return np.einsum("...rai,irmn->...amn", gamma, blades.INDEX_SUB)


def dense_dgop(dgamma):
    return np.einsum("...srai,irmn->...samn", dgamma, blades.INDEX_SUB)


def assert_gathers_equal_the_dense_einsums(fc):
    gd, jets = fc.gd, fc.jets
    gop, dgop = dense_gop(gd.gamma), dense_dgop(gd.dgamma)
    assert gd.gop.tobytes() == gop.tobytes()
    flat = dgop.reshape(dgop.shape[:-2] + (256,))
    assert gd.dgop.shape == flat.shape[:-1] + (63,)
    assert gd.dgop.tobytes() == flat[..., blades.SUB_POSITIONS].tobytes()
    assert not np.delete(flat, blades.SUB_POSITIONS, axis=-1).any()
    assert fc._dgop_vals().tobytes() == np.einsum("...samn,...n->...sam", dgop, jets.vals).tobytes()
    assert fc._gop_grads().tobytes() == np.einsum("...amn,...ns->...sam", gop, jets.grads).tobytes()


@pytest.mark.parametrize("count", [None, 16])
@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_gathers_equal_the_dense_einsums_on_the_block_metrics(key, count):
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(41).uniform(lo, hi, size=(count or 1, 4))
    gd = geo.curvature(spec, points if count else points[0])
    for f in operator_fields(spec):
        assert_gathers_equal_the_dense_einsums(FieldCalculus(f, gd))


def random_entries(rng, shape):
    """Magnitudes 1e-8 to 1e8 of either sign, 20% of them 0.0 and 10% -0.0."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    u = rng.random(shape)
    x[u < 0.2] = 0.0
    x[(u >= 0.2) & (u < 0.3)] = -0.0
    return x


@pytest.mark.parametrize("count", [None, 16])
def test_gathers_equal_the_dense_einsums_on_random_entries(count):
    rng = np.random.default_rng(43)
    lanes = (count,) if count else ()
    base = geo.curvature(MINK, np.zeros(lanes + (4,)))
    for _ in range(25):
        gd = dataclasses.replace(base, gamma=random_entries(rng, lanes + (4, 4, 4)),
                                 dgamma=random_entries(rng, lanes + (4, 4, 4, 4)))
        fc = FieldCalculus(MultivectorField.zero(), gd)
        fc.jets = FieldJets(random_entries(rng, lanes + (16,)), random_entries(rng, lanes + (16, 4)),
                            random_entries(rng, lanes + (16, 4, 4)), {})
        assert_gathers_equal_the_dense_einsums(fc)
