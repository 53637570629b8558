import copy
import hashlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cliffcheck import blades, selftest
from cliffcheck import expr as ex
from cliffcheck import geometry as geo
from cliffcheck.algebra import PointMetric, grade_project, sup, wedge
from cliffcheck.diffops import FieldCalculus, MultivectorField, field_jets, grad_scalar_product
from cliffcheck.errors import DomainEvalError, ExprError, FieldError

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
        MultivectorField.from_components({"t^t": "1"}, MINK.coords)


# -- covariant derivative -----------------------------------------------------------


def test_covariant_derivative_constant_scalar():
    rng = np.random.default_rng(0)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        f = MultivectorField.from_components({"1": "3.5"}, spec.coords)
        for alpha in range(4):
            assert sup(FieldCalculus(f, gd).covariant_derivative(alpha)) == 0.0


def test_covariant_derivative_flat_is_plain_partials():
    gd = geo.curvature(MINK, (0.5, 0.25, -1.0, 2.0))
    f = MultivectorField.from_components({"x": "t*t", "y^z": "x*y"}, MINK.coords)
    out = FieldCalculus(f, gd).covariant_derivative(0)
    assert out[0b0010] == 1.0  # d_t (t^2) = 2t = 1.0 at t=0.5
    assert out[0b1100] == 0.0
    out1 = FieldCalculus(f, gd).covariant_derivative(1)
    assert out1[0b1100] == -1.0  # d_x (x*y) = y = -1.0


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
                rhs = 2.0 * gd.metric.scalar_product(fc.cov1[alpha], kval)
                assert abs(lhs[1 << alpha] - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_covariant_derivative_matches_fd_oracle():
    rng = np.random.default_rng(9)
    spec = SCHW
    gd = geometry_point(spec, rng)
    F = random_poly_field(rng, spec.coords, [1, 2, 3, 5, 12])

    def comps_at(p):
        gdp = geo.curvature(spec, p)
        return field_jets(F, gdp.point, gdp.jet).val

    fc = FieldCalculus(F, gd)
    vals = fc.jets.val
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
        got = FieldCalculus(F, gd).covariant_derivative(alpha)
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


# -- dirac and its grade split --------------------------------------------------------


def test_dirac_gradient_of_coordinate():
    gd = geo.curvature(MINK, (0.1, 0.2, 0.3, 0.4))
    f = MultivectorField.from_components({"1": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).dirac()
    assert np.array_equal(out, np.eye(16)[1 << 1])


def test_dirac_constant_scalar_vanishes():
    gd = geo.curvature(FLRW, (1.0, 0.0, 0.0, 0.0))
    f = MultivectorField.from_components({"1": "4"}, FLRW.coords)
    assert sup(FieldCalculus(f, gd).dirac()) == 0.0


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
            assert sup(grade_project(full, p + 1) - d_part) < 1e-12 if p < 4 else True
            if p > 0:
                assert sup(grade_project(full, p - 1) + delta_part) < 1e-12


def test_dirac_on_schwarzschild_killing():
    gd = geo.curvature(SCHW, (0.0, 4.0, 1.0, 0.5))
    K = MultivectorField.from_components({"t": "1-2*M/r"}, SCHW.coords)
    fc = FieldCalculus(K, gd)
    out = fc.dirac()
    assert sup(grade_project(out, 2) - fc.exterior_d()) < 1e-12
    assert sup(grade_project(out, 0)) < 1e-12  # delta K = 0


# -- exterior derivative ----------------------------------------------------------------


def test_exterior_d_hand_case():
    gd = geo.curvature(MINK, (0.0, 0.7, 0.0, 0.0))
    f = MultivectorField.from_components({"t": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).exterior_d()
    want = -wedge(np.eye(16)[1 << 0], np.eye(16)[1 << 1])
    assert np.array_equal(out, -want * -1.0)
    assert out[0b0011] == -1.0


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
    assert sup(d_flat - d_curved) < 1e-12


def test_d_squared_zero():
    rng = np.random.default_rng(31)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        for _ in range(5):
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            assert sup(FieldCalculus(F, gd).exterior_d_squared()) < 1e-12


def test_d_of_scalar_gradient_vanishes():
    rng = np.random.default_rng(13)
    gd = geometry_point(SCHW, rng)
    S = MultivectorField.from_components({"1": "t*r + sin(theta)*phi"}, SCHW.coords)
    fc = FieldCalculus(S, gd)
    # d(dS) via the exact jet of dS
    assert sup(fc.exterior_d_squared()) < 1e-12


def test_d_of_top_grade_vanishes():
    gd = geo.curvature(SCHW, (0.0, 5.0, 1.2, 0.3))
    tau_field = MultivectorField.from_components({15: "r^2*sin(theta)"}, SCHW.coords)
    assert sup(FieldCalculus(tau_field, gd).exterior_d()) == 0.0


# -- codifferential ---------------------------------------------------------------------


def test_codifferential_of_scalar_is_zero():
    gd = geo.curvature(SCHW, (0.0, 4.0, 1.0, 0.0))
    S = MultivectorField.from_components({"1": "t*r"}, SCHW.coords)
    assert sup(FieldCalculus(S, gd).codifferential()) == 0.0


def test_codifferential_fixed_case():
    gd = geo.curvature(MINK, (0.0, 1.3, 0.0, 0.0))
    f = MultivectorField.from_components({"x": "x"}, MINK.coords)
    out = FieldCalculus(f, gd).codifferential()
    assert abs(out[..., 0] - 1.0) < 1e-15


def test_codifferential_routes_agree():
    rng = np.random.default_rng(23)
    for spec in (MINK, SCHW, FLRW):
        for _ in range(6):
            gd = geometry_point(spec, rng)
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            fc = FieldCalculus(F, gd)
            a = fc.codifferential()
            b = fc.codifferential_hodge_route()
            assert sup(a - b) < 1e-8 * max(1.0, sup(a))


def test_codifferential_squared_zero():
    rng = np.random.default_rng(29)
    for spec in (SCHW, FLRW):
        gd = geometry_point(spec, rng)
        for _ in range(4):
            F = random_poly_field(rng, spec.coords, list(rng.choice(16, size=3, replace=False)))
            out = FieldCalculus(F, gd).codifferential_squared()
            assert sup(out) < 1e-9


def test_trace_identity_for_lorenz_gauge():
    # delta L = -g^{km} D_k L_m for any 1-form L
    rng = np.random.default_rng(37)
    for spec in (MINK, SCHW, FLRW):
        gd = geometry_point(spec, rng)
        L = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
        fc = FieldCalculus(L, gd)
        delta = fc.codifferential()[..., 0]
        trace = -sum(
            gd.g_upper[k, m] * fc.cov1[k][1 << m] for k in range(4) for m in range(4)
        )
        assert abs(delta - trace) < 1e-11 * max(1.0, abs(trace))


# -- second order operators -----------------------------------------------------------


def test_wave_operator_flat_scalar():
    gd = geo.curvature(MINK, (3.0, 0.0, 0.0, 0.0))
    S = MultivectorField.from_components({"1": "t^2"}, MINK.coords)
    out = FieldCalculus(S, gd).covariant_dalembertian()
    assert abs(out[..., 0] - 2.0) < 1e-14


def test_killing_wave_equation_flrw():
    # box K = K_a R^a with nonzero right-hand side
    rng = np.random.default_rng(41)
    for _ in range(5):
        gd = geometry_point(FLRW, rng)
        K = MultivectorField.from_components({"x": "-t^2"}, FLRW.coords)
        fc = FieldCalculus(K, gd)
        rhs = np.zeros(16)
        for a in range(4):
            rhs = rhs + fc.jets.val[1 << a] * gd.ricci_oneforms[a]
        assert sup(rhs) > 1e-3
        assert sup(fc.covariant_dalembertian() - rhs) < 1e-10
        assert sup(fc.ricci_operator() - rhs) < 1e-10
        assert sup(fc.codifferential()) < 1e-12


def test_killing_wave_equation_schwarzschild_vacuum():
    rng = np.random.default_rng(43)
    gd = geometry_point(SCHW, rng)
    K = MultivectorField.from_components({"t": "1-2*M/r"}, SCHW.coords)
    fc = FieldCalculus(K, gd)
    assert sup(fc.covariant_dalembertian()) < 1e-10
    assert sup(fc.ricci_operator()) < 1e-10


def test_ricci_operator_extensoriality():
    rng = np.random.default_rng(47)
    for spec in (SCHW, FLRW):
        for _ in range(5):
            gd = geometry_point(spec, rng)
            A = random_poly_field(rng, spec.coords, [1, 2, 4, 8])
            fc = FieldCalculus(A, gd)
            lhs = fc.ricci_operator()
            rhs = np.zeros(16)
            for mu in range(4):
                rhs = rhs + fc.jets.val[1 << mu] * gd.ricci_oneforms[mu]
            assert sup(lhs - rhs) < 1e-10 * max(1.0, sup(rhs))


def test_ricci_operator_on_basis_oneforms():
    rng = np.random.default_rng(53)
    gd = geometry_point(FLRW, rng)
    for mu in range(4):
        got = FieldCalculus(MultivectorField.basis_covector(mu), gd).ricci_operator()
        assert sup(got - gd.ricci_oneforms[mu]) < 1e-12


def test_ricci_operator_flat_constant_field():
    gd = geo.curvature(MINK, (0.1, 0.2, 0.3, 0.4))
    F = MultivectorField.from_components({"t": "1", "x^y": "2"}, MINK.coords)
    assert sup(FieldCalculus(F, gd).ricci_operator()) == 0.0


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
        fc = FieldCalculus(MultivectorField((ex.ONE,) * 16), gd)  # every grade: every row is read
        fc.__dict__["cov2"] = cov2  # the cached second covariant derivatives
        comm = cov2 - np.swapaxes(cov2, -2, -3)
        want = dense_ricci_operator(gd.metric.table("G2"), comm)
        got = fc.ricci_operator()
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
        kvals = np.array([fc.jets.val[1 << n] for n in range(4)])
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
            assert sup(fc.hodge_dalembertian() - second) < 1e-8 * max(1.0, sup(second))


def test_squared_dirac_doubles_killing_coupling():
    # dirac^2 K = 2 K^b R_b for Killing K
    rng = np.random.default_rng(67)
    gd = geometry_point(FLRW, rng)
    K = MultivectorField.from_components({"x": "-t^2"}, FLRW.coords)
    fc = FieldCalculus(K, gd)
    rhs = np.zeros(16)
    for a in range(4):
        rhs = rhs + fc.jets.val[1 << a] * gd.ricci_oneforms[a]
    assert sup(fc.covariant_dalembertian() + fc.ricci_operator() - 2.0 * rhs) < 1e-10
    assert sup(fc.hodge_dalembertian() - 2.0 * rhs) < 1e-10


def test_flat_scalar_routes_equal_wave_operator():
    gd = geo.curvature(MINK, (0.5, 1.0, -0.5, 0.2))
    S = MultivectorField.from_components({"1": "t^2 - x^2 + t*x*y"}, MINK.coords)
    fc = FieldCalculus(S, gd)
    box = FieldCalculus(S, gd).covariant_dalembertian()
    assert sup(fc.hodge_dalembertian() - box) < 1e-12
    assert sup(fc.covariant_dalembertian() + fc.ricci_operator() - box) < 1e-12


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
            a_up = gu @ np.array([fa.jets.val[1 << i] for i in range(4)])
            b_up = gu @ np.array([fb.jets.val[1 << i] for i in range(4)])
            lhs = grad_scalar_product(fa.jets, fb.jets, gd)
            rhs = np.zeros(16)
            for mu in range(4):
                rhs = rhs + a_up[mu] * fb.cov1[mu] + b_up[mu] * fa.cov1[mu]
            rhs = rhs - gd.metric.left_contract(aval, fb.exterior_d())
            rhs = rhs - gd.metric.left_contract(bval, fa.exterior_d())
            assert sup(lhs - rhs) < 1e-8 * max(1.0, sup(rhs))


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
    jets = field_jets(operator_fields(gd.spec)[1], gd.point, gd.jet)
    out.append(grad_scalar_product(jets, jets, gd))
    return list(out)


# sha256 over operator_outputs at every OPERATOR_POINTS point, computed with the
# one-point operators.  Re-pinned when exterior_d() came to read the partials
# alone (WEDGE_OP . dF) instead of the covariant derivatives: of all the
# outputs, only the 1-form's dF at Schwarzschild (0.3, 3.5, 1.1, 0.7) moved, in
# its last bits (test_one_route_values_stay_within_four_ulps_of_the_other bounds
# the move)
ONE_POINT_OPERATORS_SHA256 = "961068d890e5177c61c63a95e857fb79453c04c1ec1c882c61664b4493ace84c"


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
    assert not (fc.jets.val[1].any() or fc.jets.grad[1].any() or fc.jets.hess[1].any())
    with pytest.raises(DomainEvalError, match="sqrt of negative value in 'sqrt\\(x\\)'"):
        FieldCalculus(field, geo.curvature(MINK, points[1])).value()
    alone = FieldCalculus(field, geo.curvature(MINK, points[0])).value()
    assert sup(alone) > 0.0 and fc.value()[0].tobytes() == alone.tobytes()



def lane_fields(spec) -> list:
    """Fields of different masks and grades, lane 2 lacking grades 1, 3 and 4 that lane 0 has."""
    t, a, b, c = spec.coords
    mixed, oneform = operator_fields(spec)
    rng = np.random.default_rng(37)
    return [
        mixed,
        oneform,
        MultivectorField.from_components({"1": f"{a}*{b}", f"{t}^{c}": f"sin({a})"}, spec.coords),
        MultivectorField.from_components({f"{a}^{b}^{c}": f"{t}*{c}", f"{t}^{a}^{b}^{c}": f"{b}^2"},
                                         spec.coords),
        MultivectorField.zero(),
        selftest.random_field(rng, spec.coords, selftest.random_mixed_masks(rng)),
    ]


def lane_outputs(fc) -> list:
    """Every array the operator selftest reads of a calculator, with cov1 and cov2."""
    ops = [fc.value(), fc.dirac(), fc.exterior_d(), fc.codifferential(), fc.codifferential_hodge_route(),
           fc.exterior_d_squared(), fc.codifferential_squared(), fc.maxwell_current(),
           fc.covariant_dalembertian(), fc.ricci_operator(), fc.hodge_dalembertian()]
    return [fc.jets.val, fc.cov1, fc.cov2] + list(ops)


@pytest.mark.parametrize("spec", [MINK, SCHW, FLRW], ids=lambda spec: spec.name)
def test_lane_fields_equal_each_field_at_its_point_alone_bitwise(spec):
    fields = lane_fields(spec)
    box = spec.domain_box()
    rng = np.random.default_rng(31)
    points = np.array([[rng.uniform(*box[c]) for c in spec.coords] for _ in fields])
    block = geo.curvature(spec, points)
    assert block.errors == {}
    fc = FieldCalculus.of_lanes(fields, block)
    assert fc.grades == frozenset(range(5))
    lanes = lane_outputs(fc)
    for i, (field, pt) in enumerate(zip(fields, points)):
        alone = lane_outputs(FieldCalculus(field, geo.curvature(spec, pt)))
        for k, (got, want) in enumerate(zip(lanes, alone)):
            assert got.shape == (len(fields),) + want.shape
            assert got[i].tobytes() == want.tobytes(), (i, k)


# lanes' components, their points and the error the first failing lane raises alone
LANE_FIELD_ERRORS = {
    "sqrt": ([{"t": "sqrt(x)"}] * 2, [(0.1, 0.5, 0.2, 0.3), (0.2, -0.5, 0.1, 0.0)],
             "sqrt of negative value in 'sqrt(x)'"),
    "division": ([{"t": "1/x"}] * 2, [(0.1, 0.5, 0.2, 0.3), (0.2, 0.0, 0.1, 0.0)], "division by zero in '1.0/x'"),
    "log": ([{"x": "log(x)"}] * 2, [(0.1, 0.5, 0.2, 0.3), (0.2, -0.5, 0.1, 0.0)],
            "log of non-positive value in 'log(x)'"),
    "unbound": ([{"1": "x"}, {"1": "x*q"}], [(0.1, 0.5, 0.2, 0.3), (0.2, -0.5, 0.1, 0.0)],
                "identifier 'q' is neither a coordinate nor a parameter"),
    "overflow": ([{"t^x": "exp(1000*x)"}] * 2, [(0.1, 0.5, 0.2, 0.3), (0.2, 1.0, 0.1, 0.0)],
                 "overflow in 'exp(1000.0*x)'"),
    "power": ([{"y": "x^0.5"}] * 2, [(0.1, 0.5, 0.2, 0.3), (0.2, -0.5, 0.1, 0.0)],
              "power with non-integer exponent requires positive base in 'x^0.5'"),
    # the left term fails four levels up, the right one at the first
    "deeper left": ([{"t": "sqrt((x - 1)*2*3) + 1/y"}] * 2, [(0.1, 2.0, 0.2, 0.3), (0.2, 0.0, 0.0, 0.0)],
                    "sqrt of negative value in 'sqrt((x - 1.0)*2.0*3.0)'"),
    # lanes 1 and 2 fail, lane 2 at a lower level
    "two lanes": ([{"t": "x"}, {"t": "sqrt(x*x*x)"}, {"t": "1/x"}],
                  [(0.1, 0.5, 0.2, 0.3), (0.2, -1.0, 0.1, 0.0), (0.3, 0.0, 0.1, 0.0)],
                  "sqrt of negative value in 'sqrt(x*x*x)'"),
    # masks 0 and 1 fail, mask 1 at a lower level
    "two masks": ([{"t": "x"}, {"1": "sqrt(2*x*x*x)", "t": "log(x)"}],
                  [(0.1, 0.5, 0.2, 0.3), (0.2, -1.0, 0.1, 0.0)],
                  "sqrt of negative value in 'sqrt(2.0*x*x*x)'"),
}


@pytest.mark.parametrize("lanes, points, message", LANE_FIELD_ERRORS.values(), ids=list(LANE_FIELD_ERRORS))
def test_lane_field_error_is_raised_as_its_point_alone_raises(lanes, points, message):
    fields = [MultivectorField.from_components(comps, MINK.coords) for comps in lanes]
    points = np.array(points)
    with pytest.raises(ExprError) as alone:
        for field, x in zip(fields, points):
            field_jets(field, x, ex.point_jets(MINK.coords, x, MINK.params))
    assert str(alone.value) == message
    with pytest.raises(type(alone.value)) as err:
        FieldCalculus.of_lanes(fields, geo.curvature(MINK, points))
    assert str(err.value) == message

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
    assert fc._dgop_vals().tobytes() == np.einsum("...samn,...n->...sam", dgop, jets.val).tobytes()
    assert fc._gop_grads().tobytes() == np.einsum("...amn,...ns->...sam", gop, jets.grad).tobytes()


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
        gd = copy.copy(base)
        gd.gamma, gd.dgamma = random_entries(rng, lanes + (4, 4, 4)), random_entries(rng, lanes + (4, 4, 4, 4))
        fc = FieldCalculus(MultivectorField((ex.ONE,) * 16), gd)  # every grade: every row is computed
        fc.jets = ex.Jet2(random_entries(rng, lanes + (16,)), random_entries(rng, lanes + (16, 4)),
                          random_entries(rng, lanes + (16, 4, 4)))
        assert_gathers_equal_the_dense_einsums(fc)


# -- the jets of the metric and of a field are stacks of component jets ------------


@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_stacked_jets_are_the_component_jets_bitwise(key):
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(47).uniform(lo, hi, size=(16, 4))
    jets = [[ex.evaluate_jet2(spec.g_lower[i][j], spec.coords, points, spec.params) for j in range(4)]
            for i in range(4)]
    _, metric = geo.metric_at(spec, points)
    assert metric.errors == {}
    for i in range(4):
        for j in range(4):
            want = jets[min(i, j)][max(i, j)]  # the upper triangle is evaluated and mirrored
            for name in ("val", "grad", "hess"):
                assert getattr(metric, name)[:, i, j].tobytes() == getattr(want, name).tobytes(), (i, j, name)
    # a field of the metric's components, blade m holding g_{m // 4, m % 4}: the
    # catalog's off-diagonal zeros are zero components
    field = MultivectorField(tuple(spec.g_lower[m // 4][m % 4] for m in range(16)))
    got = field_jets(field, points, ex.point_jets(spec.coords, points, spec.params))
    assert (got.val.shape, got.grad.shape, got.hess.shape) == ((16, 16), (16, 16, 4), (16, 16, 4, 4))
    assert got.errors == {}
    for m in range(16):
        want = jets[m // 4][m % 4]
        for name in ("val", "grad", "hess"):
            part = getattr(got, name)[:, m]
            if ex.is_zero(field.comps[m]):
                assert part.tobytes() == np.zeros_like(part).tobytes(), (m, name)
            else:
                assert part.tobytes() == getattr(want, name).tobytes(), (m, name)


@pytest.mark.parametrize("sources", [("sqrt(t)", "log(t)"), ("log(t)", "sqrt(t)")])
def test_a_point_with_two_failing_components_gets_the_first_in_index_order(sources):
    # both sources fail at t = -1: a metric holds them in g_tt and g_xx, and a
    # field in blades 3 and 12
    message = {"log(t)": "log of non-positive value in 'log(t)'", "sqrt(t)": "sqrt of negative value in 'sqrt(t)'"}
    points = np.array([[0.5, 0.1, 0.2, 0.3], [-1.0, 0.1, 0.2, 0.3], [1.5, 0.1, 0.2, 0.3]])
    spec = geo.MetricSpec.from_strings(
        ("t", "x", "y", "z"),
        [[f"1+{sources[0]}", "0", "0", "0"], ["0", f"-1-{sources[1]}", "0", "0"], ["0", "0", "-1", "0"],
         ["0", "0", "0", "-1"]],
        name="two-failures",
    )
    _, metric = geo.metric_at(spec, points)
    assert {k: str(err) for k, err in metric.errors.items()} == {
        1: f"metric of 'two-failures' not evaluable at (-1.0, 0.1, 0.2, 0.3): {message[sources[0]]}"}
    assert metric.val[1].tobytes() == np.diag([1.0, -1.0, -1.0, -1.0]).tobytes()
    assert not (metric.grad[1].any() or metric.hess[1].any())
    field = MultivectorField.from_components({3: sources[0], 12: sources[1]})
    jets = field_jets(field, points, ex.point_jets(spec.coords, points))
    assert {k: str(err) for k, err in jets.errors.items()} == {1: message[sources[0]]}
    assert not (jets.val[1].any() or jets.grad[1].any() or jets.hess[1].any())
