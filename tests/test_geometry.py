import hashlib
import re

import numpy as np
import pytest

from cliffcheck import expr as ex
from cliffcheck import geometry as geo
from cliffcheck.algebra import TABLE_NAMES, PointMetric, scalars, sup
from cliffcheck.errors import DegenerateMetricError, GeometryError, SingularMetricError

import oracles

SEED_POINTS = {
    "minkowski": lambda rng: rng.uniform(-2.0, 2.0, size=4),
    "schwarzschild": lambda rng: np.array(
        [rng.uniform(-1, 1), rng.uniform(3.0, 10.0), rng.uniform(0.6, 2.5), rng.uniform(0.2, 6.0)]
    ),
    "flrw": lambda rng: np.array(
        [rng.uniform(0.5, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)]
    ),
}

PARAMS = {"minkowski": None, "schwarzschild": {"M": 1.0}, "flrw": {"a": "t"}}


def catalog_spec(key):
    return geo.build_metric(key, PARAMS[key])


# -- finite-difference oracles -------------------------------------------------


def metric_values(spec, x):
    vals = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            vals[i, j] = oracles.evaluate(spec.g_lower[i][j], spec.coords, x, spec.params)
    return vals


def christoffel_fd(spec, x, h=1e-3):
    """Christoffels from Richardson finite differences of the metric values."""
    g = metric_values(spec, x)
    gu = np.linalg.inv(g)
    dg = np.zeros((4, 4, 4))
    for s in range(4):
        dg[s] = oracles.richardson_diff(lambda p: metric_values(spec, p), np.asarray(x, float), s, h)
    bracket = np.einsum("alb->lab", dg) + np.einsum("bla->lab", dg) - dg
    return 0.5 * np.einsum("rl,lab->rab", gu, bracket)


def riemann_fd(spec, x, h=2e-3):
    """Curvature from finite differences of the FD Christoffels (fully independent)."""
    gamma = christoffel_fd(spec, x)
    dgamma = np.zeros((4, 4, 4, 4))
    for s in range(4):
        dgamma[s] = oracles.richardson_diff(
            lambda p: christoffel_fd(spec, p), np.asarray(x, float), s, h
        )
    return (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma)
        - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )


# -- metric_at -------------------------------------------------------------------


def test_minkowski_metric_at():
    spec = catalog_spec("minkowski")
    pm, jets = geo.metric_at(spec, (0.3, -1.0, 0.5, 2.0))
    assert np.array_equal(jets.val, np.diag([1.0, -1.0, -1.0, -1.0]))
    assert pm.sqrt_abs_det == 1.0
    assert np.max(np.abs(jets.grad)) == 0.0


def test_schwarzschild_metric_at_values():
    spec = catalog_spec("schwarzschild")
    pm, jets = geo.metric_at(spec, (0.0, 4.0, np.pi / 2, 0.0))
    assert jets.val[0, 0] == 0.5
    assert jets.val[1, 1] == -2.0
    assert abs(pm.sqrt_abs_det - 16.0) < 1e-12
    assert np.max(np.abs(pm.g @ jets.val - np.eye(4))) < 1e-12


def test_schwarzschild_horizon_is_singular():
    spec = catalog_spec("schwarzschild")
    with pytest.raises(SingularMetricError):
        geo.metric_at(spec, (0.0, 2.0, 1.0, 0.0))


def test_metric_spec_requires_symmetry():
    rows = [["1", "x", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    with pytest.raises(GeometryError):
        geo.MetricSpec.from_strings(("t", "x", "y", "z"), rows)


def test_metric_parameter_named_like_a_coordinate_is_rejected():
    # evaluate_jet2 gives a parameter's constant jet in place of a coordinate of the same name
    rows = [["1", "0", "0", "0"], ["0", "-(1+x^2)", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    with pytest.raises(GeometryError, match=r"^parameter names must differ from coordinate names, got \['x'\]$"):
        geo.MetricSpec.from_strings(("t", "x", "y", "z"), rows, {"x": 0.0, "k": 1.0})
    assert geo.MetricSpec.from_strings(("t", "x", "y", "z"), rows, {"k": 1.0}).params == {"k": 1.0}


@pytest.mark.parametrize("name", ["", "x y", "x^y", "1", " x", "x.y", "2x"])
def test_metric_spec_rejects_a_coordinate_name_that_no_expression_reads(name):
    # a blade key or a component could not name the coordinate, or "1" would be the scalar blade key
    rows = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    with pytest.raises(GeometryError, match=f"^coordinate name {re.escape(repr(name))} is not a letter or _"):
        geo.MetricSpec.from_strings(("t", name, "y", "z"), rows)
    for good in ("_x", "x_1", "θ"):
        assert geo.MetricSpec.from_strings(("t", good, "y", "z"), rows).coords[1] == good


def test_catalog_parameter_validation():
    with pytest.raises(GeometryError):
        geo.build_metric("minkowski", {"M": 1.0})
    with pytest.raises(GeometryError):
        geo.build_metric("schwarzschild", {"M": -2.0})
    with pytest.raises(GeometryError):
        geo.build_metric("schwarzschild", {"mass": 1.0})
    with pytest.raises(GeometryError):
        geo.build_metric("flrw", {"a": "t+x"})  # scale factor may only use t
    with pytest.raises(GeometryError):
        geo.build_metric("kerr")


CATALOG_LISTING_SHA256 = "ca5a28df4ae30b3f248dc94c5e2959021662303cf8505495adea06611a29c42d"

# sha256 of repr((coords, g_lower, params, name, domain, killing_forms(key, params)))
CATALOG_BUILD_SHA256 = [
    ("minkowski", None, "555b33c4d5ff371d7bb7ce895aa878d3e46367502ab78b67a4aff10aff07148b"),
    ("schwarzschild", None, "a3c6a661ab401c3c238c0307de0d0d46f68e8ad27c0b7afd8918051cd8efeaad"),
    ("schwarzschild", {"M": 2}, "d3feb5d426637343e6a445eb0d1a4a528f0366259352cf5879a650e6539893fd"),
    ("flrw", None, "9e89c6429328d7d011e8ef5c58bcf579327be6b34ddb32e0ae08616c08e628e5"),
    ("flrw", {"a": "t"}, "9e89c6429328d7d011e8ef5c58bcf579327be6b34ddb32e0ae08616c08e628e5"),
    ("flrw", {"a": "t^2+1"}, "dd48349b3625cc34a1a1286f44430e86496fbeb5e6b8340b9adb522031b0b075"),
]

CATALOG_PARAM_ERRORS = [
    ("minkowski", {"M": 1.0}, "GeometryError", "minkowski takes no parameters, got ['M']"),
    ("schwarzschild", {"M": -2.0}, "GeometryError", "schwarzschild mass M must be positive"),
    ("schwarzschild", {"mass": 1.0}, "GeometryError",
     "schwarzschild takes only parameter M, got ['mass']"),
    ("flrw", {"a": "t+x"}, "GeometryError", "flrw scale factor may only depend on t, uses ['x']"),
    ("flrw", {"a": "t+"}, "ParseError", "expected a value (column 3)"),
    ("flrw", {"b": "t"}, "GeometryError", "flrw takes only the scale-factor expression a, got ['b']"),
    ("kerr", None, "GeometryError",
     "unknown builtin metric 'kerr' (known: flrw, minkowski, schwarzschild)"),
    # the scenario schema allows a string parameter (flrw's a is one); a mass must read as a finite float
    *(("schwarzschild", {"M": text}, "GeometryError", f"schwarzschild mass M must be a finite number, got {text!r}")
      for text in ("x", "", "0x10", "nan", "inf", "1e400")),
]


def test_catalog_listing_is_pinned():
    from cliffcheck.runner import list_builtins

    assert hashlib.sha256(list_builtins().encode()).hexdigest() == CATALOG_LISTING_SHA256


@pytest.mark.parametrize("key, params, digest", CATALOG_BUILD_SHA256)
def test_catalog_builds_are_pinned(key, params, digest):
    spec = geo.build_metric(key, params)
    text = repr((spec.coords, spec.g_lower, dict(spec.params), spec.name, dict(spec.domain),
                 geo.killing_forms(key, params)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


@pytest.mark.parametrize("key, params, kind, message", CATALOG_PARAM_ERRORS)
def test_catalog_parameter_errors_are_pinned(key, params, kind, message):
    with pytest.raises(Exception) as err:
        geo.build_metric(key, params)
    assert (type(err.value).__name__, str(err.value)) == (kind, message)


def test_killing_forms_of_an_unknown_key_name_the_known_ones():
    known = r"\(known: flrw, minkowski, schwarzschild\)"
    with pytest.raises(GeometryError, match=rf"^unknown builtin metric 'kerr' {known}$"):
        geo.killing_forms("kerr")


def test_equal_sources_share_one_tree():
    # ChunkJets evaluates each tree once per chunk, so equal sources must be one tree
    rows = [["1", "0", "0", "x"], ["0", "-(t)^2", "0", "0"], ["0", "0", "-(t)^2", "0"],
            ["x", "0", "0", 0]]
    spec = geo.MetricSpec.from_strings(("t", "x", "y", "z"), rows)
    trees = {src: {id(e) for row, srcs in zip(spec.g_lower, rows) for e, s in zip(row, srcs) if s == src}
             for src in ("0", "-(t)^2", "x")}
    assert {src: len(ids) for src, ids in trees.items()} == {"0": 1, "-(t)^2": 1, "x": 1}
    assert spec.g_lower[3][3] is not spec.g_lower[0][1]  # the number 0 is not the source "0"
    for key in ("minkowski", "flrw"):  # "1", "0" and "-1" or "-(t)^2"
        assert len({id(e) for row in geo.build_metric(key).g_lower for e in row}) == 3


def test_catalog_build_does_not_mutate_params():
    params = {"M": 2.0}
    geo.build_metric("schwarzschild", params)
    assert params == {"M": 2.0}


def test_metric_spec_rejects_unknown_names():
    rows = [["1", "0", "0", "0"], ["0", "-Q", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    with pytest.raises(GeometryError):
        geo.MetricSpec.from_strings(("t", "x", "y", "z"), rows)


# -- christoffels ------------------------------------------------------------------


def test_minkowski_christoffels_vanish():
    gamma, dgamma = geo.christoffels(catalog_spec("minkowski"), (0.1, 0.2, 0.3, 0.4))
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(dgamma)) == 0.0


def test_schwarzschild_gamma_r_tt():
    gamma, _ = geo.christoffels(catalog_spec("schwarzschild"), (0.0, 4.0, np.pi / 2, 0.0))
    assert abs(gamma[1, 0, 0] - 0.03125) < 1e-10


def test_flrw_gamma_t_xx():
    gamma, _ = geo.christoffels(catalog_spec("flrw"), (1.0, 0.0, 0.0, 0.0))
    assert abs(gamma[0, 1, 1] - 1.0) < 1e-12


def test_christoffels_match_fd_oracle():
    rng = np.random.default_rng(5)
    for key in ("minkowski", "schwarzschild", "flrw"):
        spec = catalog_spec(key)
        for _ in range(4):
            x = SEED_POINTS[key](rng)
            gamma, _ = geo.christoffels(spec, x)
            fd = christoffel_fd(spec, x)
            scale = max(1.0, np.max(np.abs(gamma)))
            assert np.max(np.abs(gamma - fd)) < 1e-6 * scale


def test_dgamma_matches_fd_of_ad_gamma():
    spec = catalog_spec("schwarzschild")
    x = np.array([0.0, 5.0, 1.2, 0.7])
    _, dgamma = geo.christoffels(spec, x)
    for s in range(4):
        fd = oracles.richardson_diff(lambda p: geo.christoffels(spec, p)[0], x, s, 1e-3)
        assert np.max(np.abs(dgamma[s] - fd)) < 1e-6 * max(1.0, np.max(np.abs(dgamma)))


# -- curvature ---------------------------------------------------------------------


def test_minkowski_curvature_trivial():
    gd = geo.curvature(catalog_spec("minkowski"), (0.0, 1.0, -1.0, 0.5))
    assert np.max(np.abs(gd.riemann)) == 0.0
    assert gd.scalar == 0.0
    assert all(sup(f) == 0.0 for f in gd.ricci_oneforms)


def test_schwarzschild_is_vacuum_but_curved():
    gd = geo.curvature(catalog_spec("schwarzschild"), (0.0, 4.0, np.pi / 2, 0.0))
    assert np.max(np.abs(gd.ricci)) < 1e-10
    assert np.max(np.abs(gd.riemann)) > 1e-3
    assert abs(gd.riemann[0, 1, 0, 1]) > 0.0


def test_flrw_ricci_values():
    # a(t) = t: R_tt = 0 and |R_xx| = a addot + 2 adot^2 = 2.  The stored
    # contraction R_{ns} = R^m_{n s m} is minus the textbook one (that choice
    # is forced by the Killing wave equation, see test_diffops), so R_xx = -2.
    gd = geo.curvature(catalog_spec("flrw"), (1.0, 0.3, -0.2, 0.9))
    assert abs(gd.ricci[0, 0]) < 1e-12
    for i in (1, 2, 3):
        assert abs(gd.ricci[i, i] + 2.0) < 1e-12
    assert abs(gd.scalar - 6.0) < 1e-12


def test_riemann_matches_fd_oracle():
    rng = np.random.default_rng(6)
    for key in ("schwarzschild", "flrw"):
        spec = catalog_spec(key)
        for _ in range(3):
            x = SEED_POINTS[key](rng)
            gd = geo.curvature(spec, x)
            fd = riemann_fd(spec, x)
            scale = max(1.0, np.max(np.abs(gd.riemann)))
            assert np.max(np.abs(gd.riemann - fd)) < 1e-6 * scale


def test_curvature_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t, r, th, ph, M = sympy.symbols("t r theta phi M", positive=True)
    g = sympy.diag(1 - 2 * M / r, -1 / (1 - 2 * M / r), -(r**2), -(r**2) * sympy.sin(th) ** 2)
    coords = (t, r, th, ph)
    gu = g.inv()
    gamma_sym = [
        [
            [
                sum(
                    sympy.Rational(1, 2)
                    * gu[rho, l]
                    * (sympy.diff(g[l, b], coords[a]) + sympy.diff(g[l, a], coords[b]) - sympy.diff(g[a, b], coords[l]))
                    for l in range(4)
                )
                for b in range(4)
            ]
            for a in range(4)
        ]
        for rho in range(4)
    ]
    subs = {t: 0.0, r: 4.0, th: 1.1, ph: 0.3, M: 1.0}
    gamma_num, _ = geo.christoffels(catalog_spec("schwarzschild"), (0.0, 4.0, 1.1, 0.3))
    for rho in range(4):
        for a in range(4):
            for b in range(4):
                want = float(sympy.simplify(gamma_sym[rho][a][b]).evalf(subs=subs))
                assert abs(gamma_num[rho, a, b] - want) < 1e-10 * max(1.0, abs(want))


def test_geometry_invariant_validation_runs():
    gd = geo.curvature(catalog_spec("schwarzschild"), (0.0, 6.0, 1.0, 2.0))
    # antisymmetry and Bianchi already enforced inside; re-check independently
    assert np.max(np.abs(gd.riemann + np.einsum("rsnm->rsmn", gd.riemann))) < 1e-10
    cyc = gd.riemann + np.einsum("rmns->rsmn", gd.riemann) + np.einsum("rnsm->rsmn", gd.riemann)
    assert np.max(np.abs(cyc)) < 1e-10
    assert np.max(np.abs(gd.ricci - gd.ricci.T)) < 1e-10


def test_volume_form():
    gd = geo.curvature(catalog_spec("schwarzschild"), (0.0, 4.0, np.pi / 2, 0.0))
    tau = gd.metric.volume_form()
    assert abs(tau[15] - 16.0) < 1e-12
    assert abs(gd.metric.scalar_product(tau, tau) + 1.0) < 1e-12
    # star(1) with this tau reproduces tau
    one = scalars(1.0)
    assert np.max(np.abs(gd.metric.hodge(one) - tau)) == 0.0


def test_einstein_trace_is_minus_the_scalar_curvature():
    gd = geo.curvature(catalog_spec("flrw"), (1.3, 0.0, 0.4, -0.2))
    # g^{ab} G_ab = R - 4 R / 2 = -R, and gamma_mu . R^mu = R through the Ricci 1-forms
    lowered = []
    for mu in range(4):
        c = np.zeros(16)
        for nu in range(4):
            c[1 << nu] = gd.g_lower[mu, nu]
        lowered.append(c)
    r_trace = sum(gd.metric.scalar_product(lowered[mu], gd.ricci_oneforms[mu]) for mu in range(4))
    g_trace = np.einsum("ab,ab->", gd.g_upper, gd.einstein_lower)
    assert abs(r_trace - gd.scalar) < 1e-10
    assert abs(g_trace + gd.scalar) < 1e-10


@pytest.mark.slow
def test_contracted_bianchi_by_fd():
    # D_mu G^{mu nu} = 0, outer derivative by Richardson differences
    for key, x in (("schwarzschild", np.array([0.0, 5.0, 1.3, 0.4])), ("flrw", np.array([1.2, 0.1, 0.2, 0.3]))):
        spec = catalog_spec(key)

        def einstein_upper(p):
            gd = geo.curvature(spec, p)
            ric_up = gd.g_upper @ gd.ricci @ gd.g_upper
            return ric_up - 0.5 * gd.scalar * gd.g_upper

        gd = geo.curvature(spec, x)
        div = np.zeros(4)
        G = einstein_upper(x)
        dG = np.stack([oracles.richardson_diff(einstein_upper, x, s, 1e-3) for s in range(4)])
        for nu in range(4):
            val = sum(dG[mu, mu, nu] for mu in range(4))
            val += sum(gd.gamma[m, m, l] * G[l, nu] for m in range(4) for l in range(4))
            val += sum(gd.gamma[nu, m, l] * G[m, l] for m in range(4) for l in range(4))
            div[nu] = val
        assert np.max(np.abs(div)) < 1e-8 * max(1.0, np.max(np.abs(G)))


# -- blocks of points --------------------------------------------------------------

_SIGMA = "(r^2+a^2*cos(theta)^2)"
_G_TPHI = f"2*M*a*r*sin(theta)^2/{_SIGMA}"
KERR = geo.MetricSpec.from_strings(
    ("t", "r", "theta", "phi"),
    [
        [f"1-2*M*r/{_SIGMA}", "0", "0", _G_TPHI],
        ["0", f"-{_SIGMA}/(r^2-2*M*r+a^2)", "0", "0"],
        ["0", "0", f"-{_SIGMA}", "0"],
        [_G_TPHI, "0", "0", f"-(r^2+a^2+2*M*a^2*r*sin(theta)^2/{_SIGMA})*sin(theta)^2"],
    ],
    {"M": 1.0, "a": 0.6},
    "kerr",
)

BLOCK_CASES = {
    "kerr": (KERR, ([-3.0, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2])),
    "schwarzschild": (catalog_spec("schwarzschild"), ([-3.0, 2.5, 0.35, 0.0], [3.0, 20.0, 2.8, 6.2])),
    "flrw": (catalog_spec("flrw"), ([0.4, -3.0, -3.0, -3.0], [3.0, 3.0, 3.0, 3.0])),
    "minkowski": (catalog_spec("minkowski"), ([-3.0] * 4, [3.0] * 4)),
}

_BUNDLE = ("point", "g_lower", "g_upper", "sqrt_abs_det", "dg", "dg_upper", "gamma", "dgamma",
           "riemann", "ricci", "scalar")


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def assert_lane_is_the_point_alone(block, k, alone):
    """Point ``k`` of the bundle ``block`` is bitwise the one-point bundle ``alone``."""
    for name in _BUNDLE:
        assert _bits(getattr(block, name)[k]) == _bits(getattr(alone, name)), name
    for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian"):
        assert _bits(getattr(block.metric, name)[k]) == _bits(getattr(alone.metric, name)), name
    for key in TABLE_NAMES:
        assert _bits(block.metric.table(key)[k]) == _bits(alone.metric.table(key)), key
    for got, want in zip(block.ricci_oneforms, alone.ricci_oneforms):
        assert _bits(got[k]) == _bits(want)
    assert _bits(block.einstein_lower[k]) == _bits(alone.einstein_lower)


@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_block_lanes_equal_each_point_alone_bitwise(key):
    # blocks as the point loop builds them: 16 points of a 48-point chunk of jets
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(11).uniform(lo, hi, size=(48, 4))
    jets = ex.ChunkJets(spec.coords, points, spec.params)
    for first in range(0, len(points), 16):
        block = geo.curvature(spec, points[first:first + 16], jet=jets.block(first, first + 16))
        assert block.riemann.shape == (16, 4, 4, 4, 4) and block.errors == {}
        for k in range(16):
            assert_lane_is_the_point_alone(block, k, geo.curvature(spec, points[first + k]))


@pytest.mark.parametrize("count", [None, 5, 16])
@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_dg_upper_is_the_product_formula_bitwise(key, count):
    # d_s g^{mn} = -g^{ma} (d_s g_{ab}) g^{bn}, kept from the Christoffel symbols' computation
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(5).uniform(lo, hi, size=(count or 1, 4))
    gd = geo.curvature(spec, points if count else points[0])
    assert gd.dg_upper.shape == gd.dg.shape
    assert _bits(gd.dg_upper) == _bits(-np.einsum("...ma,...sab,...bn->...smn", gd.g_upper, gd.dg, gd.g_upper))


MIXED = geo.MetricSpec.from_strings(
    ("t", "x", "y", "z"),
    [["t", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-(1+0.1*sqrt(y))", "0"],
     ["0", "0", "0", "-1"]],
    name="mixed",
)


def mixed_points() -> list:
    """Ten points of MIXED: singular at 2, not Lorentzian at 5, not evaluable at 7."""
    points = [(1.0 + 0.1 * k, 0.2 * k, 1.0 + 0.05 * k, 0.3) for k in range(10)]
    points[2] = (0.0, 0.4, 1.1, 0.3)
    points[5] = (-1.0, 1.0, 1.25, 0.3)
    points[7] = (1.7, 1.4, -1.0, 0.3)
    return points


# the errors of the three bad points, as the one-point path gives them
MIXED_ERRORS = {
    2: "metric of 'mixed' is singular at (0.0, 0.4, 1.1, 0.3) (det=0.000e+00)",
    5: "metric of 'mixed' is not Lorentzian at (-1.0, 1.0, 1.25, 0.3) (det=1.112e+00)",
    7: "metric of 'mixed' not evaluable at (1.7, 1.4, -1.0, 0.3): sqrt of negative value in 'sqrt(y)'",
}


def test_block_rejects_exactly_the_points_that_raise_alone():
    points = np.array(mixed_points())
    for k, message in MIXED_ERRORS.items():
        with pytest.raises(SingularMetricError) as err:
            geo.curvature(MIXED, points[k])
        assert str(err.value) == message
    # blocks of four: the first holds the singular point; the second the
    # non-Lorentzian point and the point whose jet of g_yy fails
    jets = ex.ChunkJets(MIXED.coords, points, MIXED.params)
    errors = {}
    for first in range(0, 10, 4):
        stop = min(first + 4, 10)
        pm, mjets = geo.metric_at(MIXED, points[first:stop], jet=jets.block(first, stop))
        block = geo.curvature(MIXED, points[first:stop], jet=jets.block(first, stop))
        assert mjets.errors.keys() == block.errors.keys() and pm.errors.keys() <= mjets.errors.keys()
        errors.update({first + k: str(err) for k, err in block.errors.items()})
        for k in range(stop - first):
            if k not in block.errors:
                assert_lane_is_the_point_alone(block, k, geo.curvature(MIXED, points[first + k]))
    assert errors == MIXED_ERRORS


def _errors(errors: dict) -> list:
    return [(k, type(err).__name__, str(err)) for k, err in errors.items()]


def assert_bundle_is_the_block_alone(got, want):
    """The bundle ``got`` is bitwise ``want``: every array, the point metric and its tables, the errors."""
    for name in _BUNDLE:
        assert np.shape(getattr(got, name)) == np.shape(getattr(want, name)), name
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian"):
        assert _bits(getattr(got.metric, name)) == _bits(getattr(want.metric, name)), name
    for key in TABLE_NAMES:
        assert _bits(got.metric.table(key)) == _bits(want.metric.table(key)), key
    assert _errors(got.metric.errors) == _errors(want.metric.errors)
    assert _errors(got.errors) == _errors(want.errors)


def chunk_blocks(spec, points, block: int, chunk: int):
    """``(first point, bundle)`` of each block, sliced from its chunk's bundle as the point loop does."""
    for start in range(0, len(points), chunk):
        pts = points[start:start + chunk]
        jets = ex.ChunkJets(spec.coords, pts, spec.params)
        whole = geo.curvature(spec, pts, jet=jets.block(0, len(pts)))
        for first in range(0, len(pts), block):
            stop = min(first + block, len(pts))
            yield start + first, whole.block(first, stop, jets.block(first, stop))


BLOCK_CHUNK_SIZES = [(16, 256), (16, 48), (5, 37), (4, 4), (1, 3)]


@pytest.mark.parametrize("block, chunk", BLOCK_CHUNK_SIZES)
@pytest.mark.parametrize("key", sorted(BLOCK_CASES))
def test_blocks_of_a_chunk_bundle_are_each_block_alone_bitwise(key, block, chunk):
    # the points cross a chunk boundary and end in a short block
    spec, (lo, hi) = BLOCK_CASES[key]
    points = np.random.default_rng(12).uniform(lo, hi, size=(chunk + block + 2, 4))
    for first, got in chunk_blocks(spec, points, block, chunk):
        want = geo.curvature(spec, points[first:first + len(got.point)])
        assert_bundle_is_the_block_alone(got, want)
        for name in _BUNDLE:
            if name != "scalar" or block > 1:
                assert not getattr(got, name).flags.writeable, name
        for name in ("g", "ginv", "sqrt_abs_det", "sign_det", "lorentzian"):
            assert not getattr(got.metric, name).flags.writeable, name


@pytest.mark.parametrize("block, chunk", [(4, 12), (3, 7), (2, 5), (1, 2)])
def test_rejected_points_across_block_and_chunk_boundaries_keep_their_errors(block, chunk):
    # MIXED's three bad points, each on either side of block and chunk boundaries
    good = [p for k, p in enumerate(mixed_points()) if k not in MIXED_ERRORS]
    bad = [mixed_points()[k] for k in MIXED_ERRORS]
    points = np.array([good[k % len(good)] for k in range(30)])
    at = sorted({i for b in range(block, 30, block) for i in (b - 1, b)} | {c for c in range(chunk, 30, chunk)})
    for n, i in enumerate(at):
        points[i] = bad[n % len(bad)]
    errors = {}
    for first, got in chunk_blocks(MIXED, points, block, chunk):
        assert_bundle_is_the_block_alone(got, geo.curvature(MIXED, points[first:first + len(got.point)]))
        errors.update({first + k: str(err) for k, err in got.errors.items()})
    assert errors == {i: MIXED_ERRORS[list(MIXED_ERRORS)[n % len(bad)]] for n, i in enumerate(at)}


ILL = geo.MetricSpec.from_strings(
    ("t", "x", "y", "z"),
    [["t", "y", "0", "0"], ["y", "x", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
    name="ill",
)


def test_block_rejects_what_the_point_metric_checks_and_validation_reject():
    # The determinant floors are relative to Hadamard's bound (the product of
    # the rows' norms).  metric_at rejects point 2: t x - y^2 is 1e-15 of t x.
    # Point 3 is accepted: its cotangent metric's determinant, -4.409e-15, is
    # small only because the metric's entries are near 1e8.  Point 4, which
    # rounds to (1429.80, 88.65, 356.02, 0), is ill-conditioned and accepted:
    # validation's metric compatibility holds only relative to the size of its
    # terms.  Every accepted lane is the point alone.
    points = np.array([(1.0 + 0.1 * k, -1.0, 0.1 * k, 0.0) for k in range(6)])
    points[2, :3] = (1121731.956830163, 5325304.725886299, -2444087.6602293462)
    points[3, :3] = (667559878.3362491, 447681333.5491468, 546882912.3762716)
    points[4, :3] = (1429.7973621448605, 88.64936474844573, 356.0221186483432)
    singular = ("metric of 'ill' is singular at (1121731.956830163, 5325304.725886299, "
                "-2444087.6602293462, 0.0) (det=-7.967e-03)")
    with pytest.raises(SingularMetricError, match=rf"^{re.escape(singular)}$"):
        geo.curvature(ILL, points[2])
    assert np.linalg.det(geo.curvature(ILL, points[3]).metric.g) == pytest.approx(-4.409e-15, rel=1e-3)
    _, jets = geo.metric_at(ILL, points)
    block = geo.curvature(ILL, points)
    assert {k: str(err) for k, err in jets.errors.items()} == {2: singular}
    assert {k: str(err) for k, err in block.errors.items()} == {2: singular}
    for k in (0, 1, 3, 4, 5):
        assert_lane_is_the_point_alone(block, k, geo.curvature(ILL, points[k]))


def test_a_singular_metric_is_still_rejected():
    # t x = y^2: the (t, x) block of ILL is singular, and so is its cotangent metric
    with pytest.raises(SingularMetricError,
                       match=r"^metric of 'ill' is singular at \(4.0, 1.0, 2.0, 0.0\) \(det=0.000e\+00\)$"):
        geo.curvature(ILL, (4.0, 1.0, 2.0, 0.0))
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    g[:2, :2] = [[4.0, 2.0], [2.0, 1.0]]
    with pytest.raises(DegenerateMetricError, match=r"^cotangent metric is singular \(det=0.000e\+00\)$"):
        PointMetric(g)


def break_identity(gd, k, at=()):
    """Break identity ``k`` (1-5, in ``_validate``'s order) of ``gd`` at block lane ``at``."""
    if k == 1:
        gd.riemann[at + (0, 1, 2, 3)] += 1.0
    elif k == 2:  # antisymmetric, but not cyclic
        gd.riemann[at + (0, 1, 2, 3)] += 1.0
        gd.riemann[at + (0, 1, 3, 2)] -= 1.0
    elif k == 3:
        gd.ricci[at + (0, 1)] += 1.0
    elif k == 4:
        gd.gamma[at + (0, 1, 2)] += 1.0
    else:
        gd.dg[at + (0, 1, 1)] += 1.0


def test_block_validation_matches_each_point_alone():
    # break one identity in each of lanes 1..5, and the same one at that point
    # alone; lane 0 stays intact
    spec = catalog_spec("schwarzschild")
    points = np.array([(0.1 * k, 4.0 + k, 1.0, 0.5) for k in range(6)])
    block = geo.curvature(spec, points)
    for k in range(1, 6):
        break_identity(block, k, (k,))
    errors = geo._validate(block)
    assert sorted(errors) == [1, 2, 3, 4, 5]
    broken = ("Riemann antisymmetry", "first Bianchi identity", "Ricci symmetry",
              "connection symmetry", "metric compatibility")
    assert geo._validate(geo.curvature(spec, points[0])) == {}
    for k, name in enumerate(broken, start=1):
        alone = geo.curvature(spec, points[k])
        break_identity(alone, k)
        with pytest.raises(GeometryError, match=f"^{name} violated") as err:
            geo._validate(alone)
        assert str(errors[k]) == str(err.value)


def test_lazy_oneforms_are_built_only_when_read():
    gd = geo.curvature(catalog_spec("flrw"), (1.3, 0.0, 0.4, -0.2))
    assert "ricci_oneforms" not in vars(gd)
    assert gd.ricci_oneforms is gd.ricci_oneforms
    assert "ricci_oneforms" in vars(gd)


# g_xx = -1 at x = 0, finite, but d_x g_xx = 1e308 overflows the Christoffel
# bracket there: Gamma, dGamma and Riemann hold inf and NaN
OVERFLOW = geo.MetricSpec.from_strings(
    ("t", "x", "y", "z"),
    [["1", "0", "0", "0"], ["0", "-1+1e308*x", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
    name="overflow",
)
OVERFLOW_POINT = (0.1, 0.0, 0.2, 0.3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validation_rejects_a_nan_connection():
    # NaN > bound is False: validation must fail a value that is not <= its bound
    with pytest.raises(GeometryError, match=r"^Riemann antisymmetry violated \(nan\)$"):
        geo.curvature(OVERFLOW, OVERFLOW_POINT)
    gd = geo.curvature(catalog_spec("minkowski"), OVERFLOW_POINT)
    gd.gamma[0, 1, 1] = gd.riemann[0, 1, 0, 1] = np.nan
    with pytest.raises(GeometryError, match=r"^Riemann antisymmetry violated \(nan\)$"):
        geo._validate(gd)
    points = np.array([OVERFLOW_POINT, (1.5, 0.0, -2.0, 0.7), (0.1, 0.5, 0.2, 0.3)])
    block = geo.curvature(OVERFLOW, points)
    assert {k: str(err) for k, err in block.errors.items()} == {
        0: "Riemann antisymmetry violated (nan)",
        1: "Riemann antisymmetry violated (nan)",
        2: "metric of 'overflow' is not Lorentzian at (0.1, 0.5, 0.2, 0.3) (det=5.000e+307)",
    }


# -- no points -------------------------------------------------------------------

# each source raised on no points: a power read its exponent at the first point,
# and a function of math's gave no jet at all
EMPTY_SOURCES = ["r^2", "pow(r, 2)", "r^0.5", "exp(r)"]


@pytest.mark.parametrize("case", [*geo.CATALOG, *EMPTY_SOURCES])
def test_no_points_give_empty_arrays_and_no_errors(case):
    none = np.zeros((0, 4))
    if case in geo.CATALOG:
        spec = catalog_spec(case)
        pm, jets = geo.metric_at(spec, none)
        assert (jets.val.shape, jets.grad.shape, jets.hess.shape) == ((0, 4, 4), (0, 4, 4, 4), (0, 4, 4, 4, 4))
        assert pm.g.shape == (0, 4, 4) and jets.errors == {} and pm.errors == {}
        gd = geo.curvature(spec, none)
        shapes = {"point": (4,), "g_lower": (4, 4), "g_upper": (4, 4), "sqrt_abs_det": (), "dg": (4, 4, 4),
                  "dg_upper": (4, 4, 4), "gamma": (4, 4, 4), "dgamma": (4, 4, 4, 4), "riemann": (4, 4, 4, 4),
                  "ricci": (4, 4), "scalar": ()}
        assert {name: np.shape(getattr(gd, name)) for name in _BUNDLE} == {
            name: (0, *shape) for name, shape in shapes.items()}
        assert gd.errors == {}
        return
    e = ex.parse(case)
    coords = ("t", "r", "theta", "phi")
    for jet in (ex.evaluate_jet2(e, coords, none), ex.ChunkJets(coords, none, sources=[e]).block(0, 0)(e)):
        assert (jet.val.shape, jet.grad.shape, jet.hess.shape) == ((0,), (0, 4), (0, 4, 4))
        assert jet.errors == {}
