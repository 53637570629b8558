"""Pointwise pseudo-Riemannian geometry from closed-form metric components.

All derivatives come from second-order jets of the metric expressions, so
Christoffel symbols, their first derivatives and the curvature tensors are
exact to rounding; finite differences appear only in test oracles.

Conventions (validated by the commutator unit tests):

    Gamma^r_{ab} = 1/2 g^{rl} (d_a g_{lb} + d_b g_{la} - d_l g_{ab})
    R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s}
                    + Gamma^r_{mu l} Gamma^l_{nu s} - Gamma^r_{nu l} Gamma^l_{mu s}
    Ricci_{n s}  = R^m_{n s m}          (so that [D_s, D_m] K_n = -R^r_{n s m} K_r
                                         and box K = K_a Ricci^a for Killing K;
                                         note this is minus the textbook
                                         first-third slot contraction)
    R            = g^{ns} Ricci_{n s}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .algebra import Multivector, PointMetric
from .errors import ExprError, GeometryError, SingularMetricError


@dataclass(frozen=True)
class MetricSpec:
    """Spacetime chart: coordinate names, covariant metric components, parameters."""

    coords: tuple
    g_lower: tuple  # 4x4 nested tuple of Expr for g_{mu nu}(x)
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = "custom"
    domain: Mapping[str, tuple] = field(default_factory=dict)  # coord -> (lo, hi)

    def __post_init__(self):
        if len(self.coords) != 4 or len(set(self.coords)) != 4:
            raise GeometryError("metric needs 4 distinct coordinate names")
        if len(self.g_lower) != 4 or any(len(row) != 4 for row in self.g_lower):
            raise GeometryError("metric components must form a 4x4 array")
        for i in range(4):
            for j in range(i + 1, 4):
                if self.g_lower[i][j] != self.g_lower[j][i]:
                    raise GeometryError(
                        f"metric component array is not symmetric at ({i},{j})"
                    )
        known = set(self.coords) | set(self.params)
        for i in range(4):
            for j in range(4):
                missing = ex.free_names(self.g_lower[i][j]) - known
                if missing:
                    raise GeometryError(
                        f"metric component ({i},{j}) uses undeclared names {sorted(missing)}"
                    )

    @classmethod
    def from_strings(cls, coords, rows, params=None, name="custom", domain=None):
        parsed = tuple(
            tuple(ex.parse(src) if isinstance(src, str) else ex.const(src) for src in row)
            for row in rows
        )
        return cls(tuple(coords), parsed, dict(params or {}), name, dict(domain or {}))

    def domain_box(self) -> dict:
        """Effective sampling box; defaults to [-2, 2] per missing coordinate."""
        return {c: tuple(self.domain.get(c, (-2.0, 2.0))) for c in self.coords}


@dataclass
class MetricJets:
    """Metric values and first/second partials at one point."""

    values: np.ndarray  # (4,4)
    dg: np.ndarray  # (4,4,4): dg[s, m, n] = d_s g_{mn}
    ddg: np.ndarray  # (4,4,4,4): ddg[s, r, m, n] = d_s d_r g_{mn}


@dataclass
class GeometryData:
    """Full curvature bundle at one point."""

    spec: MetricSpec
    point: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    sqrt_abs_det: float
    dg: np.ndarray
    gamma: np.ndarray  # Gamma^r_{ab} -> gamma[r, a, b]
    dgamma: np.ndarray  # d_s Gamma^r_{ab} -> dgamma[s, r, a, b]
    riemann: np.ndarray  # R^r_{s mu nu} -> riemann[r, s, mu, nu]
    ricci: np.ndarray
    scalar: float
    ricci_oneforms: tuple  # 4 Multivectors R^mu_nu gamma^nu
    einstein_oneforms: tuple
    metric: PointMetric


def metric_at(spec: MetricSpec, x: Sequence[float], jet: Callable | None = None) -> tuple:
    """Evaluate the metric and its jets; returns ``(PointMetric, MetricJets)``.

    ``jet(e)`` is the jet of component ``e`` at ``x`` (for example one lane of
    an :class:`~cliffcheck.expr.ChunkJets`); by default it is evaluated here.
    """
    x = np.asarray(x, dtype=float)
    if jet is None:
        jet = ex.point_jets(spec.coords, x, spec.params)
    values = np.zeros((4, 4))
    dg = np.zeros((4, 4, 4))
    ddg = np.zeros((4, 4, 4, 4))
    try:
        for i in range(4):
            for j in range(i, 4):
                jij = jet(spec.g_lower[i][j])
                values[i, j] = values[j, i] = jij.val
                dg[:, i, j] = dg[:, j, i] = jij.grad
                ddg[:, :, i, j] = ddg[:, :, j, i] = jij.hess
    except ExprError as err:
        raise SingularMetricError(
            f"metric of '{spec.name}' not evaluable at {tuple(x)}: {err}"
        ) from err
    det = np.linalg.det(values)
    if not np.isfinite(det) or abs(det) < 1e-14:
        raise SingularMetricError(
            f"metric of '{spec.name}' is singular at {tuple(x)} (det={det:.3e})"
        )
    if det >= 0.0:
        raise SingularMetricError(
            f"metric of '{spec.name}' is not Lorentzian at {tuple(x)} (det={det:.3e})"
        )
    pm = PointMetric.from_tangent_metric(values)
    return pm, MetricJets(values, dg, ddg)


def christoffels(spec: MetricSpec, x: Sequence[float]) -> tuple:
    """Levi-Civita coefficients and their first derivatives at ``x``."""
    pm, jets = metric_at(spec, x)
    return _christoffels_from_jets(pm.g, jets)


def _christoffels_from_jets(g_upper: np.ndarray, jets: MetricJets) -> tuple:
    dg, ddg = jets.dg, jets.ddg
    # bracket[l, a, b] = d_a g_{lb} + d_b g_{la} - d_l g_{ab}
    bracket = np.einsum("alb->lab", dg) + np.einsum("bla->lab", dg) - dg
    gamma = 0.5 * np.einsum("rl,lab->rab", g_upper, bracket)
    # d_s g^{rl} = -g^{ra} (d_s g_{ab}) g^{bl}
    dgu = -np.einsum("ra,sab,bl->srl", g_upper, dg, g_upper)
    # dbracket[s, l, a, b] = d_s bracket[l, a, b]
    dbracket = np.einsum("salb->slab", ddg) + np.einsum("sbla->slab", ddg) - ddg
    dgamma = 0.5 * (
        np.einsum("srl,lab->srab", dgu, bracket)
        + np.einsum("rl,slab->srab", g_upper, dbracket)
    )
    return gamma, dgamma


def curvature(spec: MetricSpec, x: Sequence[float], validate: bool = True,
              jet: Callable | None = None) -> GeometryData:
    """Evaluate the full geometry bundle at ``x``; ``jet`` as in :func:`metric_at`."""
    pm, jets = metric_at(spec, x, jet)
    gamma, dgamma = _christoffels_from_jets(pm.g, jets)

    # R^r_{s mu nu} = d_mu G^r_{nu s} - d_nu G^r_{mu s} + G^r_{mu l} G^l_{nu s}
    #                 - G^r_{nu l} G^l_{mu s}, with dgamma[s,r,a,b] = d_s G^r_{ab}
    riemann = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma)
        - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )
    ricci = np.einsum("mnsm->ns", riemann)
    scalar = float(np.einsum("ns,ns->", pm.g, ricci))

    mixed = pm.g @ ricci  # R^m_n
    ricci_oneforms = tuple(_oneform(mixed[mu]) for mu in range(4))
    einstein_mixed = mixed - 0.5 * scalar * np.eye(4)
    einstein_oneforms = tuple(_oneform(einstein_mixed[mu]) for mu in range(4))

    gd = GeometryData(
        spec=spec,
        point=np.asarray(x, dtype=float),
        g_lower=jets.values,
        g_upper=pm.g,
        sqrt_abs_det=pm.sqrt_abs_det,
        dg=jets.dg,
        gamma=gamma,
        dgamma=dgamma,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        ricci_oneforms=ricci_oneforms,
        einstein_oneforms=einstein_oneforms,
        metric=pm,
    )
    if validate:
        _validate(gd)
    return gd


def _oneform(components: np.ndarray) -> Multivector:
    coeffs = np.zeros(16)
    for nu in range(4):
        coeffs[1 << nu] = components[nu]
    return Multivector(coeffs)


def _validate(gd: GeometryData):
    scale = max(1.0, float(np.max(np.abs(gd.riemann))))
    anti = np.max(np.abs(gd.riemann + gd.riemann.transpose(0, 1, 3, 2)))
    if anti > 1e-10 * scale:
        raise GeometryError(f"Riemann antisymmetry violated ({anti:.3e})")
    bianchi = gd.riemann + gd.riemann.transpose(0, 2, 3, 1) + gd.riemann.transpose(0, 3, 1, 2)
    if np.max(np.abs(bianchi)) > 1e-10 * scale:
        raise GeometryError(f"first Bianchi identity violated ({np.max(np.abs(bianchi)):.3e})")
    sym = np.max(np.abs(gd.ricci - gd.ricci.T))
    if sym > 1e-10 * max(1.0, float(np.max(np.abs(gd.ricci)))):
        raise GeometryError(f"Ricci symmetry violated ({sym:.3e})")
    gsym = np.max(np.abs(gd.gamma - gd.gamma.transpose(0, 2, 1)))
    if gsym > 1e-11 * max(1.0, float(np.max(np.abs(gd.gamma)))):
        raise GeometryError(f"connection symmetry violated ({gsym:.3e})")
    # metric compatibility: d_s g_{mn} - Gamma^r_{sm} g_{rn} - Gamma^r_{sn} g_{mr} = 0
    compat = (
        gd.dg
        - np.einsum("rsm,rn->smn", gd.gamma, gd.g_lower)
        - np.einsum("rsn,mr->smn", gd.gamma, gd.g_lower)
    )
    if np.max(np.abs(compat)) > 1e-11 * max(1.0, float(np.max(np.abs(gd.dg)))):
        raise GeometryError(f"metric compatibility violated ({np.max(np.abs(compat)):.3e})")


def volume_form(gd: GeometryData) -> Multivector:
    return gd.metric.volume_form()


# -- builtin catalog -----------------------------------------------------------


@dataclass(frozen=True)
class KillingForm:
    """Named Killing 1-form, stored as blade-component expressions."""

    name: str
    components: Mapping[str, str]  # coordinate name -> expression source


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    description: str
    param_doc: Mapping[str, str]
    coords: tuple
    domain: Mapping[str, tuple]
    killing: tuple
    _builder: object

    def build(self, params: Mapping | None = None) -> MetricSpec:
        return self._builder(dict(params or {}))


def _build_minkowski(params: Mapping) -> MetricSpec:
    if params:
        raise GeometryError(f"minkowski takes no parameters, got {sorted(params)}")
    rows = [["0"] * 4 for _ in range(4)]
    for i, v in enumerate(("1", "-1", "-1", "-1")):
        rows[i][i] = v
    return MetricSpec.from_strings(
        ("t", "x", "y", "z"), rows, {}, "minkowski", _CATALOG_DOMAINS["minkowski"]
    )


def _build_schwarzschild(params: Mapping) -> MetricSpec:
    mass = float(params.pop("M", 1.0))
    if params:
        raise GeometryError(f"schwarzschild takes only parameter M, got {sorted(params)}")
    if mass <= 0.0:
        raise GeometryError("schwarzschild mass M must be positive")
    rows = [["0"] * 4 for _ in range(4)]
    rows[0][0] = "1-2*M/r"
    rows[1][1] = "-1/(1-2*M/r)"
    rows[2][2] = "-r^2"
    rows[3][3] = "-r^2*sin(theta)^2"
    return MetricSpec.from_strings(
        ("t", "r", "theta", "phi"),
        rows,
        {"M": mass},
        "schwarzschild",
        _CATALOG_DOMAINS["schwarzschild"],
    )


def _build_flrw(params: Mapping) -> MetricSpec:
    a_src = str(params.pop("a", "t"))
    if params:
        raise GeometryError(f"flrw takes only the scale-factor expression a, got {sorted(params)}")
    a_expr = ex.parse(a_src)
    extra = ex.free_names(a_expr) - {"t"}
    if extra:
        raise GeometryError(f"flrw scale factor may only depend on t, uses {sorted(extra)}")
    neg_a2 = ex.Neg(ex.Pow(a_expr, ex.const(2)))
    zero, one = ex.const(0), ex.const(1)
    comps = [[zero] * 4 for _ in range(4)]
    comps[0][0] = one
    for i in (1, 2, 3):
        comps[i][i] = neg_a2
    return MetricSpec(
        ("t", "x", "y", "z"),
        tuple(tuple(row) for row in comps),
        {},
        "flrw",
        dict(_CATALOG_DOMAINS["flrw"]),
    )


_CATALOG_DOMAINS = {
    "minkowski": {"t": (-3.0, 3.0), "x": (-3.0, 3.0), "y": (-3.0, 3.0), "z": (-3.0, 3.0)},
    "schwarzschild": {"t": (-3.0, 3.0), "r": (2.5, 20.0), "theta": (0.35, 2.8), "phi": (0.0, 6.2)},
    "flrw": {"t": (0.4, 3.0), "x": (-3.0, 3.0), "y": (-3.0, 3.0), "z": (-3.0, 3.0)},
}

_MINKOWSKI_KILLING = (
    KillingForm("dt-dual", {"t": "1"}),
    KillingForm("dx-dual", {"x": "-1"}),
    KillingForm("dy-dual", {"y": "-1"}),
    KillingForm("dz-dual", {"z": "-1"}),
    KillingForm("rot-xy", {"x": "y", "y": "-x"}),
    KillingForm("rot-yz", {"y": "z", "z": "-y"}),
    KillingForm("rot-zx", {"z": "x", "x": "-z"}),
    KillingForm("boost-tx", {"t": "x", "x": "-t"}),
    KillingForm("boost-ty", {"t": "y", "y": "-t"}),
    KillingForm("boost-tz", {"t": "z", "z": "-t"}),
)


def _flrw_killing_sources(a_src: str = "t") -> tuple:
    comp = f"-({a_src})^2"
    return (
        KillingForm("dx-dual", {"x": comp}),
        KillingForm("dy-dual", {"y": comp}),
        KillingForm("dz-dual", {"z": comp}),
    )


CATALOG = {
    "minkowski": CatalogEntry(
        key="minkowski",
        description="flat spacetime, diag(1,-1,-1,-1)",
        param_doc={},
        coords=("t", "x", "y", "z"),
        domain=_CATALOG_DOMAINS["minkowski"],
        killing=_MINKOWSKI_KILLING,
        _builder=_build_minkowski,
    ),
    "schwarzschild": CatalogEntry(
        key="schwarzschild",
        description="static spherically symmetric vacuum, areal radius chart",
        param_doc={"M": "mass (default 1)"},
        coords=("t", "r", "theta", "phi"),
        domain=_CATALOG_DOMAINS["schwarzschild"],
        killing=(
            KillingForm("dt-dual", {"t": "1-2*M/r"}),
            KillingForm("dphi-dual", {"phi": "-r^2*sin(theta)^2"}),
        ),
        _builder=_build_schwarzschild,
    ),
    "flrw": CatalogEntry(
        key="flrw",
        description="spatially flat cosmology dt^2 - a(t)^2 (dx^2+dy^2+dz^2)",
        param_doc={"a": "scale-factor expression in t (default 't')"},
        coords=("t", "x", "y", "z"),
        domain=_CATALOG_DOMAINS["flrw"],
        killing=_flrw_killing_sources(),
        _builder=_build_flrw,
    ),
}


def build_metric(key: str, params: Mapping | None = None) -> MetricSpec:
    try:
        entry = CATALOG[key]
    except KeyError:
        raise GeometryError(
            f"unknown builtin metric '{key}' (known: {', '.join(sorted(CATALOG))})"
        ) from None
    return entry.build(params)


def killing_forms(key: str, params: Mapping | None = None) -> tuple:
    """Killing 1-forms of a builtin metric, with parameter-aware components."""
    entry = CATALOG[key]
    if key == "flrw":
        return _flrw_killing_sources(str((params or {}).get("a", "t")))
    return entry.killing
